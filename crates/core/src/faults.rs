//! The unified fault-injection surface.
//!
//! Two layers:
//!
//! - [`FaultPolicy`] — *instance* crash points: decides whether one SSF
//!   execution attempt dies at a given crash point, each of which sits in
//!   one of the §4 windows named by [`Site`]. Consulted by
//!   `Env::maybe_crash` on the protocol hot path. Under
//!   [`FaultPolicy::explored`] each crash point is a choice of a model
//!   checker's source; which actions a crash commutes with (its
//!   footprint) is the checker's to decide, not this crate's.
//! - [`FaultPlan`] — the whole campaign: an instance policy plus a
//!   declarative schedule of infrastructure faults ([`FaultEvent`]) at
//!   virtual times — whole-function-node crashes (§5 recovery), storage
//!   replica outages per shard, sequencer stalls, and gateway retry
//!   storms. A `hm_runtime::chaos::ChaosDriver` compiles the schedule
//!   into sim events and injects them; the core crate only carries the
//!   description, so protocols stay runtime-agnostic.
//!
//! Scheduled triggers are either pinned explicitly (`crash_node_at`,
//! `fail_replica_at`, …) or expanded from a seeded Bernoulli process
//! ([`FaultPlan::seeded_node_crashes`]) drawn from the plan's *own*
//! `SmallRng` — never the simulation RNG, so attaching a plan perturbs
//! nothing until its events actually fire.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use hm_common::{FxHashMap, FxHashSet, InstanceId, NodeId};
use hm_sharedlog::ShardId;
use hm_substrate::explore::{Alt, ChoiceSource};
use hm_substrate::Ctx;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The §4 window a crash point sits in. Every crash point an op exposes
/// is one of these; `crates/core/tests/protocols.rs`'s single-crash sweep
/// pins which numbered point of each protocol's body is which site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// Before a read or write does anything, right after its protocol is
    /// resolved.
    OpEntry,
    /// After init fetched the step log, before the init record.
    Init,
    /// Before a store write or a child invoke.
    BeforeEffect,
    /// Inside the dual write: the version is installed, LATEST is not yet
    /// updated.
    BetweenEffects,
    /// The effect or observation is done but not yet logged.
    AfterEffect,
    /// Before the finish record, with nothing else to do.
    BeforeAppend,
}

impl Site {
    /// Every site, in declaration order.
    pub const ALL: [Site; 6] = [
        Site::OpEntry,
        Site::Init,
        Site::BeforeEffect,
        Site::BetweenEffects,
        Site::AfterEffect,
        Site::BeforeAppend,
    ];
}

/// Fault-injection policy: decides whether an instance crashes at a given
/// crash point. Crash points are numbered per execution attempt, and each
/// sits at one [`Site`].
#[derive(Debug)]
pub struct FaultPolicy {
    mode: FaultMode,
    injected: Cell<u32>,
    /// Crashes injected per [`Site`], indexed by its discriminant; touched
    /// only when a crash fires.
    per_site: Cell<[u32; Site::ALL.len()]>,
    /// Hard cap so randomized tests always terminate.
    max_crashes: u32,
}

enum FaultMode {
    None,
    /// Crash with this probability at every crash point.
    Random {
        prob: f64,
    },
    /// Crash exactly at the listed `(instance, point)` pairs, each once.
    At {
        points: RefCell<FxHashSet<(InstanceId, u32)>>,
    },
    /// Crash each execution *attempt* with this probability, at a uniformly
    /// random crash point — the Bernoulli-process model of §7. `max_point`
    /// bounds the drawn target; executions with fewer crash points simply
    /// survive that attempt (slightly deflating the effective rate).
    PerAttempt {
        prob: f64,
        max_point: u32,
        pending: RefCell<FxHashMap<InstanceId, u32>>,
    },
    /// Delegate every crash point to a systematic [`ChoiceSource`]
    /// (`hm_substrate::explore`): each `maybe_crash` call becomes an
    /// explicit binary {survive, crash} choice node, so an explorer
    /// enumerates *all* crash placements instead of sampling them.
    Explored {
        source: Rc<dyn ChoiceSource>,
    },
}

impl fmt::Debug for FaultMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultMode::None => f.write_str("None"),
            FaultMode::Random { prob } => f.debug_struct("Random").field("prob", prob).finish(),
            FaultMode::At { points } => f.debug_struct("At").field("points", points).finish(),
            FaultMode::PerAttempt {
                prob, max_point, ..
            } => f
                .debug_struct("PerAttempt")
                .field("prob", prob)
                .field("max_point", max_point)
                .finish_non_exhaustive(),
            FaultMode::Explored { .. } => f.debug_struct("Explored").finish_non_exhaustive(),
        }
    }
}

/// Tag bits distinguishing the survive/crash identities of one instance's
/// crash choices (the low bits carry the truncated instance id).
const SURVIVE_TAG: u64 = 1 << 40;
const CRASH_TAG: u64 = 1 << 41;

impl FaultPolicy {
    fn new(mode: FaultMode, max_crashes: u32) -> FaultPolicy {
        FaultPolicy {
            mode,
            injected: Cell::new(0),
            per_site: Cell::default(),
            max_crashes,
        }
    }

    /// Never crash.
    #[must_use]
    pub fn none() -> FaultPolicy {
        FaultPolicy::new(FaultMode::None, 0)
    }

    /// Crash with probability `prob` at every crash point, at most
    /// `max_crashes` times in total.
    #[must_use]
    pub fn random(prob: f64, max_crashes: u32) -> FaultPolicy {
        assert!((0.0..=1.0).contains(&prob));
        FaultPolicy::new(FaultMode::Random { prob }, max_crashes)
    }

    /// Crash each execution attempt with probability `prob`, at a uniform
    /// random point among the first `max_point` crash points (§7's
    /// Bernoulli-process failure model).
    #[must_use]
    pub fn per_attempt(prob: f64, max_point: u32, max_crashes: u32) -> FaultPolicy {
        assert!(
            (0.0..1.0).contains(&prob),
            "per-attempt crash probability must be < 1"
        );
        assert!(max_point >= 1);
        FaultPolicy::new(
            FaultMode::PerAttempt {
                prob,
                max_point,
                pending: RefCell::default(),
            },
            max_crashes,
        )
    }

    /// Delegate every crash point to a systematic choice source: each
    /// `Env::maybe_crash` consults `source` with a binary
    /// {survive, crash} domain (site `"crash"`), making crash placement
    /// part of an explorer's choice tree instead of an RNG draw. At most
    /// `budget` crashes are injected per run — once spent, later crash
    /// points are skipped without consulting the source, so they add no
    /// tree nodes. With `budget == 0` the policy is consulted never and
    /// the run explores pure scheduling nondeterminism.
    ///
    /// Both alternatives carry footprint `u64::MAX`, dependent on every
    /// action, which is always sound; a harness that knows the op at
    /// risk narrows it by wrapping `source` (`hm_runtime::mc` gives a
    /// crash the footprint of the running actor's turn).
    #[must_use]
    pub fn explored(source: Rc<dyn ChoiceSource>, budget: u32) -> FaultPolicy {
        FaultPolicy::new(FaultMode::Explored { source }, budget)
    }

    /// Crash exactly once at each listed `(instance, crash point)` pair.
    #[must_use]
    pub fn at(points: impl IntoIterator<Item = (InstanceId, u32)>) -> FaultPolicy {
        let points: FxHashSet<_> = points.into_iter().collect();
        let max = points.len() as u32;
        let points = RefCell::new(points);
        FaultPolicy::new(FaultMode::At { points }, max)
    }

    /// Decides whether `instance` crashes at crash point `point`, which
    /// sits at `site`.
    pub fn should_crash(&self, instance: InstanceId, point: u32, site: Site, ctx: &Ctx) -> bool {
        if self.injected.get() >= self.max_crashes {
            return false;
        }
        let crash = match &self.mode {
            FaultMode::None => false,
            FaultMode::Random { prob } => {
                ctx.with_rng(|rng| hm_common::dist::bernoulli(rng, *prob))
            }
            FaultMode::At { points } => points.borrow_mut().remove(&(instance, point)),
            FaultMode::PerAttempt {
                prob,
                max_point,
                pending,
            } => {
                let mut pending = pending.borrow_mut();
                if point == 1 {
                    // New attempt: decide its fate now.
                    if ctx.with_rng(|rng| hm_common::dist::bernoulli(rng, *prob)) {
                        let target = ctx.with_rng(|rng| rng.random_range(1..=*max_point));
                        pending.insert(instance, target);
                    } else {
                        pending.remove(&instance);
                    }
                }
                match pending.get(&instance) {
                    Some(target) if *target <= point => {
                        pending.remove(&instance);
                        true
                    }
                    _ => false,
                }
            }
            FaultMode::Explored { source } => {
                let who = instance.0 as u64 & (SURVIVE_TAG - 1);
                let alts = [
                    Alt::new(SURVIVE_TAG | who, u64::MAX),
                    Alt::new(CRASH_TAG | who, u64::MAX),
                ];
                source.choose("crash", &alts) == 1
            }
        };
        if crash {
            self.injected.set(self.injected.get() + 1);
            let mut per_site = self.per_site.get();
            per_site[site as usize] += 1;
            self.per_site.set(per_site);
        }
        crash
    }

    /// Number of crashes injected so far.
    #[must_use]
    pub fn injected(&self) -> u32 {
        self.injected.get()
    }

    /// Number of crashes injected so far at `site`.
    #[must_use]
    pub fn injected_at(&self, site: Site) -> u32 {
        self.per_site.get()[site as usize]
    }
}

/// One infrastructure fault a chaos campaign can inject.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// Kill a function node: every in-flight attempt on it is torn down,
    /// its record cache and opportunistic checkpoints are lost, and
    /// successors re-execute by replaying the shared log (§5).
    NodeCrash {
        /// The node to kill.
        node: NodeId,
    },
    /// Bring a crashed node back into the scheduling pool (cold caches).
    NodeRecover {
        /// The node to revive.
        node: NodeId,
    },
    /// Take one storage replica of `shard` down: appends routed there pay
    /// a degraded quorum until recovery.
    ReplicaOutage {
        /// The shard whose storage group degrades.
        shard: ShardId,
        /// Replica index within the group.
        replica: u32,
    },
    /// Bring a failed storage replica back.
    ReplicaRecover {
        /// The shard whose storage group heals.
        shard: ShardId,
        /// Replica index within the group.
        replica: u32,
    },
    /// Book `stall` of dead time on `shard`'s sequencer lane; ordering
    /// decisions routed there during the stall wait it out FIFO.
    SequencerStall {
        /// The shard whose sequencer pauses.
        shard: ShardId,
        /// How long the lane is dead.
        stall: Duration,
    },
    /// Raise the runtime's duplicate-delivery probability to
    /// `duplicate_prob` for `duration` — a gateway retry storm (the
    /// at-least-once delivery burst §2's anomalies assume).
    RetryStorm {
        /// Duplicate probability during the storm.
        duplicate_prob: f64,
        /// Storm length.
        duration: Duration,
    },
}

/// A [`FaultEvent`] pinned to a virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduledFault {
    /// Virtual time at which the fault fires.
    pub at: Duration,
    /// What happens.
    pub event: FaultEvent,
}

/// A whole chaos campaign: instance crash points plus a schedule of
/// infrastructure faults. Built fluently; consumed by
/// `Client::builder(..).faults(plan)` (or `set_fault_plan`) and driven by
/// the runtime's chaos driver.
///
/// ```
/// use std::time::Duration;
/// use halfmoon::{FaultPlan, FaultPolicy};
/// use hm_common::NodeId;
///
/// let plan = FaultPlan::new()
///     .instance_faults(FaultPolicy::random(0.01, 50))
///     .node_recovery_delay(Duration::from_millis(200))
///     .crash_node_at(Duration::from_secs(1), NodeId(3))
///     .retry_storm_at(Duration::from_secs(2), 0.5, Duration::from_millis(500));
/// assert_eq!(plan.schedule().len(), 3); // crash + recover + storm
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    instance: Rc<FaultPolicy>,
    schedule: Vec<ScheduledFault>,
    node_recovery_delay: Duration,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new()
    }
}

impl FaultPlan {
    /// An empty plan: no instance faults, no scheduled events.
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan {
            instance: Rc::new(FaultPolicy::none()),
            schedule: Vec::new(),
            node_recovery_delay: Duration::from_millis(500),
        }
    }

    /// Sets the instance crash-point policy.
    #[must_use]
    pub fn instance_faults(mut self, policy: FaultPolicy) -> FaultPlan {
        self.instance = Rc::new(policy);
        self
    }

    /// How long a crashed node stays down before it rejoins the pool.
    /// Applies to node crashes scheduled *after* this call.
    #[must_use]
    pub fn node_recovery_delay(mut self, delay: Duration) -> FaultPlan {
        self.node_recovery_delay = delay;
        self
    }

    /// Kills `node` at virtual time `at`; it rejoins (cold) after the
    /// current [`FaultPlan::node_recovery_delay`].
    #[must_use]
    pub fn crash_node_at(mut self, at: Duration, node: NodeId) -> FaultPlan {
        self.schedule.push(ScheduledFault {
            at,
            event: FaultEvent::NodeCrash { node },
        });
        self.schedule.push(ScheduledFault {
            at: at + self.node_recovery_delay,
            event: FaultEvent::NodeRecover { node },
        });
        self
    }

    /// Fails `replica` of `shard`'s storage group at `at`, recovering it
    /// after `outage`.
    #[must_use]
    pub fn fail_replica_at(
        mut self,
        at: Duration,
        shard: ShardId,
        replica: u32,
        outage: Duration,
    ) -> FaultPlan {
        self.schedule.push(ScheduledFault {
            at,
            event: FaultEvent::ReplicaOutage { shard, replica },
        });
        self.schedule.push(ScheduledFault {
            at: at + outage,
            event: FaultEvent::ReplicaRecover { shard, replica },
        });
        self
    }

    /// Stalls `shard`'s sequencer lane for `stall` starting at `at`.
    #[must_use]
    pub fn stall_sequencer_at(
        mut self,
        at: Duration,
        shard: ShardId,
        stall: Duration,
    ) -> FaultPlan {
        self.schedule.push(ScheduledFault {
            at,
            event: FaultEvent::SequencerStall { shard, stall },
        });
        self
    }

    /// Raises the runtime's duplicate-delivery probability to
    /// `duplicate_prob` between `at` and `at + duration`.
    #[must_use]
    pub fn retry_storm_at(
        mut self,
        at: Duration,
        duplicate_prob: f64,
        duration: Duration,
    ) -> FaultPlan {
        assert!((0.0..=1.0).contains(&duplicate_prob));
        self.schedule.push(ScheduledFault {
            at,
            event: FaultEvent::RetryStorm {
                duplicate_prob,
                duration,
            },
        });
        self
    }

    /// Expands a seeded Bernoulli node-crash process: at each `interval`
    /// boundary up to `horizon`, a crash fires with probability `prob`
    /// against a uniformly drawn node in `0..nodes` (recovering after the
    /// current [`FaultPlan::node_recovery_delay`]). Drawn from the plan's
    /// own `SmallRng` seeded with `seed` — fully determined by the
    /// arguments, independent of the simulation RNG.
    #[must_use]
    pub fn seeded_node_crashes(
        mut self,
        seed: u64,
        prob: f64,
        interval: Duration,
        horizon: Duration,
        nodes: u32,
    ) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob));
        assert!(!interval.is_zero() && nodes > 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut at = interval;
        while at <= horizon {
            if hm_common::dist::bernoulli(&mut rng, prob) {
                let node = NodeId(rng.random_range(0..nodes));
                self = self.crash_node_at(at, node);
            }
            at += interval;
        }
        self
    }

    /// The instance crash-point policy (shared handle; counters live on
    /// the policy, so every clone sees the injected count).
    #[must_use]
    pub fn instance_policy(&self) -> Rc<FaultPolicy> {
        self.instance.clone()
    }

    /// The scheduled infrastructure faults, sorted by fire time (ties keep
    /// insertion order, so a crash always precedes its paired recovery).
    #[must_use]
    pub fn schedule(&self) -> Vec<ScheduledFault> {
        let mut events = self.schedule.clone();
        events.sort_by_key(|e| e.at);
        events
    }
}

impl From<FaultPolicy> for FaultPlan {
    /// A plan with only instance crash points — the common case for
    /// builder-configured fault injection.
    fn from(policy: FaultPolicy) -> FaultPlan {
        FaultPlan::new().instance_faults(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_schedule_is_sorted_with_paired_recoveries() {
        let plan = FaultPlan::new()
            .node_recovery_delay(Duration::from_millis(100))
            .crash_node_at(Duration::from_secs(2), NodeId(1))
            .stall_sequencer_at(Duration::from_secs(1), ShardId(0), Duration::from_millis(5))
            .fail_replica_at(
                Duration::from_millis(1500),
                ShardId(0),
                2,
                Duration::from_secs(10),
            );
        let events = plan.schedule();
        let times: Vec<Duration> = events.iter().map(|e| e.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted, "schedule must come out time-ordered");
        assert_eq!(events.len(), 5, "crash+recover, stall, outage+recover");
        assert!(matches!(
            events[2].event,
            FaultEvent::NodeCrash { node: NodeId(1) }
        ));
        assert_eq!(
            events[3],
            ScheduledFault {
                at: Duration::from_millis(2100),
                event: FaultEvent::NodeRecover { node: NodeId(1) },
            }
        );
    }

    #[test]
    fn seeded_expansion_is_deterministic_and_seed_sensitive() {
        let expand = |seed| {
            FaultPlan::new()
                .seeded_node_crashes(
                    seed,
                    0.5,
                    Duration::from_millis(250),
                    Duration::from_secs(4),
                    8,
                )
                .schedule()
        };
        assert_eq!(expand(7), expand(7), "same seed, same schedule");
        assert_ne!(expand(7), expand(8), "different seed should diverge");
        assert!(
            expand(7)
                .iter()
                .any(|e| matches!(e.event, FaultEvent::NodeCrash { .. })),
            "p=0.5 over 16 intervals should fire at least once"
        );
    }
}
