//! Chaos engine: compiles a [`FaultPlan`]'s schedule into sim events and
//! audits the surviving history for exactly-once semantics.
//!
//! The engine has two halves:
//!
//! - [`ChaosDriver`] — walks the plan's time-sorted schedule on the virtual
//!   clock and injects each [`FaultEvent`] against the runtime and its
//!   substrates: whole-node crashes (§5 recovery), storage replica
//!   outages, sequencer stalls, gateway retry storms. The schedule fires
//!   in order, so the faults injected so far are its prefix;
//!   [`ChaosDriver::events_jsonl`] exports that prefix deterministically,
//!   so two runs of the same seeded campaign produce byte-identical
//!   traces.
//! - [`audit`] — the post-campaign exactly-once auditor: replays the
//!   deployment's [`Recorder`] history through every applicable
//!   consistency checker (generic idempotence plus the protocol-specific
//!   §4.4 propositions) and folds in the §5 recovery meters. The audit
//!   is oblivious to log batching by design — group commit must never
//!   change client-visible effects, and `tests/batching.rs` runs a
//!   seeded campaign over a batched log through this same auditor to
//!   pin that.
//!
//! A client built without faults never starts a driver and never pays for
//! one: the plan is empty, no task is spawned, and the runtime's task
//! groups poll their attempts directly.
//!
//! [`Recorder`]: halfmoon::Recorder
//! [`FaultPlan`]: halfmoon::FaultPlan

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;

use halfmoon::{Client, FaultEvent, ProtocolKind, RecoveryStats, ScheduledFault};

use crate::runtime::Runtime;

/// Handle to a running chaos campaign: the plan's time-sorted schedule and
/// how many of its faults have fired.
pub struct ChaosDriver {
    schedule: Rc<[ScheduledFault]>,
    injected: Rc<Cell<usize>>,
}

impl ChaosDriver {
    /// Starts driving the fault plan installed on the runtime's client.
    /// With an empty schedule this spawns nothing and returns an
    /// already-done driver — attaching chaos machinery to a fault-free
    /// deployment is free.
    #[must_use]
    pub fn start(runtime: &Runtime) -> ChaosDriver {
        let driver = ChaosDriver {
            schedule: runtime.client().fault_plan().schedule().into(),
            injected: Rc::new(Cell::new(0)),
        };
        if driver.schedule.is_empty() {
            return driver;
        }
        let (schedule, injected) = (driver.schedule.clone(), driver.injected.clone());
        let rt = runtime.clone();
        let ctx = runtime.client().ctx().clone();
        ctx.clone().spawn(async move {
            let baseline_duplicate_prob = rt.config().duplicate_prob;
            for &fault in schedule.iter() {
                ctx.sleep_until(fault.at).await;
                match fault.event {
                    FaultEvent::NodeCrash { node } => rt.crash_node(node),
                    FaultEvent::NodeRecover { node } => rt.recover_node(node),
                    FaultEvent::ReplicaOutage { shard, replica } => {
                        rt.client().log().fail_storage_replica_on(shard, replica);
                    }
                    FaultEvent::ReplicaRecover { shard, replica } => {
                        rt.client().log().recover_storage_replica_on(shard, replica);
                    }
                    FaultEvent::SequencerStall { shard, stall } => {
                        rt.client().log().stall_sequencer(shard, stall);
                    }
                    FaultEvent::RetryStorm {
                        duplicate_prob,
                        duration,
                    } => {
                        rt.set_duplicate_prob(duplicate_prob);
                        let rt = rt.clone();
                        let ctx = ctx.clone();
                        ctx.clone().spawn(async move {
                            ctx.sleep(duration).await;
                            rt.set_duplicate_prob(baseline_duplicate_prob);
                        });
                    }
                }
                injected.set(injected.get() + 1);
                // Mirror the injection into the flight recorder's incident
                // ring so a later dump shows which faults preceded the
                // failure.
                if let Some(p) = rt.client().probe() {
                    p.note(ctx.now(), "fault_injected", || format!("{:?}", fault.event));
                }
            }
        });
        driver
    }

    /// Faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.get() as u64
    }

    /// True once the whole schedule has fired.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.injected.get() == self.schedule.len()
    }

    /// The schedule's faults that have fired, in fire order.
    fn fired(&self) -> &[ScheduledFault] {
        &self.schedule[..self.injected.get()]
    }

    /// The injected faults in fire order.
    #[must_use]
    pub fn events(&self) -> Vec<ScheduledFault> {
        self.fired().to_vec()
    }

    /// Serializes the injected faults as JSONL, one event per line.
    /// Fully determined by the schedule: byte-identical across runs of the
    /// same campaign.
    #[must_use]
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for fault in self.fired() {
            let _ = write!(out, "{{\"at_ns\":{}", fault.at.as_nanos());
            match fault.event {
                FaultEvent::NodeCrash { node } => {
                    let _ = write!(out, ",\"event\":\"node_crash\",\"node\":{}", node.0);
                }
                FaultEvent::NodeRecover { node } => {
                    let _ = write!(out, ",\"event\":\"node_recover\",\"node\":{}", node.0);
                }
                FaultEvent::ReplicaOutage { shard, replica } => {
                    let _ = write!(
                        out,
                        ",\"event\":\"replica_outage\",\"shard\":{},\"replica\":{}",
                        shard.0, replica
                    );
                }
                FaultEvent::ReplicaRecover { shard, replica } => {
                    let _ = write!(
                        out,
                        ",\"event\":\"replica_recover\",\"shard\":{},\"replica\":{}",
                        shard.0, replica
                    );
                }
                FaultEvent::SequencerStall { shard, stall } => {
                    let _ = write!(
                        out,
                        ",\"event\":\"sequencer_stall\",\"shard\":{},\"stall_ns\":{}",
                        shard.0,
                        stall.as_nanos()
                    );
                }
                FaultEvent::RetryStorm {
                    duplicate_prob,
                    duration,
                } => {
                    let _ = write!(
                        out,
                        ",\"event\":\"retry_storm\",\"duplicate_prob\":{},\"duration_ns\":{}",
                        duplicate_prob,
                        duration.as_nanos()
                    );
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

impl std::fmt::Debug for ChaosDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ChaosDriver(injected={}, done={})",
            self.injected(),
            self.is_done()
        )
    }
}

/// What the post-campaign auditor concluded.
#[derive(Debug)]
pub struct AuditReport {
    /// History events examined.
    pub events: usize,
    /// Checks that ran, in order.
    pub checks: Vec<&'static str>,
    /// Violations found, as `"check: description"` lines.
    pub violations: Vec<String>,
    /// The deployment's cumulative §5 recovery meters.
    pub recovery: RecoveryStats,
}

impl AuditReport {
    /// True when every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.passed() {
            write!(
                f,
                "audit PASSED: {} events, {} checks, {} recovery attempts replayed {} records",
                self.events,
                self.checks.len(),
                self.recovery.attempts,
                self.recovery.replayed_records
            )
        } else {
            write!(f, "audit FAILED: {}", self.violations.join("; "))
        }
    }
}

/// Audits a deployment's recorded history for exactly-once execution.
///
/// Runs every protocol-independent idempotence check (read/invoke/write
/// stability, raw-write uniqueness, monotonic reads, read-your-writes),
/// then the §4.4 proposition matching the deployment's protocol when it
/// runs one uniformly: Proposition 4.7 sequential consistency for
/// Halfmoon-read, the Proposition 4.8 effective order for Halfmoon-write.
/// Mixed, switching, and baseline configurations get the generic checks
/// only.
///
/// The checks share one program-order sort of the history's entry
/// indices and never copy the history (DESIGN.md §13): a 100k-event audit
/// allocates about 8 bytes per event.
///
/// The client must have been built with `.recorder()`; auditing an
/// unrecorded deployment is itself reported as a violation rather than a
/// silent pass.
///
/// Beyond seeded chaos campaigns, this auditor is also the oracle for the
/// systematic model checker ([`crate::mc`], DESIGN.md §13): every
/// exhaustively explored interleaving ends in an `audit` call, so the
/// "verified over all interleavings" claims in EXPERIMENTS.md are claims
/// about exactly these checks.
#[must_use]
pub fn audit(client: &Client) -> AuditReport {
    let recovery = client.recovery_stats();
    let Some(recorder) = client.recorder() else {
        return AuditReport {
            events: 0,
            checks: Vec::new(),
            violations: vec!["setup: no recorder attached; nothing to audit".to_string()],
            recovery,
        };
    };
    let mut checks = Vec::new();
    let mut violations = Vec::new();
    let mut run = |name: &'static str, result: Result<(), String>| {
        checks.push(name);
        if let Err(msg) = result {
            violations.push(format!("{name}: {msg}"));
        }
    };
    run("read_stability", recorder.check_read_stability());
    run("invoke_stability", recorder.check_invoke_stability());
    run("write_determinism", recorder.check_write_determinism());
    run(
        "raw_write_uniqueness",
        recorder.check_raw_write_uniqueness(),
    );
    run("monotonic_reads", recorder.check_monotonic_reads());
    run("read_your_writes", recorder.check_read_your_writes());
    let uniform =
        client.with_config(|c| (!c.switching_enabled && c.per_key.is_empty()).then_some(c.default));
    match uniform {
        Some(ProtocolKind::HalfmoonRead) => run(
            "hm_read_sequential_consistency",
            recorder.check_hm_read_sequential_consistency(),
        ),
        Some(ProtocolKind::HalfmoonWrite) => {
            run("hm_write_order", recorder.check_hm_write_order());
        }
        _ => {}
    }
    // A failed audit is the flight recorder's primary trigger: dump the
    // black box (recent trace events, phase stamps, incident ring) so the
    // violating run leaves forensics behind, not just a message.
    if !violations.is_empty() {
        if let Some(p) = client.probe() {
            p.trigger(client.ctx().now(), "audit_violation", || {
                violations.join("; ")
            });
        }
    }
    AuditReport {
        events: recorder.len(),
        checks,
        violations,
        recovery,
    }
}
