//! Chaos engine: [`ChaosDriver`] compiles a [`FaultPlan`]'s schedule into
//! sim events. It walks the plan's time-sorted schedule on the virtual
//! clock and injects each [`FaultEvent`] against the runtime and its
//! substrates: whole-node crashes (§5 recovery), storage replica outages,
//! sequencer stalls, gateway retry storms. The schedule fires in order, so
//! the faults injected so far are its prefix; [`ChaosDriver::events_jsonl`]
//! exports that prefix deterministically, so two runs of the same seeded
//! campaign produce byte-identical traces.
//!
//! The surviving history is then judged by [`halfmoon::audit`], the one
//! exactly-once auditor, which lives beside the [`Recorder`]: the generic
//! idempotence checks plus the deployment's §4.4 proposition, with the
//! §5 recovery meters folded in. The audit is oblivious to log batching
//! by design — group commit must never change client-visible effects,
//! and `tests/batching.rs` runs a seeded campaign over a batched log
//! through this same auditor to pin that.
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

use halfmoon::{FaultEvent, ScheduledFault};

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
