//! Serverless runtime substrate: the FaaS platform Halfmoon runs on.
//!
//! The paper's testbed is eight function nodes behind a gateway (§6 setup).
//! This crate models that topology on the simulation core:
//!
//! - [`Runtime`] — function registry, node pool with bounded worker slots,
//!   crash detection and re-execution, and optional *peer duplication*
//!   (launching a concurrent instance of an SSF that appears to have timed
//!   out — the §5.1 race). It implements [`halfmoon::Invoker`], so child
//!   invocations inside workflows go through the same machinery.
//! - [`Gateway`] — an open-loop Poisson load generator with end-to-end
//!   latency recording; the saturation knees in Figure 11 come from the
//!   bounded worker pool.
//! - [`GcDriver`] — periodic garbage collection (§4.5), with a
//!   configurable interval (Figure 12 sweeps 10 s and 60 s).
//! - [`MetricsDriver`] — opt-in periodic sampling of the deployment's
//!   counter structs (log, store, per shard, recovery, group commit) into
//!   a [`hm_common::trace::MetricsRegistry`] time series.
//! - [`chaos`] — the chaos engine: [`ChaosDriver`] walks a
//!   [`halfmoon::FaultPlan`]'s schedule on the virtual clock (node
//!   crashes, replica outages, sequencer stalls, retry storms) and
//!   [`chaos::audit`] verifies exactly-once execution afterwards.
//! - [`mc`] — the systematic model checker: where [`chaos`] *samples*
//!   schedules and crash points, [`mc::explore_config`] *enumerates* them
//!   (DFS with sleep-set pruning over an explicit choice-point tree) and
//!   checks the §4.4 propositions on every interleaving, returning any
//!   violation as a replayable [`hm_substrate::explore::Schedule`].

pub mod chaos;
mod gateway;
mod gc_driver;
pub mod mc;
mod metrics_driver;
mod runtime;

pub use chaos::{audit, AuditReport, ChaosDriver};
pub use gateway::{Gateway, LoadReport, LoadSpec, RequestFactory};
pub use gc_driver::GcDriver;
pub use mc::{explore_config, run_schedule, McConfig, McKey, McOutcome, OpSpec};
pub use metrics_driver::MetricsDriver;
pub use runtime::{Runtime, RuntimeConfig, DETECTION_DELAY};
