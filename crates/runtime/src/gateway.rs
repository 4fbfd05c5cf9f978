//! Open-loop load generation and end-to-end latency measurement.

use std::cell::RefCell;
use std::rc::Rc;

use hm_common::metrics::Histogram;
use hm_common::observe::OpCtx;
use hm_common::Value;
use hm_substrate::Time;
use rand::rngs::SmallRng;

use crate::runtime::Runtime;

/// Produces the next request: `(function name, input)`. Receives the
/// simulation RNG and the request index for key sampling.
pub type RequestFactory = Rc<dyn Fn(&mut SmallRng, u64) -> (String, Value)>;

/// One load-generation run.
#[derive(Clone)]
pub struct LoadSpec {
    /// Open-loop arrival rate, requests per second.
    pub rate_per_sec: f64,
    /// Generation window (after warmup).
    pub duration: Time,
    /// Requests arriving during warmup are executed but not recorded.
    pub warmup: Time,
    /// Request generator.
    pub factory: RequestFactory,
}

/// Results of one load run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// End-to-end request latency (measured window only).
    pub latency: Histogram,
    /// Requests generated in the measured window.
    pub generated: u64,
    /// Requests completed successfully in the measured window.
    pub completed: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Requests still in flight when the drain's grace period ran out:
    /// neither completed nor errored, and left running.
    pub unfinished: u64,
    /// Largest observed request queue depth at the admission semaphore.
    pub peak_queue: usize,
    /// Log appends sequenced by each shard during the measured window
    /// (from the first measured arrival to the end of the drain), in
    /// shard order. A single-shard deployment reports one entry.
    pub per_shard_appends: Vec<u64>,
}

/// The function gateway: generates Poisson arrivals and fans them into the
/// runtime, recording end-to-end latency.
pub struct Gateway {
    runtime: Runtime,
}

impl Gateway {
    /// Creates a gateway over a runtime.
    #[must_use]
    pub fn new(runtime: Runtime) -> Gateway {
        Gateway { runtime }
    }

    /// Runs an open-loop experiment and waits for in-flight requests to
    /// drain (up to a 30 s grace period) before reporting; measured requests
    /// the grace cuts off count as [`LoadReport::unfinished`].
    pub async fn run_open_loop(&self, spec: LoadSpec) -> LoadReport {
        let ctx = self.runtime.client().ctx().clone();
        let report = Rc::new(RefCell::new(LoadReport::default()));
        let in_flight = Rc::new(std::cell::Cell::new(0u64));
        let deadline = ctx.now() + spec.warmup + spec.duration;
        let measure_from = ctx.now() + spec.warmup;
        // Per-shard append baseline, snapshotted synchronously at the
        // first measured arrival (no extra task or timer, so traced and
        // untraced interleavings are untouched).
        let mut appends_at_measure: Option<Vec<u64>> = None;
        let mut seq = 0u64;
        while ctx.now() < deadline {
            let gap =
                ctx.with_rng(|rng| hm_common::dist::exp_interarrival_secs(rng, spec.rate_per_sec));
            ctx.sleep(Time::from_secs_f64(gap)).await;
            if ctx.now() >= deadline {
                break;
            }
            let (func, input) = ctx.with_rng(|rng| (spec.factory)(rng, seq));
            seq += 1;
            let measured = ctx.now() >= measure_from;
            if measured {
                report.borrow_mut().generated += 1;
                if appends_at_measure.is_none() {
                    appends_at_measure = Some(self.runtime.client().log().shard_appends());
                }
            }
            let runtime = self.runtime.clone();
            let report = report.clone();
            let in_flight = in_flight.clone();
            let ctx2 = ctx.clone();
            in_flight.set(in_flight.get() + 1);
            ctx.spawn_detached(async move {
                let started = ctx2.now();
                let queue = runtime.queued_requests();
                if queue > report.borrow().peak_queue {
                    report.borrow_mut().peak_queue = queue;
                }
                // Observed runs: each request gets its own context at the
                // arrival instant — a fresh trace rooted in a gateway-lane
                // span covering queueing + execution, and a phase sheet
                // whose base is `Admission`, so worker-slot queueing is
                // charged before the runtime ever sees it.
                let probe = runtime.client().probe();
                let octx =
                    probe.map_or_else(OpCtx::default, |p| p.request(started, || func.clone()));
                let result = runtime
                    .invoke_request_under(&func, input, octx.clone())
                    .await;
                let succeeded = result.is_ok();
                if measured {
                    let mut r = report.borrow_mut();
                    match result {
                        Ok(_) => {
                            r.completed += 1;
                            r.latency.record(ctx2.now() - started);
                        }
                        Err(_) => r.errors += 1,
                    }
                }
                // The sheet closes at the same instant the latency sample
                // records, so per-op phase sums reconcile with the e2e
                // histogram exactly. Warmup and errored requests are
                // abandoned to mirror what `latency` records.
                if let Some(p) = probe {
                    p.finish_request(&octx, ctx2.now(), measured && succeeded);
                }
                in_flight.set(in_flight.get() - 1);
            });
        }
        // Drain: wait for in-flight requests, bounded by a grace period.
        let grace = ctx.now() + Time::from_secs(30);
        while in_flight.get() > 0 && ctx.now() < grace {
            ctx.sleep(Time::from_millis(10)).await;
        }
        let mut report = report.borrow().clone();
        report.unfinished = report.generated - report.completed - report.errors;
        let end = self.runtime.client().log().shard_appends();
        report.per_shard_appends = match appends_at_measure {
            Some(base) => end
                .iter()
                .zip(&base)
                .map(|(&e, &b)| e.saturating_sub(b))
                .collect(),
            // No measured arrivals: the window is empty, report zeros.
            None => vec![0; end.len()],
        };
        report
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gateway({:?})", self.runtime)
    }
}
