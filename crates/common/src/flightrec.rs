//! Black-box flight recorder for post-mortem debugging of seeded failures.
//!
//! Chaos campaigns are deterministic, but "rerun with a bigger trace and
//! stare" is still a miserable debugging loop. The [`FlightRecorder`] keeps a
//! bounded window of recent activity — the tracer's per-lane event rings
//! ([`crate::trace::Tracer::recent_events`]), the anatomy layer's recent
//! per-op phase stamps ([`crate::anatomy::Anatomy::recent_rows`]), and its own
//! incident log — and dumps all of it to JSONL the moment something goes
//! wrong:
//!
//! - the chaos exactly-once auditor finds violations,
//! - a task panics (see [`FlightRecorder::on_panic`]), or
//! - `NodeCrashed` recovery exceeds the attempt budget
//!   ([`FlightRecorder::recovery_budget`]).
//!
//! The model-checking harness (DESIGN.md §18) notes each explored run's
//! serialized schedule into the incident log before auditing, so a
//! violation dump carries its own replay recipe (`mc_schedule`) alongside
//! the trace window.
//!
//! The dump is retained in memory ([`FlightRecorder::last_dump`]), so a
//! failing seeded run leaves a post-mortem artifact behind instead of just
//! an assert message.
//!
//! Like the tracer and anatomy layers, the recorder is passive bookkeeping:
//! it never sleeps, spawns, or draws randomness, so attaching it cannot
//! perturb a seeded run.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use crate::anatomy::Anatomy;
use crate::trace::{escape, Lane, Tracer};

/// Incidents retained in the recorder's own ring.
const INCIDENT_CAPACITY: usize = 256;
/// Trace events dumped per lane.
const EVENTS_PER_LANE: usize = 512;
/// Default recovery budget: a single invocation retrying this many times
/// after `NodeCrashed` triggers a dump.
const DEFAULT_RECOVERY_BUDGET: u32 = 8;

/// One noteworthy occurrence (fault injection, audit violation, panic, …).
#[derive(Debug, Clone)]
pub struct Incident {
    /// Virtual time the incident was noted.
    pub at: Duration,
    /// Short machine-readable kind (`"audit_violation"`, `"panic"`, …).
    pub kind: String,
    /// Free-form human detail.
    pub detail: String,
}

struct FlightInner {
    tracer: Option<Rc<Tracer>>,
    anatomy: Option<Rc<Anatomy>>,
    incidents: Vec<Incident>,
    incidents_dropped: u64,
    recovery_budget: u32,
    last_dump: Option<String>,
    dumps: u64,
}

/// The recorder itself. Construct with [`FlightRecorder::new`], attach the
/// session's tracer/anatomy handles, and call [`FlightRecorder::trigger`]
/// from failure detectors.
pub struct FlightRecorder {
    inner: RefCell<FlightInner>,
}

impl FlightRecorder {
    /// New recorder with the default recovery budget.
    pub fn new() -> Rc<FlightRecorder> {
        Rc::new(FlightRecorder {
            inner: RefCell::new(FlightInner {
                tracer: None,
                anatomy: None,
                incidents: Vec::new(),
                incidents_dropped: 0,
                recovery_budget: DEFAULT_RECOVERY_BUDGET,
                last_dump: None,
                dumps: 0,
            }),
        })
    }

    /// Attach the tracer whose lane rings should appear in dumps.
    pub fn attach_tracer(&self, tracer: Rc<Tracer>) {
        self.inner.borrow_mut().tracer = Some(tracer);
    }

    /// Attach the anatomy collector whose stamp rows should appear in dumps.
    pub fn attach_anatomy(&self, anatomy: Rc<Anatomy>) {
        self.inner.borrow_mut().anatomy = Some(anatomy);
    }

    /// Retry-attempt budget after which `NodeCrashed` recovery triggers a
    /// dump.
    pub fn recovery_budget(&self) -> u32 {
        self.inner.borrow().recovery_budget
    }

    /// Override the recovery-attempt budget.
    pub fn set_recovery_budget(&self, budget: u32) {
        self.inner.borrow_mut().recovery_budget = budget.max(1);
    }

    /// Note an incident in the bounded incident ring (no dump).
    pub fn note(&self, at: Duration, kind: &str, detail: String) {
        let mut inner = self.inner.borrow_mut();
        if inner.incidents.len() == INCIDENT_CAPACITY {
            inner.incidents.remove(0);
            inner.incidents_dropped += 1;
        }
        inner.incidents.push(Incident {
            at,
            kind: kind.to_string(),
            detail,
        });
    }

    /// Record the triggering incident, assemble the black-box dump, retain
    /// it, and return it.
    ///
    /// Dump layout (JSONL): one `flightrec` header line, the incident ring,
    /// the last 512 trace events from every lane, then the
    /// retained anatomy stamp rows — all in deterministic order.
    pub fn trigger(&self, at: Duration, kind: &str, detail: String) -> String {
        self.note(at, kind, detail);
        let mut inner = self.inner.borrow_mut();
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"flightrec\":\"dump\",\"at_ns\":{},\"trigger\":\"{}\"}}\n",
            at.as_nanos(),
            escape(kind),
        ));
        for inc in &inner.incidents {
            out.push_str(&format!(
                "{{\"incident\":\"{}\",\"at_ns\":{},\"detail\":\"{}\"}}\n",
                escape(&inc.kind),
                inc.at.as_nanos(),
                escape(&inc.detail),
            ));
        }
        if let Some(tracer) = &inner.tracer {
            for e in tracer.recent_events(EVENTS_PER_LANE) {
                out.push_str(&format!(
                    "{{\"event\":\"{}\",\"seq\":{},\"at_ns\":{},\"lane\":\"{}\",\
                     \"trace\":{},\"span\":{},\"ph\":\"{}\",\"detail\":\"{}\"}}\n",
                    e.name,
                    e.seq,
                    e.at.as_nanos(),
                    Lane::label(e.lane),
                    e.trace.0,
                    e.span.0,
                    e.phase.code(),
                    escape(&e.detail),
                ));
            }
        }
        if let Some(anatomy) = &inner.anatomy {
            for row in anatomy.recent_rows() {
                out.push_str(&row.to_json());
                out.push('\n');
            }
        }
        inner.last_dump = Some(out.clone());
        inner.dumps += 1;
        out
    }

    /// The most recent dump, if any was triggered.
    pub fn last_dump(&self) -> Option<String> {
        self.inner.borrow().last_dump.clone()
    }

    /// Number of dumps triggered so far.
    pub fn dumps(&self) -> u64 {
        self.inner.borrow().dumps
    }

    /// Incidents noted so far (clone of the bounded ring).
    pub fn incidents(&self) -> Vec<Incident> {
        self.inner.borrow().incidents.clone()
    }

    /// Run `f`, dumping the black box if it panics before propagating the
    /// panic. `at` is the virtual time to stamp on the dump (the recorder
    /// itself has no clock). Useful around chaos campaign bodies where a
    /// panic would otherwise discard all in-memory forensics.
    pub fn on_panic<R>(self: &Rc<Self>, at: Duration, f: impl FnOnce() -> R) -> R {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(r) => r,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                self.trigger(at, "panic", msg);
                std::panic::resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anatomy::Phase;
    use crate::trace::SpanId;

    fn t(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn dump_includes_incidents_events_and_stamps() {
        let fr = FlightRecorder::new();
        let tracer = Tracer::new();
        let trace = tracer.new_trace();
        let s = tracer.span_begin(
            crate::trace::Lane::Node(0),
            t(1),
            trace,
            SpanId::NONE,
            "attempt",
            String::new(),
        );
        tracer.span_end(crate::trace::Lane::Node(0), t(2), trace, s);
        let anatomy = Anatomy::new();
        let sheet = anatomy.open_sheet(t(0));
        sheet.switch(t(1), Phase::Execution);
        anatomy.complete(t(2), &sheet);
        fr.attach_tracer(tracer);
        fr.attach_anatomy(anatomy);
        fr.note(t(1), "fault_injected", "node 3 crash".to_string());
        let dump = fr.trigger(t(3), "audit_violation", "duplicate effect".to_string());
        assert!(dump.starts_with("{\"flightrec\":\"dump\""), "{dump}");
        assert!(dump.contains("\"incident\":\"fault_injected\""), "{dump}");
        assert!(dump.contains("\"incident\":\"audit_violation\""), "{dump}");
        assert!(dump.contains("\"event\":\"attempt\""), "{dump}");
        assert!(dump.contains("\"phases\":{"), "{dump}");
        assert_eq!(fr.dumps(), 1);
        assert_eq!(fr.last_dump().unwrap(), dump);
    }

    #[test]
    fn on_panic_dumps_then_propagates() {
        let fr = FlightRecorder::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fr.on_panic(t(9), || panic!("boom at step 4"));
        }));
        assert!(caught.is_err());
        let dump = fr.last_dump().expect("panic should have dumped");
        assert!(dump.contains("\"trigger\":\"panic\""), "{dump}");
        assert!(dump.contains("boom at step 4"), "{dump}");
    }

    #[test]
    fn incident_ring_is_bounded() {
        let fr = FlightRecorder::new();
        for i in 0..(INCIDENT_CAPACITY as u64 + 10) {
            fr.note(t(i), "tick", String::new());
        }
        assert_eq!(fr.incidents().len(), INCIDENT_CAPACITY);
    }
}
