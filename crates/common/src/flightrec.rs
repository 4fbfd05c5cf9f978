//! Black-box flight recorder for post-mortem debugging of seeded failures.
//!
//! Chaos campaigns are deterministic, but "rerun with a bigger trace and
//! stare" is still a miserable debugging loop. The [`FlightRecorder`] dumps
//! a bounded window of recent activity — its own incident log, the
//! tracer's per-lane event rings
//! ([`crate::trace::Tracer::recent_events`]) and the anatomy layer's recent
//! per-op phase stamps ([`crate::anatomy::Anatomy::recent_rows`]) — to JSONL
//! the moment something goes wrong:
//!
//! - the chaos exactly-once auditor finds violations, or
//! - one invocation's `NodeCrashed` retries reach [`RECOVERY_BUDGET`].
//!
//! The recorder keeps only its own incidents: whoever triggers a dump (the
//! deployment's [`crate::observe::Probe`]) passes the tracer and anatomy
//! it holds.
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
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use crate::anatomy::Anatomy;
use crate::trace::{escape, Lane, Tracer};

/// Incidents retained in the recorder's own ring.
const INCIDENT_CAPACITY: usize = 256;
/// Trace events dumped per lane.
const EVENTS_PER_LANE: usize = 512;
/// Recovery budget: a single invocation retrying this many times after
/// `NodeCrashed` triggers a dump.
pub const RECOVERY_BUDGET: u32 = 8;

/// One noteworthy occurrence (fault injection, audit violation, crash retry, …).
#[derive(Debug, Clone)]
pub struct Incident {
    /// Virtual time the incident was noted.
    pub at: Duration,
    /// Short machine-readable kind (`"audit_violation"`, `"crash_retry"`, …).
    pub kind: String,
    /// Free-form human detail.
    pub detail: String,
}

struct FlightInner {
    incidents: VecDeque<Incident>,
    last_dump: Option<String>,
    dumps: u64,
}

/// The recorder itself. Construct with [`FlightRecorder::new`], note
/// incidents with [`FlightRecorder::note`], and dump with
/// [`FlightRecorder::trigger`] from failure detectors.
pub struct FlightRecorder {
    inner: RefCell<FlightInner>,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Rc<FlightRecorder> {
        Rc::new(FlightRecorder {
            inner: RefCell::new(FlightInner {
                incidents: VecDeque::new(),
                last_dump: None,
                dumps: 0,
            }),
        })
    }

    /// Note an incident in the bounded incident ring (no dump).
    pub fn note(&self, at: Duration, kind: &str, detail: String) {
        let mut inner = self.inner.borrow_mut();
        if inner.incidents.len() == INCIDENT_CAPACITY {
            inner.incidents.pop_front();
        }
        inner.incidents.push_back(Incident {
            at,
            kind: kind.to_string(),
            detail,
        });
    }

    /// Record the triggering incident, assemble the black-box dump, retain
    /// it, and return it.
    ///
    /// Dump layout (JSONL): one `flightrec` header line, the incident ring,
    /// the last 512 trace events from every lane of `tracer`, then the
    /// retained stamp rows of `anatomy` — all in deterministic order.
    pub fn trigger(
        &self,
        at: Duration,
        kind: &str,
        detail: String,
        tracer: Option<&Tracer>,
        anatomy: Option<&Anatomy>,
    ) -> String {
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
        if let Some(tracer) = tracer {
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
        if let Some(anatomy) = anatomy {
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
        self.inner.borrow().incidents.iter().cloned().collect()
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
        fr.note(t(1), "fault_injected", "node 3 crash".to_string());
        let detail = "duplicate effect".to_string();
        let dump = fr.trigger(
            t(3),
            "audit_violation",
            detail,
            Some(&tracer),
            Some(&anatomy),
        );
        assert!(dump.starts_with("{\"flightrec\":\"dump\""), "{dump}");
        assert!(dump.contains("\"incident\":\"fault_injected\""), "{dump}");
        assert!(dump.contains("\"incident\":\"audit_violation\""), "{dump}");
        assert!(dump.contains("\"event\":\"attempt\""), "{dump}");
        assert!(dump.contains("\"phases\":{"), "{dump}");
        assert_eq!(fr.dumps(), 1);
        assert_eq!(fr.last_dump().unwrap(), dump);
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
