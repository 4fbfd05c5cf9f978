//! Deterministic causal tracing.
//!
//! The simulator's experiments (DESIGN.md §12) reason about *why* each
//! protocol wins: which log/store round-trips sit on the critical path of
//! an invocation, where queueing accumulates, what the GC trims. End-of-run
//! aggregates cannot answer those questions, so this module provides a
//! structured, causally-ordered event log:
//!
//! - A [`Tracer`] collects [`TraceEvent`]s into bounded per-lane ring
//!   buffers. Every event is stamped with *virtual* time and a global
//!   sequence number, so a seeded simulation produces a byte-identical
//!   trace on every run.
//! - Spans form a tree: the gateway opens a `request` span per stamped
//!   [`TraceId`], the runtime an `invocation` span, the environment an
//!   `attempt` span per crash-retry attempt, each SSF op (`read`, `write`,
//!   `invoke`, …) a child span, and the substrate (shared log, KV store)
//!   leaf spans for each round-trip.
//! - Two exporters: Chrome `trace_event` JSON ([`Tracer::export_chrome_json`],
//!   loadable in Perfetto / `chrome://tracing`, one lane per function node
//!   plus sequencer, storage, gateway, and GC lanes) and a compact JSONL
//!   stream ([`Tracer::export_jsonl`]).
//! - [`Tracer::critical_path`] answers the paper's op-count claims per
//!   invocation: for each op span of a trace, how many log appends / log
//!   reads / store round-trips its subtree contains.
//! - [`MetricsRegistry`] (re-exported from [`crate::metrics`]) is a
//!   virtual-time series of named values.
//!
//! # Determinism contract
//!
//! The tracer draws no randomness, spawns no tasks, and sleeps never: it is
//! pure bookkeeping on the caller's stack, so enabling tracing cannot
//! perturb a simulation's interleaving. All timestamps come from the
//! virtual clock (plain [`Duration`]s passed by the caller — this module
//! has no simulator dependency).
//!
//! How an event finds its trace and parent span across layers is
//! [`crate::observe`]'s business; the tracer only records what it is told.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Duration;

use crate::collections::FxHashMap;
use crate::metrics::OpCounters;

/// Identifies one end-to-end request through the system. `TraceId(0)` is
/// reserved for unattributed (background) work such as GC cycles.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The unattributed trace: background work not tied to any request.
    pub const NONE: TraceId = TraceId(0);
}

impl fmt::Debug for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tr{}", self.0)
    }
}

/// Identifies one span (a named interval) within the tracer. `SpanId(0)`
/// means "no parent".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent parent: roots of the span tree carry this.
    pub const NONE: SpanId = SpanId(0);
}

impl fmt::Debug for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sp{}", self.0)
    }
}

/// The swim-lane an event renders in: one per function node, one per log
/// shard's sequencer, plus shared lanes for the storage tier, the gateway,
/// and the GC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lane {
    /// A function node's lane (`NodeId.0`).
    Node(u32),
    /// One log shard's sequencer (`ShardId.0`): that shard's ordering
    /// decisions land here. Shard 0 is the only sequencer in a
    /// single-shard deployment.
    Sequencer(u8),
    /// The storage tier (log storage + KV store round-trips).
    Storage,
    /// The gateway (request arrival/completion).
    Gateway,
    /// The garbage collector.
    Gc,
}

/// Chrome-trace `tid` layout: node lanes use their node id directly and
/// must stay below [`SEQUENCER_TID_BASE`]; sequencer lanes occupy
/// `SEQUENCER_TID_BASE + shard` (one per possible `u8` shard id); the
/// remaining shared lanes start at 2048.
const SEQUENCER_TID_BASE: u32 = 1024;
const STORAGE_TID: u32 = 2048;
const GATEWAY_TID: u32 = 2049;
const GC_TID: u32 = 2050;

impl Lane {
    /// Stable integer id used as the Chrome-trace `tid` and ring-buffer key.
    #[must_use]
    pub fn tid(self) -> u32 {
        match self {
            Lane::Node(n) => {
                debug_assert!(n < SEQUENCER_TID_BASE, "node id collides with shared lanes");
                n
            }
            Lane::Sequencer(shard) => SEQUENCER_TID_BASE + u32::from(shard),
            Lane::Storage => STORAGE_TID,
            Lane::Gateway => GATEWAY_TID,
            Lane::Gc => GC_TID,
        }
    }

    /// Human-readable lane name for the exporters.
    #[must_use]
    pub fn label(tid: u32) -> String {
        match tid {
            STORAGE_TID => "storage".to_string(),
            GATEWAY_TID => "gateway".to_string(),
            GC_TID => "gc".to_string(),
            SEQUENCER_TID_BASE => "sequencer".to_string(),
            n if (SEQUENCER_TID_BASE..SEQUENCER_TID_BASE + 256).contains(&n) => {
                format!("sequencer{}", n - SEQUENCER_TID_BASE)
            }
            n => format!("node{n}"),
        }
    }

    /// Chrome-trace process id for a lane tid: lanes are grouped into
    /// processes so `chrome://tracing` shows named sections instead of a
    /// flat wall of raw tids. Function-node lanes are pid 0, sequencer
    /// lanes (tids 1024+s) pid 1, and the shared substrate lanes
    /// (storage/gateway/gc, tids 2048+) pid 2.
    #[must_use]
    pub fn pid(tid: u32) -> u32 {
        match tid {
            n if n < SEQUENCER_TID_BASE => 0,
            n if (SEQUENCER_TID_BASE..SEQUENCER_TID_BASE + 256).contains(&n) => 1,
            _ => 2,
        }
    }

    /// Human label for a Chrome-trace process id (see [`Lane::pid`]).
    #[must_use]
    pub fn process_label(pid: u32) -> &'static str {
        match pid {
            0 => "function nodes",
            1 => "shared-log sequencers",
            _ => "substrate (storage/gateway/gc)",
        }
    }
}

/// Event phase, mirroring the Chrome trace_event vocabulary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Span start.
    Begin,
    /// Span end.
    End,
    /// A zero-duration marker (cache hit, sequencer decision, crash).
    Instant,
}

impl Phase {
    pub(crate) fn code(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Instant => 'I',
        }
    }
}

/// One recorded event. `seq` is a global, gap-free-at-recording counter
/// that totally orders events across lanes (ring overflow may later drop
/// the oldest events of a lane).
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Global sequence number: the deterministic total order.
    pub seq: u64,
    /// Virtual time of the event.
    pub at: Duration,
    /// Lane (ring buffer) the event was recorded on.
    pub lane: u32,
    /// Owning trace; [`TraceId::NONE`] for background work.
    pub trace: TraceId,
    /// The span this event begins/ends, or the instant's own id (0).
    pub span: SpanId,
    /// Parent span at recording time.
    pub parent: SpanId,
    /// Begin / End / Instant.
    pub phase: Phase,
    /// Static event name (span or marker kind).
    pub name: &'static str,
    /// Free-form annotation (seqnum, conflict winner, bytes freed, …).
    pub detail: String,
}

/// A bounded per-lane ring: oldest events drop first, with a drop count so
/// exports can say what is missing.
struct LaneRing {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

struct TracerInner {
    capacity_per_lane: usize,
    next_trace: u64,
    next_span: u64,
    next_seq: u64,
    lanes: FxHashMap<u32, LaneRing>,
}

/// The trace collector. Create with [`Tracer::new`], share via `Rc`, and
/// hand to `ClientBuilder::tracer`. All methods take `&self`; interior
/// mutability keeps call sites free of borrow gymnastics.
pub struct Tracer {
    inner: RefCell<TracerInner>,
}

/// Default per-lane ring capacity (events). At the calibrated latencies a
/// traced invocation emits ~20 events, so 64 Ki events per lane hold
/// thousands of invocations before the oldest drop.
pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

impl Tracer {
    /// A tracer with the default per-lane ring capacity.
    #[must_use]
    pub fn new() -> Rc<Tracer> {
        Tracer::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A tracer whose per-lane rings hold at most `capacity_per_lane`
    /// events (minimum 8; oldest events drop beyond that).
    #[must_use]
    pub fn with_capacity(capacity_per_lane: usize) -> Rc<Tracer> {
        Rc::new(Tracer {
            inner: RefCell::new(TracerInner {
                capacity_per_lane: capacity_per_lane.max(8),
                next_trace: 1,
                next_span: 1,
                next_seq: 0,
                lanes: FxHashMap::default(),
            }),
        })
    }

    /// Allocates a fresh trace id (the gateway calls this per request).
    pub fn new_trace(&self) -> TraceId {
        let mut inner = self.inner.borrow_mut();
        let id = TraceId(inner.next_trace);
        inner.next_trace += 1;
        id
    }

    fn push(&self, lane: Lane, event_of: impl FnOnce(u64) -> TraceEvent) {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let cap = inner.capacity_per_lane;
        let ring = inner.lanes.entry(lane.tid()).or_insert_with(|| LaneRing {
            events: VecDeque::new(),
            dropped: 0,
        });
        if ring.events.len() >= cap {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event_of(seq));
    }

    /// Opens a span and returns its id. `detail` annotates the Begin event.
    pub fn span_begin(
        &self,
        lane: Lane,
        now: Duration,
        trace: TraceId,
        parent: SpanId,
        name: &'static str,
        detail: String,
    ) -> SpanId {
        let span = {
            let mut inner = self.inner.borrow_mut();
            let id = SpanId(inner.next_span);
            inner.next_span += 1;
            id
        };
        self.push(lane, |seq| TraceEvent {
            seq,
            at: now,
            lane: lane.tid(),
            trace,
            span,
            parent,
            phase: Phase::Begin,
            name,
            detail,
        });
        span
    }

    /// Closes a span opened by [`Tracer::span_begin`]. The End must be
    /// recorded on the same lane as the Begin for the exporters to pair
    /// them.
    pub fn span_end(&self, lane: Lane, now: Duration, trace: TraceId, span: SpanId) {
        self.push(lane, |seq| TraceEvent {
            seq,
            at: now,
            lane: lane.tid(),
            trace,
            span,
            parent: SpanId::NONE,
            phase: Phase::End,
            name: "",
            detail: String::new(),
        });
    }

    /// Records a zero-duration marker under `parent`.
    pub fn instant(
        &self,
        lane: Lane,
        now: Duration,
        trace: TraceId,
        parent: SpanId,
        name: &'static str,
        detail: String,
    ) {
        self.push(lane, |seq| TraceEvent {
            seq,
            at: now,
            lane: lane.tid(),
            trace,
            span: SpanId::NONE,
            parent,
            phase: Phase::Instant,
            name,
            detail,
        });
    }

    /// Total events recorded (including any later dropped by ring bounds).
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        self.inner.borrow().next_seq
    }

    /// Events dropped across all lanes due to ring bounds.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.inner.borrow().lanes.values().map(|r| r.dropped).sum()
    }

    /// All retained events, across lanes, in global `seq` order.
    fn merged_events(&self) -> Vec<TraceEvent> {
        let inner = self.inner.borrow();
        let mut all: Vec<TraceEvent> = inner
            .lanes
            .values()
            .flat_map(|r| r.events.iter().cloned())
            .collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// The most recent `per_lane` events from each lane, merged into global
    /// `seq` order. The flight recorder uses this to dump a bounded tail of
    /// activity around an incident without draining the full rings.
    #[must_use]
    pub fn recent_events(&self, per_lane: usize) -> Vec<TraceEvent> {
        let inner = self.inner.borrow();
        let mut all: Vec<TraceEvent> = inner
            .lanes
            .values()
            .flat_map(|r| {
                let skip = r.events.len().saturating_sub(per_lane);
                r.events.iter().skip(skip).cloned()
            })
            .collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Lane tids in ascending order (deterministic export order).
    fn lane_tids(&self) -> Vec<u32> {
        let inner = self.inner.borrow();
        let mut tids: Vec<u32> = inner.lanes.keys().copied().collect();
        tids.sort_unstable();
        tids
    }

    /// Exports the retained events as Chrome `trace_event` JSON (the
    /// "JSON Array Format" with a `traceEvents` wrapper), loadable in
    /// Perfetto or `chrome://tracing`. Spans become `"X"` complete events;
    /// instants become `"i"` events; lanes are named via `thread_name`
    /// metadata. Timestamps are virtual-time microseconds with nanosecond
    /// decimals.
    #[must_use]
    pub fn export_chrome_json(&self) -> String {
        let events = self.merged_events();
        let horizon = events.iter().map(|e| e.at).max().unwrap_or(Duration::ZERO);
        // Pair Begin/End by span id. Span ids are unique, so a linear scan
        // into a map suffices; an unmatched Begin (still open, or its End
        // dropped) extends to the trace horizon.
        let mut ends: FxHashMap<u64, Duration> = FxHashMap::default();
        for e in &events {
            if e.phase == Phase::End {
                ends.entry(e.span.0).or_insert(e.at);
            }
        }
        let mut out = String::with_capacity(events.len() * 96 + 1024);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        let tids = self.lane_tids();
        let mut pids: Vec<u32> = tids.iter().map(|&t| Lane::pid(t)).collect();
        pids.sort_unstable();
        pids.dedup();
        for pid in pids {
            emit(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    Lane::process_label(pid)
                ),
                &mut out,
            );
        }
        for tid in tids {
            emit(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{tid},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    Lane::pid(tid),
                    Lane::label(tid)
                ),
                &mut out,
            );
        }
        for e in &events {
            match e.phase {
                Phase::Begin => {
                    let end = ends.get(&e.span.0).copied().unwrap_or(horizon);
                    let dur = end.saturating_sub(e.at);
                    emit(
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"hm\",\"ph\":\"X\",\"ts\":{},\
                             \"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"trace\":{},\
                             \"span\":{},\"parent\":{},\"detail\":\"{}\"}}}}",
                            e.name,
                            micros(e.at),
                            micros(dur),
                            Lane::pid(e.lane),
                            e.lane,
                            e.trace.0,
                            e.span.0,
                            e.parent.0,
                            escape(&e.detail),
                        ),
                        &mut out,
                    );
                }
                Phase::End => {}
                Phase::Instant => {
                    emit(
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"hm\",\"ph\":\"i\",\"ts\":{},\
                             \"pid\":{},\"tid\":{},\"s\":\"t\",\"args\":{{\"trace\":{},\
                             \"parent\":{},\"detail\":\"{}\"}}}}",
                            e.name,
                            micros(e.at),
                            Lane::pid(e.lane),
                            e.lane,
                            e.trace.0,
                            e.parent.0,
                            escape(&e.detail),
                        ),
                        &mut out,
                    );
                }
            }
        }
        let dropped = self.events_dropped();
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":");
        let _ = write!(out, "{dropped}");
        out.push_str("}}\n");
        out
    }

    /// Exports the retained events as compact JSONL: one event per line in
    /// global `seq` order with a stable field order. Identical seeds yield
    /// byte-identical output.
    #[must_use]
    pub fn export_jsonl(&self) -> String {
        let events = self.merged_events();
        let mut out = String::with_capacity(events.len() * 80);
        for e in &events {
            let _ = writeln!(
                out,
                "{{\"seq\":{},\"at_ns\":{},\"lane\":\"{}\",\"trace\":{},\"span\":{},\
                 \"parent\":{},\"ph\":\"{}\",\"name\":\"{}\",\"detail\":\"{}\"}}",
                e.seq,
                e.at.as_nanos(),
                Lane::label(e.lane),
                e.trace.0,
                e.span.0,
                e.parent.0,
                e.phase.code(),
                e.name,
                escape(&e.detail),
            );
        }
        out
    }

    /// Per-op critical-path breakdown of one trace: every op span (a child
    /// of an `attempt` span), in start order, with counts of the substrate
    /// round-trips in its subtree. This is how tests assert the paper's
    /// op-count claims ("Halfmoon-read reads append nothing; Halfmoon-write
    /// reads append exactly once") on the critical path rather than in
    /// aggregate.
    #[must_use]
    pub fn critical_path(&self, trace: TraceId) -> Vec<OpSummary> {
        let events: Vec<TraceEvent> = self
            .merged_events()
            .into_iter()
            .filter(|e| e.trace == trace)
            .collect();
        // Span table: id → (name, parent, begin, end).
        struct SpanInfo {
            name: &'static str,
            parent: SpanId,
            begin: Duration,
            end: Option<Duration>,
            begin_seq: u64,
        }
        let mut spans: FxHashMap<u64, SpanInfo> = FxHashMap::default();
        for e in &events {
            match e.phase {
                Phase::Begin => {
                    spans.insert(
                        e.span.0,
                        SpanInfo {
                            name: e.name,
                            parent: e.parent,
                            begin: e.at,
                            end: None,
                            begin_seq: e.seq,
                        },
                    );
                }
                Phase::End => {
                    if let Some(info) = spans.get_mut(&e.span.0) {
                        info.end = Some(e.at);
                    }
                }
                Phase::Instant => {}
            }
        }
        // The op level: children of `attempt` spans.
        let mut ops: Vec<(u64, &SpanInfo)> = spans
            .iter()
            .filter(|(_, info)| {
                spans
                    .get(&info.parent.0)
                    .is_some_and(|p| p.name == "attempt")
            })
            .map(|(id, info)| (*id, info))
            .collect();
        ops.sort_by_key(|(_, info)| info.begin_seq);
        let mut summaries: Vec<OpSummary> = ops
            .iter()
            .map(|(id, info)| OpSummary {
                name: info.name,
                span: SpanId(*id),
                start: info.begin,
                end: info.end.unwrap_or(info.begin),
                counts: OpCounters::default(),
            })
            .collect();
        let op_index: FxHashMap<u64, usize> = summaries
            .iter()
            .enumerate()
            .map(|(i, s)| (s.span.0, i))
            .collect();
        // Attribute each substrate span / instant to its nearest op
        // ancestor (chains are short: op → substrate span → instant).
        let nearest_op = |mut parent: SpanId| -> Option<usize> {
            for _ in 0..8 {
                if let Some(&i) = op_index.get(&parent.0) {
                    return Some(i);
                }
                parent = spans.get(&parent.0)?.parent;
            }
            None
        };
        for (id, info) in &spans {
            if op_index.contains_key(id) {
                continue;
            }
            let Some(i) = nearest_op(info.parent) else {
                continue;
            };
            let c = &mut summaries[i].counts;
            match info.name {
                "log_append" | "log_cond_append" => c.log_appends += 1,
                "log_read_prev" | "log_read_next" | "log_read_stream" => c.log_reads += 1,
                "log_trim" => c.log_trims += 1,
                "db_read" | "db_version_read" => c.db_reads += 1,
                "db_write" | "db_version_write" => c.db_writes += 1,
                "db_cond_write" => c.db_cond_writes += 1,
                "db_delete" => c.db_deletes += 1,
                _ => {}
            }
        }
        for e in &events {
            if e.phase != Phase::Instant {
                continue;
            }
            let Some(i) = nearest_op(e.parent) else {
                continue;
            };
            let c = &mut summaries[i].counts;
            match e.name {
                "cache_hit" => c.cache_hits += 1,
                "cache_miss" => c.cache_misses += 1,
                // A conditional append that lost the race appended nothing:
                // the log counts it as a conflict, and so does the path.
                "cond_conflict"
                    if spans
                        .get(&e.parent.0)
                        .is_some_and(|p| p.name == "log_cond_append") =>
                {
                    c.log_appends -= 1;
                    c.cond_append_conflicts += 1;
                }
                _ => {}
            }
        }
        summaries
    }
}

/// One op span of a trace's critical path, with the substrate round-trips
/// in its subtree. Produced by [`Tracer::critical_path`].
#[derive(Clone, Debug)]
pub struct OpSummary {
    /// Op span name (`init`, `read`, `write`, `invoke`, `finish`, …).
    pub name: &'static str,
    /// The op's span id.
    pub span: SpanId,
    /// Virtual-time start of the op.
    pub start: Duration,
    /// Virtual-time end (start if the End event was lost).
    pub end: Duration,
    /// The op's substrate round-trips, in the log's and the store's own
    /// units: summed over a run's requests they equal the counter deltas.
    pub counts: OpCounters,
}

/// Formats a [`Duration`] as Chrome-trace microseconds with nanosecond
/// decimals (`1234.567`), deterministically (no float formatting).
fn micros(d: Duration) -> String {
    let ns = d.as_nanos();
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Escapes a detail string for embedding in a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `benchmark/src/apps.rs` imports the series under this path.
pub use crate::metrics::MetricsRegistry;

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn spans_pair_into_complete_events() {
        let tr = Tracer::new();
        let trace = tr.new_trace();
        let a = tr.span_begin(
            Lane::Node(0),
            t(1),
            trace,
            SpanId::NONE,
            "attempt",
            String::new(),
        );
        let op = tr.span_begin(Lane::Node(0), t(2), trace, a, "read", String::new());
        tr.instant(Lane::Node(0), t(3), trace, op, "cache_hit", String::new());
        tr.span_end(Lane::Node(0), t(4), trace, op);
        tr.span_end(Lane::Node(0), t(5), trace, a);
        let chrome = tr.export_chrome_json();
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"read\""), "{chrome}");
        assert!(chrome.contains("\"ph\":\"i\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"node0\""), "{chrome}");
        // read: ts = 2000 µs, dur = 2000 µs.
        assert!(
            chrome.contains("\"ts\":2000.000,\"dur\":2000.000"),
            "{chrome}"
        );
    }

    #[test]
    fn chrome_export_labels_processes_and_threads() {
        let tr = Tracer::new();
        let trace = tr.new_trace();
        let s = tr.span_begin(
            Lane::Node(3),
            t(1),
            trace,
            SpanId::NONE,
            "attempt",
            String::new(),
        );
        tr.instant(
            Lane::Sequencer(2),
            t(2),
            trace,
            s,
            "sequenced",
            String::new(),
        );
        tr.instant(
            Lane::Storage,
            t(3),
            trace,
            s,
            "trim_reclaimed",
            String::new(),
        );
        tr.instant(Lane::Gateway, t(3), trace, s, "admit", String::new());
        tr.span_end(Lane::Node(3), t(4), trace, s);
        let chrome = tr.export_chrome_json();
        // Every lane group gets a process_name, every lane a thread_name.
        assert!(chrome.contains("\"name\":\"process_name\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"function nodes\""), "{chrome}");
        assert!(
            chrome.contains("\"name\":\"shared-log sequencers\""),
            "{chrome}"
        );
        assert!(
            chrome.contains("\"name\":\"substrate (storage/gateway/gc)\""),
            "{chrome}"
        );
        assert!(chrome.contains("\"name\":\"sequencer2\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"gateway\""), "{chrome}");
        // Events carry their lane's pid so the groups actually nest.
        assert!(chrome.contains("\"pid\":1,\"tid\":1026"), "{chrome}");
        assert!(chrome.contains("\"pid\":2,\"tid\":2049"), "{chrome}");
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let tr = Tracer::with_capacity(8);
        let trace = tr.new_trace();
        for i in 0..20 {
            tr.instant(
                Lane::Node(0),
                t(i),
                trace,
                SpanId::NONE,
                "tick",
                String::new(),
            );
        }
        assert_eq!(tr.events_recorded(), 20);
        assert_eq!(tr.events_dropped(), 12);
        let jsonl = tr.export_jsonl();
        assert_eq!(jsonl.lines().count(), 8);
        // The *newest* events survive.
        assert!(jsonl.contains("\"seq\":19"), "{jsonl}");
        assert!(!jsonl.contains("\"seq\":0,"), "{jsonl}");
    }

    #[test]
    fn critical_path_counts_substrate_children() {
        let tr = Tracer::new();
        let trace = tr.new_trace();
        let attempt = tr.span_begin(
            Lane::Node(1),
            t(0),
            trace,
            SpanId::NONE,
            "attempt",
            String::new(),
        );
        let read = tr.span_begin(Lane::Node(1), t(1), trace, attempt, "read", String::new());
        let lr = tr.span_begin(
            Lane::Storage,
            t(1),
            trace,
            read,
            "log_read_prev",
            String::new(),
        );
        tr.instant(Lane::Node(1), t(1), trace, lr, "cache_miss", String::new());
        tr.span_end(Lane::Storage, t(2), trace, lr);
        let dbr = tr.span_begin(Lane::Storage, t(2), trace, read, "db_read", String::new());
        tr.span_end(Lane::Storage, t(3), trace, dbr);
        tr.span_end(Lane::Node(1), t(3), trace, read);
        let write = tr.span_begin(Lane::Node(1), t(4), trace, attempt, "write", String::new());
        let ap = tr.span_begin(
            Lane::Storage,
            t(4),
            trace,
            write,
            "log_cond_append",
            String::new(),
        );
        tr.span_end(Lane::Storage, t(5), trace, ap);
        let lost = tr.span_begin(
            Lane::Storage,
            t(5),
            trace,
            write,
            "log_cond_append",
            String::new(),
        );
        tr.instant(
            Lane::Sequencer(0),
            t(5),
            trace,
            lost,
            "cond_conflict",
            String::new(),
        );
        tr.span_end(Lane::Storage, t(5), trace, lost);
        tr.span_end(Lane::Node(1), t(5), trace, write);
        tr.span_end(Lane::Node(1), t(6), trace, attempt);
        // An unrelated trace must not contaminate the result.
        let other = tr.new_trace();
        tr.span_begin(
            Lane::Node(2),
            t(0),
            other,
            SpanId::NONE,
            "attempt",
            String::new(),
        );

        let ops = tr.critical_path(trace);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].name, "read");
        assert_eq!(ops[0].counts.log_reads, 1);
        assert_eq!(ops[0].counts.db_reads, 1);
        assert_eq!(ops[0].counts.cache_misses, 1);
        assert_eq!(ops[0].counts.log_appends, 0);
        assert_eq!(ops[1].name, "write");
        assert_eq!(ops[1].counts.log_appends, 1, "a lost race appends nothing");
        assert_eq!(ops[1].counts.cond_append_conflicts, 1);
        assert_eq!(ops[1].end - ops[1].start, t(1));
    }

    #[test]
    fn jsonl_is_deterministic_for_identical_call_sequences() {
        let run = || {
            let tr = Tracer::new();
            let trace = tr.new_trace();
            let s = tr.span_begin(
                Lane::Gateway,
                t(1),
                trace,
                SpanId::NONE,
                "request",
                String::new(),
            );
            tr.instant(
                Lane::Sequencer(0),
                t(2),
                trace,
                s,
                "sequenced",
                "sn7".to_string(),
            );
            tr.span_end(Lane::Gateway, t(3), trace, s);
            tr.export_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn detail_strings_are_escaped() {
        let tr = Tracer::new();
        let trace = tr.new_trace();
        tr.instant(
            Lane::Gc,
            t(1),
            trace,
            SpanId::NONE,
            "note",
            "say \"hi\"\\\n".to_string(),
        );
        let jsonl = tr.export_jsonl();
        assert!(jsonl.contains(r#"say \"hi\"\\\n"#), "{jsonl}");
    }
}
