//! Systematic exploration: explicit choice points instead of RNG draws.
//!
//! The simulator makes every run a pure function of its seed, but a seed
//! only *samples* one schedule. This module replaces sampled nondeterminism
//! with an explicit **choice-point tree**: wherever a harness would have
//! drawn from [`Ctx::with_rng`](crate::Ctx::with_rng), it instead asks a
//! [`ChoiceSource`] to pick one of several labelled alternatives
//! ([`Alt`]). Recording the picks yields a [`Schedule`] — a compact
//! decision vector that replays the run bit-identically — and driving the
//! picks from a depth-first search enumerates *every* schedule of a
//! bounded program.
//!
//! The [`Explorer`] implements that DFS with **sleep-set pruning**
//! (Godefroid's partial-order reduction): each alternative carries a
//! resource-footprint bitmask, disjoint footprints mean the actions
//! commute, and schedules that only reorder commuting actions are pruned
//! instead of re-executed. [`Explorer::explore_parallel`] maps the
//! root-level branches over worker threads with [`par_map`] (at one worker,
//! on the calling thread) — sleep sets are path-local, so the split search
//! visits exactly the same tree at every worker count.
//!
//! ```
//! use hm_substrate::explore::{Alt, ChoiceSource, Explorer, RunReport};
//!
//! // Two "actors" A and B touching disjoint state: a scheduler choice
//! // point per step. A·B and B·A are the same partial order, so the
//! // explorer completes exactly one of the two interleavings.
//! let run = |choices: &dyn ChoiceSource| {
//!     let mut pending = vec![Alt::new(0, 0b01), Alt::new(1, 0b10)];
//!     while !pending.is_empty() {
//!         let pick = choices.choose("sched", &pending);
//!         pending.remove(pick);
//!     }
//!     RunReport::default()
//! };
//! let stats = Explorer::new().explore_parallel(1, |c| run(c));
//! assert_eq!((stats.runs, stats.aborted), (1, 1));
//! assert!(stats.complete && stats.counterexamples.is_empty());
//!
//! // Without pruning the same program needs both interleavings.
//! let naive = Explorer::new().pruning(false).explore_parallel(1, |c| run(c));
//! assert_eq!((naive.runs, naive.aborted), (2, 0));
//! ```

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

use crate::par_map;

/// One alternative at a choice point.
///
/// `id` is the action's **stable identity**: the same logical action must
/// present the same id every time the choice point is reached along a
/// given decision prefix (e.g. "grant actor 1 a turn"), because sleep sets
/// track actions by id across tree revisits. `footprint` is a resource
/// bitmask; two alternatives with disjoint footprints are treated as
/// **independent** (commuting), which is what the pruning exploits — when
/// unsure, overlap the masks (over-approximating dependence is always
/// sound, it only costs pruning).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Alt {
    /// Stable identity of the action (sleep-set key).
    pub id: u64,
    /// Resource footprint; disjoint masks ⇒ the actions commute.
    pub footprint: u64,
}

impl Alt {
    /// A new alternative with the given identity and footprint.
    #[must_use]
    pub fn new(id: u64, footprint: u64) -> Alt {
        Alt { id, footprint }
    }

    /// True when the two actions have disjoint footprints (they commute).
    #[must_use]
    pub fn independent(self, other: Alt) -> bool {
        self.footprint & other.footprint == 0
    }
}

/// Supplies decisions at explicit choice points — the systematic
/// counterpart of [`Ctx::with_rng`](crate::Ctx::with_rng).
///
/// Implementations: [`ScriptedChoices`] (replay a fixed [`Schedule`]) and
/// the [`Explorer`]'s internal [`DfsChooser`] (drives the search).
pub trait ChoiceSource {
    /// Picks one of `alts` (non-empty) at the named site; returns its
    /// index. `site` labels the kind of decision (e.g. `"sched"`,
    /// `"crash"`) for diagnostics and serialized schedules.
    fn choose(&self, site: &'static str, alts: &[Alt]) -> usize;

    /// True once the current run is known redundant (sleep-set blocked).
    /// After this flips, `choose` keeps returning valid defaults so the
    /// run can finish cheaply; harnesses may skip their oracle.
    fn pruned(&self) -> bool {
        false
    }

    /// The decisions taken so far in the current run, as a replayable
    /// [`Schedule`] (empty for sources that don't record).
    fn taken(&self) -> Schedule {
        Schedule::default()
    }
}

/// A recorded decision vector: pick indices in choice-point order.
///
/// A schedule plus the harness's fixed seed identifies one run exactly;
/// replaying it through [`ScriptedChoices`] reproduces the run
/// byte-identically. Serializes to a compact dotted string (`"1.0.2"`,
/// empty schedule ⇔ empty string) via `Display`/`FromStr`.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Schedule {
    /// Pick indices, one per choice point in program order.
    pub picks: Vec<u32>,
}

impl Schedule {
    /// A schedule forcing the given picks.
    #[must_use]
    pub fn new(picks: impl Into<Vec<u32>>) -> Schedule {
        Schedule {
            picks: picks.into(),
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.picks.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// Error from parsing a [`Schedule`] string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleParseError {
    token: String,
}

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid schedule token {:?} (expected dot-separated pick indices)",
            self.token
        )
    }
}

impl std::error::Error for ScheduleParseError {}

impl FromStr for Schedule {
    type Err = ScheduleParseError;

    fn from_str(s: &str) -> Result<Schedule, ScheduleParseError> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Schedule::default());
        }
        let mut picks = Vec::new();
        for token in s.split('.') {
            picks.push(token.parse().map_err(|_| ScheduleParseError {
                token: token.to_string(),
            })?);
        }
        Ok(Schedule { picks })
    }
}

/// One decision as recorded during a run: where it was made, what the
/// alternatives were, and which was picked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Choice-point label (`"sched"`, `"crash"`, …).
    pub site: &'static str,
    /// The alternatives that were on offer.
    pub alts: Vec<Alt>,
    /// Index of the alternative taken.
    pub picked: usize,
}

/// Replays a fixed [`Schedule`]; past its end every choice defaults to the
/// first alternative. Clones share state, so a harness can hand one clone
/// to a fault policy and keep another to read the recorded trace.
#[derive(Clone, Debug)]
pub struct ScriptedChoices {
    inner: Rc<ScriptedInner>,
}

#[derive(Debug)]
struct ScriptedInner {
    picks: Vec<u32>,
    cursor: Cell<usize>,
    trace: RefCell<Vec<Decision>>,
}

impl ScriptedChoices {
    /// A source replaying `schedule`.
    #[must_use]
    pub fn new(schedule: &Schedule) -> ScriptedChoices {
        ScriptedChoices {
            inner: Rc::new(ScriptedInner {
                picks: schedule.picks.clone(),
                cursor: Cell::new(0),
                trace: RefCell::new(Vec::new()),
            }),
        }
    }

    /// The full decision trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> Vec<Decision> {
        self.inner.trace.borrow().clone()
    }
}

impl ChoiceSource for ScriptedChoices {
    fn choose(&self, site: &'static str, alts: &[Alt]) -> usize {
        assert!(!alts.is_empty(), "choice point {site:?} with empty domain");
        let d = self.inner.cursor.get();
        self.inner.cursor.set(d + 1);
        let pick = self.inner.picks.get(d).map_or(0, |p| *p as usize);
        assert!(
            pick < alts.len(),
            "schedule pick {pick} at decision {d} ({site}) out of range for \
             {} alternatives — the schedule does not fit this program",
            alts.len()
        );
        self.inner.trace.borrow_mut().push(Decision {
            site,
            alts: alts.to_vec(),
            picked: pick,
        });
        pick
    }

    fn taken(&self) -> Schedule {
        Schedule {
            picks: self
                .inner
                .trace
                .borrow()
                .iter()
                .map(|d| d.picked as u32)
                .collect(),
        }
    }
}

/// What one execution reports back to the [`Explorer`].
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Oracle violations found in this run (empty ⇒ the run passed).
    pub violations: Vec<String>,
}

impl RunReport {
    /// A report carrying the given violations.
    #[must_use]
    pub fn new(violations: Vec<String>) -> RunReport {
        RunReport { violations }
    }
}

/// A violating run: the schedule that reaches it plus what the oracle
/// reported. Feed the schedule back through [`ScriptedChoices`] to replay
/// the violation bit-identically.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Decision vector reproducing the violation.
    pub schedule: Schedule,
    /// The oracle's complaints.
    pub violations: Vec<String>,
}

/// Aggregate results of an exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Executions that ran to completion (distinct schedules checked).
    pub runs: usize,
    /// Executions cut short because the search reached a sleep-set
    /// blocked node (their whole subtree is redundant).
    pub aborted: usize,
    /// Distinct choice points visited in the tree.
    pub nodes: usize,
    /// Alternatives skipped outright because a sleep set proved them
    /// redundant.
    pub slept: usize,
    /// Deepest decision depth reached by any run.
    pub max_depth: usize,
    /// Runs that hit the depth cap (their tail decisions defaulted and
    /// were not branched — `complete` is false if this is non-zero).
    pub truncated: usize,
    /// True when the tree was exhausted within the depth/run caps.
    pub complete: bool,
    /// Violating runs, in schedule order.
    pub counterexamples: Vec<Counterexample>,
}

impl ExploreStats {
    fn merge(&mut self, other: ExploreStats) {
        self.runs += other.runs;
        self.aborted += other.aborted;
        self.nodes += other.nodes;
        self.slept += other.slept;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.truncated += other.truncated;
        self.complete &= other.complete;
        self.counterexamples.extend(other.counterexamples);
    }

    /// Executions actually paid for (completed plus aborted).
    #[must_use]
    pub fn executions(&self) -> usize {
        self.runs + self.aborted
    }
}

/// One node of the choice tree, as the DFS sees it.
#[derive(Clone, Debug)]
struct Frame {
    site: &'static str,
    alts: Vec<Alt>,
    /// Sleep set on entry: actions already covered by an earlier sibling
    /// subtree somewhere up the tree, still guaranteed redundant here.
    entry_sleep: Vec<Alt>,
    /// Picks taken so far, in exploration order; the last one is the
    /// branch the current path follows. Empty ⇔ the node is blocked.
    tried: Vec<usize>,
    /// Seeded frames (parallel frontier roots) never yield siblings.
    pinned: bool,
    blocked: bool,
}

impl Frame {
    fn current_pick(&self) -> usize {
        *self
            .tried
            .last()
            .expect("blocked frame has no current pick")
    }

    fn is_slept(&self, alt: Alt) -> bool {
        self.entry_sleep.iter().any(|s| s.id == alt.id)
    }

    /// Next unexplored, non-slept alternative — `None` when exhausted.
    fn next_alternative(&self) -> Option<usize> {
        if self.pinned {
            return None;
        }
        (0..self.alts.len()).find(|i| !self.tried.contains(i) && !self.is_slept(self.alts[*i]))
    }

    /// Alternatives this node will never explore thanks to its sleep set.
    fn slept_remaining(&self) -> usize {
        if self.pinned {
            return 0;
        }
        (0..self.alts.len())
            .filter(|i| !self.tried.contains(i) && self.is_slept(self.alts[*i]))
            .count()
    }

    /// Sleep set a child of the current pick starts with: everything
    /// currently asleep here (entries plus finished siblings) that
    /// commutes with the picked action. Dependent entries wake up —
    /// executing the pick can change their behavior, so their subtrees
    /// are no longer guaranteed redundant.
    fn child_sleep(&self) -> Vec<Alt> {
        let picked = self.alts[self.current_pick()];
        let mut sleep = Vec::new();
        for s in &self.entry_sleep {
            if s.independent(picked) {
                sleep.push(*s);
            }
        }
        for &j in &self.tried[..self.tried.len() - 1] {
            let sibling = self.alts[j];
            if sibling.independent(picked) {
                sleep.push(sibling);
            }
        }
        sleep
    }
}

#[derive(Debug)]
struct Walk {
    frames: Vec<Frame>,
    cursor: usize,
    pruned: bool,
    truncated: bool,
    pruning: bool,
    nodes: usize,
}

impl Walk {
    fn schedule(&self) -> Schedule {
        Schedule {
            picks: self
                .frames
                .iter()
                .filter(|f| !f.blocked)
                .map(|f| f.current_pick() as u32)
                .collect(),
        }
    }
}

/// The [`Explorer`]'s per-run [`ChoiceSource`]: follows the decision
/// prefix the search wants to revisit, extends the tree at fresh choice
/// points, and flags the run as [`pruned`](ChoiceSource::pruned) when it
/// enters a sleep-set blocked node. Clones share the walk, so harnesses
/// can hand one to a fault policy while the explorer drives the run.
#[derive(Clone, Debug)]
pub struct DfsChooser {
    walk: Rc<RefCell<Walk>>,
}

impl ChoiceSource for DfsChooser {
    fn choose(&self, site: &'static str, alts: &[Alt]) -> usize {
        assert!(!alts.is_empty(), "choice point {site:?} with empty domain");
        let mut w = self.walk.borrow_mut();
        if w.pruned {
            return 0;
        }
        let d = w.cursor;
        if d < w.frames.len() {
            let frame = &w.frames[d];
            assert!(
                frame.site == site && frame.alts == alts,
                "choice tree diverged: a run with an identical decision \
                 prefix presented different alternatives at depth {d} \
                 (recorded {}×{:?}, got {}×{site:?}) — the harness is not \
                 deterministic in its choices",
                frame.alts.len(),
                frame.site,
                alts.len(),
            );
            let pick = frame.current_pick();
            w.cursor += 1;
            return pick;
        }
        if d >= MAX_DEPTH {
            w.truncated = true;
            return 0;
        }
        let entry_sleep = if !w.pruning {
            Vec::new()
        } else {
            w.frames.last().map_or_else(Vec::new, Frame::child_sleep)
        };
        let first_awake =
            (0..alts.len()).find(|&i| !entry_sleep.iter().any(|s| s.id == alts[i].id));
        w.nodes += 1;
        match first_awake {
            Some(pick) => {
                w.frames.push(Frame {
                    site,
                    alts: alts.to_vec(),
                    entry_sleep,
                    tried: vec![pick],
                    pinned: false,
                    blocked: false,
                });
                w.cursor += 1;
                pick
            }
            None => {
                // Every alternative is asleep: any continuation from here
                // only reorders commuting actions of a subtree already
                // explored. Record the blocked node (it still owns the
                // slept-alternative count), flag the run, and default.
                w.frames.push(Frame {
                    site,
                    alts: alts.to_vec(),
                    entry_sleep,
                    tried: Vec::new(),
                    pinned: false,
                    blocked: true,
                });
                w.pruned = true;
                w.cursor += 1;
                0
            }
        }
    }

    fn pruned(&self) -> bool {
        self.walk.borrow().pruned
    }

    fn taken(&self) -> Schedule {
        self.walk.borrow().schedule()
    }
}

/// Depth-first systematic search over a program's choice tree.
///
/// The harness is a closure executing **one full run** against a
/// [`DfsChooser`]; the explorer calls it repeatedly, steering each run
/// down a different branch until the tree is exhausted. Requirements on
/// the harness: identical decision prefixes must present identical choice
/// points (run it on a fixed-seed deterministic substrate), and each run
/// must terminate.
#[derive(Clone, Copy, Debug)]
pub struct Explorer {
    pruning: bool,
}

/// Decision depth beyond which a run defaults to the first alternative
/// and the exploration reports it as truncated.
const MAX_DEPTH: usize = 4096;
/// Executions (completed + aborted) after which the exploration stops and
/// reports itself incomplete.
const MAX_RUNS: usize = 1_000_000;

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer::new()
    }
}

impl Explorer {
    /// An explorer with sleep-set pruning on, capped at depth 4096 and
    /// one million executions.
    #[must_use]
    pub fn new() -> Explorer {
        Explorer { pruning: true }
    }

    /// Enables or disables sleep-set pruning. With pruning off the search
    /// enumerates every schedule naively — the baseline the pruned counts
    /// are compared against.
    #[must_use]
    pub fn pruning(mut self, on: bool) -> Explorer {
        self.pruning = on;
        self
    }

    /// Explores with the root-level branches mapped over `workers` threads
    /// by [`par_map`] and merged in branch order. Sleep sets are path-local
    /// (each branch's pruning depends only on its position among its root
    /// siblings, which is fixed), so the visited tree, the statistics, and
    /// the counterexample set are identical at every worker count.
    ///
    /// The harness must be `Sync`: workers call it concurrently, each
    /// constructing its own substrate inside the closure. A panic in the
    /// harness reaches the caller with its own payload.
    pub fn explore_parallel<F>(&self, workers: usize, run: F) -> ExploreStats
    where
        F: Fn(&DfsChooser) -> RunReport + Sync,
    {
        // Probe run: discover the root choice point. Its work is repeated
        // by branch 0's exploration, so it is not counted.
        let walk = Rc::new(RefCell::new(Walk {
            frames: Vec::new(),
            cursor: 0,
            pruned: false,
            truncated: false,
            pruning: self.pruning,
            nodes: 0,
        }));
        let probe = DfsChooser { walk: walk.clone() };
        let report = run(&probe);
        let w = walk.borrow();
        let Some(root) = w.frames.first() else {
            // The program has no choice points: the probe was the tree.
            let mut stats = ExploreStats {
                runs: 1,
                complete: true,
                ..ExploreStats::default()
            };
            if !report.violations.is_empty() {
                stats.counterexamples.push(Counterexample {
                    schedule: Schedule::default(),
                    violations: report.violations,
                });
            }
            return stats;
        };
        let site = root.site;
        let alts = root.alts.clone();
        drop(w);

        let branches: Vec<usize> = (0..alts.len()).collect();
        let results = par_map(&branches, workers, |&branch| {
            // Seed the walk with a pinned root: `tried` lists every earlier
            // sibling so the child sleep set matches the sequential search.
            let seed = vec![Frame {
                site,
                alts: alts.clone(),
                entry_sleep: Vec::new(),
                tried: (0..=branch).collect(),
                pinned: true,
                blocked: false,
            }];
            self.drive(seed, &run)
        });
        let mut stats = ExploreStats {
            // The shared root node, discovered once by the probe.
            nodes: 1,
            complete: true,
            ..ExploreStats::default()
        };
        for r in results {
            stats.merge(r);
        }
        stats
            .counterexamples
            .sort_by(|a, b| a.schedule.cmp(&b.schedule));
        stats
    }

    fn drive(&self, seed: Vec<Frame>, run: &impl Fn(&DfsChooser) -> RunReport) -> ExploreStats {
        let mut stats = ExploreStats {
            complete: true,
            ..ExploreStats::default()
        };
        let walk = Rc::new(RefCell::new(Walk {
            frames: seed,
            cursor: 0,
            pruned: false,
            truncated: false,
            pruning: self.pruning,
            nodes: 0,
        }));
        let chooser = DfsChooser { walk: walk.clone() };
        loop {
            if stats.executions() >= MAX_RUNS {
                stats.complete = false;
                break;
            }
            {
                let mut w = walk.borrow_mut();
                w.cursor = 0;
                w.pruned = false;
                w.truncated = false;
            }
            let report = run(&chooser);
            let mut w = walk.borrow_mut();
            stats.max_depth = stats.max_depth.max(w.cursor);
            if w.truncated {
                stats.truncated += 1;
                stats.complete = false;
            }
            if w.pruned {
                stats.aborted += 1;
            } else {
                stats.runs += 1;
                if !report.violations.is_empty() {
                    stats.counterexamples.push(Counterexample {
                        schedule: w.schedule(),
                        violations: report.violations,
                    });
                }
            }
            // Backtrack: deepest node with an unexplored awake alternative.
            let mut advanced = false;
            while let Some(frame) = w.frames.last_mut() {
                if let Some(next) = frame.next_alternative() {
                    frame.tried.push(next);
                    advanced = true;
                    break;
                }
                stats.slept += frame.slept_remaining();
                w.frames.pop();
            }
            if !advanced {
                break;
            }
        }
        stats.nodes = walk.borrow().nodes;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy scheduler: `actions[i]` is a queue of (id, footprint) steps
    /// for actor `i`; each round offers one alternative per non-empty
    /// queue and pops the picked actor's head.
    ///
    /// Violation: the picks *restricted to the actors named in the
    /// pattern* equal the pattern. As long as those actors are pairwise
    /// dependent, this predicate is invariant under commuting swaps —
    /// like a real oracle, it judges the partial order, so a pruned
    /// search that completes only one representative per trace class
    /// still classifies every class correctly.
    fn toy<'a>(
        actions: &'a [Vec<Alt>],
        violating: Option<&'a [u32]>,
    ) -> impl Fn(&dyn ChoiceSource) -> RunReport + Sync + 'a {
        move |choices| {
            let mut queues: Vec<Vec<Alt>> = actions
                .iter()
                .map(|q| {
                    let mut q = q.clone();
                    q.reverse();
                    q
                })
                .collect();
            let mut picks = Vec::new();
            loop {
                let live: Vec<usize> = (0..queues.len())
                    .filter(|&i| !queues[i].is_empty())
                    .collect();
                if live.is_empty() {
                    break;
                }
                let alts: Vec<Alt> = live.iter().map(|&i| *queues[i].last().unwrap()).collect();
                let pick = choices.choose("sched", &alts);
                picks.push(live[pick] as u32);
                queues[live[pick]].pop();
            }
            let bad = violating.is_some_and(|pat| {
                let filtered: Vec<u32> =
                    picks.iter().copied().filter(|p| pat.contains(p)).collect();
                filtered == pat
            });
            RunReport::new(if bad { vec!["hit".into()] } else { Vec::new() })
        }
    }

    fn actor(i: u64, steps: usize) -> Vec<Alt> {
        (0..steps).map(|_| Alt::new(i, 1 << i)).collect()
    }

    #[test]
    fn independent_actions_collapse_to_one_trace() {
        // 3 independent single-step actors: 3! = 6 naive interleavings,
        // one Mazurkiewicz trace.
        let actions = [actor(0, 1), actor(1, 1), actor(2, 1)];
        let t = toy(&actions, None);
        let naive = Explorer::new().pruning(false).explore_parallel(1, |c| t(c));
        assert_eq!(naive.runs, 6);
        assert_eq!(naive.aborted, 0);
        assert!(naive.complete);

        let pruned = Explorer::new().explore_parallel(1, |c| t(c));
        assert_eq!(pruned.runs, 1, "one representative per trace");
        assert!(pruned.executions() < naive.runs);
        assert!(pruned.complete);
        assert!(pruned.slept > 0);
    }

    #[test]
    fn dependent_actions_are_not_pruned() {
        // Two actors racing on the same resource: both orders matter.
        let actions = [vec![Alt::new(0, 0b1)], vec![Alt::new(1, 0b1)]];
        let t = toy(&actions, None);
        let pruned = Explorer::new().explore_parallel(1, |c| t(c));
        assert_eq!((pruned.runs, pruned.aborted, pruned.slept), (2, 0, 0));
    }

    #[test]
    fn pruning_preserves_the_violation_set() {
        // Mixed dependence: A and B race on bit 1, C is independent. The
        // violating schedule must be found with and without pruning.
        let actions = [
            vec![Alt::new(0, 0b01), Alt::new(0, 0b01)],
            vec![Alt::new(1, 0b01)],
            vec![Alt::new(2, 0b10)],
        ];
        for violating in [&[1u32, 0, 0, 2][..], &[0, 1, 0, 2], &[0, 0, 1, 2]] {
            let t = toy(&actions, Some(violating));
            let naive = Explorer::new().pruning(false).explore_parallel(1, |c| t(c));
            let pruned = Explorer::new().explore_parallel(1, |c| t(c));
            // Naive finds the exact schedule; pruning may visit a
            // commuting representative instead, but must flag *a*
            // violation iff one exists.
            assert!(!naive.counterexamples.is_empty(), "{violating:?}");
            assert!(
                !pruned.counterexamples.is_empty(),
                "pruning lost the violation for {violating:?}"
            );
        }
    }

    #[test]
    fn parallel_frontier_is_worker_count_invariant() {
        // Actors 0 and 1 race on bit 0; actor 2 is independent. The
        // violating pattern names only the dependent pair.
        let actions = [actor(0, 2), vec![Alt::new(1, 0b1)], actor(2, 1)];
        let t = toy(&actions, Some(&[1, 0, 0]));
        let base = Explorer::new().explore_parallel(1, |c| t(c));
        for workers in [2, 3, 8] {
            let s = Explorer::new().explore_parallel(workers, |c| t(c));
            assert_eq!(s.runs, base.runs, "{workers} workers");
            assert_eq!(s.aborted, base.aborted, "{workers} workers");
            assert_eq!(s.nodes, base.nodes, "{workers} workers");
            assert_eq!(s.slept, base.slept, "{workers} workers");
            assert_eq!(
                s.counterexamples.len(),
                base.counterexamples.len(),
                "{workers} workers"
            );
            assert_eq!(
                s.counterexamples.first().map(|c| c.schedule.clone()),
                base.counterexamples.first().map(|c| c.schedule.clone()),
            );
        }
    }

    /// The harness's own panic message reaches the caller at any worker
    /// count, not a stand-in for the worker thread that died.
    #[test]
    fn harness_panic_keeps_its_message_across_workers() {
        let actions = [actor(0, 2), vec![Alt::new(1, 0b1)], actor(2, 1)];
        let t = toy(&actions, None);
        for workers in [1, 2] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Explorer::new().explore_parallel(workers, |c| {
                    let report = t(c);
                    if let Some(&branch @ 2) = c.taken().picks.first() {
                        panic!("harness broke on branch {branch}");
                    }
                    report
                })
            }))
            .expect_err("branch 2's runs panic");
            let msg = err.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(msg, "harness broke on branch 2", "{workers} workers");
        }
    }

    #[test]
    fn schedules_replay_and_round_trip() {
        let actions = [actor(0, 2), vec![Alt::new(1, 0b1)]];
        let t = toy(&actions, Some(&[1, 0, 0]));
        let stats = Explorer::new().pruning(false).explore_parallel(1, |c| t(c));
        let cx = &stats.counterexamples[0];
        // Round-trip through the string form.
        let text = cx.schedule.to_string();
        let parsed: Schedule = text.parse().unwrap();
        assert_eq!(parsed, cx.schedule);
        // Replaying the schedule reproduces the violation.
        let replay = ScriptedChoices::new(&parsed);
        let report = t(&replay);
        assert_eq!(report.violations, vec!["hit".to_string()]);
        assert_eq!(replay.taken(), parsed);
        assert_eq!(replay.trace().len(), parsed.picks.len());
        // Parse errors are reported, not panicked.
        assert!("1.x.2".parse::<Schedule>().is_err());
        assert_eq!("".parse::<Schedule>().unwrap(), Schedule::default());
    }
}
