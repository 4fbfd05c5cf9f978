//! Systematic model checking of the §4.4 propositions (DESIGN.md §13).
//!
//! These tests run the explorer end to end over the small 2-node
//! configurations: every scheduling order × every crash placement within
//! the budget is enumerated, the exactly-once auditor judges each
//! completed run, and the suite asserts the repo's headline claims —
//! the three fault-tolerant protocols pass *every* interleaving, the
//! unsafe baseline provably cannot, pruning never changes the verdict,
//! and the parallel frontier is worker-count invariant.

use halfmoon::ProtocolKind;
use hm_runtime::mc::{explore_config, run_schedule, standard_configs, McConfig};

const FT_PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Boki,
    ProtocolKind::HalfmoonRead,
    ProtocolKind::HalfmoonWrite,
];

/// The tentpole claim: on the minimal write/read configuration with crash
/// budget 1, every fault-tolerant protocol satisfies the §4.4
/// propositions on *all* interleavings, exhaustively.
#[test]
fn ft_protocols_pass_every_interleaving_of_the_minimal_config() {
    for kind in FT_PROTOCOLS {
        let stats = explore_config(&McConfig::minimal(kind), true, 1);
        assert!(stats.complete, "{kind:?}: tree not exhausted");
        assert!(stats.runs > 0, "{kind:?}: nothing explored");
        assert!(
            stats.counterexamples.is_empty(),
            "{kind:?} violated the propositions: {:?}",
            stats.counterexamples[0].violations
        );
    }
}

/// Same claim on the write/write race configuration, which adds a second
/// op per actor and therefore crash-retry interleavings *between* ops.
#[test]
fn ft_protocols_pass_every_interleaving_of_the_ww_race() {
    for kind in FT_PROTOCOLS {
        let cfg = standard_configs(kind).remove(1);
        assert_eq!(cfg.name, "ww-1s");
        let stats = explore_config(&cfg, true, 1);
        assert!(stats.complete, "{kind:?}: tree not exhausted");
        assert!(
            stats.counterexamples.is_empty(),
            "{kind:?} violated the propositions: {:?}",
            stats.counterexamples[0].violations
        );
        if kind == ProtocolKind::HalfmoonWrite {
            // The tree's size pins the footprints of its choices.
            let size = (stats.runs, stats.aborted, stats.nodes);
            assert_eq!(size, (555, 53, 1797), "{kind:?}: (runs, aborted, nodes)");
        }
    }
}

/// The unsafe baseline fails systematically: a crash point after a write
/// has taken effect duplicates the write on retry, and the checker finds
/// it (as a replayable schedule) rather than by luck.
#[test]
fn unsafe_baseline_yields_a_replayable_counterexample() {
    let cfg = standard_configs(ProtocolKind::Unsafe).remove(1);
    assert_eq!(cfg.name, "ww-1s");
    let stats = explore_config(&cfg, true, 1);
    assert!(stats.complete);
    let cx = stats
        .counterexamples
        .first()
        .expect("exhaustive search must find the §1 duplicate-update anomaly");
    assert!(
        cx.violations
            .iter()
            .any(|v| v.contains("raw_write_uniqueness")),
        "expected a duplicate raw write: {:?}",
        cx.violations
    );
    let replay = run_schedule(&cfg, &cx.schedule);
    assert_eq!(replay.violations, cx.violations);
    // The violating run dumped its flight-recorder ring, and the dump
    // carries the replayable schedule.
    let dump = replay.flight_dump.expect("violation must trigger a dump");
    assert!(
        dump.contains("mc_schedule") && dump.contains(&cx.schedule.to_string()),
        "dump must carry the schedule for replay"
    );
}

/// Soundness of the sleep-set optimization: pruning explores fewer
/// executions but reaches the same verdict, on both a passing and a
/// failing configuration.
#[test]
fn pruning_preserves_the_verdict() {
    // Failing: pruned search still finds the unsafe anomaly, and every
    // pruned counterexample's violation also occurs in the naive set.
    let cfg = standard_configs(ProtocolKind::Unsafe).remove(1);
    let pruned = explore_config(&cfg, true, 1);
    let naive = explore_config(&cfg, false, 1);
    assert!(!pruned.counterexamples.is_empty());
    assert!(!naive.counterexamples.is_empty());
    let naive_violations: Vec<&String> = naive
        .counterexamples
        .iter()
        .flat_map(|c| &c.violations)
        .collect();
    for cx in &pruned.counterexamples {
        for v in &cx.violations {
            assert!(
                naive_violations.contains(&v),
                "pruned-only violation {v:?} — pruning changed behavior"
            );
        }
    }
    // Passing: agreement in the other direction, with real savings.
    let cfg = standard_configs(ProtocolKind::HalfmoonRead).remove(2);
    assert_eq!(cfg.name, "xy-1s");
    let pruned = explore_config(&cfg, true, 1);
    let naive = explore_config(&cfg, false, 1);
    assert!(pruned.counterexamples.is_empty());
    assert!(naive.counterexamples.is_empty());
    // The pruned tree's size pins the footprints of its choices: a crash
    // choice dependent on everything prunes less.
    let size = (pruned.runs, pruned.aborted, pruned.nodes);
    assert_eq!(size, (706, 188, 3461), "(runs, aborted, nodes)");
    assert!(
        pruned.executions() * 2 <= naive.executions(),
        "sleep sets must prune >= 50% of naive interleavings on disjoint \
         keys: {} vs {}",
        pruned.executions(),
        naive.executions()
    );
}

/// The disjoint-key configuration is where asymmetric logging shows up as
/// commutativity: under Boki every op appends (total order, nothing
/// commutes), while the Halfmoon protocols leave one side log-free.
#[test]
fn asymmetric_logging_buys_commutativity() {
    let boki = explore_config(&standard_configs(ProtocolKind::Boki).remove(2), true, 1);
    let hm = explore_config(
        &standard_configs(ProtocolKind::HalfmoonRead).remove(2),
        true,
        1,
    );
    assert_eq!(
        boki.slept, 0,
        "symmetric logging leaves nothing to commute, so nothing sleeps"
    );
    assert!(hm.slept > 0, "log-free reads must commute");
    assert!(hm.executions() < boki.executions());
}

/// Spreading the root frontier across workers changes wall time only:
/// statistics and counterexamples are identical at every worker count.
#[test]
fn exploration_is_worker_count_invariant() {
    let cfg = standard_configs(ProtocolKind::Unsafe).remove(1);
    let seq = explore_config(&cfg, true, 1);
    for workers in [2, 4] {
        let par = explore_config(&cfg, true, workers);
        assert_eq!(seq.runs, par.runs, "workers={workers}");
        assert_eq!(seq.aborted, par.aborted, "workers={workers}");
        assert_eq!(seq.nodes, par.nodes, "workers={workers}");
        assert_eq!(seq.slept, par.slept, "workers={workers}");
        assert_eq!(
            seq.counterexamples.len(),
            par.counterexamples.len(),
            "workers={workers}"
        );
        for (a, b) in seq.counterexamples.iter().zip(&par.counterexamples) {
            assert_eq!(a.schedule, b.schedule, "workers={workers}");
            assert_eq!(a.violations, b.violations, "workers={workers}");
        }
    }
}

/// A crash budget of zero removes every crash choice point, leaving only
/// scheduling nondeterminism — the tree shrinks, and still passes.
#[test]
fn crash_budget_zero_explores_only_schedules() {
    let with_crashes = explore_config(&McConfig::minimal(ProtocolKind::HalfmoonRead), true, 1);
    let cfg = McConfig::minimal(ProtocolKind::HalfmoonRead).with_crashes(0);
    let without = explore_config(&cfg, true, 1);
    assert!(without.complete && without.counterexamples.is_empty());
    assert!(
        without.executions() < with_crashes.executions(),
        "crash points must multiply the tree: {} vs {}",
        without.executions(),
        with_crashes.executions()
    );
}

/// The two-shard, three-op configuration with a stall injection — the
/// largest cell of the standard matrix — still exhausts and still passes
/// for the protocol with the biggest tree's fault-tolerant sibling.
/// (The full four-protocol sweep lives in the `explore` driver; one cell
/// here keeps the test suite's wall time in check.)
#[test]
fn two_shard_stalled_config_passes_exhaustively() {
    let cfg = standard_configs(ProtocolKind::HalfmoonRead).remove(3);
    assert_eq!(cfg.name, "xy-2s");
    assert_eq!(cfg.shards, 2);
    assert!(cfg.stall);
    let stats = explore_config(&cfg, true, 1);
    assert!(stats.complete);
    assert!(
        stats.counterexamples.is_empty(),
        "violations: {:?}",
        stats.counterexamples[0].violations
    );
}
