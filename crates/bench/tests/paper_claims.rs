//! The paper's headline shapes, asserted on the figures the `paper` bench
//! target prints.
//!
//! Each test runs one entry of `hm_bench::paper::FIGURES` at 5 % of its
//! full duration and checks the claim EXPERIMENTS.md records for it. The
//! bounds are the paper's (or, where the reproduction deviates from the
//! paper, the shape EXPERIMENTS.md documents), with room below the values
//! measured at both this scale and full scale; a comment gives those as
//! "this scale / full scale". Every run is seeded, so a failure here is a
//! change in simulated behaviour, not noise.

use std::sync::OnceLock;

use halfmoon::choice::WorkloadProfile;
use halfmoon::ProtocolKind::{self, Boki, HalfmoonRead, HalfmoonWrite, Unsafe};
use hm_bench::paper::{figure, Figure, Panel};

const SCALE: f64 = 0.05;

/// Figure 10, shared with Figure 13's test, which reads `C_r` and `C_w`
/// off it.
fn fig10() -> &'static Figure {
    static FIG10: OnceLock<Figure> = OnceLock::new();
    FIG10.get_or_init(|| figure("fig10")(SCALE))
}

fn row(panel: &Panel, kind: ProtocolKind) -> &[f64] {
    panel.row_of(kind.label())
}

/// §4.6's extra costs from Figure 10's medians: `C_r` is what a read
/// costs Halfmoon-write over Halfmoon-read, `C_w` what a write costs
/// Halfmoon-read over Halfmoon-write.
fn logging_costs(fig10: &Figure) -> (f64, f64) {
    let (read, write) = (fig10.panel("read latency"), fig10.panel("write latency"));
    (
        row(read, HalfmoonWrite)[0] - row(read, HalfmoonRead)[0],
        row(write, HalfmoonRead)[0] - row(write, HalfmoonWrite)[0],
    )
}

#[test]
fn table1_log_and_read_match_the_calibration() {
    let fig = figure("table1")(SCALE);
    let measured = fig.panel("measured");
    let (median, p99) = (measured.row_of("median"), measured.row_of("99%-tile"));
    // (column, measured, paper): 1.18 / 1.18, 1.91 / 1.91, 1.91 / 1.93 ms.
    for (what, ours, paper) in [
        ("log median", median[0], 1.18),
        ("log p99", p99[0], 1.91),
        ("read median", median[1], 1.88),
    ] {
        assert!(
            (ours / paper - 1.0).abs() <= 0.05,
            "{what}: {ours:.2} ms is not within 5 % of the paper's {paper} ms"
        );
    }
}

#[test]
fn fig10_halfmoon_cuts_the_logged_side() {
    let fig = fig10();
    let (read, write) = (fig.panel("read latency"), fig.panel("write latency"));
    let median = |panel: &Panel, kind| row(panel, kind)[0];
    // −58 % / −49 % on reads, −57 % / −58 % on writes.
    assert!(
        median(read, HalfmoonRead) <= 0.7 * median(read, Boki),
        "Halfmoon-read's reads must be >= 30 % faster than Boki's"
    );
    assert!(
        median(write, HalfmoonWrite) <= 0.7 * median(write, Boki),
        "Halfmoon-write's writes must be >= 30 % faster than Boki's"
    );
    let overhead_ratio = |panel: &Panel, kind| {
        let raw = median(panel, Unsafe);
        (median(panel, Boki) - raw) / (median(panel, kind) - raw)
    };
    // 9.9 / 4.2 on reads, 5.6 / 6.3 on writes.
    let (r, w) = (
        overhead_ratio(read, HalfmoonRead),
        overhead_ratio(write, HalfmoonWrite),
    );
    assert!(
        r >= 4.0,
        "read overhead ratio Boki/Halfmoon-read {r:.1} < 4"
    );
    assert!(
        w >= 2.0,
        "write overhead ratio Boki/Halfmoon-write {w:.1} < 2"
    );
    // §4.6's premise C_w ≈ 2 C_r: 1.77 / 2.12.
    let (c_r, c_w) = logging_costs(fig);
    assert!(
        (1.5..=2.5).contains(&(c_w / c_r)),
        "C_w / C_r = {c_w:.2} / {c_r:.2} outside [1.5, 2.5]"
    );
}

#[test]
fn fig11_the_right_protocol_wins_each_app() {
    let fig = figure("fig11")(SCALE);
    // (app, winner, the other Halfmoon protocol, its least gain over Boki):
    // gains 29 %, 16 %, 30 % at the mid rate.
    for (app, winner, other, gain) in [
        ("travel", HalfmoonRead, HalfmoonWrite, 0.2),
        ("movie", HalfmoonWrite, HalfmoonRead, 0.1),
        ("retwis", HalfmoonRead, HalfmoonWrite, 0.2),
    ] {
        let panel = fig.panel(&format!("({app}): median"));
        let mid = panel.columns.len() / 2;
        let at = |kind| row(panel, kind)[mid];
        assert!(at(winner) < at(other), "{app}: {winner} must win");
        assert!(
            at(winner) <= (1.0 - gain) * at(Boki),
            "{app}: {winner} {:.2} ms is not {gain} below Boki's {:.2} ms",
            at(winner),
            at(Boki)
        );
        assert!(at(other) <= at(Boki), "{app}: {other} above Boki");
    }
}

#[test]
fn fig12_storage_follows_the_logged_side() {
    let fig = figure("fig12")(SCALE);
    let rising = |v: &[f64]| v.windows(2).all(|w| w[1] > w[0]);
    let falling = |v: &[f64]| v.windows(2).all(|w| w[1] < w[0]);
    for panel in &fig.panels {
        let title = &panel.title;
        assert!(
            falling(row(panel, HalfmoonRead)),
            "{title}: Halfmoon-read's storage must fall as reads rise"
        );
        assert!(
            rising(row(panel, HalfmoonWrite)),
            "{title}: Halfmoon-write's must rise"
        );
        assert!(rising(row(panel, Boki)), "{title}: Boki's must rise");
        let at_01 = |kind| row(panel, kind)[0];
        assert!(
            at_01(HalfmoonWrite) < at_01(Boki) && at_01(HalfmoonWrite) < at_01(HalfmoonRead),
            "{title}: Halfmoon-write must be cheapest at read ratio 0.1"
        );
    }
    // A longer GC interval keeps more of Halfmoon-read's versions alive.
    for size in ["256B", "1KB"] {
        let at_01 = |gc: &str| row(fig.panel(&format!("size={size}, GC={gc}")), HalfmoonRead)[0];
        assert!(
            at_01("60s") > at_01("10s"),
            "{size}: Halfmoon-read at 0.1 must store more with a 60 s GC"
        );
    }
}

#[test]
fn fig13_the_runtime_boundary_lies_between_half_and_ninety() {
    let fig = figure("fig13")(SCALE);
    let (c_r, c_w) = logging_costs(fig10());
    for panel in &fig.panels {
        let title = &panel.title;
        let (boki, hmr, hmw) = (
            row(panel, Boki),
            row(panel, HalfmoonRead),
            row(panel, HalfmoonWrite),
        );
        let faster = |i: usize| {
            if hmr[i] < hmw[i] {
                HalfmoonRead
            } else {
                HalfmoonWrite
            }
        };
        let column = |ratio: f64| {
            panel
                .columns
                .iter()
                .position(|c| *c == ratio.to_string())
                .expect("swept read ratio")
        };
        assert_eq!(faster(column(0.5)), HalfmoonWrite, "{title} at 0.5");
        assert_eq!(faster(column(0.9)), HalfmoonRead, "{title} at 0.9");
        // 1.66–1.67x / 1.64–1.66x.
        let speedup = boki
            .iter()
            .zip(hmr.iter().zip(hmw))
            .map(|(b, (r, w))| b / r.min(*w))
            .sum::<f64>()
            / boki.len() as f64;
        assert!(speedup >= 1.2, "{title}: best protocol {speedup:.2}x Boki");
        // 5.9 %.
        let lo = hmw.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = hmw.iter().copied().fold(0.0, f64::max);
        assert!(
            hi / lo - 1.0 <= 0.1,
            "{title}: Halfmoon-write's curve varies {:.1} %",
            (hi / lo - 1.0) * 100.0
        );
        // §4.6's advisor, fed Figure 10's costs, names the faster protocol.
        for ratio in [0.1, 0.5, 0.9] {
            let profile = WorkloadProfile {
                p_read: ratio,
                p_write: 1.0 - ratio,
                arrival_rate: 100.0,
                lifetime_secs: 0.03,
                gc_delay_secs: 5.0,
                meta_bytes: 32.0,
                value_bytes: 256.0,
            };
            assert_eq!(
                profile.recommend_for_runtime(c_r, c_w),
                faster(column(ratio)),
                "{title}: advisor at read ratio {ratio} (C_r {c_r:.2}, C_w {c_w:.2})"
            );
        }
    }
}

#[test]
fn fig14_switches_fast_and_leaving_write_is_slower() {
    let fig = figure("fig14")(SCALE);
    let delays = fig.panel("switching delay");
    let (leave_write, leave_read) = (delays.row_of("HM-W -> HM-R"), delays.row_of("HM-R -> HM-W"));
    // 23 and 12 ms at 300 req/s.
    assert!(
        leave_write[0] < 100.0 && leave_read[0] < 100.0,
        "switching at 300 req/s must take < 100 ms: {leave_write:?} {leave_read:?}"
    );
    for (i, rate) in delays.columns.iter().enumerate() {
        assert!(
            leave_write[i] > leave_read[i],
            "@{rate} req/s leaving Halfmoon-write must take longer"
        );
    }
}

#[test]
fn recovery_halfmoon_beats_boki_up_to_half_failures() {
    let fig = figure("recovery")(SCALE);
    let panel = fig.panel("median request latency");
    let boki = row(panel, Boki);
    for kind in [HalfmoonRead, HalfmoonWrite] {
        assert!(
            row(panel, kind).iter().zip(boki).all(|(hm, bk)| hm < bk),
            "{kind} must beat Boki at every f <= 0.5: {:?} vs {boki:?}",
            row(panel, kind)
        );
    }
    let last = panel.columns.len() - 1;
    for (label, curve) in &panel.rows {
        assert!(
            curve[last] > curve[0],
            "{label}: f = 0.5 must cost more than f = 0"
        );
    }
    // 29.82 vs 30.34 / 30.85 vs 31.10 ms.
    assert!(
        panel.row_of("HM-read + checkpoints")[last] <= row(panel, HalfmoonRead)[last],
        "checkpoints must not slow Halfmoon-read at f = 0.5"
    );
}

#[test]
fn ablations_price_the_design_choices() {
    let fig = figure("ablations")(SCALE);
    // Columns: write median, request median, measured and predicted
    // appends per request.
    let logging = fig.panel("write logging");
    let (double, single) = (
        logging.row_of("double (default)"),
        logging.row_of("single (ablation)"),
    );
    // 33 % / 33 %.
    assert!(single[0] <= 0.8 * double[0], "{double:?} vs {single:?}");
    // Measured off the logging matrix's prediction for the op mix, in
    // the panels' row order: −0.4 / −0.2 %, −0.1 / +0.1 %, +1.4 / 0.0 %
    // and −0.5 / +0.2 %.
    for panel in [logging, fig.panel("ordered consecutive writes")] {
        for (label, values) in &panel.rows {
            let (measured, predicted) = (values[2], values[3]);
            assert!(
                (measured / predicted - 1.0).abs() <= 0.015,
                "{label}: {measured:.2} appends per request, {predicted:.2} predicted"
            );
        }
    }
}
