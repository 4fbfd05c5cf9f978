//! The paper's evaluation as values: Table 1, Figures 10–14, the §7
//! recovery sweep and the ablations.
//!
//! Each entry of [`FIGURES`] runs one table or figure with its durations
//! multiplied by `scale` and returns a [`Figure`]: panels of labelled
//! numeric rows plus summary notes. The `paper` bench target prints them
//! with [`print()`]; `tests/paper_claims.rs` runs them at reduced scale and
//! asserts the paper's headline shapes on the same values.
//!
//! Every open-loop run goes through [`run_app`]. Two bodies keep their own
//! drivers: Table 1's raw-append histogram drives a [`LogService`]
//! directly, and Figure 14 switches protocols under a phase-alternating
//! generator, which is not an open-loop run.
//!
//! A figure's cells are independent seeded runs, so every figure but
//! Table 1 maps them through [`par_map`] on every core the host has. Each
//! cell builds its own `Sim`, so the printed output is the same at any
//! core count.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use halfmoon::choice::RecoveryModel;
use halfmoon::client::OpLatencies;
use halfmoon::ProtocolKind::{self, Boki, HalfmoonRead, HalfmoonWrite, Unsafe};
use halfmoon::{Client, FaultPolicy, OpRecord, ProtocolConfig, StepRecord, Switcher};
use hm_common::ids::TagKind;
use hm_common::latency::LatencyModel;
use hm_common::metrics::Histogram;
use hm_common::{InstanceId, NodeId, StepNum, Tag};
use hm_runtime::{GcDriver, Runtime, RuntimeConfig};
use hm_sharedlog::{LogConfig, LogService};
use hm_substrate::{par_map, sim::Sim, Time};
use hm_workloads::movie::Movie;
use hm_workloads::retwis::Retwis;
use hm_workloads::synthetic::{MicroRw, SyntheticOps};
use hm_workloads::travel::Travel;
use hm_workloads::Workload;

use crate::{print_table, run_app, AppRun};

/// One table or figure: its panels, then summary notes.
pub struct Figure {
    /// Heading printed above the panels.
    pub title: &'static str,
    /// The tables, in print order.
    pub panels: Vec<Panel>,
    /// Summary lines printed under the panels.
    pub notes: Vec<String>,
}

/// One table of labelled numeric rows.
pub struct Panel {
    /// Table heading.
    pub title: String,
    /// Header of the label column.
    pub corner: String,
    /// Headers of the value columns.
    pub columns: Vec<String>,
    /// Decimal places each value column prints with.
    pub decimals: Vec<usize>,
    /// `(label, one value per column)`; NaN prints as `-`.
    pub rows: Vec<(String, Vec<f64>)>,
    /// For a sweep, the heading of the ASCII chart drawn under the table
    /// (one series per row, the columns as x positions).
    pub chart: Option<&'static str>,
}

impl Figure {
    fn new(title: &'static str, panels: Vec<Panel>, notes: Vec<String>) -> Figure {
        Figure {
            title,
            panels,
            notes,
        }
    }

    /// The first panel whose title contains `needle`.
    ///
    /// # Panics
    ///
    /// If no panel's title does.
    #[must_use]
    pub fn panel(&self, needle: &str) -> &Panel {
        self.panels
            .iter()
            .find(|p| p.title.contains(needle))
            .unwrap_or_else(|| panic!("{}: no panel titled *{needle}*", self.title))
    }
}

impl Panel {
    fn new(
        title: impl Into<String>,
        corner: &str,
        columns: impl IntoIterator<Item = impl ToString>,
        decimals: usize,
    ) -> Panel {
        let columns: Vec<String> = columns.into_iter().map(|c| c.to_string()).collect();
        Panel {
            title: title.into(),
            corner: corner.into(),
            decimals: vec![decimals; columns.len()],
            columns,
            rows: Vec::new(),
            chart: None,
        }
    }

    fn row(mut self, label: impl Into<String>, values: impl Into<Vec<f64>>) -> Panel {
        self.rows.push((label.into(), values.into()));
        self
    }

    /// The values of the row labelled `label`.
    ///
    /// # Panics
    ///
    /// If no row is.
    #[must_use]
    pub fn row_of(&self, label: &str) -> &[f64] {
        self.rows
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v.as_slice())
            .unwrap_or_else(|| panic!("{}: no row {label:?}", self.title))
    }
}

/// A figure body: duration scale in, figure out.
pub type FigureFn = fn(f64) -> Figure;

/// The evaluation, in paper order, keyed by the names the `paper` bench
/// target takes.
pub const FIGURES: [(&str, FigureFn); 8] = [
    ("table1", table1),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("recovery", recovery),
    ("ablations", ablations),
];

/// The body [`FIGURES`] keys as `name`.
///
/// # Panics
///
/// On an unknown name, listing the known ones.
#[must_use]
pub fn figure(name: &str) -> FigureFn {
    FIGURES
        .iter()
        .find(|(key, _)| *key == name)
        .map(|&(_, body)| body)
        .unwrap_or_else(|| {
            let known: Vec<&str> = FIGURES.iter().map(|(key, _)| *key).collect();
            panic!("unknown figure {name:?}; known: {}", known.join(", "))
        })
}

/// Prints every panel as a markdown table (and a sweep's ASCII chart
/// under it), then the notes.
pub fn print(figure: &Figure) {
    println!("# {}", figure.title);
    for panel in &figure.panels {
        let headers: Vec<&str> = std::iter::once(panel.corner.as_str())
            .chain(panel.columns.iter().map(String::as_str))
            .collect();
        let rows: Vec<Vec<String>> = (panel.rows.iter())
            .map(|(label, values)| {
                let cells = values.iter().zip(&panel.decimals).map(|(v, &d)| {
                    Some(v)
                        .filter(|v| v.is_finite())
                        .map_or("-".into(), |v| format!("{v:.d$}"))
                });
                std::iter::once(label.clone()).chain(cells).collect()
            })
            .collect();
        print_table(&panel.title, &headers, &rows);
        if let Some(heading) = panel.chart {
            print_chart(panel, heading);
        }
    }
    for note in &figure.notes {
        println!("{note}");
    }
}

/// Renders a panel's rows as an ASCII line chart over its columns,
/// heights scaled to the global min/max.
fn print_chart(panel: &Panel, heading: &str) {
    const ROWS: usize = 12;
    const COL_WIDTH: usize = 6;
    let marks = ['*', 'o', '+', 'x', '#', '@'];
    let (min, max) = (panel.rows.iter().flat_map(|(_, pts)| pts))
        .filter(|v| v.is_finite())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    if min > max {
        return;
    }
    let span = (max - min).max(1e-9);
    let cols = panel.columns.len();
    println!("\n{heading}");
    let mut grid = vec![vec![' '; cols * COL_WIDTH]; ROWS];
    for (si, (_, pts)) in panel.rows.iter().enumerate() {
        for (i, v) in pts.iter().enumerate().filter(|(_, v)| v.is_finite()) {
            let row = ((max - v) / span * (ROWS as f64 - 1.0)).round() as usize;
            grid[row.min(ROWS - 1)][i * COL_WIDTH + COL_WIDTH / 2] = marks[si % marks.len()];
        }
    }
    for (r, row) in grid.iter().enumerate() {
        let y = max - span * r as f64 / (ROWS as f64 - 1.0);
        let line: String = row.iter().collect();
        println!("{y:8.1} |{}", line.trim_end());
    }
    println!("{:8} +{}", "", "-".repeat(cols * COL_WIDTH));
    print!("{:8}  ", "");
    panel
        .columns
        .iter()
        .for_each(|label| print!("{label:^COL_WIDTH$}"));
    println!();
    let legend: Vec<String> = panel
        .rows
        .iter()
        .enumerate()
        .map(|(si, (name, _))| format!("{} {name}", marks[si % marks.len()]))
        .collect();
    println!("{:8}  legend: {}", "", legend.join("   "));
}

/// The four systems Figures 10 and 11 compare.
const SYSTEMS: [ProtocolKind; 4] = [Unsafe, Boki, HalfmoonRead, HalfmoonWrite];

/// The three fault-tolerant protocols.
const FT: [ProtocolKind; 3] = [Boki, HalfmoonRead, HalfmoonWrite];

/// The read-ratio sweep of Figures 12 and 13.
const RATIOS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// The worker count figures pass to [`par_map`], which caps it at the
/// host's cores.
const ALL_CORES: usize = usize::MAX;

/// An open-loop run at `rate` on the default runtime: `secs` measured
/// after `warmup`, GC every `gc`, all three scaled.
fn open_loop(scale: f64, seed: u64, rate: f64, [secs, warmup, gc]: [f64; 3]) -> AppRun {
    let scaled = |base: f64| Duration::from_secs_f64(base * scale);
    AppRun {
        seed,
        rate,
        duration: scaled(secs),
        warmup: scaled(warmup),
        rt_config: RuntimeConfig::default(),
        gc_interval: Some(scaled(gc)),
    }
}

/// Milliseconds, NaN for an empty histogram.
fn ms(v: Option<f64>) -> f64 {
    v.unwrap_or(f64::NAN)
}

/// Every `(panel, kind, x)` of `panels` × `kinds` × `xs`, in print order:
/// the cells of a figure whose panels each sweep `xs` per protocol.
fn grid<P: Copy, X: Copy>(
    panels: &[P],
    kinds: &[ProtocolKind],
    xs: &[X],
) -> Vec<(P, ProtocolKind, X)> {
    let mut cells = Vec::new();
    for &p in panels {
        for &kind in kinds {
            cells.extend(xs.iter().map(|&x| (p, kind, x)));
        }
    }
    cells
}

/// A two-decimal panel with one row per protocol of `kinds` and one column
/// per `x`, filled from `cells` row by row.
fn sweep<X: std::fmt::Display>(
    title: String,
    corner: &str,
    xs: &[X],
    kinds: &[ProtocolKind],
    cells: &[f64],
) -> Panel {
    let panel = Panel::new(title, corner, xs, 2);
    (kinds.iter().zip(cells.chunks(xs.len())))
        .fold(panel, |panel, (kind, row)| panel.row(kind.label(), row))
}

/// The first column at which row `below` drops below row `above`, or `>`
/// the last column.
fn crossover(panel: &Panel, below: ProtocolKind, above: ProtocolKind) -> String {
    let (below, above) = (panel.row_of(below.label()), panel.row_of(above.label()));
    panel
        .columns
        .iter()
        .zip(below.iter().zip(above))
        .find(|(_, (b, a))| b < a)
        .map_or_else(
            || format!(">{}", panel.columns[panel.columns.len() - 1]),
            |(column, _)| column.clone(),
        )
}

/// **Table 1**: latency of log, read and write operations in Boki (§2).
///
/// The 1R1W microbenchmark SSF over 10 K objects (8 B keys, 256 B values)
/// under the Boki protocol; "Log" is a raw `logAppend`.
fn table1(scale: f64) -> Figure {
    // Sequential raw appends of a step record, one per node in turn.
    let mut sim = Sim::new(0x7ab1e);
    let log: LogService<StepRecord> =
        LogService::new(sim.ctx(), LatencyModel::calibrated(), LogConfig::default());
    let ctx = sim.ctx();
    let log = sim.block_on(async move {
        let mut hist = Histogram::new();
        let tag = Tag::named(TagKind::StepLog, "bench");
        for i in 0..20_000u32 {
            let started = ctx.now();
            let record = StepRecord {
                instance: InstanceId(u128::from(i)),
                step: StepNum(0),
                op: OpRecord::Sync,
            };
            log.append(NodeId(i % 8), vec![tag], record).await;
            hist.record(ctx.now() - started);
        }
        hist
    });
    let params = open_loop(scale, 0x7ab1e2, 100.0, [120.0, 5.0, 10.0]);
    let out = run_app(&MicroRw::default(), &params, |b| b.protocol(Boki));
    let hists = [&log, &out.op_latencies.read, &out.op_latencies.write];
    let columns = ["Log", "Read", "Write"];
    let measured = Panel::new("Table 1 (measured): latency (ms)", "", columns, 2)
        .row("median", hists.map(|h| ms(h.median_ms())))
        .row("99%-tile", hists.map(|h| ms(h.p99_ms())));
    let paper = Panel::new("Table 1 (paper): latency (ms)", "", columns, 2)
        .row("median", [1.18, 1.88, 2.47])
        .row("99%-tile", [1.91, 4.60, 5.86]);
    let [log, read, write] = hists.map(Histogram::count);
    Figure::new(
        "Table 1: latency of log, read and write operations in Boki",
        vec![measured, paper],
        vec![format!("samples: log={log}, read={read}, write={write}")],
    )
}

/// **Figure 10**: read and write latency of Raw (unsafe), Boki,
/// Halfmoon-read and Halfmoon-write (§6.1).
///
/// Paper: Halfmoon-read ≈ 30 % lower read latency than Boki and only ~15 %
/// above raw reads (4–5× lower overhead); Halfmoon-write ≈ 30 % lower
/// write latency than Boki with 2–6× lower overhead above raw writes. The
/// 1R1W SSF over 10 K objects, measured over (scaled) two minutes.
fn fig10(scale: f64) -> Figure {
    let params = open_loop(scale, 0xf1610, 100.0, [120.0, 5.0, 10.0]);
    let runs = par_map(&SYSTEMS, ALL_CORES, |&kind| {
        run_app(&MicroRw::default(), &params, |b| b.protocol(kind)).op_latencies
    });
    let panel = |title: &str, op: fn(&OpLatencies) -> &Histogram| {
        let columns = ["median (ms)", "p99 (ms)", "overhead vs raw (%)"];
        let mut panel = Panel::new(title, "system", columns, 2);
        panel.decimals[2] = 0;
        let raw = ms(op(&runs[0]).median_ms());
        SYSTEMS.iter().zip(&runs).fold(panel, |panel, (kind, run)| {
            let hist = op(run);
            let median = ms(hist.median_ms());
            let overhead = (median / raw - 1.0) * 100.0;
            panel.row(kind.label(), [median, ms(hist.p99_ms()), overhead])
        })
    };
    let read = panel("Figure 10a: read latency", |l| &l.read);
    let write = panel("Figure 10b: write latency", |l| &l.write);
    let median = |panel: &Panel, kind: ProtocolKind| panel.row_of(kind.label())[0];
    let mut notes =
        vec!["Shape checks (paper: ~30% lower; overhead ratios 4-5x reads / 2-6x writes):".into()];
    for (panel, kind, op) in [
        (&read, HalfmoonRead, "read"),
        (&write, HalfmoonWrite, "write"),
    ] {
        let ours = median(panel, kind);
        let (boki, raw) = (median(panel, Boki), median(panel, Unsafe));
        notes.push(format!(
            "  {kind} {op} vs Boki {op}: {ours:.2} vs {boki:.2} ms ({:.0}% lower); \
             {op} overhead ratio Boki/{kind}: {:.1}x",
            (1.0 - ours / boki) * 100.0,
            (boki - raw) / (ours - raw).max(1e-9)
        ));
    }
    let c_r = median(&read, HalfmoonWrite) - median(&read, HalfmoonRead);
    let c_w = median(&write, HalfmoonRead) - median(&write, HalfmoonWrite);
    notes.push(format!(
        "  C_r = {c_r:.2} ms, C_w = {c_w:.2} ms, C_w / C_r = {:.2} (§4.6 premise: ≈ 2)",
        c_w / c_r
    ));
    Figure::new(
        "Figure 10: latency of read and write per system",
        vec![read, write],
        notes,
    )
}

/// **Figure 11**: end-to-end latency vs throughput for the three
/// application workloads (§6.2).
///
/// Paper: with the appropriate protocol Halfmoon gives 20–40 % lower
/// median latency than Boki and 1.5–4.0× lower overhead above the unsafe
/// baseline; Halfmoon-read wins travel and retwis, Halfmoon-write wins
/// movie. Sweeps follow the paper: travel and retwis 100–900 req/s, movie
/// 50–450 req/s.
fn fig11(scale: f64) -> Figure {
    let hundreds: Vec<f64> = (1..=9).map(|i| f64::from(i) * 100.0).collect();
    let fifties: Vec<f64> = (1..=9).map(|i| f64::from(i) * 50.0).collect();
    let apps: [(&(dyn Workload + Sync), &[f64]); 3] = [
        (&Travel::default(), &hundreds),
        (&Movie::default(), &fifties),
        (&Retwis::default(), &hundreds),
    ];
    let cells: Vec<_> = (apps.iter())
        .flat_map(|&(workload, rates)| grid(&[workload], &SYSTEMS, rates))
        .collect();
    let mut latencies = par_map(&cells, ALL_CORES, |&(workload, kind, rate)| {
        // Four request slots per node reproduce the paper's knee position
        // (EXPERIMENTS.md has the calibration note).
        let mut params = open_loop(scale, 0xf1611, rate, [30.0, 3.0, 10.0]);
        params.rt_config.workers_per_node = 4;
        run_app(workload, &params, |b| b.protocol(kind))
            .report
            .latency
    })
    .into_iter();
    let (mut panels, mut notes) = (Vec::new(), Vec::new());
    for (workload, rates) in apps {
        let name = workload.name();
        let latencies = SYSTEMS.map(|_| latencies.by_ref().take(rates.len()).collect::<Vec<_>>());
        let panel = |stat: &str, quantile: fn(&Histogram) -> Option<f64>| {
            let title = format!("Figure 11 ({name}): {stat} latency (ms)");
            let panel = Panel::new(title, "system \\ req/s", rates, 2);
            SYSTEMS
                .iter()
                .zip(&latencies)
                .fold(panel, |panel, (kind, hists)| {
                    let row: Vec<f64> = hists.iter().map(|h| ms(quantile(h))).collect();
                    panel.row(kind.label(), row)
                })
        };
        let median = Panel {
            chart: Some("median ms vs req/s"),
            ..panel("median", Histogram::median_ms)
        };
        let mid = rates.len() / 2;
        let at = |kind: ProtocolKind| median.row_of(kind.label())[mid];
        let (boki, unsafe_) = (at(Boki), at(Unsafe));
        let best = at(HalfmoonRead).min(at(HalfmoonWrite));
        notes.push(format!(
            "{name} @ {:.0} req/s: best Halfmoon {best:.2}ms vs Boki {boki:.2}ms ({:.0}% lower); \
             overhead above unsafe {:.1}x lower",
            rates[mid],
            (1.0 - best / boki) * 100.0,
            (boki - unsafe_) / (best - unsafe_).max(1e-9),
        ));
        panels.extend([median, panel("p99", Histogram::p99_ms)]);
    }
    Figure::new(
        "Figure 11: end-to-end performance under application workloads",
        panels,
        notes,
    )
}

/// **Figure 12**: time-averaged storage vs read ratio under two object
/// sizes and two GC intervals (§6.3).
///
/// Paper: the §4.6 analysis puts the storage boundary at read ratio 0.5;
/// the measured one sits slightly higher because Halfmoon-read logs twice
/// per write. Larger objects push it toward 0.5; the GC interval shifts
/// absolute usage but not the boundary. The 10-op synthetic SSF over 10 K
/// objects at 100 req/s.
fn fig12(scale: f64) -> Figure {
    let (mut panels, mut notes) = (Vec::new(), Vec::new());
    let mbs = fig12_cells(scale, &FIG12_PANELS, ALL_CORES);
    for ((_, _, label), mbs) in FIG12_PANELS.iter().zip(mbs.chunks(FT.len() * RATIOS.len())) {
        let title = format!("Figure 12{label}: avg storage (MB)");
        let panel = Panel {
            chart: Some("avg MB vs read ratio"),
            ..sweep(title, "system \\ read ratio", &RATIOS, &FT, mbs)
        };
        notes.push(format!(
            "{label}: HM-read becomes cheaper at read ratio {} (theory: 0.5+)",
            crossover(&panel, HalfmoonRead, HalfmoonWrite)
        ));
        panels.push(panel);
    }
    Figure::new("Figure 12: storage overhead vs read ratio", panels, notes)
}

/// Figure 12's panels: object size (B), GC interval (s), label.
pub const FIG12_PANELS: [(usize, f64, &str); 4] = [
    (256, 10.0, "(a) size=256B, GC=10s"),
    (256, 60.0, "(b) size=256B, GC=60s"),
    (1024, 10.0, "(c) size=1KB, GC=10s"),
    (1024, 60.0, "(d) size=1KB, GC=60s"),
];

/// Figure 12's cells for `panels`, mapped over `workers` threads: the
/// average storage (MB) of each fault-tolerant protocol at each read
/// ratio, panel by panel and row by row.
#[must_use]
pub fn fig12_cells(scale: f64, panels: &[(usize, f64, &str)], workers: usize) -> Vec<f64> {
    par_map(
        &grid(panels, &FT, &RATIOS),
        workers,
        |&((value_bytes, gc, _), kind, read_ratio)| {
            let workload = SyntheticOps {
                value_bytes,
                read_ratio,
                ..SyntheticOps::default()
            };
            // The window must span several GC cycles; warm up past the first
            // cycle so averages are steady-state.
            let windows = [(gc * 5.0).max(60.0), gc.max(10.0), gc];
            let params = open_loop(scale, 0xf1612, 100.0, windows);
            let out = run_app(&workload, &params, |b| b.protocol(kind));
            (out.avg_log_bytes + out.avg_store_bytes) / 1e6
        },
    )
}

/// **Figure 13**: median latency vs read ratio under four request rates
/// (§6.3).
///
/// Paper: the §4.6 analysis puts the runtime boundary at read ratio 2/3
/// (`P_r = 2 P_w` with `C_w ≈ 2 C_r`), measured slightly higher; the rate
/// barely moves it, and both protocols beat Boki by 1.2–1.5×. The 10-op
/// synthetic SSF over 10 K objects of 256 B.
fn fig13(scale: f64) -> Figure {
    let rates = [100.0, 200.0, 300.0, 400.0];
    let medians = par_map(
        &grid(&rates, &FT, &RATIOS),
        ALL_CORES,
        |&(rate, kind, read_ratio)| {
            let workload = SyntheticOps {
                read_ratio,
                ..SyntheticOps::default()
            };
            let params = open_loop(scale, 0xf1613, rate, [30.0, 3.0, 10.0]);
            let out = run_app(&workload, &params, |b| b.protocol(kind));
            ms(out.report.latency.median_ms())
        },
    );
    let (mut panels, mut notes) = (Vec::new(), Vec::new());
    for (rate, medians) in rates.iter().zip(medians.chunks(FT.len() * RATIOS.len())) {
        let title = format!("Figure 13: median latency (ms) at {rate:.0} req/s");
        let panel = Panel {
            chart: Some("median ms vs read ratio"),
            ..sweep(title, "system \\ read ratio", &RATIOS, &FT, medians)
        };
        let [boki, hmr, hmw] = FT.map(|kind| panel.row_of(kind.label()));
        let best_vs_boki = boki
            .iter()
            .zip(hmr.iter().zip(hmw))
            .map(|(b, (r, w))| b / r.min(*w))
            .sum::<f64>()
            / RATIOS.len() as f64;
        notes.push(format!(
            "{rate:.0} req/s: HM-read becomes faster at read ratio {} (theory: 2/3); \
             best-protocol speedup over Boki averages {best_vs_boki:.2}x",
            crossover(&panel, HalfmoonRead, HalfmoonWrite)
        ));
        panels.push(panel);
    }
    Figure::new("Figure 13: runtime overhead vs read ratio", panels, notes)
}

/// One phase of Figure 14's alternating workload.
const PHASE: Duration = Duration::from_secs(5);

/// **Figure 14**: switching delay between Halfmoon's protocols (§6.4).
///
/// Paper: the workload alternates between a write-intensive phase (read
/// ratio 0.2, Halfmoon-write) and a read-intensive one (0.8,
/// Halfmoon-read) every five seconds. At 300 req/s a switch completes in
/// under ~100 ms; at 600 req/s leaving Halfmoon-write takes longer (575
/// ms) because the write-heavy phase's SSFs take longer to drain, and the
/// switch waits for every SSF on the old protocol (§4.7).
///
/// The three 5 s phases are the experiment, so `scale` does not apply.
fn fig14(_scale: f64) -> Figure {
    let rates = [300.0, 600.0];
    let (timelines, delays): (Vec<Panel>, Vec<[f64; 2]>) =
        par_map(&rates, ALL_CORES, |&rate| switching_run(rate))
            .into_iter()
            .unzip();
    let delays = Panel::new(
        "Figure 14: switching delay (ms)",
        "switch \\ req/s",
        rates,
        0,
    )
    .row("HM-W -> HM-R", [delays[0][0], delays[1][0]])
    .row("HM-R -> HM-W", [delays[0][1], delays[1][1]]);
    Figure::new(
        "Figure 14: switching delay between Halfmoon's protocols",
        timelines.into_iter().chain([delays]).collect(),
        vec!["(paper @300: 92 ms and 70 ms; @600: 575 ms and 88 ms)".into()],
    )
}

/// Three phases at `rate`: the 250 ms median-latency timeline, and the
/// BEGIN→END delays (ms) of the switch to Halfmoon-read and back.
fn switching_run(rate: f64) -> (Panel, [f64; 2]) {
    let mut sim = Sim::new(0xf1614);
    let mut config = ProtocolConfig::uniform(HalfmoonWrite);
    config.switching_enabled = true;
    let client = Client::new(sim.ctx(), LatencyModel::calibrated(), config);
    // Two request slots per node put 600 req/s close to saturation (the
    // paper's workload saturates around 800 req/s), which is what makes
    // draining the write-heavy phase visibly slower there.
    let rt_config = RuntimeConfig {
        workers_per_node: 2,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(client.clone(), rt_config);
    let [write_heavy, read_heavy] = [0.2, 0.8].map(|read_ratio| SyntheticOps {
        read_ratio,
        ..SyntheticOps::default()
    });
    write_heavy.populate(&client);
    write_heavy.register(&runtime); // same function; ratio lives in inputs
    let gc = GcDriver::start(client.clone(), NodeId(0), Duration::from_secs(10));

    let samples: Rc<RefCell<Vec<(Time, Duration)>>> = Rc::default();
    let ctx = sim.ctx();

    // Open-loop generator: phase decides the factory.
    {
        let ctx2 = ctx.clone();
        let samples = samples.clone();
        let factories = [write_heavy.factory(), read_heavy.factory()];
        ctx.spawn(async move {
            let mut seq = 0u64;
            let horizon = PHASE * 3;
            while ctx2.now() < horizon {
                let gap = ctx2.with_rng(|rng| hm_common::dist::exp_interarrival_secs(rng, rate));
                ctx2.sleep(Duration::from_secs_f64(gap)).await;
                let phase = (ctx2.now().as_secs_f64() / PHASE.as_secs_f64()) as usize % 2;
                let (func, input) = ctx2.with_rng(|rng| (factories[phase])(rng, seq));
                seq += 1;
                let runtime = runtime.clone();
                let samples = samples.clone();
                let ctx3 = ctx2.clone();
                ctx2.spawn(async move {
                    let started = ctx3.now();
                    if runtime.invoke_request(&func, input).await.is_ok() {
                        samples.borrow_mut().push((started, ctx3.now() - started));
                    }
                });
            }
        });
    }

    // Switch coordinator at the phase boundaries.
    let delays = Rc::new(RefCell::new([f64::NAN; 2]));
    {
        let ctx2 = ctx.clone();
        let delays = delays.clone();
        ctx.spawn(async move {
            let mut switcher = Switcher::new(client, NodeId(0));
            // Fine-grained drain polling so the reported delay reflects SSF
            // lifetimes rather than poll quantization.
            switcher.set_poll_interval(Duration::from_millis(2));
            for (i, target) in [HalfmoonRead, HalfmoonWrite].into_iter().enumerate() {
                ctx2.sleep_until(PHASE * (i as u32 + 1)).await;
                let report = switcher
                    .switch_to(target)
                    .await
                    .unwrap_or_else(|e| panic!("switch to {target} failed: {e}"));
                delays.borrow_mut()[i] = report.switching_delay().as_secs_f64() * 1e3;
            }
        });
    }

    sim.run_until(PHASE * 3 + Duration::from_secs(5));
    gc.stop();

    // Timeline: 250ms buckets of median latency.
    let bucket = Duration::from_millis(250);
    let mut buckets = vec![Vec::new(); ((PHASE * 3).as_millis() / bucket.as_millis()) as usize];
    for (at, lat) in samples.borrow().iter() {
        if let Some(b) = buckets.get_mut((at.as_millis() / bucket.as_millis()) as usize) {
            b.push(lat.as_secs_f64() * 1e3);
        }
    }
    let mut timeline = Panel::new(
        format!("Figure 14 @ {rate:.0} req/s: latency timeline"),
        "t (s), phase",
        ["median (ms)", "requests"],
        1,
    );
    timeline.decimals[1] = 0;
    for (i, mut b) in buckets.into_iter().enumerate() {
        b.sort_by(f64::total_cmp);
        let median = b.get(b.len() / 2).copied().unwrap_or(f64::NAN);
        let phase = if i * 250 / 5000 == 1 { "HM-R" } else { "HM-W" };
        let label = format!("{:.2} {phase}", i as f64 * 0.25);
        timeline = timeline.row(label, [median, b.len() as f64]);
    }
    let delays = *delays.borrow();
    (timeline, delays)
}

/// **§7 recovery cost**: Halfmoon vs the symmetric protocol under
/// increasing failure rates.
///
/// The paper models SSF execution as a Bernoulli process (crash
/// probability `f` per round) and argues that Halfmoon, whose
/// re-executions must *replay* log-free operations while symmetric
/// protocols *skip* logged ones, still wins while `f` stays below its
/// failure-free advantage (`f ≈ 30 %` against Boki; the technical report
/// validates a win at `f = 40 %`). The 10-op synthetic SSF at a balanced
/// read ratio with per-attempt crash injection, `f` from 0 to 50 %, plus
/// Halfmoon-read with §7's opportunistic checkpoints. The analytic bound
/// in the notes assumes a failed round replays *everything* for Halfmoon
/// and nothing for the symmetric protocol: the paper's pessimistic lower
/// bound on where Halfmoon stops winning.
fn recovery(scale: f64) -> Figure {
    let failure_rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let workload = SyntheticOps {
        read_ratio: 0.5,
        ..SyntheticOps::default()
    };
    let median = |kind: ProtocolKind, checkpoints: bool, f: f64| {
        let params = open_loop(scale, 0x7ec0 + (f * 100.0) as u64, 100.0, [60.0, 3.0, 10.0]);
        let out = run_app(&workload, &params, |b| {
            let mut config = ProtocolConfig::uniform(kind);
            config.opportunistic_checkpoints = checkpoints;
            let b = b.protocol_config(config);
            if f > 0.0 {
                // ~30 crash points per 10-op execution.
                b.faults(FaultPolicy::per_attempt(f, 30, u32::MAX))
            } else {
                b
            }
        });
        ms(out.report.latency.median_ms())
    };
    // The last row: Halfmoon-read retries serve replayed log-free reads
    // from node-local checkpoints.
    let mut cells = grid(&[false], &FT, &failure_rates);
    cells.extend(grid(&[true], &[HalfmoonRead], &failure_rates));
    let medians = par_map(&cells, ALL_CORES, |&(checkpoints, kind, f)| {
        median(kind, checkpoints, f)
    });
    let (plain, checkpointed) = medians.split_at(FT.len() * failure_rates.len());
    let title = "Recovery cost: median request latency (ms)".to_string();
    let panel = sweep(title, "system \\ f", &failure_rates, &FT, plain)
        .row("HM-read + checkpoints", checkpointed);

    let boki = panel.row_of(Boki.label());
    let mut notes = Vec::new();
    for kind in [HalfmoonRead, HalfmoonWrite] {
        let curve = panel.row_of(kind.label());
        let crossover = crossover(&panel, Boki, kind);
        // The §7 analytic bound: failure-free advantage x ⇒ wins while f<x.
        let advantage = 1.0 - curve[0] / boki[0];
        let model = RecoveryModel {
            crash_prob: advantage,
        };
        notes.push(format!(
            "{kind}: measured crossover at f = {crossover}; §7 pessimistic bound f ≈ {advantage:.2} \
             (failure-free advantage; expected rounds at that f: {:.2})",
            model.expected_rounds(),
        ));
    }
    notes.push("(paper: boundary f ≈ 0.3, still winning at f = 0.4)".into());
    Figure::new(
        "Recovery cost (§7): latency vs per-attempt failure rate",
        vec![panel],
        notes,
    )
}

/// **Ablations**: two design choices, quantified on a write-heavy (read
/// ratio 0.2) synthetic workload.
///
/// 1. *Double vs single write logging in Halfmoon-read* (§4.1): the
///    prototype logs a random version number before `DBWrite` to align
///    its write cost with Boki; deriving the version from `(instanceID,
///    step)` appends only the commit record.
/// 2. *Ordered-write extension* (§4.4 / technical report): preserving
///    program order among consecutive log-free writes to different
///    objects costs one ordering append per dependent pair.
///
/// Beside the measured appends per request, each row prints what the
/// logging matrix predicts for the workload's op mix.
fn ablations(scale: f64) -> Figure {
    let workload = SyntheticOps {
        read_ratio: 0.2,
        ..SyntheticOps::default()
    };
    let params = open_loop(scale, 0xab1a, 100.0, [60.0, 3.0, 10.0]);
    let run = |kind: ProtocolKind, configure: fn(&mut ProtocolConfig)| {
        let mut config = ProtocolConfig::uniform(kind);
        configure(&mut config);
        let predicted = predicted_appends(&workload, &config);
        let out = run_app(&workload, &params, |b| b.protocol_config(config));
        [
            ms(out.op_latencies.write.median_ms()),
            ms(out.report.latency.median_ms()),
            out.log_appends as f64 / out.report.completed.max(1) as f64,
            predicted,
        ]
    };
    let columns = [
        "write median (ms)",
        "request median (ms)",
        "log appends / request",
        "predicted appends / request",
    ];
    type Variant = (ProtocolKind, fn(&mut ProtocolConfig));
    let variants: [Variant; 4] = [
        (HalfmoonRead, |_| {}),
        (HalfmoonRead, |c| c.deterministic_versions = true),
        (HalfmoonWrite, |_| {}),
        (HalfmoonWrite, |c| c.preserve_write_order = true),
    ];
    let runs = par_map(&variants, ALL_CORES, |&(kind, configure)| {
        run(kind, configure)
    });
    let [double, single, plain, ordered] = runs[..] else {
        unreachable!("one run per variant")
    };
    let notes = vec![
        format!(
            "single-log writes save {:.0}% write latency and {:.2} appends/request",
            (1.0 - single[0] / double[0]) * 100.0,
            double[2] - single[2],
        ),
        format!(
            "order preservation costs {:.2} extra appends/request and {:.0}% request latency",
            ordered[2] - plain[2],
            (ordered[1] / plain[1] - 1.0) * 100.0,
        ),
    ];
    let logging = "Halfmoon-read write logging: double (prototype, Boki-aligned) vs single \
                   (deterministic versions)";
    let order = "Halfmoon-write: commuting (default) vs ordered consecutive writes (extension)";
    let panels = vec![
        Panel::new(logging, "variant", columns, 2)
            .row("double (default)", double)
            .row("single (ablation)", single),
        Panel::new(order, "variant", columns, 2)
            .row("commuting (default)", plain)
            .row("ordered (extension)", ordered),
    ];
    Figure::new("Ablations", panels, notes)
}

/// Log appends per request of `workload` under `config`'s protocol, as the
/// logging matrix predicts them: init and finish, each expected read's and
/// write's row, and the order row once per expected pair of adjacent
/// writes.
fn predicted_appends(workload: &SyntheticOps, config: &ProtocolConfig) -> f64 {
    use halfmoon::MatrixOp::{Finish, Init, Order, Read, Write};
    let appends = |op| config.default.logging_row(op, config).log_appends as f64;
    let (ops, p_write) = (
        f64::from(workload.ops_per_request),
        1.0 - workload.read_ratio,
    );
    appends(Init)
        + appends(Finish)
        + ops * workload.read_ratio * appends(Read)
        + ops * p_write * appends(Write)
        + (ops - 1.0) * p_write * p_write * appends(Order)
}

#[cfg(test)]
mod tests {
    #[test]
    #[should_panic(
        expected = "unknown figure \"fig9\"; known: table1, fig10, fig11, fig12, fig13, fig14, recovery, ablations"
    )]
    fn unknown_figure_lists_the_known_ones() {
        let _ = super::figure("fig9");
    }

    /// Each thread fills its own `OBJECT_KEYS` table; the cells must not
    /// notice which thread ran them.
    #[test]
    fn fig12_cells_are_bit_identical_at_one_and_two_workers() {
        let bits = |workers| {
            let cells = super::fig12_cells(0.02, &super::FIG12_PANELS[..1], workers);
            cells.into_iter().map(f64::to_bits).collect::<Vec<_>>()
        };
        let one = bits(1);
        assert_eq!(one.len(), 15);
        assert_eq!(one, bits(2));
    }
}
