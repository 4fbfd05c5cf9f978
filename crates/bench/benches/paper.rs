//! The paper's evaluation: prints every figure of
//! [`hm_bench::paper::FIGURES`], or only the ones named.
//!
//! ```text
//! cargo bench -p hm-bench --bench paper                # all eight
//! cargo bench -p hm-bench --bench paper -- fig12 fig13 # two
//! ```
//!
//! `HM_BENCH_SCALE` multiplies experiment durations (0.05–0.2 for a smoke
//! run). The `--bench` flag cargo passes is ignored; an unknown figure
//! name stops the run before anything is simulated.

use hm_bench::paper::{self, FigureFn, FIGURES};

fn main() {
    let scale = hm_bench::scale().unwrap_or_else(|e| panic!("{e}"));
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    let bodies: Vec<FigureFn> = match names.len() {
        0 => FIGURES.map(|(_, body)| body).into(),
        _ => names.iter().map(|name| paper::figure(name)).collect(),
    };
    for body in bodies {
        paper::print(&body(scale));
    }
}
