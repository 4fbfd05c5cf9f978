//! Shared harness for the paper reproduction and the simulator benchmark.
//!
//! Every table and figure of the paper's evaluation is a function in
//! [`paper`] returning a value; the `paper` bench target (`harness =
//! false`) prints them and `tests/paper_claims.rs` asserts their shapes.
//! Every open-loop run goes through [`hm_workloads::run_app`], the one
//! open-loop harness. `EXPERIMENTS.md` records paper-vs-measured.
//!
//! The `bench_sim_core` binary instead times the simulator itself; its
//! components live in [`sim_core`].
//!
//! Both binaries read one environment variable, `HM_BENCH_SCALE`: a
//! multiplier on experiment durations (see [`scale`]).

pub mod alloc;
pub mod cli;
pub mod paper;
pub mod sim_core;

/// Smallest duration scale a run accepts; smaller requests clamp up to it.
const MIN_SCALE: f64 = 0.05;

/// The duration scale `HM_BENCH_SCALE` asks for: 1.0 when unset, values
/// in (0, 0.05) clamped up to 0.05.
///
/// # Errors
///
/// A value that is not a finite number above zero, naming the variable
/// and the value.
pub fn scale() -> Result<f64, String> {
    std::env::var_os("HM_BENCH_SCALE").map_or(Ok(1.0), |raw| parse_scale(&raw.to_string_lossy()))
}

fn parse_scale(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 => Ok(s.max(MIN_SCALE)),
        _ => Err(format!("HM_BENCH_SCALE={raw:?} is not a finite number > 0")),
    }
}

/// Prints a markdown-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", vec!["---"; headers.len()].join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn scale_takes_positive_finite_numbers_and_clamps_tiny_ones() {
        for (raw, scale) in [("1", 1.0), ("0.2", 0.2), ("0.01", 0.05), ("1e-9", 0.05)] {
            assert_eq!(parse_scale(raw), Ok(scale), "{raw}");
        }
    }

    #[test]
    fn scale_rejects_garbage_by_name() {
        for raw in ["0,1", "", "fast", "inf", "-inf", "NaN", "0", "-1"] {
            let err = parse_scale(raw).expect_err(raw);
            assert!(
                err.contains("HM_BENCH_SCALE") && err.contains(&format!("{raw:?}")),
                "{raw}: {err}"
            );
        }
    }
}
