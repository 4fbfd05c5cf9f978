//! Shared command-line parsing for the workspace binaries.
//!
//! The quickstart example and the bench binary take the same deployment
//! flags; parsing them here once keeps the spellings, defaults, and error
//! messages identical everywhere. Flags:
//!
//! - `--backend <name>` — executor backend; accepted spellings are
//!   [`BackendKind::HELP`].
//! - `--shards <n>` — logging shard count (default 1).
//! - `--batch <n>` — group-commit batch size (default 1 = off).
//! - `--workers <n>` — worker threads for the parallel backend
//!   (default 1). Results never depend on this value; only wall time does.
//! - `--trace-out <path>` — write a Chrome `trace_event` JSON trace.
//!
//! Errors are deliberate panics: these are developer-facing binaries and
//! the panic message *is* the usage message.

use hm_substrate::{BackendKind, Runner};

/// Parsed common flags, with the workspace-wide defaults.
#[derive(Clone, Debug)]
pub struct CommonOpts {
    /// Executor backend (default: sim).
    pub backend: BackendKind,
    /// Logging shard count (default: 1).
    pub shards: u8,
    /// Group-commit batch size (default: 1 = batching off).
    pub batch: usize,
    /// Worker threads for the parallel backend (default: 1).
    pub workers: usize,
    /// Chrome trace output path, if requested.
    pub trace_out: Option<String>,
}

impl Default for CommonOpts {
    fn default() -> CommonOpts {
        CommonOpts {
            backend: BackendKind::Sim,
            shards: 1,
            batch: 1,
            workers: 1,
            trace_out: None,
        }
    }
}

impl CommonOpts {
    /// Parses the process arguments (everything after the binary name).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on any malformed or unknown argument.
    #[must_use]
    pub fn from_env() -> CommonOpts {
        CommonOpts::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument stream (testable entry point).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on any malformed or unknown argument.
    #[must_use]
    pub fn parse(mut args: impl Iterator<Item = String>) -> CommonOpts {
        let mut opts = CommonOpts::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--trace-out" => {
                    opts.trace_out = Some(args.next().expect("--trace-out requires a path"));
                }
                "--shards" => {
                    opts.shards = args
                        .next()
                        .expect("--shards requires a count")
                        .parse()
                        .expect("--shards takes a small integer");
                }
                "--batch" => {
                    opts.batch = args
                        .next()
                        .expect("--batch requires a batch size")
                        .parse()
                        .expect("--batch takes a small integer");
                }
                "--workers" => {
                    opts.workers = args
                        .next()
                        .expect("--workers requires a count")
                        .parse()
                        .expect("--workers takes a small integer");
                }
                "--backend" => {
                    let name = args.next().expect("--backend requires a name");
                    opts.backend = name.parse().unwrap_or_else(|e| panic!("{e}"));
                }
                other => panic!("unknown argument: {other}"),
            }
        }
        opts
    }

    /// Builds a [`Runner`] from the parsed backend/workers, seeded with
    /// `seed`.
    #[must_use]
    pub fn runner(&self, seed: u64) -> Runner {
        Runner::builder()
            .backend(self.backend)
            .seed(seed)
            .workers(self.workers)
            .build()
    }

    /// Rejects deployment-shaping overrides, for binaries whose workloads
    /// fix their own topology (the bench components pin shard counts and
    /// batch sizes so fingerprints stay comparable).
    ///
    /// # Panics
    ///
    /// Panics if `--backend`, `--shards`, or `--batch` was changed from
    /// its default.
    pub fn reject_shape_overrides(&self, binary: &str) {
        assert!(
            self.backend == BackendKind::Sim,
            "{binary} is virtual-time only; it does not take --backend"
        );
        assert!(
            self.shards == 1 && self.batch == 1 && self.workers == 1,
            "{binary} components fix their own shard/batch/worker parameters"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CommonOpts {
        CommonOpts::parse(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn defaults_match_the_binaries() {
        let o = parse(&[]);
        assert_eq!(o.backend, BackendKind::Sim);
        assert_eq!((o.shards, o.batch, o.workers), (1, 1, 1));
        assert!(o.trace_out.is_none());
    }

    #[test]
    fn parses_every_flag() {
        let o = parse(&[
            "--backend", "parallel", "--shards", "8", "--batch", "4", "--workers", "2",
            "--trace-out", "t.json",
        ]);
        assert_eq!(o.backend, BackendKind::Parallel);
        assert_eq!((o.shards, o.batch, o.workers), (8, 4, 2));
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
    }

    #[test]
    #[should_panic(expected = "unknown backend \"threads\" (expected sim | wall | parallel)")]
    fn unknown_backend_message_names_every_spelling() {
        let _ = parse(&["--backend", "threads"]);
    }

    #[test]
    #[should_panic(expected = "unknown argument: --frobnicate")]
    fn unknown_flag_panics() {
        let _ = parse(&["--frobnicate"]);
    }

    #[test]
    #[should_panic(expected = "--shards takes a small integer")]
    fn malformed_count_panics() {
        let _ = parse(&["--shards", "many"]);
    }
}
