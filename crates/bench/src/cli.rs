//! Shared command-line parsing for the workspace binaries.
//!
//! The quickstart example and the bench binary take the same deployment
//! flags; parsing them here once keeps the spellings, defaults, and error
//! messages identical everywhere. Flags:
//!
//! - `--shards <n>` — logging shard count (default 1).
//! - `--batch <n>` — group-commit batch size (default 1 = off).
//! - `--trace-out <path>` — write a Chrome `trace_event` JSON trace.
//!
//! Errors are deliberate panics: these are developer-facing binaries and
//! the panic message *is* the usage message.

/// Parsed common flags, with the workspace-wide defaults.
#[derive(Clone, Debug)]
pub struct CommonOpts {
    /// Logging shard count (default: 1).
    pub shards: u8,
    /// Group-commit batch size (default: 1 = batching off).
    pub batch: usize,
    /// Chrome trace output path, if requested.
    pub trace_out: Option<String>,
}

impl Default for CommonOpts {
    fn default() -> CommonOpts {
        CommonOpts {
            shards: 1,
            batch: 1,
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
                other => panic!("unknown argument: {other}"),
            }
        }
        opts
    }

    /// Rejects deployment-shaping overrides, for binaries whose workloads
    /// fix their own topology (the bench components pin shard counts and
    /// batch sizes so fingerprints stay comparable).
    ///
    /// # Panics
    ///
    /// Panics if `--shards` or `--batch` was changed from its default.
    pub fn reject_shape_overrides(&self, binary: &str) {
        assert!(
            self.shards == 1 && self.batch == 1,
            "{binary} components fix their own shard/batch parameters"
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
        assert_eq!((o.shards, o.batch), (1, 1));
        assert!(o.trace_out.is_none());
    }

    #[test]
    fn parses_every_flag() {
        let o = parse(&["--shards", "8", "--batch", "4", "--trace-out", "t.json"]);
        assert_eq!((o.shards, o.batch), (8, 4));
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
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
