//! Command-line parsing for the workspace binaries.
//!
//! The quickstart example and the bench binary take the same deployment
//! flags ([`CommonOpts`]); parsing them here once keeps the spellings,
//! defaults, and error messages identical everywhere. Flags:
//!
//! - `--shards <n>` — logging shard count (default 1).
//! - `--batch <n>` — group-commit batch size (default 1 = off).
//! - `--trace-out <path>` — write a Chrome `trace_event` JSON trace.
//!
//! The model-check driver's flags are [`ExploreOpts`]. Malformed input is
//! an error value naming the bad argument; a binary prints it with
//! [`exit_usage`] and exits with status 2.

use halfmoon::ProtocolKind;

/// The flags every binary sharing [`CommonOpts`] accepts, for error text.
const USAGE: &str = "flags: --shards <n> --batch <n> --trace-out <path>";

/// `explore`'s flags, for error text.
const EXPLORE_USAGE: &str =
    "flags: --protocol <unsafe|boki|hm-read|hm-write> --config <name> --naive --workers <n> --assert";

/// `--protocol` spellings, in the order `explore` runs all four by default.
const PROTOCOLS: [(&str, ProtocolKind); 4] = [
    ("boki", ProtocolKind::Boki),
    ("hm-read", ProtocolKind::HalfmoonRead),
    ("hm-write", ProtocolKind::HalfmoonWrite),
    ("unsafe", ProtocolKind::Unsafe),
];

/// Parsed common flags, with the workspace-wide defaults.
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// The value after `flag`, parsed as `T`; the error names the flag.
fn flag_value<T: std::str::FromStr>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let value = args
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} does not take {value:?}"))
}

/// Prints `message` to stderr and exits with status 2, the usage-error
/// status.
pub fn exit_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

impl CommonOpts {
    /// Parses the process arguments (everything after the binary name).
    ///
    /// # Errors
    ///
    /// See [`CommonOpts::parse`].
    pub fn from_env() -> Result<CommonOpts, String> {
        CommonOpts::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument stream (testable entry point).
    ///
    /// # Errors
    ///
    /// A message naming the first unknown flag, missing value or value that
    /// does not parse.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<CommonOpts, String> {
        let mut opts = CommonOpts::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--trace-out" => opts.trace_out = Some(flag_value(&arg, &mut args)?),
                "--shards" => opts.shards = flag_value(&arg, &mut args)?,
                "--batch" => opts.batch = flag_value(&arg, &mut args)?,
                other => return Err(format!("unknown argument {other:?} ({USAGE})")),
            }
        }
        Ok(opts)
    }

    /// Rejects deployment-shaping overrides, for binaries whose workloads
    /// fix their own topology (the bench components pin shard counts and
    /// batch sizes so fingerprints stay comparable).
    ///
    /// # Errors
    ///
    /// When `--shards` or `--batch` was changed from its default.
    pub fn reject_shape_overrides(&self, binary: &str) -> Result<(), String> {
        if self.shards == 1 && self.batch == 1 {
            Ok(())
        } else {
            Err(format!(
                "{binary} components fix their own shard/batch parameters"
            ))
        }
    }
}

/// The `explore` binary's flags (its module docs say what each does).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreOpts {
    /// `--protocol`: one protocol, or all four (the default).
    pub protocols: Vec<ProtocolKind>,
    /// `--config`: one configuration, or all (`None`).
    pub config: Option<String>,
    /// `--naive`: also run the unpruned enumeration.
    pub naive: bool,
    /// `--workers`: threads the root frontier is spread over (default 1).
    pub workers: usize,
    /// `--assert`: check the documented claims.
    pub check: bool,
}

impl Default for ExploreOpts {
    fn default() -> ExploreOpts {
        ExploreOpts {
            protocols: PROTOCOLS.iter().map(|&(_, p)| p).collect(),
            config: None,
            naive: false,
            workers: 1,
            check: false,
        }
    }
}

impl ExploreOpts {
    /// Parses an argument stream (everything after the binary name).
    ///
    /// # Errors
    ///
    /// A message naming the first unknown flag or protocol, missing value
    /// or value that does not parse.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<ExploreOpts, String> {
        let mut opts = ExploreOpts::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--protocol" => {
                    let name: String = flag_value(&arg, &mut args)?;
                    let (_, protocol) = PROTOCOLS
                        .iter()
                        .find(|(flag, _)| *flag == name)
                        .ok_or_else(|| format!("unknown protocol {name:?} ({EXPLORE_USAGE})"))?;
                    opts.protocols = vec![*protocol];
                }
                "--config" => opts.config = Some(flag_value(&arg, &mut args)?),
                "--naive" => opts.naive = true,
                "--workers" => opts.workers = flag_value(&arg, &mut args)?,
                "--assert" => opts.check = true,
                other => return Err(format!("unknown argument {other:?} ({EXPLORE_USAGE})")),
            }
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    use hm_substrate::explore::Schedule;

    use super::*;

    fn args<'a>(words: &'a [&str]) -> impl Iterator<Item = String> + 'a {
        words.iter().map(|s| (*s).to_string())
    }

    fn parse(words: &[&str]) -> Result<CommonOpts, String> {
        CommonOpts::parse(args(words))
    }

    #[test]
    fn defaults_match_the_binaries() {
        let o = parse(&[]).unwrap();
        assert_eq!((o.shards, o.batch), (1, 1));
        assert!(o.trace_out.is_none());
        assert_eq!(o.reject_shape_overrides("bench"), Ok(()));
        assert_eq!(ExploreOpts::parse(args(&[])), Ok(ExploreOpts::default()));
    }

    #[test]
    fn parses_every_flag() {
        let o = parse(&["--shards", "8", "--batch", "4", "--trace-out", "t.json"]).unwrap();
        assert_eq!((o.shards, o.batch), (8, 4));
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert!(o.reject_shape_overrides("bench").is_err());
        let words = [
            "--protocol",
            "hm-write",
            "--config",
            "xy-1s",
            "--naive",
            "--workers",
            "2",
        ];
        let e = ExploreOpts::parse(args(&words)).unwrap();
        assert_eq!(e.protocols, vec![ProtocolKind::HalfmoonWrite]);
        assert_eq!(
            (e.config.as_deref(), e.naive, e.workers),
            (Some("xy-1s"), true, 2)
        );
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse(&["--help"]).unwrap_err();
        assert_eq!(err, format!("unknown argument \"--help\" ({USAGE})"));
        let err = ExploreOpts::parse(args(&["--protocol", "paxos"])).unwrap_err();
        assert!(err.starts_with("unknown protocol \"paxos\""), "{err}");
    }

    #[test]
    fn malformed_or_missing_value_is_an_error() {
        assert_eq!(
            parse(&["--shards", "many"]).unwrap_err(),
            "--shards does not take \"many\""
        );
        assert_eq!(
            parse(&["--shards", "256"]).unwrap_err(),
            "--shards does not take \"256\""
        );
        assert_eq!(parse(&["--batch"]).unwrap_err(), "--batch requires a value");
        assert_eq!(
            parse(&["--trace-out"]).unwrap_err(),
            "--trace-out requires a value"
        );
        let err = ExploreOpts::parse(args(&["--workers", "-1"])).unwrap_err();
        assert_eq!(err, "--workers does not take \"-1\"");
    }

    /// A garbage argument: a flag, a protocol or configuration name, a
    /// number, a schedule, or up to five random printable characters.
    fn garbage(rng: &mut SmallRng) -> String {
        const WORDS: [&str; 20] = [
            "--shards",
            "--batch",
            "--trace-out",
            "--protocol",
            "--config",
            "--naive",
            "--workers",
            "--assert",
            "--help",
            "-",
            "",
            "hm-read",
            "boki",
            "xy-1s",
            "0",
            "255",
            "-1",
            "1.2.3",
            " 7 ",
            "18446744073709551616",
        ];
        if rng.random_bool(0.7) {
            return WORDS[rng.random_range(0..WORDS.len())].to_string();
        }
        (0..rng.random_range(0..6))
            .map(|_| char::from(rng.random_range(b' '..=b'~')))
            .collect()
    }

    /// Feeds `parse` 3 000 seeded garbage argument lists. Each must be an
    /// error or parse to a value that `render` turns back into arguments
    /// parsing to the same value; a panic fails the test. Returns how many
    /// lists were accepted and how many rejected.
    fn fuzz<T: PartialEq + Debug>(
        seed: u64,
        parse: impl Fn(Vec<String>) -> Result<T, String>,
        render: impl Fn(&T) -> Vec<String>,
    ) -> (usize, usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..3_000 {
            let input: Vec<String> = (0..rng.random_range(0..5))
                .map(|_| garbage(&mut rng))
                .collect();
            match parse(input.clone()) {
                Ok(value) => {
                    accepted += 1;
                    assert_eq!(parse(render(&value)).as_ref(), Ok(&value), "{input:?}");
                }
                Err(e) => {
                    rejected += 1;
                    assert!(!e.is_empty(), "{input:?}");
                }
            }
        }
        (accepted, rejected)
    }

    #[test]
    fn seeded_garbage_is_an_error_or_round_trips() {
        let common = fuzz(
            1,
            |a| CommonOpts::parse(a.into_iter()),
            |o| {
                let mut a = vec!["--shards".into(), o.shards.to_string()];
                a.extend(["--batch".into(), o.batch.to_string()]);
                a.extend(
                    o.trace_out
                        .iter()
                        .flat_map(|p| ["--trace-out".into(), p.clone()]),
                );
                a
            },
        );
        let explore = fuzz(
            2,
            |a| ExploreOpts::parse(a.into_iter()),
            |o| {
                let mut a = vec!["--workers".into(), o.workers.to_string()];
                if let [p] = o.protocols[..] {
                    let (name, _) = PROTOCOLS.iter().find(|(_, q)| *q == p).unwrap();
                    a.extend(["--protocol".into(), (*name).to_string()]);
                }
                a.extend(o.config.iter().flat_map(|c| ["--config".into(), c.clone()]));
                a.extend(o.naive.then(|| "--naive".to_string()));
                a.extend(o.check.then(|| "--assert".to_string()));
                a
            },
        );
        // A schedule is one string: the garbage words, concatenated.
        let schedule = fuzz(
            3,
            |a| a.concat().parse::<Schedule>().map_err(|e| e.to_string()),
            |s| vec![s.to_string()],
        );
        for (name, (accepted, rejected)) in [
            ("common", common),
            ("explore", explore),
            ("schedule", schedule),
        ] {
            assert!(
                accepted >= 100 && rejected >= 100,
                "{name}: {accepted} ok, {rejected} errors"
            );
        }
    }
}
