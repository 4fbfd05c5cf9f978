//! What one round of a workload reports, and the line format a round's
//! process hands it to the harness in.
//!
//! Every round runs in a process of its own (the program leaks a whole
//! deployment per `Runtime` through the client↔invoker cycle, so only a
//! fresh process gives each round the same memory and `peak_rss_mb` the
//! meaning "one deployment"). The harness starts rounds until its time is
//! up and takes medians of the host numbers.

use std::fmt::Write as _;

/// Numbers of one round, by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundReport {
    /// Host-clock and process numbers: differ from run to run.
    pub host: Vec<(String, f64)>,
    /// Virtual-time results and counts: repeat exactly for a seed.
    pub virt: Vec<(String, f64)>,
    /// Digest of the virtual results; equal seeds must give equal digests.
    pub fingerprint: u64,
    /// Failed output checks; empty when the round's outputs are correct.
    pub failures: Vec<String>,
}

impl RoundReport {
    pub fn set_host(&mut self, name: &str, value: f64) {
        self.host.push((name.to_string(), value));
    }

    pub fn set_virt(&mut self, name: &str, value: f64) {
        self.virt.push((name.to_string(), value));
    }

    /// The named number, host or virtual, if the round reported it.
    pub fn find(&self, name: &str) -> Option<f64> {
        self.host
            .iter()
            .chain(&self.virt)
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The named number.
    ///
    /// # Panics
    /// If the round did not report it: a missing name is a bug in the
    /// benchmark, not a measurement.
    pub fn get(&self, name: &str) -> f64 {
        self.find(name)
            .unwrap_or_else(|| panic!("round reported no `{name}`"))
    }

    /// Host µs of the load phase per op generated in it.
    pub fn host_us_per_op(&self) -> f64 {
        self.get("load_s") * 1e6 / self.get("ops")
    }

    /// One line per entry; `{:?}` prints an `f64` so that it parses back
    /// to the same bits.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (n, v) in &self.host {
            let _ = writeln!(out, "H {n} {v:?}");
        }
        for (n, v) in &self.virt {
            let _ = writeln!(out, "V {n} {v:?}");
        }
        let _ = writeln!(out, "F {:016x}", self.fingerprint);
        for f in &self.failures {
            let _ = writeln!(out, "X {}", f.replace('\n', " "));
        }
        out
    }

    pub fn parse(text: &str) -> Result<RoundReport, String> {
        let mut report = RoundReport::default();
        let mut saw_fingerprint = false;
        for line in text.lines() {
            let Some((kind, rest)) = line.split_once(' ') else {
                continue;
            };
            match kind {
                "H" | "V" => {
                    let (name, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("malformed round line `{line}`"))?;
                    let value: f64 = value
                        .parse()
                        .map_err(|e| format!("bad number in `{line}`: {e}"))?;
                    if kind == "H" {
                        report.set_host(name, value);
                    } else {
                        report.set_virt(name, value);
                    }
                }
                "F" => {
                    report.fingerprint = u64::from_str_radix(rest, 16)
                        .map_err(|e| format!("bad fingerprint `{rest}`: {e}"))?;
                    saw_fingerprint = true;
                }
                "X" => report.failures.push(rest.to_string()),
                _ => {}
            }
        }
        if saw_fingerprint {
            Ok(report)
        } else {
            Err("round printed no fingerprint line".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_bit_exactly() {
        let mut r = RoundReport::default();
        r.set_host("load_s", 2.097_123_456_789);
        r.set_virt("virt_p50_ms", 28.186_6 / 3.0);
        r.fingerprint = 0x152f_2411_3c31_cbf4;
        r.failures.push("audit FAILED: x".to_string());
        assert_eq!(RoundReport::parse(&r.to_lines()).unwrap(), r);
        assert!(RoundReport::parse("H a 1.0\n").is_err());
    }
}
