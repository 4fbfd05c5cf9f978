//! `selfcheck`: shows that the benchmark measures what it says, without
//! touching program code. Fails loudly otherwise.
//!
//! 1. A 300 µs busy-wait injected into the benchmark's own request-factory
//!    wrapper raises `host_us_per_op` on `steady_mixed` by 300 µs ± 20 %.
//! 2. The same shape under Boki, Halfmoon-read and Halfmoon-write logs
//!    ≈17 > ≈12 > ≈7 records per request, and both Halfmoon protocols
//!    answer faster than Boki (the paper's Fig. 10 order on a 50/50 mix).
//! 3. Doubling the generation window doubles the op count and moves no
//!    size-independent virtual metric by more than its bound.
//! 4. `BENCHMARK.json`, when run from the repo root, names exactly the
//!    metrics and workloads this binary reports.

use std::time::Duration;

use halfmoon::ProtocolKind;

use crate::harness::{spawn_round, END_TO_END};
use crate::round::RoundReport;
use crate::trace::PER_LAYER;
use crate::{RoundArgs, Workload};

struct Checks {
    failed: usize,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        println!("{} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            self.failed += 1;
        }
    }
}

pub fn run(seed: u64) -> Result<bool, String> {
    let mut c = Checks { failed: 0 };
    let plain_args = RoundArgs::new(Workload::SteadyMixed, seed);

    // 1. Sensitivity of the host clock metric: alternating rounds.
    const SPIN_US: f64 = 300.0;
    let mut spin_args = plain_args;
    spin_args.spin = Duration::from_micros(SPIN_US as u64);
    let (mut plain, mut spun) = (Vec::new(), Vec::new());
    let mut first_plain = None;
    for _ in 0..3 {
        let p = spawn_round(&plain_args)?;
        let s = spawn_round(&spin_args)?;
        c.check(
            p.fingerprint == s.fingerprint,
            "the injected busy-wait leaves the virtual results alone",
        );
        plain.push(p.host_us_per_op());
        spun.push(s.host_us_per_op());
        first_plain.get_or_insert(p);
    }
    // The fastest round of each side, as `host_us_per_op` is reported.
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let (plain, spun) = (fastest(&plain), fastest(&spun));
    let delta = spun - plain;
    c.check(
        (delta - SPIN_US).abs() <= 0.2 * SPIN_US,
        &format!(
            "a {SPIN_US} us busy-wait per request raises host_us_per_op by {delta:.1} us \
             ({plain:.1} -> {spun:.1}), within 20 % of {SPIN_US}"
        ),
    );
    let base = first_plain.expect("three rounds ran");

    // 2. Sensitivity of the virtual metrics to the protocol.
    let under = |protocol| {
        let mut args = plain_args;
        args.protocol = Some(protocol);
        spawn_round(&args)
    };
    let boki = under(ProtocolKind::Boki)?;
    let read = under(ProtocolKind::HalfmoonRead)?;
    let write = under(ProtocolKind::HalfmoonWrite)?;
    c.check(
        read.fingerprint == base.fingerprint,
        "naming the workload's own protocol changes nothing",
    );
    let appends = |r: &RoundReport| r.get("log_appends_per_op");
    c.check(
        (16.0..18.5).contains(&appends(&boki))
            && (11.5..12.5).contains(&appends(&read))
            && (6.5..7.5).contains(&appends(&write)),
        &format!(
            "log_appends_per_op is {:.2} under Boki, {:.2} under Halfmoon-read, {:.2} under \
             Halfmoon-write (paper: 17 > 12 > 7 on a 50/50 mix)",
            appends(&boki),
            appends(&read),
            appends(&write)
        ),
    );
    let p50 = |r: &RoundReport| r.get("virt_p50_ms");
    c.check(
        p50(&boki) > p50(&read) && p50(&boki) > p50(&write),
        &format!(
            "virt_p50_ms is {:.2} under Boki, above {:.2} (Halfmoon-read) and {:.2} \
             (Halfmoon-write)",
            p50(&boki),
            p50(&read),
            p50(&write)
        ),
    );

    // 3. Size: twice the window.
    let mut double_args = plain_args;
    double_args.scale = 2.0;
    let double = spawn_round(&double_args)?;
    let ratio = double.get("generated") / base.get("generated");
    c.check(
        (1.9..2.1).contains(&ratio),
        &format!("twice the window generates {ratio:.3} times the requests"),
    );
    // Bounds as in BENCHMARK.json.
    for (name, bound) in [
        ("virt_p50_ms", 0.15),
        ("virt_p99_ms", 0.15),
        ("virt_goodput_ops_s", 0.20),
        ("log_appends_per_op", 0.03),
    ] {
        let change = (double.get(name) - base.get(name)).abs() / base.get(name);
        c.check(
            change <= bound,
            &format!(
                "{name} moves by {:.2} % at twice the size (bound {:.0} %)",
                change * 100.0,
                bound * 100.0
            ),
        );
    }
    for r in [&base, &boki, &write, &double] {
        c.check(
            r.failures.is_empty(),
            &format!("output checks pass: {:?}", r.failures),
        );
    }

    // 4. The JSON contract and this binary agree on names.
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(json) => {
            let missing: Vec<&str> = END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .map(|m| m.name)
                .chain(Workload::ALL.iter().map(|w| w.name()))
                .filter(|name| !json.contains(&format!("\"name\": \"{name}\"")))
                .collect();
            c.check(
                missing.is_empty(),
                &format!("BENCHMARK.json names every metric and workload (missing: {missing:?})"),
            );
            let listed = json.matches("\"name\": ").count();
            let expected = END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len();
            c.check(
                listed == expected,
                &format!("BENCHMARK.json lists {listed} names, this binary reports {expected}"),
            );
        }
        Err(_) => println!("skip BENCHMARK.json is not in the working directory"),
    }

    println!("selfcheck: {} failed", c.failed);
    Ok(c.failed == 0)
}
