//! Workload smoke and consistency tests: each application runs under every
//! protocol, with and without crash injection, and its invariants hold.

use std::time::Duration;

use halfmoon::{audit, Client, FaultPolicy, ProtocolKind};
use hm_common::latency::LatencyModel;
use hm_common::Value;
use hm_runtime::RuntimeConfig;
use hm_workloads::movie::Movie;
use hm_workloads::retwis::Retwis;
use hm_workloads::synthetic::{MicroRw, SyntheticOps};
use hm_workloads::travel::Travel;
use hm_workloads::{run_app, AppRun, Workload};

fn run_workload(
    workload: &dyn Workload,
    kind: ProtocolKind,
    crash_prob: f64,
    rate: f64,
    secs: u64,
) -> (hm_runtime::LoadReport, Client) {
    let params = AppRun {
        seed: 0x77_u64 + u64::from(kind.code()),
        rate,
        duration: Duration::from_secs(secs),
        warmup: Duration::from_millis(500),
        rt_config: RuntimeConfig::default(),
        gc_interval: None,
    };
    let out = run_app(workload, &params, |b| {
        let b = b
            .model(LatencyModel::uniform_test_model())
            .protocol(kind)
            .recorder();
        if crash_prob > 0.0 {
            b.faults(FaultPolicy::random(crash_prob, 500))
        } else {
            b
        }
    });
    (out.report, out.client)
}

fn workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Travel {
            hotels: 40,
            users: 50,
        }),
        Box::new(Movie {
            movies: 40,
            users: 50,
            review_bytes: 128,
        }),
        Box::new(Retwis {
            users: 60,
            tweet_bytes: 140,
            timeline_cap: 10,
        }),
        Box::new(MicroRw {
            objects: 200,
            value_bytes: 256,
        }),
        Box::new(SyntheticOps {
            objects: 200,
            value_bytes: 256,
            ops_per_request: 10,
            read_ratio: 0.5,
        }),
    ]
}

#[test]
fn every_workload_runs_failure_free_under_every_protocol() {
    for workload in workloads() {
        for kind in [
            ProtocolKind::HalfmoonRead,
            ProtocolKind::HalfmoonWrite,
            ProtocolKind::Boki,
        ] {
            let (report, client) = run_workload(workload.as_ref(), kind, 0.0, 80.0, 3);
            assert_eq!(report.errors, 0, "{} under {kind}", workload.name());
            assert!(
                report.completed > 100,
                "{} under {kind}: completed {}",
                workload.name(),
                report.completed
            );
            audit(&client).assert_passed(format_args!("{} under {kind}", workload.name()));
        }
    }
}

#[test]
fn every_workload_survives_crash_injection() {
    for workload in workloads() {
        for kind in [
            ProtocolKind::HalfmoonRead,
            ProtocolKind::HalfmoonWrite,
            ProtocolKind::Boki,
        ] {
            let (report, client) = run_workload(workload.as_ref(), kind, 0.005, 60.0, 3);
            assert_eq!(report.errors, 0, "{} under {kind}", workload.name());
            audit(&client).assert_passed(format_args!("{} under {kind}", workload.name()));
        }
    }
}

#[test]
fn unsafe_baseline_also_runs_the_workloads() {
    for workload in workloads() {
        let (report, _client) = run_workload(workload.as_ref(), ProtocolKind::Unsafe, 0.0, 80.0, 2);
        assert_eq!(report.errors, 0, "{}", workload.name());
        assert!(report.completed > 50, "{}", workload.name());
    }
}

#[test]
fn hm_read_is_faster_than_boki_on_read_intensive_workloads() {
    // The headline claim on the travel workload: Halfmoon-read's median
    // end-to-end latency beats Boki's.
    let travel = Travel {
        hotels: 40,
        users: 50,
    };
    let (hm, _) = run_workload(&travel, ProtocolKind::HalfmoonRead, 0.0, 80.0, 4);
    let (boki, _) = run_workload(&travel, ProtocolKind::Boki, 0.0, 80.0, 4);
    let hm_med = hm.latency.median_ms().unwrap();
    let boki_med = boki.latency.median_ms().unwrap();
    assert!(
        hm_med < boki_med,
        "expected Halfmoon-read ({hm_med:.2}ms) to beat Boki ({boki_med:.2}ms)"
    );
}

#[test]
fn retwis_timeline_is_capped_and_consistent() {
    let retwis = Retwis {
        users: 30,
        tweet_bytes: 100,
        timeline_cap: 5,
    };
    let (report, client) = run_workload(&retwis, ProtocolKind::HalfmoonWrite, 0.0, 100.0, 3);
    assert_eq!(report.errors, 0);
    audit(&client).assert_passed("retwis timeline is capped and consistent");
    let tl = client
        .store()
        .peek(&hm_common::Key::new("timeline:public"))
        .unwrap();
    assert!(tl.as_list().unwrap().len() <= 5, "timeline cap respected");
}

#[test]
fn movie_ratings_accumulate() {
    let movie = Movie {
        movies: 5,
        users: 10,
        review_bytes: 64,
    };
    let (report, client) = run_workload(&movie, ProtocolKind::HalfmoonWrite, 0.0, 120.0, 3);
    assert_eq!(report.errors, 0);
    // At least one movie accumulated rating entries.
    let mut total = 0i64;
    for m in 0..5 {
        if let Some(r) = client
            .store()
            .peek(&hm_common::Key::new(format!("movie:{m}:rating")))
        {
            total += r.get("count").and_then(Value::as_int).unwrap_or(0);
        }
    }
    assert!(total > 0, "ratings recorded: {total}");
}
