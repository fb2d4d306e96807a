//! Tests that drive a real daemon over loopback. Each starts its own daemon
//! on port 0, so they can run side by side.

use crate::cli;
use crate::fixture::{Fixture, Publisher};
use crate::run::{end_to_end_metrics, measure, Measured, Metrics, RunOptions};
use crate::spec::workload;

fn options(name: &str, seed: u64, seconds: u64) -> RunOptions {
    let workload = workload(name).expect("known workload");
    RunOptions {
        workload,
        seed,
        seconds,
        http_clients: workload.http_clients,
        corrupt_oracle: false,
    }
}

fn run(options: &RunOptions) -> Measured {
    let (fixture, connections) = Fixture::start(options.workload).expect("fixture starts");
    let mut publisher = Publisher::new(&fixture, options.workload.publish, options.seed);
    let measured = measure(&fixture, connections, &mut publisher, options);
    fixture.stop();
    measured
}

#[test]
fn churn_counts_repeat_exactly_for_a_seed_without_the_query_thread() {
    // With the closed-loop HTTP client off, everything the daemon does is
    // driven by the seeded churn order, so its counts must not depend on
    // timing. (`batches` is left out: how a worker's queue drains is.)
    let quiet = RunOptions {
        http_clients: 0,
        ..options("churn_sync", 11, 2)
    };
    let observe = |options: &RunOptions| {
        let measured = run(options);
        assert_eq!(measured.failed(), 0, "{measured:?}");
        let mut metrics = Metrics::new();
        end_to_end_metrics(&measured, &mut metrics);
        let c = &measured.counters;
        (
            measured.input_hash,
            metrics["sync_bytes_per_epoch"].value,
            measured.epochs.epochs,
            [
                c.queries,
                c.cache_hits,
                c.cache_misses,
                c.cache_carried,
                c.cache_invalidated,
                c.incremental_applies,
                c.model_rebuilds,
                c.reverified,
                c.skipped,
            ],
        )
    };
    let first = observe(&quiet);
    assert_eq!(first, observe(&quiet), "same seed, same counts");
    assert_eq!(first.2, 20, "2 s at 10 epochs/s");
    assert!(first.3[7] > 0, "deltas carried re-verified verdicts");
    let other = observe(&RunOptions { seed: 12, ..quiet });
    assert_ne!(first.0, other.0, "another seed churns in another order");
}

#[test]
fn every_workload_passes_the_oracle_in_a_short_window() {
    for name in ["hot_query", "cold_query", "full_resync"] {
        let measured = run(&options(name, 5, 2));
        assert_eq!(measured.failed(), 0, "{name}: {measured:?}");
        assert!(measured.completed_queries() > 0, "{name}");
        assert!(measured.epochs.epochs > 0, "{name}");
        assert!(measured.oracle.checked > 1, "{name}");
    }
}

#[test]
fn the_workloads_separate_the_layers() {
    let hot = run(&options("hot_query", 5, 2));
    let c = &hot.counters;
    assert_eq!(c.cache_misses, 0, "hot_query only ever hits the cache");
    assert!(c.cache_hits > 0);
    let cold = run(&options("cold_query", 5, 2));
    assert_eq!(cold.counters.cache_hits, 0, "cold_query never does");
    assert!(cold.counters.cache_misses > 0);
}

#[test]
fn a_corrupted_oracle_answer_fails_the_run_and_the_command() {
    let corrupted = RunOptions {
        corrupt_oracle: true,
        ..options("hot_query", 5, 1)
    };
    let measured = run(&corrupted);
    assert!(measured.oracle.mismatches > 0);
    assert!(measured.failed() > 0);

    let args = |corrupt: &str| -> Vec<String> {
        [
            "--workload",
            "hot_query",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--corrupt-oracle",
            corrupt,
        ]
        .map(String::from)
        .to_vec()
    };
    assert_eq!(cli::main(&args("0")), 0, "the honest run exits 0");
    assert_ne!(cli::main(&args("1")), 0, "the corrupted one must not");
}
