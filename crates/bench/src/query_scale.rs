//! Experiment S3 — epoch-advance cost versus standing-query population.
//!
//! The interest-space index promises an `O(affected)` epoch advance: with the
//! churn rate held fixed, registering more standing queries must not make
//! publishing an epoch (model update + index advance + per-client delta
//! serving) slower. This experiment sweeps the synthetic standing-query
//! population (10k/30k/100k in full mode, 200/1k in smoke mode, plus a 1M
//! point under `RVAAS_BENCH_SOAK=1`) through the one churn driver,
//! [`run_incremental_churn`], and reports, per scale point:
//!
//! * the median epoch-advance latency of the measured rounds, under the
//!   `epoch_advance_avg_us` name the nightly gate reads (flat across points
//!   is the win);
//! * reverified/skipped standing-query counts (reverification must track the
//!   churn, not the population);
//! * the isolated affected-query selection latency through the linear scan
//!   versus the interest index ([`selection_latency`]; the index must never
//!   lose).
//!
//! Writes the machine-readable trajectory to `BENCH_queryscale.json`. The CI
//! experiments-smoke gate fails when the indexed selection is slower than the
//! linear scan or when epoch-advance latency grows super-linearly with the
//! population; the nightly full run additionally checks the within-2x
//! flatness bar (`advance_flatness`) across the sweep.

use std::time::Duration;

use rvaas_topology::{generators, Topology};
use rvaas_workloads::{
    clients_of, run_incremental_churn, selection_latency, standing_queries, IncrementalChurnConfig,
    IncrementalChurnReport,
};

use crate::report::{smoke_mode, soak_mode, Report};

/// Clients reconfigured per round, fixed across scale points.
const CHURN_CLIENTS: usize = 1;

/// Rules churned per reconfigured client per round.
const RULES_PER_CLIENT: usize = 2;

/// One population's measurement.
struct ScalePoint {
    population: usize,
    churn: IncrementalChurnReport,
    indexed_selection: Duration,
    linear_selection: Duration,
}

impl ScalePoint {
    fn advance_secs(&self) -> f64 {
        self.churn.epoch_advance_median.as_secs_f64()
    }

    /// Speedup of the indexed affected-query selection over the linear scan.
    fn selection_speedup(&self) -> f64 {
        self.linear_selection.as_secs_f64() / self.indexed_selection.as_secs_f64().max(1e-9)
    }
}

/// Runs the population sweep over `topology` with a fixed churn rate.
fn measure(
    topology: &Topology,
    rounds: usize,
    populations: &[usize],
    selection_probes: usize,
) -> Vec<ScalePoint> {
    populations
        .iter()
        .map(|&population| {
            let churn = run_incremental_churn(
                topology,
                &IncrementalChurnConfig {
                    rounds,
                    churn_clients_per_round: CHURN_CLIENTS,
                    rules_per_client: RULES_PER_CLIENT,
                    synthetic_queries: population,
                },
            );
            let (indexed_selection, linear_selection) = selection_latency(
                topology,
                &standing_queries(topology, population),
                selection_probes,
            );
            ScalePoint {
                population,
                churn,
                indexed_selection,
                linear_selection,
            }
        })
        .collect()
}

/// Last-to-first ratio of `value` across the points (0 for fewer than two).
fn growth(points: &[ScalePoint], value: fn(&ScalePoint) -> f64) -> f64 {
    match points {
        [first, .., last] => value(last) / value(first).max(1e-9),
        _ => 0.0,
    }
}

/// Largest-to-smallest ratio of median epoch-advance latency across the
/// points: 1.0 is perfectly flat, and the nightly bar is 2.0 (0 for fewer
/// than two points).
fn advance_flatness(points: &[ScalePoint]) -> f64 {
    let advances = points.iter().map(ScalePoint::advance_secs);
    let min = advances.clone().fold(f64::INFINITY, f64::min);
    let max = advances.fold(0.0, f64::max);
    if points.len() < 2 || min <= 0.0 {
        return 0.0;
    }
    max / min
}

fn report(label: &str, clients: usize, rounds: usize, points: &[ScalePoint]) -> Report {
    let mut report = Report::new(
        "query_scale",
        "S3 — epoch-advance cost vs standing-query population (interest-space index); gates: selection_speedup_min >= 1.0, advance_growth < population_growth, nightly advance_flatness <= 2.0",
    );
    report
        .field("topology", label)
        .field("clients", clients)
        .field("rounds", rounds)
        .field("churn_clients_per_round", CHURN_CLIENTS)
        .field("rules_per_client", RULES_PER_CLIENT)
        .field("soak", soak_mode());
    for p in points {
        report.point(vec![
            ("population", p.population.into()),
            ("standing_queries", p.churn.standing_queries.into()),
            ("rule_changes", p.churn.rule_changes.into()),
            ("epoch_advance_avg_us", p.churn.epoch_advance_median.into()),
            ("reverified", p.churn.reverified.into()),
            ("skipped", p.churn.skipped.into()),
            ("indexed_selection_us", p.indexed_selection.into()),
            ("linear_selection_us", p.linear_selection.into()),
            ("selection_speedup", p.selection_speedup().into()),
        ]);
    }
    report
        .summary("advance_flatness", advance_flatness(points))
        .summary("advance_growth", growth(points, ScalePoint::advance_secs))
        .summary(
            "population_growth",
            growth(points, |p| p.churn.standing_queries as f64),
        )
        .summary(
            "selection_speedup_min",
            points
                .iter()
                .map(ScalePoint::selection_speedup)
                .fold(f64::INFINITY, f64::min),
        );
    report
}

/// Runs experiment S3 on the standard workload and writes
/// `BENCH_queryscale.json` next to the working directory.
pub fn exp_s3_query_scale() -> Vec<String> {
    // 8 clients over 32 hosts: enough spread for a real per-client mix while
    // the per-query interest (one cube per owned host) stays small enough to
    // hold a 100k+ population. One churned client per round = fixed 12.5%
    // churn at every population point.
    let (topology, label, rounds, mut populations, probes) = if smoke_mode() {
        (
            generators::leaf_spine(2, 4, 4, 1),
            "leaf_spine(2,4,4) x 4 clients",
            2,
            vec![200, 1_000],
            3,
        )
    } else {
        (
            generators::leaf_spine(2, 4, 8, 1),
            "leaf_spine(2,4,8) x 8 clients",
            4,
            vec![10_000, 30_000, 100_000],
            2,
        )
    };
    if soak_mode() && !smoke_mode() {
        populations.push(1_000_000);
    }
    let points = measure(&topology, rounds, &populations, probes);
    report(label, clients_of(&topology).len(), rounds, &points).write("BENCH_queryscale.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_produces_consistent_report() {
        let topology = generators::leaf_spine(2, 4, 4, 1);
        let points = measure(&topology, 2, &[50, 200], 1);
        assert_eq!(points.len(), 2);
        assert!(points[0].churn.standing_queries < points[1].churn.standing_queries);
        for point in &points {
            assert!(point.churn.skipped > point.churn.reverified);
            assert!(point.selection_speedup() > 0.0);
        }
        assert!(advance_flatness(&points) >= 1.0);
        assert!(growth(&points, |p| p.churn.standing_queries as f64) > 1.0);
        let report = report("leaf_spine(2,4,4)", 4, 2, &points);
        let json = report.json();
        assert!(json.contains("\"experiment\": \"query_scale\""));
        assert!(json.contains("\"selection_speedup_min\""));
        assert!(json.contains("\"advance_flatness\""));
        assert!(report
            .rows()
            .iter()
            .any(|r| r.starts_with("advance_flatness = ")));
    }
}
