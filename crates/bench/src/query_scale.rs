//! Experiment S3 — epoch-advance cost versus standing-query population.
//!
//! The interest-space index promises an `O(affected)` epoch advance: with the
//! churn rate held fixed, registering more standing queries must not make
//! publishing an epoch (model update + index advance + per-client delta
//! serving) slower. This experiment sweeps the synthetic standing-query
//! population (10k/30k/100k in full mode, 200/1k in smoke mode, plus a 1M
//! point under `RVAAS_BENCH_SOAK=1`) over the
//! [`run_query_scale`](rvaas_workloads::run_query_scale) workload and
//! reports, per scale point:
//!
//! * the mean epoch-advance latency (flat across points is the win);
//! * reverified/skipped standing-query counts (reverification must track the
//!   churn, not the population);
//! * the isolated affected-query selection latency through the linear scan
//!   versus the interest index (the index must never lose).
//!
//! Writes the machine-readable trajectory to `BENCH_queryscale.json`. The CI
//! bench-smoke gate fails when the indexed selection is slower than the
//! linear scan or when epoch-advance latency grows super-linearly with the
//! population; the nightly full run additionally checks the within-2x
//! flatness bar from 10k to 100k.

use rvaas_topology::generators;
use rvaas_workloads::{run_query_scale, QueryScaleConfig, QueryScaleReport};

use crate::incremental_churn::smoke_mode;

/// True when the benchmarks should also run their long "soak" points
/// (nightly CI).
#[must_use]
pub fn soak_mode() -> bool {
    std::env::var_os("RVAAS_BENCH_SOAK").is_some()
}

/// One population's measurement.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Synthetic standing queries registered on top of the per-client mix.
    pub population: usize,
    /// The workload's measurements at this population.
    pub report: QueryScaleReport,
}

impl ScalePoint {
    /// Speedup of the indexed affected-query selection over the linear scan.
    #[must_use]
    pub fn selection_speedup(&self) -> f64 {
        self.report.linear_selection_avg.as_secs_f64()
            / self.report.indexed_selection_avg.as_secs_f64().max(1e-9)
    }
}

/// Everything experiment S3 measured.
#[derive(Debug, Clone)]
pub struct QueryScaleExperiment {
    /// Topology label.
    pub topology: String,
    /// Distinct clients the population is spread over.
    pub clients: usize,
    /// Measured churn/publish/sync rounds per point.
    pub rounds: usize,
    /// Clients reconfigured per round (fixed across points).
    pub churn_clients_per_round: usize,
    /// Rules churned per reconfigured client per round.
    pub rules_per_client: usize,
    /// The measured scale points, smallest population first.
    pub points: Vec<ScalePoint>,
    /// Whether smoke mode was active.
    pub smoke: bool,
    /// Whether the soak point was included.
    pub soak: bool,
    /// Cores visible to this process.
    pub host_cores: usize,
}

impl QueryScaleExperiment {
    /// Largest-to-smallest ratio of mean epoch-advance latency across the
    /// points — 1.0 is perfectly flat, and the full-mode acceptance bar is
    /// 2.0 (0 when fewer than two points were measured).
    #[must_use]
    pub fn advance_flatness(&self) -> f64 {
        let min = self
            .points
            .iter()
            .map(|p| p.report.epoch_advance_avg.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        let max = self
            .points
            .iter()
            .map(|p| p.report.epoch_advance_avg.as_secs_f64())
            .fold(0.0, f64::max);
        if self.points.len() < 2 || min <= 0.0 {
            return 0.0;
        }
        max / min
    }

    /// Epoch-advance growth from the first to the last point (the CI smoke
    /// gate compares it against [`population_growth`](Self::population_growth)
    /// to reject super-linear scaling).
    #[must_use]
    pub fn advance_growth(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(first), Some(last)) if self.points.len() >= 2 => {
                last.report.epoch_advance_avg.as_secs_f64()
                    / first.report.epoch_advance_avg.as_secs_f64().max(1e-9)
            }
            _ => 0.0,
        }
    }

    /// Standing-query population growth from the first to the last point.
    #[must_use]
    pub fn population_growth(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(first), Some(last)) if self.points.len() >= 2 => {
                last.report.standing_queries as f64 / first.report.standing_queries.max(1) as f64
            }
            _ => 0.0,
        }
    }

    /// Worst selection speedup across the points (the index must beat the
    /// linear scan at every population; gate: >= 1.0).
    #[must_use]
    pub fn selection_speedup_min(&self) -> f64 {
        self.points
            .iter()
            .map(ScalePoint::selection_speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// The human-readable table.
    #[must_use]
    pub fn rows(&self) -> Vec<String> {
        let mut rows = vec![
            "# S3 — epoch-advance cost vs standing-query population (interest-space index)"
                .to_string(),
            format!(
                "workload: {} | clients={} | rounds={} | churn={}x{} rules/round | host_cores={}{}{}",
                self.topology,
                self.clients,
                self.rounds,
                self.churn_clients_per_round,
                self.rules_per_client,
                self.host_cores,
                if self.smoke { " | SMOKE" } else { "" },
                if self.soak { " | SOAK" } else { "" },
            ),
            "standing_queries | advance_avg_us | reverified | skipped | indexed_select_us | linear_select_us | select_speedup".to_string(),
        ];
        for point in &self.points {
            rows.push(format!(
                "{} | {} | {} | {} | {} | {} | {:.2}",
                point.report.standing_queries,
                point.report.epoch_advance_avg.as_micros(),
                point.report.reverified,
                point.report.skipped,
                point.report.indexed_selection_avg.as_micros(),
                point.report.linear_selection_avg.as_micros(),
                point.selection_speedup(),
            ));
        }
        rows.push(format!(
            "advance flatness (max/min) = {:.2}x (full-mode bar: <= 2.0) | advance growth {:.2}x vs population growth {:.2}x | min selection speedup = {:.2}x (gate: >= 1.0)",
            self.advance_flatness(),
            self.advance_growth(),
            self.population_growth(),
            self.selection_speedup_min(),
        ));
        rows
    }

    /// The machine-readable trajectory.
    #[must_use]
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        "{{\"population\":{},\"standing_queries\":{},",
                        "\"rule_changes\":{},",
                        "\"epoch_advance_avg_us\":{},\"epoch_advance_total_us\":{},",
                        "\"reverified\":{},\"skipped\":{},",
                        "\"indexed_selection_us\":{},\"linear_selection_us\":{},",
                        "\"selection_speedup\":{:.3}}}",
                    ),
                    p.population,
                    p.report.standing_queries,
                    p.report.rule_changes,
                    p.report.epoch_advance_avg.as_micros(),
                    p.report.epoch_advance_total.as_micros(),
                    p.report.reverified,
                    p.report.skipped,
                    p.report.indexed_selection_avg.as_micros(),
                    p.report.linear_selection_avg.as_micros(),
                    p.selection_speedup(),
                )
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"query_scale\",\n",
                "  \"topology\": \"{}\",\n",
                "  \"clients\": {},\n",
                "  \"rounds\": {},\n",
                "  \"churn_clients_per_round\": {},\n",
                "  \"rules_per_client\": {},\n",
                "  \"smoke\": {},\n",
                "  \"soak\": {},\n",
                "  \"host_cores\": {},\n",
                "  \"points\": [{}],\n",
                "  \"advance_flatness\": {:.3},\n",
                "  \"advance_growth\": {:.3},\n",
                "  \"population_growth\": {:.3},\n",
                "  \"selection_speedup_min\": {:.3}\n",
                "}}\n",
            ),
            self.topology,
            self.clients,
            self.rounds,
            self.churn_clients_per_round,
            self.rules_per_client,
            self.smoke,
            self.soak,
            self.host_cores,
            points.join(","),
            self.advance_flatness(),
            self.advance_growth(),
            self.population_growth(),
            self.selection_speedup_min(),
        )
    }
}

/// Runs the population sweep over `topology` with a fixed churn rate.
#[must_use]
pub fn measure_query_scale(
    topology: &rvaas_topology::Topology,
    label: &str,
    rounds: usize,
    populations: &[usize],
    selection_probes: usize,
) -> QueryScaleExperiment {
    let clients = rvaas_workloads::clients_of(topology).len().max(1);
    let churn_clients_per_round = 1;
    let rules_per_client = 2;
    let points: Vec<ScalePoint> = populations
        .iter()
        .map(|&population| ScalePoint {
            population,
            report: run_query_scale(
                topology,
                &QueryScaleConfig {
                    synthetic_queries: population,
                    rounds,
                    churn_clients_per_round,
                    rules_per_client,
                    selection_probes,
                },
            ),
        })
        .collect();
    QueryScaleExperiment {
        topology: label.to_string(),
        clients,
        rounds,
        churn_clients_per_round,
        rules_per_client,
        points,
        smoke: smoke_mode(),
        soak: soak_mode(),
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Runs experiment S3 on the standard workload and writes
/// `BENCH_queryscale.json` next to the working directory.
pub fn exp_s3_query_scale() -> Vec<String> {
    // 8 clients over 32 hosts: enough spread for a real per-client mix while
    // the per-query interest (one cube per owned host) stays small enough to
    // hold a 100k+ population. One churned client per round = fixed 12.5%
    // churn at every population point.
    let (topology, label, rounds, mut populations, probes): (_, _, usize, Vec<usize>, usize) =
        if smoke_mode() {
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
    let report = measure_query_scale(&topology, label, rounds, &populations, probes);
    let json = report.to_json();
    let path = "BENCH_queryscale.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("(wrote {path})"),
        Err(err) => eprintln!("(could not write {path}: {err})"),
    }
    report.rows()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_produces_consistent_report() {
        let topology = generators::leaf_spine(2, 4, 4, 1);
        let report = measure_query_scale(&topology, "leaf_spine(2,4,4)", 2, &[50, 200], 1);
        assert_eq!(report.points.len(), 2);
        assert!(
            report.points[0].report.standing_queries < report.points[1].report.standing_queries
        );
        for point in &report.points {
            assert!(point.report.skipped > point.report.reverified);
            assert!(point.selection_speedup() > 0.0);
        }
        assert!(report.advance_flatness() >= 1.0);
        assert!(report.population_growth() > 1.0);
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"query_scale\""));
        assert!(json.contains("\"selection_speedup_min\""));
        assert!(json.contains("\"advance_flatness\""));
        let rows = report.rows();
        assert!(rows.iter().any(|r| r.contains("advance flatness")));
    }
}
