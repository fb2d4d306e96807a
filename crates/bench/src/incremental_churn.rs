//! Experiment S2 — epoch advance under tenant churn: the service against
//! the from-scratch verifier.
//!
//! Measures the **epoch-advance cost** — taking the new configuration in and
//! bringing every standing query's verdict up to date — across churn rates,
//! two ways over the same [`rvaas_workloads::tenant_churn_round`] sequence:
//!
//! * **full** (`rvaas_workloads::run_full_rebuild_churn`, the reference
//!   implementation; no service code): per round and per client,
//!   [`rvaas::LogicalVerifier`] rebuilds the HSA network function from the
//!   snapshot and re-verifies all of that client's standing queries.
//!   Nothing is skipped;
//! * **incremental** (`rvaas_workloads::run_incremental_churn`, the
//!   service as deployed): the publish advances the epoch store's one model
//!   by the epoch's rule delta and freezes its function into the epoch, the
//!   interest index selects the standing queries whose interest space meets
//!   the changed header region, sync re-verifies only those — on the frozen
//!   function, on the thread that serves the session — and the result cache carries the
//!   rest.
//!
//! Writes the machine-readable trajectory to `BENCH_incremental.json`; the
//! CI bench-smoke gate fails when `speedup_at_10pct` drops below 1.0 (the
//! acceptance bar for the feature itself is 3x on a quiet machine).
//!
//! Smoke mode (`RVAAS_BENCH_SMOKE=1`) measures two churn points instead of
//! four (`s1`/`s3` shrink more).

use rvaas_topology::generators;
use rvaas_workloads::{
    run_full_rebuild_churn, run_incremental_churn, FullRebuildChurnReport, IncrementalChurnConfig,
    IncrementalChurnReport,
};

/// True when the benchmarks should run in reduced "smoke" mode (CI).
#[must_use]
pub fn smoke_mode() -> bool {
    std::env::var_os("RVAAS_BENCH_SMOKE").is_some()
}

/// One churn rate's A/B measurement.
#[derive(Debug, Clone)]
pub struct ChurnPoint {
    /// Clients reconfigured per round.
    pub churn_clients: usize,
    /// Fraction of all clients that is.
    pub churn_fraction: f64,
    /// The from-scratch baseline's measurements.
    pub full: FullRebuildChurnReport,
    /// The service's measurements.
    pub incremental: IncrementalChurnReport,
}

impl ChurnPoint {
    /// Epoch-advance speedup of the service over the from-scratch baseline.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.full.epoch_advance_total.as_secs_f64()
            / self.incremental.epoch_advance_total.as_secs_f64().max(1e-9)
    }
}

/// Everything experiment S2 measured.
#[derive(Debug, Clone)]
pub struct IncrementalChurnExperiment {
    /// Topology label.
    pub topology: String,
    /// Distinct clients (each holds the full standing-query mix).
    pub clients: usize,
    /// Standing queries registered per run.
    pub standing_queries: usize,
    /// Churn/publish/sync rounds per measurement.
    pub rounds: usize,
    /// The measured churn rates.
    pub points: Vec<ChurnPoint>,
    /// Whether smoke mode was active.
    pub smoke: bool,
    /// Cores visible to this process.
    pub host_cores: usize,
}

impl IncrementalChurnExperiment {
    /// The point closest to 10% churn (the headline number).
    #[must_use]
    pub fn point_near_10pct(&self) -> Option<&ChurnPoint> {
        self.points.iter().min_by(|a, b| {
            (a.churn_fraction - 0.1)
                .abs()
                .total_cmp(&(b.churn_fraction - 0.1).abs())
        })
    }

    /// Speedup at the ~10% churn point (0 when nothing was measured).
    #[must_use]
    pub fn speedup_at_10pct(&self) -> f64 {
        self.point_near_10pct().map_or(0.0, ChurnPoint::speedup)
    }

    /// The human-readable table.
    #[must_use]
    pub fn rows(&self) -> Vec<String> {
        let mut rows = vec![
            "# S2 — epoch advance under tenant churn: service (frozen function + affected-only re-verify) vs from-scratch verifier (rebuild + re-verify all)".to_string(),
            format!(
                "workload: {} | clients={} | standing_queries={} | rounds={} | host_cores={}{}",
                self.topology,
                self.clients,
                self.standing_queries,
                self.rounds,
                self.host_cores,
                if self.smoke { " | SMOKE" } else { "" },
            ),
            "(JSON `incremental_applies` / `model_rebuilds` count epochs — how the store's one model took each — not worker syncs)".to_string(),
            "churn | full_advance_us | incr_advance_us | speedup | full_reverified | incr_reverified | incr_skipped".to_string(),
        ];
        for point in &self.points {
            rows.push(format!(
                "{:.0}% | {} | {} | {:.2} | {} | {} | {}",
                point.churn_fraction * 100.0,
                point.full.epoch_advance_avg.as_micros(),
                point.incremental.epoch_advance_avg.as_micros(),
                point.speedup(),
                point.full.reverified,
                point.incremental.reverified,
                point.incremental.skipped,
            ));
        }
        rows.push(format!(
            "speedup at ~10% churn = {:.2}x (gate: >= 1.0 in CI, target 3x)",
            self.speedup_at_10pct()
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
                        "{{\"churn_clients\":{},\"churn_fraction\":{:.4},",
                        "\"rule_changes\":{},",
                        "\"full\":{{\"epoch_advance_avg_us\":{},\"reverified\":{},\"skipped\":0}},",
                        "\"incremental\":{{\"epoch_advance_avg_us\":{},\"publish_us\":{},\"reverified\":{},\"skipped\":{},\"incremental_applies\":{},\"model_rebuilds\":{},\"latency_p50_us\":{},\"latency_p95_us\":{},\"latency_p99_us\":{}}},",
                        "\"speedup\":{:.3}}}",
                    ),
                    p.churn_clients,
                    p.churn_fraction,
                    p.incremental.rule_changes,
                    p.full.epoch_advance_avg.as_micros(),
                    p.full.reverified,
                    p.incremental.epoch_advance_avg.as_micros(),
                    publish_us_json(&p.incremental),
                    p.incremental.reverified,
                    p.incremental.skipped,
                    p.incremental.incremental_applies,
                    p.incremental.model_rebuilds,
                    p.incremental.latency_p50_us,
                    p.incremental.latency_p95_us,
                    p.incremental.latency_p99_us,
                    p.speedup(),
                )
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"incremental_churn\",\n",
                "  \"topology\": \"{}\",\n",
                "  \"clients\": {},\n",
                "  \"standing_queries\": {},\n",
                "  \"rounds\": {},\n",
                "  \"smoke\": {},\n",
                "  \"host_cores\": {},\n",
                "  \"points\": [{}],\n",
                "  \"speedup_at_10pct\": {:.3}\n",
                "}}\n",
            ),
            self.topology,
            self.clients,
            self.standing_queries,
            self.rounds,
            self.smoke,
            self.host_cores,
            points.join(","),
            self.speedup_at_10pct(),
        )
    }
}

/// The publish call's own share of a round, per publish path: median and
/// MAD over the measured rounds (no gate reads it; the README table does).
fn publish_us_json(report: &IncrementalChurnReport) -> String {
    let path = |m: rvaas_workloads::MedianMad| {
        format!("{{\"median\":{:.1},\"mad\":{:.1}}}", m.median_us, m.mad_us)
    };
    format!(
        "{{\"full\":{},\"delta\":{}}}",
        path(report.publish_full),
        path(report.publish_delta)
    )
}

/// Runs the A/B measurement over `topology` for the given churn rates.
#[must_use]
pub fn measure_incremental_churn(
    topology: &rvaas_topology::Topology,
    label: &str,
    rounds: usize,
    churn_points: &[usize],
    rules_per_client: usize,
) -> IncrementalChurnExperiment {
    let clients = rvaas_workloads::clients_of(topology).len().max(1);
    let mut points = Vec::new();
    for &churn_clients in churn_points {
        let config = IncrementalChurnConfig {
            rounds,
            churn_clients_per_round: churn_clients,
            rules_per_client,
        };
        points.push(ChurnPoint {
            churn_clients,
            churn_fraction: churn_clients as f64 / clients as f64,
            incremental: run_incremental_churn(topology, &config),
            full: run_full_rebuild_churn(topology, &config),
        });
    }
    IncrementalChurnExperiment {
        topology: label.to_string(),
        clients,
        standing_queries: points.first().map_or(0, |p| p.incremental.standing_queries),
        rounds,
        points,
        smoke: smoke_mode(),
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Runs experiment S2 on the standard workload and writes
/// `BENCH_incremental.json` next to the working directory.
pub fn exp_s2_incremental_churn() -> Vec<String> {
    // Big enough that HSA traversal work dominates the (shared) snapshot
    // digesting cost of a publish; 20 clients, so 2 churned clients per
    // round = 10% churn. The whole sweep takes under a second, so smoke mode
    // only drops churn points: on a smaller fabric the service's fixed
    // per-exchange costs (thread wake-ups, channel hops) rival the work being
    // compared and the >= 1.0 gate sits inside the noise.
    let topology = generators::fat_tree(6, 20);
    let label = "fat_tree(6) x 20 clients";
    let rounds = 4;
    let churn_points: &[usize] = if smoke_mode() {
        &[2, 10]
    } else {
        &[2, 4, 10, 20]
    };
    let report = measure_incremental_churn(&topology, label, rounds, churn_points, 4);
    let json = report.to_json();
    let path = "BENCH_incremental.json";
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
    fn small_measurement_produces_consistent_report() {
        let topology = generators::leaf_spine(2, 4, 2, 1);
        let report = measure_incremental_churn(&topology, "leaf_spine(2,4,2)", 2, &[1], 2);
        assert_eq!(report.points.len(), 1);
        let point = &report.points[0];
        assert!(point.speedup() > 0.0);
        assert_eq!(
            point.full.reverified,
            point.incremental.reverified + point.incremental.skipped,
            "baseline re-verifies everything"
        );
        assert!(
            point.incremental.reverified < point.full.reverified,
            "incremental must re-verify a strict subset: {point:?}"
        );
        assert!(point.incremental.skipped > 0);
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"incremental_churn\""));
        assert!(json.contains("\"speedup_at_10pct\""));
        let rows = report.rows();
        assert!(rows.iter().any(|r| r.contains("speedup at ~10% churn")));
    }
}
