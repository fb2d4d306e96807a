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
//!   function, on the thread that serves the session — and the result cache
//!   carries the rest.
//!
//! Writes the machine-readable trajectory to `BENCH_incremental.json`; the
//! CI experiments-smoke gate fails when `speedup_at_10pct` drops below 1.0 (the
//! acceptance bar for the feature itself is 3x on a quiet machine).
//!
//! Smoke mode (`RVAAS_BENCH_SMOKE=1`) measures two churn points instead of
//! four.

use rvaas_topology::{generators, Topology};
use rvaas_workloads::{
    clients_of, run_full_rebuild_churn, run_incremental_churn, FullRebuildChurnReport,
    IncrementalChurnConfig, IncrementalChurnReport,
};

use crate::report::{smoke_mode, Report};

/// One churn rate's A/B measurement.
#[derive(Debug)]
struct ChurnPoint {
    churn_clients: usize,
    churn_fraction: f64,
    full: FullRebuildChurnReport,
    incremental: IncrementalChurnReport,
}

impl ChurnPoint {
    /// Epoch-advance speedup of the service over the from-scratch baseline.
    fn speedup(&self) -> f64 {
        let (full, incremental) = (&self.full, &self.incremental);
        full.epoch_advance_median.as_secs_f64()
            / incremental.epoch_advance_median.as_secs_f64().max(1e-9)
    }
}

/// Runs the A/B measurement over `topology` for the given churn rates.
fn measure(
    topology: &Topology,
    rounds: usize,
    churn_points: &[usize],
    rules_per_client: usize,
) -> Vec<ChurnPoint> {
    let clients = clients_of(topology).len().max(1);
    churn_points
        .iter()
        .map(|&churn_clients| {
            let config = IncrementalChurnConfig {
                rounds,
                churn_clients_per_round: churn_clients,
                rules_per_client,
                synthetic_queries: 0,
            };
            ChurnPoint {
                churn_clients,
                churn_fraction: churn_clients as f64 / clients as f64,
                incremental: run_incremental_churn(topology, &config),
                full: run_full_rebuild_churn(topology, &config),
            }
        })
        .collect()
}

/// Speedup at the point closest to 10% churn (0 when nothing was measured).
fn speedup_at_10pct(points: &[ChurnPoint]) -> f64 {
    points
        .iter()
        .min_by(|a, b| {
            (a.churn_fraction - 0.1)
                .abs()
                .total_cmp(&(b.churn_fraction - 0.1).abs())
        })
        .map_or(0.0, ChurnPoint::speedup)
}

fn report(label: &str, clients: usize, rounds: usize, points: &[ChurnPoint]) -> Report {
    let mut report = Report::new(
        "incremental_churn",
        "S2 — epoch advance under tenant churn: service (frozen function + affected-only re-verify) vs from-scratch verifier (rebuild + re-verify all); gate: speedup_at_10pct >= 1.0, target 3x",
    );
    report
        .field("topology", label)
        .field("clients", clients)
        .field(
            "standing_queries",
            points.first().map_or(0, |p| p.incremental.standing_queries),
        )
        .field("rounds", rounds);
    for p in points {
        report.point(vec![
            ("churn_clients", p.churn_clients.into()),
            ("churn_fraction", p.churn_fraction.into()),
            ("rule_changes", p.incremental.rule_changes.into()),
            ("full_advance_us", p.full.epoch_advance_median.into()),
            ("incr_advance_us", p.incremental.epoch_advance_median.into()),
            ("speedup", p.speedup().into()),
            ("full_reverified", p.full.reverified.into()),
            ("incr_reverified", p.incremental.reverified.into()),
            ("incr_skipped", p.incremental.skipped.into()),
            // Epochs, by how the store's one model took each.
            (
                "incremental_applies",
                p.incremental.incremental_applies.into(),
            ),
            ("model_rebuilds", p.incremental.model_rebuilds.into()),
        ]);
    }
    report.summary("speedup_at_10pct", speedup_at_10pct(points));
    report
}

/// Runs experiment S2 on the standard workload and writes
/// `BENCH_incremental.json` next to the working directory.
pub fn exp_s2_incremental_churn() -> Vec<String> {
    // Big enough that HSA traversal work dominates the (shared) snapshot
    // digesting cost of a publish; 20 clients, so 2 churned clients per
    // round = 10% churn. The whole sweep takes under a second, so smoke mode
    // only drops churn points: on a smaller fabric the service's fixed
    // per-exchange costs (a publish, one sync round trip per client) rival
    // the work being compared and the >= 1.0 gate sits inside the noise.
    let topology = generators::fat_tree(6, 20);
    let rounds = 4;
    let churn_points: &[usize] = if smoke_mode() {
        &[2, 10]
    } else {
        &[2, 4, 10, 20]
    };
    let points = measure(&topology, rounds, churn_points, 4);
    report(
        "fat_tree(6) x 20 clients",
        clients_of(&topology).len(),
        rounds,
        &points,
    )
    .write("BENCH_incremental.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_measurement_produces_consistent_report() {
        let topology = generators::leaf_spine(2, 4, 2, 1);
        let points = measure(&topology, 2, &[1], 2);
        assert_eq!(points.len(), 1);
        let point = &points[0];
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
        assert_eq!(speedup_at_10pct(&points), point.speedup());
        let report = report("leaf_spine(2,4,2)", 2, 2, &points);
        let json = report.json();
        assert!(json.contains("\"experiment\": \"incremental_churn\""));
        assert!(json.contains("\"speedup_at_10pct\""));
        assert!(report
            .rows()
            .iter()
            .any(|r| r.starts_with("speedup_at_10pct = ")));
    }
}
