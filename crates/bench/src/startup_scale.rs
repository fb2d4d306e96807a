//! Experiment S4 — daemon start versus trusted-topology size.
//!
//! The first row of the complexity sweep (ROADMAP item 8): what
//! `Daemon::start` does before it can answer anything, on `fat_tree(k, 4k)`
//! for k = 8, 12, 16 (smoke mode: 8, 12). Three phases, each the median
//! (and MAD) of five runs:
//!
//! * **compile** — `benign_rules`, the benign routing policy;
//! * **snapshot** — recording every compiled rule into a `NetworkSnapshot`;
//! * **publish** — the epoch-1 `try_publish` on a fresh service (the
//!   store's bulk model rebuild).
//!
//! Each phase gets a growth exponent fitted against the rule count (least
//! squares on log–log; 1.0 is linear). The per-pair compile this replaced
//! ran one whole-graph BFS per `(switch, host)` pair and fitted 1.75 from
//! k = 8 to 12.
//!
//! A fourth row is what the daemon does after it has started: the **delta
//! publish**, the median (and MAD) of 300 steady tenant-churn
//! `try_publish_changes` (one tenant's four rules out, the next tenant's
//! four in), fitted against the mean rules per table (rules ÷ switches) —
//! the size a delta publish copies and scans in every table it touches.
//!
//! Writes the machine-readable curve to `BENCH_startup.json`; the CI
//! experiments-smoke gate fails when `compile_exponent` exceeds 1.4 or
//! `delta_publish_exponent` exceeds 1.3.

use std::time::Instant;

use rvaas::NetworkSnapshot;
use rvaas_controlplane::benign_rules;
use rvaas_service::{ServiceSettings, VerificationService};
use rvaas_topology::{generators, Topology};
use rvaas_types::SimTime;
use rvaas_workloads::{benign_snapshot, tenant_churn_round};

use crate::report::{smoke_mode, MedianMad, Report};

/// Runs per phase and point.
const RUNS: usize = 5;

/// Timed delta publishes per point.
const DELTA_ROUNDS: u64 = 300;

/// Untimed churn rounds before them: the first only installs.
const DELTA_WARMUP: u64 = 10;

/// One fat-tree size's measurements: the phases in ms, the delta publish
/// in µs.
struct StartupPoint {
    k: usize,
    switches: usize,
    hosts: usize,
    rules: usize,
    compile: MedianMad,
    snapshot: MedianMad,
    publish: MedianMad,
    delta_publish: MedianMad,
}

/// Milliseconds since `started`.
fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn fresh_service(topology: &Topology) -> VerificationService {
    VerificationService::new(topology.clone(), ServiceSettings::default())
}

/// [`DELTA_ROUNDS`] steady delta publishes, in µs, on a service that has
/// published the benign routing: each round's net changes, as the monitor
/// would hand them over, take one tenant's four churn rules out and put the
/// next tenant's four in.
fn measure_delta_publish(topology: &Topology) -> MedianMad {
    let mut snapshot = benign_snapshot(topology);
    let service = fresh_service(topology);
    service
        .try_publish(&snapshot, SimTime::from_millis(1))
        .expect("epoch 1 publishes");
    let mut samples = Vec::new();
    for round in 0..DELTA_WARMUP + DELTA_ROUNDS {
        let at = SimTime::from_millis(2 + round);
        let mut next = snapshot.clone();
        tenant_churn_round(topology, &mut next, round, 1, 4, at);
        let changes = snapshot.changes_to(&next);
        let started = Instant::now();
        service
            .try_publish_changes(&changes, at)
            .expect("delta publishes");
        if round >= DELTA_WARMUP {
            samples.push(started.elapsed().as_secs_f64() * 1e6);
        }
        snapshot = next;
    }
    MedianMad::of(&samples)
}

fn measure_point(k: usize) -> StartupPoint {
    let topology = generators::fat_tree(k, 4 * k);
    let at = SimTime::from_millis(1);
    let (mut compile, mut snapshot, mut publish) = (Vec::new(), Vec::new(), Vec::new());
    let mut rules = 0;
    for _ in 0..RUNS {
        let started = Instant::now();
        let compiled = benign_rules(&topology);
        compile.push(ms_since(started));
        rules = compiled.len();

        let started = Instant::now();
        let mut epoch_one = NetworkSnapshot::new(at);
        for (switch, entry) in compiled {
            epoch_one.record_installed(switch, entry, at);
        }
        snapshot.push(ms_since(started));

        let service = fresh_service(&topology);
        let started = Instant::now();
        service
            .try_publish(&epoch_one, at)
            .expect("epoch 1 publishes");
        publish.push(ms_since(started));
    }
    StartupPoint {
        k,
        switches: topology.switch_count(),
        hosts: topology.host_count(),
        rules,
        compile: MedianMad::of(&compile),
        snapshot: MedianMad::of(&snapshot),
        publish: MedianMad::of(&publish),
        delta_publish: measure_delta_publish(&topology),
    }
}

/// The rule count: what the start-up phases are fitted against.
fn rules(p: &StartupPoint) -> f64 {
    p.rules as f64
}

/// The mean rules per table: what the delta publish is fitted against.
fn rules_per_table(p: &StartupPoint) -> f64 {
    p.rules as f64 / p.switches as f64
}

/// Least-squares slope of `ln(phase median)` on `ln(size)` (0 for fewer
/// than two points).
fn exponent(
    points: &[StartupPoint],
    size: fn(&StartupPoint) -> f64,
    phase: fn(&StartupPoint) -> MedianMad,
) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let xy: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (size(p).ln(), phase(p).median.max(1e-12).ln()))
        .collect();
    let n = xy.len() as f64;
    let mean_x = xy.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = xy.iter().map(|(_, y)| y).sum::<f64>() / n;
    let covariance: f64 = xy.iter().map(|(x, y)| (x - mean_x) * (y - mean_y)).sum();
    let variance: f64 = xy.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    covariance / variance
}

fn report(points: &[StartupPoint]) -> Report {
    let mut report = Report::new(
        "startup_scale",
        "S4 — daemon start vs trusted-topology size; gates: compile_exponent <= 1.4, delta_publish_exponent <= 1.3",
    );
    report
        .field("topology", "fat_tree(k, 4k)")
        .field("runs", RUNS)
        .field("delta_rounds", DELTA_ROUNDS);
    for p in points {
        report.point(vec![
            ("k", p.k.into()),
            ("switches", p.switches.into()),
            ("hosts", p.hosts.into()),
            ("rules", p.rules.into()),
            ("compile_ms", p.compile.into()),
            ("snapshot_ms", p.snapshot.into()),
            ("publish_ms", p.publish.into()),
            ("delta_publish_us", p.delta_publish.into()),
        ]);
    }
    let segments: Vec<f64> = points
        .windows(2)
        .map(|pair| exponent(pair, rules, |p| p.compile))
        .collect();
    report
        .summary("compile_exponent", exponent(points, rules, |p| p.compile))
        .summary("compile_segment_exponents", segments)
        .summary("snapshot_exponent", exponent(points, rules, |p| p.snapshot))
        .summary("publish_exponent", exponent(points, rules, |p| p.publish))
        .summary(
            "delta_publish_exponent",
            exponent(points, rules_per_table, |p| p.delta_publish),
        );
    report
}

/// Runs experiment S4 and writes `BENCH_startup.json` next to the working
/// directory.
pub fn exp_s4_startup_scale() -> Vec<String> {
    let arities: &[usize] = if smoke_mode() { &[8, 12] } else { &[8, 12, 16] };
    let points: Vec<StartupPoint> = arities.iter().map(|&k| measure_point(k)).collect();
    report(&points).write("BENCH_startup.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_produces_consistent_report() {
        let points: Vec<StartupPoint> = [2, 4].iter().map(|&k| measure_point(k)).collect();
        assert!(points[0].rules < points[1].rules);
        assert!(exponent(&points, rules, |p| p.compile).is_finite());
        assert!(points.iter().all(|p| p.delta_publish.median > 0.0));
        let report = report(&points);
        let json = report.json();
        assert!(json.contains("\"experiment\": \"startup_scale\""));
        assert!(json.contains("\"compile_exponent\""));
        assert!(json.contains("\"compile_segment_exponents\": ["));
        assert!(json.contains("\"delta_publish_exponent\""));
        assert!(report
            .rows()
            .iter()
            .any(|r| r.starts_with("compile_exponent = ")));
    }

    #[test]
    fn exponent_of_a_power_law_is_its_power() {
        let at = |median: f64| MedianMad { median, mad: 0.0 };
        let point = |rules: usize, micros: f64| StartupPoint {
            k: 0,
            switches: 0,
            hosts: 0,
            rules,
            compile: at(micros),
            snapshot: at(micros * micros),
            publish: at(1.0),
            delta_publish: at(micros),
        };
        let points = [
            point(10, 100.0),
            point(100, 1_000.0),
            point(1_000, 10_000.0),
        ];
        assert!((exponent(&points, rules, |p| p.compile) - 1.0).abs() < 1e-9);
        assert!((exponent(&points, rules, |p| p.snapshot) - 2.0).abs() < 1e-9);
        assert!(exponent(&points, rules, |p| p.publish).abs() < 1e-9);
        assert_eq!(exponent(&points[..1], rules, |p| p.compile), 0.0);
        // Ten switches each: rules per table grow as rules do.
        let per_table = |p: &StartupPoint| p.rules as f64 / 10.0;
        assert!((exponent(&points, per_table, |p| p.delta_publish) - 1.0).abs() < 1e-9);
    }
}
