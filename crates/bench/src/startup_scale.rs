//! Experiment S4 — daemon start versus trusted-topology size.
//!
//! The first row of the complexity sweep ROADMAP item 5 asks for: what
//! `Daemon::start` does before it can answer anything, on `fat_tree(k, 4k)`
//! for k = 8, 12, 16 (smoke mode: 8, 12). Three phases, each the median of
//! five runs:
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
//! publish**, the median of 300 steady tenant-churn `try_publish_changes`
//! (one tenant's four rules out, the next tenant's four in), fitted against
//! the mean rules per table (rules ÷ switches) — the size a delta publish
//! copies and scans in every table it touches.
//!
//! Writes the machine-readable curve to `BENCH_startup.json`; the CI
//! bench-smoke gate fails when `compile_exponent` exceeds 1.4 or
//! `delta_publish_exponent` exceeds 1.3.

use std::time::{Duration, Instant};

use rvaas::{LocationMap, NetworkSnapshot, VerifierConfig};
use rvaas_controlplane::benign_rules;
use rvaas_service::{ServiceSettings, VerificationService};
use rvaas_topology::{generators, Topology};
use rvaas_types::SimTime;
use rvaas_workloads::{benign_snapshot, tenant_churn_round};

use crate::incremental_churn::smoke_mode;

/// Runs per phase and point; the median is reported.
const RUNS: usize = 5;

/// Timed delta publishes per point; the median is reported.
const DELTA_ROUNDS: u64 = 300;

/// Untimed churn rounds before them: the first only installs.
const DELTA_WARMUP: u64 = 10;

/// One fat-tree size's medians.
struct StartupPoint {
    k: usize,
    switches: usize,
    hosts: usize,
    rules: usize,
    compile: Duration,
    snapshot: Duration,
    publish: Duration,
    delta_publish: Duration,
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn fresh_service(topology: &Topology) -> VerificationService {
    VerificationService::new(
        topology.clone(),
        ServiceSettings::default().into_config(VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(topology),
        }),
    )
}

/// The median of [`DELTA_ROUNDS`] steady delta publishes on a service that
/// has published the benign routing: each round's net changes, as the
/// monitor would hand them over, take one tenant's four churn rules out and
/// put the next tenant's four in.
fn measure_delta_publish(topology: &Topology) -> Duration {
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
            samples.push(started.elapsed());
        }
        snapshot = next;
    }
    median(samples)
}

fn measure_point(k: usize) -> StartupPoint {
    let topology = generators::fat_tree(k, 4 * k);
    let at = SimTime::from_millis(1);
    let (mut compile, mut snapshot, mut publish) = (Vec::new(), Vec::new(), Vec::new());
    let mut rules = 0;
    for _ in 0..RUNS {
        let started = Instant::now();
        let compiled = benign_rules(&topology);
        compile.push(started.elapsed());
        rules = compiled.len();

        let started = Instant::now();
        let mut epoch_one = NetworkSnapshot::new(at);
        for (switch, entry) in compiled {
            epoch_one.record_installed(switch, entry, at);
        }
        snapshot.push(started.elapsed());

        let service = fresh_service(&topology);
        let started = Instant::now();
        service
            .try_publish(&epoch_one, at)
            .expect("epoch 1 publishes");
        publish.push(started.elapsed());
    }
    StartupPoint {
        k,
        switches: topology.switch_count(),
        hosts: topology.host_count(),
        rules,
        compile: median(compile),
        snapshot: median(snapshot),
        publish: median(publish),
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

/// Least-squares slope of `ln(phase)` on `ln(size)` (0 for fewer than two
/// points).
fn exponent(
    points: &[StartupPoint],
    size: fn(&StartupPoint) -> f64,
    phase: fn(&StartupPoint) -> Duration,
) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let xy: Vec<(f64, f64)> = points
        .iter()
        .map(|p| {
            let secs = phase(p).as_secs_f64().max(1e-9);
            (size(p).ln(), secs.ln())
        })
        .collect();
    let n = xy.len() as f64;
    let mean_x = xy.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = xy.iter().map(|(_, y)| y).sum::<f64>() / n;
    let covariance: f64 = xy.iter().map(|(x, y)| (x - mean_x) * (y - mean_y)).sum();
    let variance: f64 = xy.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    covariance / variance
}

/// Everything experiment S4 measured.
struct StartupExperiment {
    points: Vec<StartupPoint>,
    smoke: bool,
    host_cores: usize,
}

impl StartupExperiment {
    fn measure(arities: &[usize]) -> Self {
        StartupExperiment {
            points: arities.iter().map(|&k| measure_point(k)).collect(),
            smoke: smoke_mode(),
            host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }

    fn compile_exponent(&self) -> f64 {
        exponent(&self.points, rules, |p| p.compile)
    }

    fn delta_publish_exponent(&self) -> f64 {
        exponent(&self.points, rules_per_table, |p| p.delta_publish)
    }

    /// The compile exponent between each pair of neighbouring points.
    fn compile_segment_exponents(&self) -> Vec<f64> {
        self.points
            .windows(2)
            .map(|pair| exponent(pair, rules, |p| p.compile))
            .collect()
    }

    fn rows(&self) -> Vec<String> {
        let mut rows = vec![
            "# S4 — daemon start vs trusted-topology size: fat_tree(k, 4k), median of 5"
                .to_string(),
            format!(
                "host_cores={}{}",
                self.host_cores,
                if self.smoke { " | SMOKE" } else { "" }
            ),
            "k | switches | hosts | rules | compile_ms | snapshot_ms | publish_ms | delta_publish_us"
                .to_string(),
        ];
        for p in &self.points {
            rows.push(format!(
                "{} | {} | {} | {} | {:.2} | {:.2} | {:.2} | {:.1}",
                p.k,
                p.switches,
                p.hosts,
                p.rules,
                ms(p.compile),
                ms(p.snapshot),
                ms(p.publish),
                us(p.delta_publish),
            ));
        }
        rows.push(format!(
            "growth exponent vs rules: compile {:.2} (gate: <= 1.4; per step {}) | snapshot {:.2} | publish {:.2}",
            self.compile_exponent(),
            self.compile_segment_exponents()
                .iter()
                .map(|e| format!("{e:.2}"))
                .collect::<Vec<_>>()
                .join(" / "),
            exponent(&self.points, rules, |p| p.snapshot),
            exponent(&self.points, rules, |p| p.publish),
        ));
        rows.push(format!(
            "delta publish exponent vs rules per table: {:.2} (gate: <= 1.3)",
            self.delta_publish_exponent(),
        ));
        rows
    }

    fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        "{{\"k\":{},\"switches\":{},\"hosts\":{},\"rules\":{},",
                        "\"compile_ms\":{:.3},\"snapshot_ms\":{:.3},\"publish_ms\":{:.3},",
                        "\"delta_publish_us\":{:.1}}}",
                    ),
                    p.k,
                    p.switches,
                    p.hosts,
                    p.rules,
                    ms(p.compile),
                    ms(p.snapshot),
                    ms(p.publish),
                    us(p.delta_publish),
                )
            })
            .collect();
        let segments: Vec<String> = self
            .compile_segment_exponents()
            .iter()
            .map(|e| format!("{e:.3}"))
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"startup_scale\",\n",
                "  \"topology\": \"fat_tree(k, 4k)\",\n",
                "  \"runs\": {},\n",
                "  \"delta_rounds\": {},\n",
                "  \"smoke\": {},\n",
                "  \"host_cores\": {},\n",
                "  \"points\": [{}],\n",
                "  \"compile_exponent\": {:.3},\n",
                "  \"compile_segment_exponents\": [{}],\n",
                "  \"snapshot_exponent\": {:.3},\n",
                "  \"publish_exponent\": {:.3},\n",
                "  \"delta_publish_exponent\": {:.3}\n",
                "}}\n",
            ),
            RUNS,
            DELTA_ROUNDS,
            self.smoke,
            self.host_cores,
            points.join(","),
            self.compile_exponent(),
            segments.join(","),
            exponent(&self.points, rules, |p| p.snapshot),
            exponent(&self.points, rules, |p| p.publish),
            self.delta_publish_exponent(),
        )
    }
}

/// Runs experiment S4 and writes `BENCH_startup.json` next to the working
/// directory.
pub fn exp_s4_startup_scale() -> Vec<String> {
    let arities: &[usize] = if smoke_mode() { &[8, 12] } else { &[8, 12, 16] };
    let report = StartupExperiment::measure(arities);
    let path = "BENCH_startup.json";
    match std::fs::write(path, report.to_json()) {
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
        let report = StartupExperiment::measure(&[2, 4]);
        assert_eq!(report.points.len(), 2);
        assert!(report.points[0].rules < report.points[1].rules);
        assert_eq!(report.compile_segment_exponents().len(), 1);
        assert!(report.compile_exponent().is_finite());
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"startup_scale\""));
        assert!(json.contains("\"compile_exponent\""));
        assert!(json.contains("\"delta_publish_exponent\""));
        assert!(report
            .points
            .iter()
            .all(|p| p.delta_publish > Duration::ZERO));
        assert!(report.rows().iter().any(|r| r.contains("growth exponent")));
    }

    #[test]
    fn exponent_of_a_power_law_is_its_power() {
        let point = |rules: usize, micros: u64| StartupPoint {
            k: 0,
            switches: 0,
            hosts: 0,
            rules,
            compile: Duration::from_micros(micros),
            snapshot: Duration::from_micros(micros * micros),
            publish: Duration::from_micros(1),
            delta_publish: Duration::from_micros(micros),
        };
        let points = [point(10, 100), point(100, 1_000), point(1_000, 10_000)];
        assert!((exponent(&points, rules, |p| p.compile) - 1.0).abs() < 1e-9);
        assert!((exponent(&points, rules, |p| p.snapshot) - 2.0).abs() < 1e-9);
        assert!(exponent(&points, rules, |p| p.publish).abs() < 1e-9);
        assert_eq!(exponent(&points[..1], rules, |p| p.compile), 0.0);
        // Ten switches each: rules per table grow as rules do.
        let per_table = |p: &StartupPoint| p.rules as f64 / 10.0;
        assert!((exponent(&points, per_table, |p| p.delta_publish) - 1.0).abs() < 1e-9);
    }
}
