//! Experiment S4 — daemon start versus trusted-topology size.
//!
//! The first row of the complexity sweep (ROADMAP item 8): what
//! `Daemon::start` does before it can answer anything, on `fat_tree(k, 4k)`
//! for k = 8, 12, 16 (smoke mode: 8, 12). Three phases, each the median
//! (and MAD) of five runs:
//!
//! * **compile** — `benign_rules`, the benign routing policy;
//! * **snapshot** — building the `NetworkSnapshot` of every compiled rule
//!   (`NetworkSnapshot::with_rules`, one sort per table, as the daemon does);
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
//! four in), fitted against the mean rules per table (rules ÷ switches).
//! A publish copies the chunks its changes land in and the chunk-pointer
//! lists of the tables they touch, and scans one priority's rules to find a
//! removal: rules per table is the size the pointer lists and those scans
//! grow with, not the size it copies.
//!
//! The **one-table row** isolates that: on `fat_tree(8, 32)` one transit
//! switch's table is flooded with 1 024, 4 096 and 16 384 inert drops (for
//! destinations nobody has, below every tenant rule's priority), and one
//! tenant rule is put in and taken out of that table by one-rule
//! `try_publish_changes`, 100 per size. Its exponent is fitted against the
//! rules in that table; a publish that copied the table would read about
//! 1.0 (CI fails above 0.5).
//!
//! A fifth is what the first verdicts cost: the **memo fill**, every
//! client's `query_mix` answered once through one `try_query_all` on the
//! epoch-1 service, as the benchmark's set-up does — in ms, with the
//! traversals it walked (`fill_walks`, the rise of
//! `rvaas_traversal_memo_misses_total`). A fresh epoch's memo fills in one
//! walk per host for its emissions and one per host for its inbound probes
//! of every client, plus one path probe per client: `2 × hosts + clients`
//! (CI fails above it). Its exponent is informational.
//!
//! Every exponent is fitted once per repeat — the repeat's sample at every
//! point; for the delta publish, the median of the repeat's share of the
//! rounds — and reported as the median of those fits, each fit kept in the
//! JSON next to it (`*_exponents`).
//!
//! Writes the machine-readable curve to `BENCH_startup.json`; the CI
//! experiments-smoke gate fails when `compile_exponent` exceeds 1.4,
//! `delta_publish_exponent` exceeds 1.3, `one_table_exponent` exceeds 0.5
//! or a point's `fill_walks` exceeds `2 × hosts + clients`.

use std::time::Instant;

use rvaas::{NetworkSnapshot, RuleChange};
use rvaas_client::QuerySpec;
use rvaas_controlplane::benign_rules;
use rvaas_openflow::{Action, FlowEntry, FlowMatch};
use rvaas_service::VerificationService;
use rvaas_topology::{generators, Topology};
use rvaas_types::{ClientId, Field, SimTime};
use rvaas_workloads::{benign_snapshot, clients_of, query_mix, tenant_churn_round};

use crate::report::{smoke_mode, MedianMad, Report};

/// Runs per phase and point: the repeats each exponent is fitted over.
const RUNS: usize = 5;

/// Timed delta publishes per point, [`RUNS`] consecutive shares of
/// `DELTA_ROUNDS / RUNS` each.
const DELTA_ROUNDS: u64 = 300;

/// Untimed churn rounds before them: the first only installs.
const DELTA_WARMUP: u64 = 10;

/// Inert drops the one-table row floods its switch with: four octaves.
const ONE_TABLE_FLOODS: [usize; 3] = [1_024, 4_096, 16_384];

/// Timed one-rule publishes per flood size, [`RUNS`] consecutive shares.
const ONE_TABLE_ROUNDS: usize = 100;

/// One fat-tree size's measurements: per repeat, the phases and the memo
/// fill in ms, the delta publish in µs (each repeat's median).
struct StartupPoint {
    k: usize,
    switches: usize,
    hosts: usize,
    clients: usize,
    rules: usize,
    compile: Vec<f64>,
    snapshot: Vec<f64>,
    publish: Vec<f64>,
    fill: Vec<f64>,
    /// Traversals the first memo fill walked (the same every repeat).
    fill_walks: u64,
    /// Every timed delta publish, in round order.
    delta_publish: Vec<f64>,
}

impl StartupPoint {
    /// Each repeat's delta-publish figure: the median of its consecutive
    /// share of the rounds.
    fn delta_repeats(&self) -> Vec<f64> {
        repeats_of(&self.delta_publish)
    }
}

/// Each repeat's figure of a series of rounds: the median of its
/// consecutive share of them.
fn repeats_of(rounds: &[f64]) -> Vec<f64> {
    let share = rounds.len().div_ceil(RUNS).max(1);
    rounds
        .chunks(share)
        .map(|share| MedianMad::of(share).median)
        .collect()
}

/// One flood size of the one-table row.
struct OneTablePoint {
    /// Rules in the flooded table.
    rules: usize,
    /// Every timed one-rule publish, in µs, in round order.
    publish: Vec<f64>,
}

/// The one-table row: per flood size, a service publishing the benign
/// routing plus the flood on one transit switch, then [`ONE_TABLE_ROUNDS`]
/// one-rule publishes that put a tenant rule in that table and take it out.
fn measure_one_table() -> Vec<OneTablePoint> {
    let topology = generators::fat_tree(8, 32);
    let transit = topology
        .switches()
        .map(|s| s.id)
        .find(|s| topology.edge_ports(*s).is_empty())
        .expect("a fat tree has core switches");
    let mut hosts = topology.hosts();
    let (src, dst) = (hosts.next().expect("hosts"), hosts.last().expect("hosts"));
    let port = topology.next_hops_to(dst.attachment.switch)[&transit];
    let tenant = FlowEntry::new(
        400,
        FlowMatch::from_ip(src.ip).field(Field::IpDst, u64::from(dst.ip)),
        vec![Action::Output(port)],
    );
    let at = SimTime::from_millis(1);
    ONE_TABLE_FLOODS
        .iter()
        .map(|&flood| {
            let inert = (0..flood as u32).map(|i| {
                let drop = FlowMatch::to_ip(0xc0a8_0000 + i);
                (transit, FlowEntry::new(50, drop, vec![Action::Drop]))
            });
            let rules = benign_rules(&topology).into_iter().chain(inert);
            let snapshot = NetworkSnapshot::with_rules(at, rules, at);
            let service = fresh_service(&topology);
            service
                .try_publish(&snapshot, at)
                .expect("epoch 1 publishes");
            let publish = (0..ONE_TABLE_ROUNDS as u64)
                .map(|round| {
                    let change = if round % 2 == 0 {
                        RuleChange::installed(transit, tenant.clone())
                    } else {
                        RuleChange::removed(transit, tenant.clone())
                    };
                    let started = Instant::now();
                    service
                        .try_publish_changes(&[change], SimTime::from_millis(2 + round))
                        .expect("delta publishes");
                    started.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            OneTablePoint {
                rules: snapshot.table_of(transit).len(),
                publish,
            }
        })
        .collect()
}

/// Milliseconds since `started`.
fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn fresh_service(topology: &Topology) -> VerificationService {
    VerificationService::new(topology.clone(), true)
}

/// [`DELTA_ROUNDS`] steady delta publishes, in µs, on a service that has
/// published the benign routing: each round's net changes, as the monitor
/// would hand them over, take one tenant's four churn rules out and put the
/// next tenant's four in.
fn measure_delta_publish(topology: &Topology) -> Vec<f64> {
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
    samples
}

/// The traversals `service` has walked so far
/// (`rvaas_traversal_memo_misses_total`).
fn memo_misses(service: &VerificationService) -> u64 {
    let name = "rvaas_traversal_memo_misses_total ";
    let scrape = service.registry().render_text();
    let value = scrape.lines().find_map(|line| line.strip_prefix(name));
    value.and_then(|v| v.trim().parse().ok()).unwrap_or(0)
}

/// The memo fill on `service`'s first epoch: every key once, in one call.
/// Returns its time in ms and the traversals it walked.
fn measure_fill(service: &VerificationService, keys: &[(ClientId, QuerySpec)]) -> (f64, u64) {
    let before = memo_misses(service);
    let started = Instant::now();
    service.try_query_all(keys).expect("every key answers");
    let elapsed = ms_since(started);
    (elapsed, memo_misses(service) - before)
}

fn measure_point(k: usize) -> StartupPoint {
    let topology = generators::fat_tree(k, 4 * k);
    let clients = clients_of(&topology);
    let mix = query_mix(&topology);
    let keys: Vec<(ClientId, QuerySpec)> = clients
        .iter()
        .flat_map(|client| mix.iter().map(move |spec| (*client, spec.clone())))
        .collect();
    let at = SimTime::from_millis(1);
    let (mut compile, mut snapshot, mut publish) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fill, mut fill_walks) = (Vec::new(), 0);
    let mut rules = 0;
    for _ in 0..RUNS {
        let started = Instant::now();
        let compiled = benign_rules(&topology);
        compile.push(ms_since(started));
        rules = compiled.len();

        let started = Instant::now();
        let epoch_one = NetworkSnapshot::with_rules(at, compiled, at);
        snapshot.push(ms_since(started));

        let service = fresh_service(&topology);
        let started = Instant::now();
        service
            .try_publish(&epoch_one, at)
            .expect("epoch 1 publishes");
        publish.push(ms_since(started));

        let (ms, walks) = measure_fill(&service, &keys);
        fill.push(ms);
        fill_walks = walks;
    }
    StartupPoint {
        k,
        switches: topology.switch_count(),
        hosts: topology.host_count(),
        clients: clients.len(),
        rules,
        compile,
        snapshot,
        publish,
        fill,
        fill_walks,
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

/// Least-squares slope of `ln(y)` on `ln(x)` over `(x, y)` pairs (0 for
/// fewer than two).
fn slope(xy: &[(f64, f64)]) -> f64 {
    if xy.len() < 2 {
        return 0.0;
    }
    let xy: Vec<(f64, f64)> = xy
        .iter()
        .map(|(x, y)| (x.ln(), y.max(1e-12).ln()))
        .collect();
    let n = xy.len() as f64;
    let mean_x = xy.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = xy.iter().map(|(_, y)| y).sum::<f64>() / n;
    let covariance: f64 = xy.iter().map(|(x, y)| (x - mean_x) * (y - mean_y)).sum();
    let variance: f64 = xy.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    covariance / variance
}

/// The exponent of `phase` against `size`, fitted once per repeat (the
/// repeat's figure at every point): the median fit, and every fit in
/// repeat order.
fn exponent<P>(points: &[P], size: fn(&P) -> f64, phase: fn(&P) -> Vec<f64>) -> (f64, Vec<f64>) {
    let repeats: Vec<Vec<f64>> = points.iter().map(phase).collect();
    let runs = repeats.iter().map(Vec::len).min().unwrap_or(0);
    let fits: Vec<f64> = (0..runs)
        .map(|run| {
            let xy: Vec<(f64, f64)> = points
                .iter()
                .zip(&repeats)
                .map(|(p, figures)| (size(p), figures[run]))
                .collect();
            slope(&xy)
        })
        .collect();
    (MedianMad::of(&fits).median, fits)
}

fn report(points: &[StartupPoint], one_table: &[OneTablePoint]) -> Report {
    let mut report = Report::new(
        "startup_scale",
        "S4 — daemon start vs trusted-topology size; gates: compile_exponent <= 1.4, delta_publish_exponent <= 1.3, one_table_exponent <= 0.5, fill_walks <= 2 x hosts + clients",
    );
    report
        .field("topology", "fat_tree(k, 4k)")
        .field("runs", RUNS)
        .field("delta_rounds", DELTA_ROUNDS)
        .field("exponent", "median of per-repeat fits");
    for p in points {
        report.point(vec![
            ("k", p.k.into()),
            ("switches", p.switches.into()),
            ("hosts", p.hosts.into()),
            ("clients", p.clients.into()),
            ("rules", p.rules.into()),
            ("compile_ms", MedianMad::of(&p.compile).into()),
            ("snapshot_ms", MedianMad::of(&p.snapshot).into()),
            ("publish_ms", MedianMad::of(&p.publish).into()),
            ("delta_publish_us", MedianMad::of(&p.delta_publish).into()),
            ("fill_ms", MedianMad::of(&p.fill).into()),
            ("fill_walks", p.fill_walks.into()),
        ]);
    }
    let compile = |p: &StartupPoint| p.compile.clone();
    let segments: Vec<f64> = points
        .windows(2)
        .map(|pair| exponent(pair, rules, compile).0)
        .collect();
    let mut summary = |name: &'static str, fit: (f64, Vec<f64>), fits: &'static str| {
        report.summary(name, fit.0).summary(fits, fit.1);
    };
    summary(
        "compile_exponent",
        exponent(points, rules, compile),
        "compile_exponents",
    );
    summary(
        "snapshot_exponent",
        exponent(points, rules, |p| p.snapshot.clone()),
        "snapshot_exponents",
    );
    summary(
        "publish_exponent",
        exponent(points, rules, |p| p.publish.clone()),
        "publish_exponents",
    );
    summary(
        "delta_publish_exponent",
        exponent(points, rules_per_table, StartupPoint::delta_repeats),
        "delta_publish_exponents",
    );
    summary(
        "fill_exponent",
        exponent(points, rules, |p| p.fill.clone()),
        "fill_exponents",
    );
    report.summary("compile_segment_exponents", segments);
    let sizes: Vec<f64> = one_table.iter().map(|p| p.rules as f64).collect();
    let medians = one_table.iter().map(|p| MedianMad::of(&p.publish).median);
    report
        .summary("one_table_rules", sizes)
        .summary("one_table_publish_us", medians.collect::<Vec<f64>>());
    let (fit, fits) = exponent(one_table, |p| p.rules as f64, |p| repeats_of(&p.publish));
    report
        .summary("one_table_exponent", fit)
        .summary("one_table_exponents", fits);
    report
}

/// Runs experiment S4 and writes `BENCH_startup.json` next to the working
/// directory.
pub fn exp_s4_startup_scale() -> Vec<String> {
    let arities: &[usize] = if smoke_mode() { &[8, 12] } else { &[8, 12, 16] };
    let points: Vec<StartupPoint> = arities.iter().map(|&k| measure_point(k)).collect();
    report(&points, &measure_one_table()).write("BENCH_startup.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_produces_consistent_report() {
        let points: Vec<StartupPoint> = [2, 4].iter().map(|&k| measure_point(k)).collect();
        assert!(points[0].rules < points[1].rules);
        assert!(exponent(&points, rules, |p| p.compile.clone())
            .0
            .is_finite());
        assert!(points
            .iter()
            .all(|p| p.delta_publish.iter().all(|us| *us > 0.0)));
        assert!(points.iter().all(|p| p.delta_repeats().len() == RUNS));
        // One emission and one inbound walk per host, one path probe per
        // client (the mix asks one destination).
        for p in &points {
            assert_eq!(
                p.fill_walks,
                (2 * p.hosts + p.clients) as u64,
                "k = {}",
                p.k
            );
        }
        // The one-table row, two sizes apart by a factor of four.
        let one_table = [(100, 10.0), (400, 20.0)].map(|(rules, us)| OneTablePoint {
            rules,
            publish: vec![us; RUNS],
        });
        let report = report(&points, &one_table);
        let json = report.json();
        assert!(json.contains("\"experiment\": \"startup_scale\""));
        assert!(json.contains("\"compile_exponent\""));
        assert!(json.contains("\"compile_exponents\": ["));
        assert!(json.contains("\"compile_segment_exponents\": ["));
        assert!(json.contains("\"delta_publish_exponent\""));
        assert!(json.contains("\"fill_walks\":"));
        assert!(json.contains("\"fill_exponent\""));
        assert!(json.contains("\"one_table_exponent\": 0.500"), "{json}");
        assert!(
            json.contains("\"one_table_rules\": [100.000,400.000]"),
            "{json}"
        );
        assert!(report
            .rows()
            .iter()
            .any(|r| r.starts_with("compile_exponent = ")));
    }

    #[test]
    fn exponent_of_a_power_law_is_its_power() {
        // Repeat r scales every figure by (r + 1), which moves no fit; the
        // snapshot's third repeat is an outlier at the largest point only.
        let point = |rules: usize, micros: f64| StartupPoint {
            k: 0,
            switches: 10,
            hosts: 0,
            clients: 0,
            rules,
            compile: (1..=3).map(|r| micros * f64::from(r)).collect(),
            snapshot: vec![micros * micros; 3],
            publish: vec![1.0; 3],
            fill: vec![micros; 3],
            fill_walks: 0,
            delta_publish: (0..RUNS).map(|r| micros * (r + 1) as f64).collect(),
        };
        let mut points = [
            point(10, 100.0),
            point(100, 1_000.0),
            point(1_000, 10_000.0),
        ];
        points[2].snapshot[2] = 1e12;
        let (compile, fits) = exponent(&points, rules, |p| p.compile.clone());
        assert!((compile - 1.0).abs() < 1e-9);
        assert_eq!(fits.len(), 3);
        let (snapshot, fits) = exponent(&points, rules, |p| p.snapshot.clone());
        assert!(
            (snapshot - 2.0).abs() < 1e-9,
            "the outlier's fit is not the median"
        );
        assert!(fits[2] > 2.5);
        assert!(exponent(&points, rules, |p| p.publish.clone()).0.abs() < 1e-9);
        assert_eq!(exponent(&points[..1], rules, |p| p.compile.clone()).0, 0.0);
        // Ten switches each: rules per table grow as rules do.
        let (delta, fits) = exponent(&points, rules_per_table, StartupPoint::delta_repeats);
        assert!((delta - 1.0).abs() < 1e-9);
        assert_eq!(fits.len(), RUNS);
    }
}
