//! The correctness check: every verdict the daemon sent is compared with
//! what a from-scratch `LogicalVerifier` says about the snapshot of the
//! epoch the verdict names. The harness published every epoch, so it can
//! rebuild each one from the benign snapshot and its own record of changes —
//! nothing here is read back from the daemon.

use std::collections::{BTreeMap, BTreeSet};

use rvaas::{
    LocationMap, LogicalVerifier, NetworkSnapshot, QueryEvaluator, RuleChange, VerifierConfig,
};
use rvaas_client::{FlowDigest, QuerySpec};
use rvaas_daemon::json;
use rvaas_service::digest_snapshot;
use rvaas_topology::Topology;
use rvaas_types::{ClientId, SimTime};
use rvaas_workloads::benign_snapshot;

use crate::gen::{fnv1a, FNV_OFFSET};
use crate::load::{SyncVerdicts, Verdict, ERRORS_KEPT};

/// What the oracle found.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Verdicts compared (HTTP and sync-reverified) plus the digest check.
    pub checked: u64,
    pub mismatches: u64,
    pub errors: Vec<String>,
}

impl OracleReport {
    fn mismatch(&mut self, why: String) {
        self.mismatches += 1;
        if self.errors.len() < ERRORS_KEPT {
            self.errors.push(why);
        }
    }
}

/// The inputs of one oracle pass.
#[derive(Debug)]
pub struct Evidence<'a> {
    pub topology: &'a Topology,
    pub keys: &'a [(ClientId, QuerySpec)],
    /// Rule changes of every published epoch; serial `s` is the benign
    /// snapshot plus `steps[..s - 1]`.
    pub steps: &'a [Vec<RuleChange>],
    /// HTTP verdicts kept for this check (those already checked on arrival
    /// against [`expected_at_benign`] are not among them).
    pub http: &'a [Verdict],
    pub sync: &'a [SyncVerdicts],
    /// The digest set the sync client ended up mirroring.
    pub final_digests: &'a BTreeSet<FlowDigest>,
    /// Self-test: deliberately get one expected answer wrong, which must
    /// surface as a mismatch.
    pub corrupt_one: bool,
}

fn verifier_for(topology: &Topology) -> LogicalVerifier {
    LogicalVerifier::new(
        topology.clone(),
        VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(topology),
        },
    )
}

fn result_hash(evaluator: &mut QueryEvaluator<'_>, client: ClientId, spec: &QuerySpec) -> u64 {
    let rendered = json::render_result(&evaluator.answer(client, spec));
    fnv1a(FNV_OFFSET, rendered.as_bytes())
}

/// The hash of the `"result"` the daemon must send for each key while epoch
/// 1 — the benign snapshot — is current: what a query connection checks its
/// verdicts against when no epoch is published under it.
pub fn expected_at_benign(topology: &Topology, keys: &[(ClientId, QuerySpec)]) -> Vec<u64> {
    let verifier = verifier_for(topology);
    let snapshot = benign_snapshot(topology);
    let mut evaluator = verifier.evaluator(&snapshot);
    keys.iter()
        .map(|(client, spec)| result_hash(&mut evaluator, *client, spec))
        .collect()
}

/// Replays the published epochs in order and checks the evidence against a
/// full rebuild at each serial something was answered at.
pub fn check(evidence: &Evidence<'_>) -> OracleReport {
    let mut report = OracleReport::default();
    let verifier = verifier_for(evidence.topology);
    let last_serial = 1 + evidence.steps.len() as u64;

    let mut http_at: BTreeMap<u64, Vec<&Verdict>> = BTreeMap::new();
    for verdict in evidence.http {
        http_at.entry(verdict.serial).or_default().push(verdict);
    }
    let mut sync_at: BTreeMap<u64, Vec<&SyncVerdicts>> = BTreeMap::new();
    for verdicts in evidence.sync {
        sync_at.entry(verdicts.serial).or_default().push(verdicts);
    }
    for serial in http_at.keys().chain(sync_at.keys()) {
        if !(1..=last_serial).contains(serial) {
            report.checked += 1;
            report.mismatch(format!(
                "verdict names epoch {serial}, published 1..={last_serial}"
            ));
        }
    }

    let mut corrupt_next = evidence.corrupt_one;
    let mut snapshot = benign_snapshot(evidence.topology);
    for serial in 1..=last_serial {
        if serial > 1 {
            apply(&mut snapshot, &evidence.steps[serial as usize - 2], serial);
        }
        let http = http_at.get(&serial);
        let sync = sync_at.get(&serial);
        if http.is_none() && sync.is_none() {
            continue;
        }
        let mut evaluator = verifier.evaluator(&snapshot);
        let mut expected_hash: BTreeMap<u32, u64> = BTreeMap::new();
        for verdict in http.into_iter().flatten() {
            report.checked += 1;
            let Some((client, spec)) = evidence.keys.get(verdict.key as usize) else {
                report.mismatch(format!("verdict for unknown key {}", verdict.key));
                continue;
            };
            let expected = *expected_hash.entry(verdict.key).or_insert_with(|| {
                let hash = result_hash(&mut evaluator, *client, spec);
                if std::mem::take(&mut corrupt_next) {
                    !hash
                } else {
                    hash
                }
            });
            if expected != verdict.result_hash {
                report.mismatch(format!(
                    "epoch {serial}: HTTP verdict for {client:?}/{spec:?} differs from the oracle"
                ));
            }
        }
        for verdicts in sync.into_iter().flatten() {
            for reverified in &verdicts.reverified {
                report.checked += 1;
                let expected = evaluator.answer(verdicts.client, &reverified.spec);
                if expected != reverified.result || std::mem::take(&mut corrupt_next) {
                    report.mismatch(format!(
                        "epoch {serial}: sync verdict for {:?}/{:?} differs from the oracle",
                        verdicts.client, reverified.spec
                    ));
                }
            }
        }
    }

    report.checked += 1;
    if digest_snapshot(&snapshot) != *evidence.final_digests {
        report.mismatch(format!(
            "sync client mirrors {} digests, epoch {last_serial} has {}",
            evidence.final_digests.len(),
            snapshot.rule_count()
        ));
    }
    report
}

fn apply(snapshot: &mut NetworkSnapshot, changes: &[RuleChange], serial: u64) {
    let at = SimTime::from_millis(serial);
    for change in changes {
        if change.installed {
            snapshot.record_installed(change.switch, change.entry.clone(), at);
        } else {
            snapshot.record_removed(change.switch, &change.entry, at);
        }
    }
}
