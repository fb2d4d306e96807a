//! Epoch-published snapshots: immutable, serially numbered freezes of the
//! monitor's [`NetworkSnapshot`], swapped atomically so the threads answering
//! queries never block the publisher (and vice versa).
//!
//! An epoch is its predecessor plus a **net rule-change list**, and shares
//! with its predecessor everything the list did not touch, down to the
//! chunks of a touched table: publish time and the extra memory an epoch
//! holds are `O(delta × chunk + pointer lists of the touched tables)`, not
//! `O(touched tables)` or `O(network)`. Rule identity lives in
//! [`NetworkSnapshot`]: a publish obtains the next snapshot and the ordered,
//! effective [`RuleChange`]s
//! against the current one — a full snapshot is diffed
//! ([`NetworkSnapshot::changes_to`], which skips the tables the caller's
//! snapshot still shares with the current epoch's), a rule delta is applied
//! to a structure-sharing clone ([`NetworkSnapshot::apply_changes`]) — and
//! `EpochStore::commit` derives everything else from that one list, hashing
//! only its entries:
//!
//! * the **digest set** of the epoch and the **digest-level delta**
//!   ([`crate::digest`]) — added/removed [`FlowDigest`]s, retained in a
//!   bounded history and aggregated over a window by
//!   [`EpochStore::delta_between`]; it is what the RTR-style sync protocol
//!   ships to clients;
//! * the epoch's [`TraversalMemo`], carried on from the predecessor's
//!   through the [`ChangedRegion`] the store's one HSA model reported for
//!   the list ([`TraversalMemo::carry`]); the [`AffectedQueries`] the carry
//!   returns are the publish's one test of which verdicts moved;
//! * the **model itself** — a structure-sharing copy of its
//!   [`NetworkFunction`] rides in the [`SnapshotEpoch`], so every query is
//!   evaluated against it directly and no second model exists.
//!   Freezing copies only the chunks the list landed in, and the
//!   chunk-pointer lists of the switches it touched.
//!
//! The model applies the list in its order — an install behind its
//! equal-priority peers, where a rebuild's stable sort of the
//! arrival-ordered tables puts it too; an entry displaced in its slot (same
//! priority and match, new actions) replaced there — so on either publish
//! path the frozen function is rule for rule a rebuild's, a rule flapped
//! inside one list included. It rebuilds outright when a list is too large
//! or does not resolve (a broken invariant: no list the store derives does).
//!
//! The store has two locks: the model's mutex, which is the publish lock,
//! and one `RwLock` over everything a publish makes visible — the current
//! epoch, the delta history and the provenance log. `commit` updates all
//! three in one write section, so a serial [`EpochStore::current`] shows
//! always has its delta and its provenance record. Readers hold the read
//! guard only to clone what they need.
//!
//! The model and the memo are plain data — `rvaas` core records nothing.
//! `commit`, which drives both and holds the publish trace, emits the
//! `model.*` events and is the one place a publish is counted
//! (`StoreTelemetry`): the `rvaas_epoch_*` series, applies and rebuilds,
//! and what the model and the memo report.
//!
//! When a requested serial has been evicted from the delta history the
//! store reports `None` and sync falls back to a full reset, mirroring RTR
//! cache-reset semantics.

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rvaas::{
    AffectedQueries, ChangedRegion, IncrementalModel, NetworkFunction, NetworkSnapshot, RuleChange,
    TraversalMemo,
};
use rvaas_client::{FlowDigest, QuerySpec};
use rvaas_telemetry::{Counter, Gauge, Histogram, Registry, TraceContext, TraceId, TraceStage};
use rvaas_topology::Topology;
use rvaas_types::{ClientId, SimTime};

use crate::digest::{net_digests, DigestSet};
use crate::error::ServiceError;

/// How many [`EpochProvenance`] records the store retains. Bounded like the
/// flight recorder: old epochs age out, recent ones stay queryable.
pub const PROVENANCE_CAPACITY: usize = 1024;

/// One published, immutable epoch of network state.
#[derive(Debug)]
pub struct SnapshotEpoch {
    /// Monotonically increasing serial (the first published epoch is 1;
    /// serial 0 means "no state", as in the sync protocol).
    pub serial: u64,
    /// The frozen snapshot queries are answered against; tables of switches
    /// an epoch did not touch are shared with its predecessor, and so is
    /// every chunk of a touched table that no change landed in.
    pub snapshot: NetworkSnapshot,
    /// The HSA model of `snapshot` over the trusted wiring, frozen from the
    /// store's model; shared with its predecessor as `snapshot` is, switch
    /// by switch and, inside a touched switch, chunk by chunk.
    pub function: NetworkFunction,
    /// The digest of every rule in `snapshot`: what sync ships and deltas
    /// are computed over. Shares every chunk no change landed in.
    pub rules: DigestSet,
    /// When the epoch was published (simulation time of the last update).
    pub published_at: SimTime,
    /// The HSA traversals queries have walked over `function`, shared by
    /// every batch, thread and client answering on this epoch.
    pub traversals: TraversalMemo,
}

impl SnapshotEpoch {
    /// One `u64` that identifies the *content* of the epoch: the
    /// [content digest](crate::content_digest_of) of its digest set, so two epochs
    /// with the same installed rules share it regardless of publish path. It
    /// is what provenance records and the daemon's `/v1/epoch` body carry.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        self.rules.content_digest()
    }
}

/// One entry of the epoch provenance log: who published an epoch, what it
/// changed, how many verdict keys the change may have altered, and how much
/// re-verification it actually triggered. The flight-recorder trace id links
/// the record to the publish's event chain while it is still in the ring.
#[derive(Debug, Clone)]
pub struct EpochProvenance {
    /// Serial of the published epoch.
    pub serial: u64,
    /// Content digest of the epoch (see [`SnapshotEpoch::content_digest`]).
    pub digest: u64,
    /// Digest-level additions in the delta.
    pub added: usize,
    /// Digest-level removals in the delta.
    pub removed: usize,
    /// Size of the delta (added + removed entries).
    pub delta_rules: usize,
    /// Verdict keys the change may have altered ([`AffectedQueries::len`]).
    /// Every standing query reading one re-verifies.
    pub affected_queries: usize,
    /// True when the change conservatively affects every verdict (bulk
    /// rebuild / unbounded region); `affected_queries` is then 0.
    pub affected_everything: bool,
    /// Whether the model took the bulk-rebuild path.
    pub bulk_rebuild: bool,
    /// Simulation time the epoch was published.
    pub published_at: SimTime,
    /// Flight-recorder trace id of the publish event chain.
    pub trace: TraceId,
    /// Standing queries actually re-verified so far by sync sessions
    /// serving this epoch (accumulated via [`EpochStore::record_reverify`]).
    pub reverified: u64,
    /// Number of sync sessions that contributed to `reverified`.
    pub reverify_sessions: u64,
}

/// The difference between two epochs, at digest and header-space
/// granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochDelta {
    /// Serial this delta starts from.
    pub from_serial: u64,
    /// Serial this delta produces.
    pub to_serial: u64,
    /// Digests present in `to` but not `from`, ascending.
    pub added: Vec<FlowDigest>,
    /// Digests present in `from` but not `to`, ascending.
    pub removed: Vec<FlowDigest>,
    /// The verdict keys each covered epoch's carry found altered, unioned
    /// over the window: a query reading any of them may hold a moved verdict.
    pub affected: AffectedQueries,
}

impl EpochDelta {
    /// True when the delta carries no change.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// What one [`EpochStore::try_publish`] produced: the new serial plus the
/// standing queries the change affects, for targeted invalidation. The
/// rest of what the publish did is its [provenance](EpochStore::provenance)
/// record.
#[derive(Debug, Clone)]
pub struct Published {
    /// The serial of the freshly published epoch.
    pub serial: u64,
    /// The verdict keys the memo's carry found the change may have altered
    /// (under the publish lock, before the swap). The cache and the sync
    /// server invalidate/re-verify exactly the queries reading one.
    pub affected: AffectedQueries,
    /// Flight-recorder trace id of the publish event chain; downstream
    /// consumers (cache carry-forward, re-verification) append to it.
    pub trace: TraceId,
}

/// Registry handles for each publish and for what the store's model and
/// traversal memos report. Both are plain data; the store, which drives
/// them, does the recording.
#[derive(Debug)]
struct StoreTelemetry {
    publishes: Arc<Counter>,
    incremental_applies: Arc<Counter>,
    model_rebuilds: Arc<Counter>,
    serial: Arc<Gauge>,
    delta_rules: Arc<Histogram>,
    rule_changes: Arc<Counter>,
    conservative_regions: Arc<Counter>,
    desyncs: Arc<Counter>,
    memo_carried: Arc<Counter>,
    memo_dropped: Arc<Counter>,
}

impl StoreTelemetry {
    fn new(registry: &Registry) -> Self {
        StoreTelemetry {
            publishes: registry.counter(
                "rvaas_epoch_publishes_total",
                "Epochs the epoch store published.",
            ),
            incremental_applies: registry.counter(
                "rvaas_incremental_applies_total",
                "Epochs whose delta the model applied in place.",
            ),
            model_rebuilds: registry.counter(
                "rvaas_model_rebuilds_total",
                "Epochs that bulk-rebuilt the model instead (unbounded changed region).",
            ),
            serial: registry.gauge("rvaas_epoch_serial", "Serial of the current epoch."),
            delta_rules: registry.histogram(
                "rvaas_epoch_delta_rules",
                "Rule-level size (added + removed) of each published epoch delta.",
            ),
            rule_changes: registry.counter(
                "rvaas_incremental_rule_changes_total",
                "Rule-level changes applied in place by incremental models.",
            ),
            conservative_regions: registry.counter(
                "rvaas_incremental_conservative_regions_total",
                "Incremental applies whose changed region was conservative (forces full re-verification).",
            ),
            desyncs: registry.counter(
                "rvaas_incremental_desyncs_total",
                "Removals the incremental mirror could not resolve (model fell back to a rebuild).",
            ),
            memo_carried: registry.counter(
                "rvaas_traversal_memo_carried_total",
                "Traversal memo entries (one per verdict key) a publish moved into the new epoch's memo (the change cannot have altered them).",
            ),
            memo_dropped: registry.counter(
                "rvaas_traversal_memo_dropped_total",
                "Traversal memo entries (one per verdict key) of the superseded epoch's memo a publish did not carry.",
            ),
        }
    }
}

/// Everything one publish makes visible, replaced in one write section.
#[derive(Debug)]
struct Visible {
    current: Arc<SnapshotEpoch>,
    /// The last `max_deltas` per-epoch deltas, oldest first, each behind an
    /// `Arc` so a window is merged after the read guard is released.
    deltas: VecDeque<Arc<EpochDelta>>,
    /// The last [`PROVENANCE_CAPACITY`] records, newest at the back.
    provenance: VecDeque<EpochProvenance>,
}

/// Appends `item`, dropping the oldest entries past `capacity`.
fn push_bounded<T>(log: &mut VecDeque<T>, item: T, capacity: usize) {
    log.push_back(item);
    while log.len() > capacity {
        log.pop_front();
    }
}

/// The atomically swapped epoch store (see the module docs for its two
/// locks). In-flight queries keep their old epoch alive through the `Arc`
/// for as long as they need it.
#[derive(Debug)]
pub struct EpochStore {
    /// The HSA model of the published state, advanced by each epoch's changes
    /// and frozen into the epoch. Only a publish touches it, so its mutex
    /// *is* the publish lock: held across the read–diff–swap, it gives each
    /// epoch a unique serial and a delta chained to its true predecessor.
    model: Mutex<IncrementalModel>,
    visible: RwLock<Visible>,
    telemetry: StoreTelemetry,
    max_deltas: usize,
}

/// Per-epoch deltas the service retains for sync; a session further behind gets a reset.
pub const MAX_DELTA_HISTORY: usize = 64;

impl EpochStore {
    /// Creates a store holding an empty epoch 0 and retaining up to
    /// `max_deltas` per-epoch deltas for sync.
    // Takes no topology only because `benchmark/` calls it so; see `attach_interest_topology`.
    #[must_use]
    pub fn new(max_deltas: usize) -> Self {
        EpochStore {
            model: Mutex::new(IncrementalModel::from_snapshot(
                Topology::new(),
                &NetworkSnapshot::default(),
            )),
            visible: RwLock::new(Visible {
                current: Arc::new(SnapshotEpoch {
                    serial: 0,
                    snapshot: NetworkSnapshot::default(),
                    function: NetworkFunction::default(),
                    rules: DigestSet::default(),
                    published_at: SimTime::ZERO,
                    traversals: TraversalMemo::new(),
                }),
                deltas: VecDeque::new(),
                provenance: VecDeque::new(),
            }),
            telemetry: StoreTelemetry::new(&Registry::new()),
            max_deltas,
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Visible> {
        self.visible.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Visible> {
        self.visible.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Supplies the trusted deployment knowledge: the wiring the model's
    /// network function is built over and the memo's carry finds its keys
    /// through. Without it the frozen functions are unwired and every
    /// change affects every verdict (a topology without hosts names no
    /// key). Call before publishing: epoch 0 has no rules, so what was
    /// walked on its function is what the wired model walks.
    // Not a `new` argument only because `benchmark/` calls both; merge at the next re-baseline.
    pub fn attach_interest_topology(&self, topology: Topology) {
        let model = IncrementalModel::from_snapshot(topology, &self.current().snapshot);
        *self.model.lock().unwrap_or_else(PoisonError::into_inner) = model;
    }

    /// Records each publish — under `rvaas_epoch_*`,
    /// `rvaas_incremental_*_total` and `rvaas_model_rebuilds_total` — and
    /// what the traversal memos report — under `rvaas_traversal_memo_*` —
    /// into `registry` instead of the private one a fresh store counts into.
    // Not a `new` argument only because `benchmark/` calls `new`; merge at the next re-baseline.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = StoreTelemetry::new(registry);
    }

    /// Does nothing: a standing query's verdict keys are a static function
    /// of `(client, spec, topology)`, so there is no interest to register.
    /// Survives only because `benchmark/` calls it; drop at the next
    /// re-baseline.
    pub fn register_interest(&self, _client: ClientId, _spec: &QuerySpec) {}

    /// The provenance record of epoch `serial`, if it has not aged out of
    /// the bounded log.
    #[must_use]
    pub fn provenance(&self, serial: u64) -> Option<EpochProvenance> {
        let visible = self.read();
        let mut log = visible.provenance.iter().rev();
        log.find(|p| p.serial == serial).cloned()
    }

    /// Accumulates re-verification fan-out into epoch `serial`'s provenance
    /// record: a sync session that re-verified `queries` standing queries
    /// while serving this epoch reports the exact count here. No-op when the
    /// record has aged out.
    pub fn record_reverify(&self, serial: u64, queries: u64) {
        let mut visible = self.write();
        let mut log = visible.provenance.iter_mut().rev();
        if let Some(record) = log.find(|p| p.serial == serial) {
            record.reverified += queries;
            record.reverify_sessions += 1;
        }
    }

    /// How many epochs the store published, and how many of those its model
    /// applied in place and how many it rebuilt.
    pub(crate) fn publish_counts(&self) -> [u64; 3] {
        let t = &self.telemetry;
        [&t.publishes, &t.incremental_applies, &t.model_rebuilds].map(|c| c.get())
    }

    /// The current epoch. Blocks only while a publisher puts the next one in.
    #[must_use]
    pub fn current(&self) -> Arc<SnapshotEpoch> {
        Arc::clone(&self.read().current)
    }

    /// [`EpochStore::try_publish`] for callers that treat a rejected publish
    /// as a bug.
    ///
    /// # Panics
    ///
    /// Panics if the publish is rejected.
    // Survives only because `benchmark/` calls it; drop at the next re-baseline.
    pub fn publish(&self, snapshot: NetworkSnapshot, at: SimTime) -> Published {
        self.try_publish(snapshot, at)
            .expect("epoch publish rejected")
    }

    /// Freezes `snapshot` as the next epoch and swaps it in, recording the
    /// delta (digests and affected header region) against the previous
    /// epoch.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::PublishRejected`] if the serial space is
    /// exhausted (the `u64` serial would overflow).
    pub fn try_publish(
        &self,
        snapshot: NetworkSnapshot,
        at: SimTime,
    ) -> Result<Published, ServiceError> {
        self.commit(at, |current| {
            let changes = current.changes_to(&snapshot);
            (snapshot, changes)
        })
    }

    /// Advances the epoch by a rule-level delta instead of a full snapshot:
    /// the rule changes a monitor's notify and removed events carry, in
    /// arrival order, come straight here, and the next snapshot is its
    /// predecessor with the delta applied, sharing every table the delta
    /// does not touch and every chunk of a touched one it does not land in.
    ///
    /// Installs already present and removals of absent rules are skipped, so
    /// the recorded delta always matches the digest diff of the two epochs.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::PublishRejected`] if the serial space is
    /// exhausted.
    pub fn try_publish_changes(
        &self,
        changes: &[RuleChange],
        at: SimTime,
    ) -> Result<Published, ServiceError> {
        self.commit(at, |current| {
            let mut next = current.clone();
            let changes = next.apply_changes(changes, at);
            (next, changes)
        })
    }

    /// The one publish pipeline: takes the publish lock, lets `derive` turn
    /// the current snapshot into the next one plus the effective changes
    /// between the two, and derives the rest from that list — the net digest
    /// delta and the epoch's digest set, the model's advance and the region
    /// it reports, the memo's carry and the verdict keys it found altered —
    /// then puts the epoch, its delta and its provenance record in under one
    /// write guard and counts the publish.
    fn commit(
        &self,
        at: SimTime,
        derive: impl FnOnce(&NetworkSnapshot) -> (NetworkSnapshot, Vec<RuleChange>),
    ) -> Result<Published, ServiceError> {
        let mut model = self.model.lock().unwrap_or_else(PoisonError::into_inner);
        let current = self.current();
        let from_serial = current.serial;
        let serial = from_serial.checked_add(1).ok_or_else(|| {
            ServiceError::PublishRejected(format!("epoch serial space exhausted at {from_serial}"))
        })?;
        let (snapshot, changes) = derive(&current.snapshot);
        let (added, removed) = net_digests(&changes);
        let mut rules = current.rules.clone();
        rules.apply(&removed, &added);
        let (n_added, n_removed) = (added.len(), removed.len());
        let delta_rules = n_added + n_removed;
        let trace = TraceContext::mint();
        trace.event(TraceStage::EpochPublish, serial, delta_rules as u64);
        // Past this size the per-rule exposed-region bookkeeping costs
        // more than it saves (the canonical case is the first, full
        // publish): rebuild the model and report an unbounded region,
        // which conservatively re-verifies everything once.
        let bulk_rebuild = changes.len() > (rules.len() / 4).max(64);
        let t = &self.telemetry;
        let changed = if bulk_rebuild {
            ChangedRegion::everything()
        } else {
            let region = model.apply(&changes);
            trace.event(
                TraceStage::IncrementalApply,
                changes.len() as u64,
                model.rule_count() as u64,
            );
            let removals = changes.iter().filter(|c| !c.installed).count();
            t.rule_changes.add(changes.len() as u64);
            t.desyncs.add((removals - region.rules_removed) as u64);
            t.conservative_regions.add(u64::from(region.conservative));
            region
        };
        // A desynced apply already reported a conservative region; rebuild so
        // the frozen function is exact and future publishes are bounded again.
        if bulk_rebuild || model.is_desynced() {
            model.rebuild_from(&snapshot);
            trace.event(
                TraceStage::ModelRebuild,
                model.rule_count() as u64,
                snapshot.tables().count() as u64,
            );
        }
        // The one test of what the change may have altered: the carry moves
        // what it cannot have altered into the new epoch's memo and names
        // the verdict keys it may have (held, or still to be walked on the
        // superseded epoch).
        let carried = current.traversals.carry(&changed, model.topology());
        let (traversals, affected) = (carried.memo, carried.affected);
        t.memo_carried.add(traversals.len() as u64);
        t.memo_dropped.add(carried.dropped as u64);
        let epoch = Arc::new(SnapshotEpoch {
            serial,
            snapshot,
            function: model.network_function().clone(),
            rules,
            published_at: at,
            traversals,
        });
        let digest = epoch.content_digest();
        let (affected_everything, affected_queries) = (affected.is_everything(), affected.len());
        // `u64::MAX` on the `epoch.digest` event marks an everything-affected publish.
        let keys = affected_queries as u64;
        let keys = if affected_everything { u64::MAX } else { keys };
        trace.event(TraceStage::EpochDigest, digest, keys);
        let delta = Arc::new(EpochDelta {
            from_serial,
            to_serial: serial,
            added,
            removed,
            affected: affected.clone(),
        });
        let record = EpochProvenance {
            serial,
            digest,
            added: n_added,
            removed: n_removed,
            delta_rules,
            affected_queries,
            affected_everything,
            bulk_rebuild,
            published_at: at,
            trace: trace.id,
            reverified: 0,
            reverify_sessions: 0,
        };
        {
            let mut visible = self.write();
            visible.current = epoch;
            push_bounded(&mut visible.deltas, delta, self.max_deltas);
            push_bounded(&mut visible.provenance, record, PROVENANCE_CAPACITY);
        }
        t.publishes.inc();
        t.serial.set(i64::try_from(serial).unwrap_or(i64::MAX));
        t.delta_rules.record(delta_rules as u64);
        if bulk_rebuild {
            t.model_rebuilds.inc();
        } else {
            t.incremental_applies.inc();
        }
        Ok(Published {
            serial,
            affected,
            trace: trace.id,
        })
    }

    /// The combined delta covering the window `(from_serial, to_serial]`, or
    /// `None` when the retained history does not cover it (including
    /// `from_serial > to_serial` and serials from the future). An equal pair
    /// returns an empty delta. The window is merged after the read guard is
    /// released, so a lagging session's merge never holds up a publish, nor
    /// the queries queued behind one.
    #[must_use]
    pub fn delta_between(&self, from_serial: u64, to_serial: u64) -> Option<EpochDelta> {
        let window: Vec<Arc<EpochDelta>> = {
            let visible = self.read();
            if from_serial > to_serial || to_serial > visible.current.serial {
                return None;
            }
            let deltas = visible.deltas.iter();
            deltas
                .filter(|d| d.from_serial >= from_serial && d.to_serial <= to_serial)
                .cloned()
                .collect()
        };
        let mut added: BTreeSet<FlowDigest> = BTreeSet::new();
        let mut removed: BTreeSet<FlowDigest> = BTreeSet::new();
        let mut affected = AffectedQueries::default();
        // The retained window must cover every epoch in (from, to].
        let mut next_expected = from_serial;
        for delta in &window {
            if delta.from_serial != next_expected {
                return None;
            }
            next_expected = delta.to_serial;
            // A query affected anywhere in the window may hold a moved
            // verdict — even where rule changes cancel: an add-then-remove
            // pair still perturbed it in between. The per-epoch selections
            // union.
            affected.merge(&delta.affected);
            // An add that cancels an earlier remove (or vice versa) is a
            // no-op overall.
            for d in &delta.added {
                if !removed.remove(d) {
                    added.insert(*d);
                }
            }
            for d in &delta.removed {
                if !added.remove(d) {
                    removed.insert(*d);
                }
            }
        }
        if next_expected != to_serial {
            return None;
        }
        Some(EpochDelta {
            from_serial,
            to_serial,
            added: added.into_iter().collect(),
            removed: removed.into_iter().collect(),
            affected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::{digest_entry, digest_snapshot, DIGEST_CHUNK};
    use rvaas::TableEntries;
    use rvaas_openflow::{Action, FlowEntry, FlowMatch};
    use rvaas_types::{PortId, SwitchId, RULE_CHUNK};

    fn entry(dst: u32) -> FlowEntry {
        FlowEntry::new(10, FlowMatch::to_ip(dst), vec![Action::Output(PortId(1))])
    }

    /// The combined delta from `since` to the current serial.
    fn delta_since(store: &EpochStore, since: u64) -> Option<EpochDelta> {
        store.delta_between(since, store.current().serial)
    }

    fn snapshot_with(dsts: &[u32]) -> NetworkSnapshot {
        let mut snap = NetworkSnapshot::new(SimTime::from_secs(1));
        for dst in dsts {
            snap.record_installed(SwitchId(1), entry(*dst), SimTime::from_millis(1));
        }
        snap
    }

    #[test]
    fn a_one_rule_publish_shares_every_untouched_digest_run() {
        let store = EpochStore::new(8);
        let bulk: Vec<RuleChange> = (0..6 * DIGEST_CHUNK as u32)
            .map(|dst| RuleChange::installed(SwitchId(dst % 16), entry(dst)))
            .collect();
        store
            .try_publish_changes(&bulk, SimTime::from_millis(1))
            .unwrap();
        let before = store.current();
        store
            .try_publish_changes(
                &[RuleChange::installed(SwitchId(3), entry(100_000))],
                SimTime::from_millis(2),
            )
            .unwrap();
        let after = store.current();
        let runs = |epoch: &SnapshotEpoch| -> Vec<*const FlowDigest> {
            epoch
                .rules
                .digests
                .chunks()
                .map(<[FlowDigest]>::as_ptr)
                .collect()
        };
        let (old, new) = (runs(&before), runs(&after));
        assert!(old.len() > 4, "{} chunks", old.len());
        let shared = new.iter().filter(|run| old.contains(run)).count();
        // The digest lands in one chunk, which is copied (in two halves when
        // it was full); every other chunk is the predecessor's.
        assert_eq!(shared, old.len() - 1);
        let copied = after.rules.digests.unshared_with(&before.rules.digests);
        assert!((1..=2 * DIGEST_CHUNK).contains(&copied), "{copied}");
        assert_eq!(after.rules, digest_snapshot(&after.snapshot));
    }

    #[test]
    fn publish_advances_serial_and_records_delta() {
        let store = EpochStore::new(8);
        // Without a topology every change affects every verdict.
        assert_eq!(store.current().serial, 0);
        let p1 = store
            .try_publish(snapshot_with(&[1, 2]), SimTime::from_millis(1))
            .unwrap();
        assert_eq!(p1.serial, 1);
        assert!(!p1.affected.is_empty());
        let p2 = store
            .try_publish(snapshot_with(&[2, 3]), SimTime::from_millis(2))
            .unwrap();
        assert_eq!(p2.serial, 2);
        assert_eq!(store.current().serial, 2);

        let delta = delta_since(&store, 1).expect("retained");
        assert_eq!(delta.to_serial, 2);
        assert_eq!(delta.added.len(), 1, "rule for dst 3 added");
        assert_eq!(delta.removed.len(), 1, "rule for dst 1 removed");
        assert_eq!(delta.added, [digest_entry(SwitchId(1), &entry(3))]);
        assert_eq!(delta.removed, [digest_entry(SwitchId(1), &entry(1))]);
        // The frozen model holds exactly the epoch's rules.
        let current = store.current();
        let frozen = current.function.transfer(SwitchId(1)).expect("modelled");
        assert_eq!(
            frozen.rules().to_vec(),
            [entry(2).to_rule_transfer(), entry(3).to_rule_transfer()]
        );
        // The change affects the standing query.
        assert!(delta
            .affected
            .is_affected(ClientId(1), &QuerySpec::Isolation));

        let empty = delta_since(&store, 2).expect("current serial");
        assert!(empty.is_empty());
        assert!(empty.affected.is_empty());
    }

    #[test]
    fn cancelling_changes_collapse_across_epochs() {
        let store = EpochStore::new(8);
        store
            .try_publish(snapshot_with(&[1]), SimTime::from_millis(1))
            .unwrap();
        store
            .try_publish(snapshot_with(&[1, 2]), SimTime::from_millis(2))
            .unwrap();
        store
            .try_publish(snapshot_with(&[1]), SimTime::from_millis(3))
            .unwrap();
        // dst 2 was added then removed: net delta from serial 1 is empty.
        let delta = delta_since(&store, 1).expect("retained");
        assert!(delta.added.is_empty());
        assert!(delta.removed.is_empty());
        // ...but the selection still records that the rule flapped.
        assert!(!delta.affected.is_empty());
    }

    #[test]
    fn delta_between_covers_inner_windows() {
        let store = EpochStore::new(8);
        for i in 1..=4u32 {
            let dsts: Vec<u32> = (1..=i).collect();
            store
                .try_publish(snapshot_with(&dsts), SimTime::from_millis(u64::from(i)))
                .unwrap();
        }
        let delta = store.delta_between(1, 3).expect("retained window");
        assert_eq!(delta.from_serial, 1);
        assert_eq!(delta.to_serial, 3);
        assert_eq!(delta.added.len(), 2, "dst 2 and 3 added");
        assert!(delta.removed.is_empty());
        assert!(store.delta_between(3, 1).is_none(), "backwards window");
        assert!(store.delta_between(1, 99).is_none(), "future serial");
        assert!(store.delta_between(2, 2).expect("empty").is_empty());
    }

    #[test]
    fn evicted_history_forces_reset() {
        let store = EpochStore::new(2);
        for i in 0..5u32 {
            store
                .try_publish(snapshot_with(&[i]), SimTime::from_millis(u64::from(i)))
                .unwrap();
        }
        // Only the last two deltas are retained: serial 1 is unanswerable.
        assert!(delta_since(&store, 1).is_none());
        assert!(delta_since(&store, 3).is_some());
        // A serial from the future is also unanswerable.
        assert!(delta_since(&store, 99).is_none());
    }

    #[test]
    fn epoch_swap_under_concurrent_readers() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let store = Arc::new(EpochStore::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut last_serial = 0u64;
                let mut observed = 0u64;
                loop {
                    let epoch = store.current();
                    // Serials must be monotone from any single reader's
                    // point of view, the frozen snapshot must always be
                    // internally consistent with its digest set, and a
                    // visible serial has its provenance record (the 200
                    // publishes fit in the log).
                    assert!(epoch.serial >= last_serial, "serial went backwards");
                    assert_eq!(digest_snapshot(&epoch.snapshot), epoch.rules);
                    if epoch.serial >= 1 {
                        let record = store.provenance(epoch.serial);
                        assert!(record.is_some(), "serial {} unrecorded", epoch.serial);
                    }
                    last_serial = epoch.serial;
                    observed += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                observed
            }));
        }
        for i in 0..200u32 {
            let dsts: Vec<u32> = (0..=i % 7).collect();
            store
                .try_publish(snapshot_with(&dsts), SimTime::from_millis(u64::from(i)))
                .unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            let observed = reader.join().expect("reader panicked");
            assert!(observed > 0, "reader never observed an epoch");
        }
        assert_eq!(store.current().serial, 200);
    }

    #[test]
    fn publish_changes_matches_full_publish() {
        // Drive one store by full snapshots and a twin by rule deltas; the
        // epochs, digests and deltas must agree.
        let full = EpochStore::new(8);
        let delta = EpochStore::new(8);
        full.try_publish(snapshot_with(&[1, 2]), SimTime::from_millis(1))
            .unwrap();
        delta
            .try_publish_changes(
                &[
                    RuleChange::installed(SwitchId(1), entry(1)),
                    RuleChange::installed(SwitchId(1), entry(2)),
                ],
                SimTime::from_millis(1),
            )
            .unwrap();
        let p_full = full
            .try_publish(snapshot_with(&[2, 3]), SimTime::from_millis(2))
            .unwrap();
        let p_delta = delta
            .try_publish_changes(
                &[
                    RuleChange::removed(SwitchId(1), entry(1)),
                    RuleChange::installed(SwitchId(1), entry(3)),
                ],
                SimTime::from_millis(2),
            )
            .unwrap();
        assert_eq!(p_delta.serial, p_full.serial);
        let delta_rules = |store: &EpochStore| store.provenance(2).expect("retained").delta_rules;
        assert_eq!(delta_rules(&delta), delta_rules(&full));
        assert_eq!(delta.current().rules, full.current().rules);
        assert_eq!(
            digest_snapshot(&delta.current().snapshot),
            delta.current().rules
        );
        let d_full = delta_since(&full, 1).expect("retained");
        let d_delta = delta_since(&delta, 1).expect("retained");
        assert_eq!(d_delta.added, d_full.added);
        assert_eq!(d_delta.removed, d_full.removed);
        assert_eq!(d_delta.affected, d_full.affected);
    }

    #[test]
    fn publish_changes_skips_noop_and_collapses_flaps() {
        let store = EpochStore::new(8);
        store
            .try_publish_changes(
                &[RuleChange::installed(SwitchId(1), entry(1))],
                SimTime::from_millis(1),
            )
            .unwrap();
        let p = store
            .try_publish_changes(
                &[
                    RuleChange::installed(SwitchId(1), entry(1)), // already there
                    RuleChange::removed(SwitchId(1), entry(9)),   // never there
                    RuleChange::installed(SwitchId(1), entry(2)), // flap up...
                    RuleChange::removed(SwitchId(1), entry(2)),   // ...and down
                ],
                SimTime::from_millis(2),
            )
            .unwrap();
        let record = store.provenance(p.serial).expect("retained");
        assert_eq!(record.delta_rules, 0, "digest-level no-op");
        let d = delta_since(&store, 1).expect("retained");
        assert!(d.added.is_empty() && d.removed.is_empty());
        assert!(
            !d.affected.is_empty(),
            "the flap still affects the standing query: {:?}",
            d.affected
        );
        assert_eq!(store.current().serial, 2);
        assert_eq!(store.current().snapshot.rule_count(), 1);
    }

    #[test]
    fn consecutive_epochs_share_the_tables_of_untouched_switches() {
        let on = |switch, dst| RuleChange::installed(SwitchId(switch), entry(dst));
        let store = EpochStore::new(8);
        store
            .try_publish_changes(&[on(1, 1), on(2, 1)], SimTime::from_millis(1))
            .unwrap();
        let before = store.current();
        store
            .try_publish_changes(&[on(2, 2)], SimTime::from_millis(2))
            .unwrap();
        let after = store.current();
        let table = |epoch: &SnapshotEpoch, switch| {
            epoch.function.transfer(SwitchId(switch)).expect("modelled") as *const _
        };
        assert_eq!(table(&before, 1), table(&after, 1), "untouched: shared");
        assert_ne!(table(&before, 2), table(&after, 2), "touched: copied");
        fn entries(epoch: &SnapshotEpoch, switch: u32) -> TableEntries<'_> {
            epoch.snapshot.table_of(SwitchId(switch))
        }
        let shared = |a: &SnapshotEpoch, b: &SnapshotEpoch, switch| {
            entries(a, switch).same_table(entries(b, switch))
        };
        assert!(shared(&before, &after, 1), "untouched: shared");
        assert!(!shared(&before, &after, 2), "touched: copied");
        // The predecessor stays frozen as published.
        assert_eq!(before.function.rule_count(), 2);
        assert_eq!(after.function.rule_count(), 3);
        assert_eq!(before.snapshot.rule_count(), 2);
        assert_eq!(entries(&before, 2), [entry(1)]);
        assert_eq!(entries(&after, 2), [entry(1), entry(2)]);

        // A caller that keeps its own snapshot, edits one switch and hands
        // the whole of it over shares the rest just the same, and the diff
        // finds exactly the edit.
        let mut mine = after.snapshot.clone();
        mine.record_removed(SwitchId(1), &entry(1), SimTime::from_millis(3));
        let p = store.try_publish(mine, SimTime::from_millis(3)).unwrap();
        let last = store.current();
        assert!(!shared(&after, &last, 1), "touched: copied");
        assert!(shared(&after, &last, 2), "untouched: shared");
        assert_eq!(table(&after, 2), table(&last, 2), "untouched: shared");
        assert_eq!(store.provenance(p.serial).expect("retained").delta_rules, 1);
        let delta = delta_since(&store, 2).expect("retained");
        assert_eq!(delta.removed, [digest_entry(SwitchId(1), &entry(1))]);
        assert!(delta.added.is_empty());
        assert_eq!(last.rules, digest_snapshot(&last.snapshot));
        assert_eq!(entries(&after, 1), [entry(1)], "the predecessor is intact");

        // Inside a touched table the unit of copy is a chunk. On tables of
        // dozens of chunks, one churn delta — two routes out of the middle
        // of two tables, two higher-priority tenant rules in at their front
        // — copies at most two chunks per change in each structure: the
        // snapshot's entries and their index, the frozen HSA transfers and
        // the digest set. Every other chunk is the predecessor's.
        const RULES: u32 = 2 * DIGEST_CHUNK as u32;
        let routes = (0..8u32).flat_map(|switch| {
            (0..RULES).map(move |dst| (SwitchId(switch), entry(switch * RULES + dst)))
        });
        let at = SimTime::from_millis(4);
        let store = EpochStore::new(8);
        store
            .try_publish(NetworkSnapshot::with_rules(at, routes, at), at)
            .unwrap();
        let tenant = |dst| FlowEntry::new(20, FlowMatch::to_ip(dst), vec![Action::Drop]);
        let churn = [
            RuleChange::removed(SwitchId(3), entry(3 * RULES + 100)),
            RuleChange::removed(SwitchId(6), entry(6 * RULES + 700)),
            RuleChange::installed(SwitchId(3), tenant(1)),
            RuleChange::installed(SwitchId(6), tenant(2)),
        ];
        let before = store.current();
        let p = store.try_publish_changes(&churn, at).unwrap();
        let record = store.provenance(p.serial).expect("retained");
        assert_eq!((record.delta_rules, record.bulk_rebuild), (4, false));
        let after = store.current();
        let bound = |chunk: usize| churn.len() * 2 * chunk;
        let (mut tables, mut transfers) = (0, 0);
        for switch in 0..8 {
            let copied = entries(&after, switch).unshared_with(entries(&before, switch));
            let rules = |epoch: &SnapshotEpoch| {
                let transfer = epoch.function.transfer(SwitchId(switch)).expect("modelled");
                transfer.rules().clone()
            };
            let modelled = rules(&after).unshared_with(&rules(&before));
            if ![3, 6].contains(&switch) {
                assert_eq!((copied, modelled), (0, 0), "untouched switch {switch}");
            }
            tables += copied;
            transfers += modelled;
        }
        assert!(
            tables > 0 && tables <= 2 * bound(RULE_CHUNK),
            "entries + index: {tables}"
        );
        assert!(
            transfers > 0 && transfers <= bound(RULE_CHUNK),
            "transfers: {transfers}"
        );
        let digests = after.rules.digests.unshared_with(&before.rules.digests);
        assert!(
            digests > 0 && digests <= bound(DIGEST_CHUNK),
            "digests: {digests}"
        );
        assert!(
            2 * bound(RULE_CHUNK) < RULES as usize,
            "a whole-table copy fails"
        );
        assert!(
            bound(DIGEST_CHUNK) < after.rules.len(),
            "a whole-set copy fails"
        );
        assert_eq!(after.rules, digest_snapshot(&after.snapshot));
        assert_eq!(before.snapshot.rule_count(), 8 * RULES as usize);
    }

    #[test]
    fn only_a_store_with_a_topology_carries_traversals() {
        use rvaas::{LocationMap, LogicalVerifier, VerifierConfig};
        use rvaas_topology::generators;
        use rvaas_types::{ClientId, Field};

        let topology = generators::line(4, 2);
        let config = VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(&topology),
        };
        let verifier = LogicalVerifier::new(topology.clone(), config);
        let mut benign = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in rvaas_controlplane::benign_rules(&topology) {
            benign.record_installed(switch, entry, SimTime::from_millis(1));
        }
        let ip = |client| topology.hosts_of_client(ClientId(client))[0].ip;
        let churn = FlowEntry::new(
            400,
            FlowMatch::from_ip(ip(1)).field(Field::IpDst, u64::from(ip(2))),
            vec![Action::Drop],
        );
        // Client 2's two emissions walked on the benign epoch, then client
        // 1's churn published: what the two epochs' memos hold after it.
        let memos_after_churn = |store: EpochStore| {
            store
                .try_publish(benign.clone(), SimTime::from_millis(1))
                .unwrap();
            let epoch = store.current();
            let mut session =
                verifier.evaluator_sharing(&epoch.snapshot, &epoch.function, &epoch.traversals);
            let _ = session.answer(ClientId(2), &QuerySpec::ReachableDestinations);
            let churn = RuleChange::installed(SwitchId(1), churn.clone());
            store
                .try_publish_changes(&[churn], SimTime::from_millis(2))
                .unwrap();
            (epoch.traversals.len(), store.current().traversals.len())
        };
        let attached = EpochStore::new(8);
        attached.attach_interest_topology(topology.clone());
        assert_eq!(memos_after_churn(attached), (0, 2), "moved on");
        // No hosts, so no keys to name what a change altered: every change
        // affects every verdict, and the carry keeps no traversal.
        assert_eq!(memos_after_churn(EpochStore::new(8)), (2, 0));
    }

    #[test]
    fn published_affected_names_the_verdict_keys_a_change_reaches() {
        use rvaas::VerdictKey;
        use rvaas_topology::generators;
        use rvaas_types::{ClientId, HostId};

        // `line(4, 2)`: client 1 owns hosts 1 and 3, client 2 hosts 2 and 4,
        // one host per switch. Nothing is asked on any epoch, so no key is
        // held and every key a region overlaps is affected.
        let topology = generators::line(4, 2);
        let store = EpochStore::new(8);
        store.attach_interest_topology(topology.clone());
        let ip = |h: u32| topology.host(HostId(h)).unwrap().ip;

        // The first publish installs a dst-pinned, src-wild rule towards an
        // address no host has, on an access switch: every host's emission
        // and the tables (exactly — one rule is far below the bulk-rebuild
        // threshold).
        let p1 = store
            .try_publish(snapshot_with(&[1]), SimTime::from_millis(1))
            .unwrap();
        assert!(!p1.affected.is_everything());
        let emissions = [(1, 1), (1, 3), (2, 2), (2, 4)]
            .map(|(c, h)| VerdictKey::Emission(ClientId(c), HostId(h)));
        let mut expected: BTreeSet<VerdictKey> = emissions.into_iter().collect();
        expected.insert(VerdictKey::Tables);
        assert_eq!(p1.affected.keys(), &expected);

        // A tenant-pinned rule from host 1 (client 1) to host 2 (client 2)
        // on host 2's switch: host 1's emission, client 2's share of host
        // 1's inbound walk, client 1's path probe towards host 2, and the
        // tables.
        let tenant = FlowEntry::new(
            400,
            FlowMatch::from_ip(ip(1)).field(rvaas_types::Field::IpDst, u64::from(ip(2))),
            vec![Action::Output(PortId(1))],
        );
        let p2 = store
            .try_publish_changes(
                &[RuleChange::installed(SwitchId(2), tenant)],
                SimTime::from_millis(2),
            )
            .unwrap();
        let expected: BTreeSet<VerdictKey> = [
            VerdictKey::Emission(ClientId(1), HostId(1)),
            VerdictKey::Inbound(ClientId(2), HostId(1)),
            VerdictKey::Path(ClientId(1), ip(2)),
            VerdictKey::Tables,
        ]
        .into_iter()
        .collect();
        assert_eq!(p2.affected.keys(), &expected);
        let affected =
            |spec: &QuerySpec, client: u32| p2.affected.is_affected(ClientId(client), spec);
        assert!(affected(&QuerySpec::ReachableDestinations, 1));
        assert!(!affected(&QuerySpec::ReachableDestinations, 2));
        assert!(affected(&QuerySpec::ReachingSources, 2));
        assert!(!affected(&QuerySpec::ReachingSources, 1));
        assert!(affected(&QuerySpec::PathLength { to_ip: ip(2) }, 1));
        assert!(!affected(&QuerySpec::PathLength { to_ip: ip(4) }, 1));
        assert!(affected(&QuerySpec::Neutrality, 2));
        assert_eq!(store.provenance(2).expect("retained").affected_queries, 4);
        // The per-epoch selection is frozen into the delta history...
        let window = store.delta_between(1, 2).expect("retained");
        assert_eq!(window.affected, p2.affected);
        // ...and a wider window unions the per-epoch selections, picking the
        // epoch-1 selection of client 2's emissions back up.
        let wide = store.delta_between(0, 2).expect("retained");
        assert!(wide
            .affected
            .is_affected(ClientId(2), &QuerySpec::ReachableDestinations));

        // A rule installed and removed within one list resolves in the
        // model, applied in order: its region is the flapped rule's match,
        // dst-pinned and src-wild, so every emission and the tables are
        // affected, not everything.
        let flap = [
            RuleChange::installed(SwitchId(3), entry(7)),
            RuleChange::removed(SwitchId(3), entry(7)),
        ];
        let p3 = store
            .try_publish_changes(&flap, SimTime::from_millis(3))
            .unwrap();
        let record = store.provenance(3).expect("retained");
        assert!(!p3.affected.is_everything() && !record.affected_everything);
        assert_eq!((p3.affected.len(), record.affected_queries), (5, 5));
    }

    #[test]
    fn provenance_records_publishes_and_accumulates_reverification() {
        let store = EpochStore::new(8);
        store
            .try_publish(snapshot_with(&[1, 2]), SimTime::from_millis(1))
            .unwrap();
        let p2 = store
            .try_publish(snapshot_with(&[2, 3]), SimTime::from_millis(2))
            .unwrap();
        assert!(!p2.trace.is_none(), "publishes mint a trace");

        let prov = store.provenance(2).expect("recent serial retained");
        assert_eq!(prov.serial, 2);
        assert_eq!(prov.added, 1);
        assert_eq!(prov.removed, 1);
        assert_eq!(prov.delta_rules, 2);
        assert_eq!(prov.digest, store.current().content_digest());
        assert_eq!(prov.trace, p2.trace);
        assert_eq!(prov.published_at, SimTime::from_millis(2));
        assert_eq!((prov.reverified, prov.reverify_sessions), (0, 0));

        // Sync sessions report their exact fan-out; unknown serials no-op.
        store.record_reverify(2, 5);
        store.record_reverify(2, 3);
        store.record_reverify(99, 7);
        let prov = store.provenance(2).expect("still retained");
        assert_eq!(prov.reverified, 8);
        assert_eq!(prov.reverify_sessions, 2);
        assert!(store.provenance(99).is_none());

        // Both publishes are on record.
        assert_eq!(store.provenance(1).expect("retained").added, 2);

        // The publish event chain is in the flight recorder under the
        // provenance trace id.
        let chain = rvaas_telemetry::trace::recorder().chain(p2.trace);
        assert!(chain
            .iter()
            .any(|e| e.stage == TraceStage::EpochPublish && e.a == 2));
        assert!(chain.iter().any(|e| e.stage == TraceStage::EpochDigest));
    }

    #[test]
    fn content_digest_depends_on_content_not_publish_path() {
        let a = EpochStore::new(4);
        let b = EpochStore::new(4);
        a.try_publish(snapshot_with(&[1, 2]), SimTime::from_millis(1))
            .unwrap();
        b.try_publish_changes(
            &[
                RuleChange::installed(SwitchId(1), entry(1)),
                RuleChange::installed(SwitchId(1), entry(2)),
            ],
            SimTime::from_millis(9),
        )
        .unwrap();
        assert_eq!(a.current().content_digest(), b.current().content_digest());
        a.try_publish(snapshot_with(&[1, 2, 3]), SimTime::from_millis(2))
            .unwrap();
        assert_ne!(a.current().content_digest(), b.current().content_digest());
    }

    impl EpochStore {
        /// Rewinds the clock to the end of time: the next publish would
        /// need serial `u64::MAX + 1`.
        pub(crate) fn exhaust_serials(&self) {
            let mut visible = self.write();
            let current = &visible.current;
            visible.current = Arc::new(SnapshotEpoch {
                serial: u64::MAX,
                snapshot: current.snapshot.clone(),
                function: current.function.clone(),
                rules: current.rules.clone(),
                published_at: current.published_at,
                traversals: TraversalMemo::new(),
            });
        }
    }

    #[test]
    fn publish_is_rejected_when_the_serial_space_is_exhausted() {
        let store = EpochStore::new(4);
        store
            .try_publish(snapshot_with(&[1]), SimTime::from_millis(1))
            .unwrap();
        store.exhaust_serials();
        let err = store
            .try_publish(snapshot_with(&[1, 2]), SimTime::from_millis(2))
            .unwrap_err();
        assert!(matches!(err, ServiceError::PublishRejected(_)));
        assert!(err.to_string().contains("serial space exhausted"));
        // The store is not corrupted: the current epoch is unchanged.
        assert_eq!(store.current().serial, u64::MAX);
    }
}
