//! Epoch-published snapshots: immutable, serially numbered freezes of the
//! monitor's [`NetworkSnapshot`], swapped atomically so query workers never
//! block the publisher (and vice versa).
//!
//! The [`EpochStore`] retains a bounded history of per-epoch deltas. Each
//! delta carries three views of the same change set:
//!
//! * **digest-level** added/removed [`FlowDigest`]s — what the RTR-style
//!   sync protocol ships to clients;
//! * **rule-level** added/removed `(switch, entry)` pairs — what the worker
//!   pool's [`IncrementalModel`]s apply in place instead of rebuilding the
//!   HSA model from scratch (added rules preserve per-switch arrival order,
//!   so equal-priority tie-breaking matches a full rebuild);
//! * the [`ChangedRegion`] — the affected header space computed by a shadow
//!   incremental model under the publish lock, which the cache and the sync
//!   server use to re-verify only the standing queries a delta can touch.
//!
//! When the requested serial has been evicted the store reports `None` and
//! the consumers fall back to a full reset / rebuild, mirroring RTR
//! cache-reset semantics.
//!
//! One deliberate approximation: digest-level cancellation across epochs
//! (add-then-remove collapses to nothing) means a rule removed and later
//! re-added is kept at its *original* arrival position by incremental
//! appliers, while a from-scratch rebuild would see it at the table end.
//! The two orders can only differ observably for *overlapping
//! equal-priority rules with different actions*, whose relative order is
//! implementation-defined on real switches to begin with.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, RwLock, RwLockWriteGuard};

use rvaas::{
    AffectedQueries, ChangedRegion, IncrementalModel, InterestIndex, NetworkSnapshot,
    QueryFootprint, RuleChange,
};
use rvaas_client::{FlowDigest, QuerySpec};
use rvaas_openflow::FlowEntry;
use rvaas_telemetry::{TraceContext, TraceId, TraceStage};
use rvaas_topology::Topology;
use rvaas_types::{ClientId, SimTime, SwitchId};

use crate::error::ServiceError;

/// How many [`EpochProvenance`] records the store retains. Bounded like the
/// flight recorder: old epochs age out, recent ones stay queryable.
pub const PROVENANCE_CAPACITY: usize = 1024;

/// Computes the digest identifying one installed flow entry.
///
/// Stats and cookies are deliberately excluded: two entries that match and
/// act identically are the same rule as far as verification is concerned.
#[must_use]
pub fn digest_entry(switch: SwitchId, entry: &FlowEntry) -> FlowDigest {
    // DefaultHasher::new() is deterministic (fixed-key SipHash), which is all
    // the simulation needs; a deployment would swap in a keyed or
    // cryptographic digest here.
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    switch.hash(&mut hasher);
    entry.priority.hash(&mut hasher);
    entry.flow_match.hash(&mut hasher);
    entry.actions.hash(&mut hasher);
    FlowDigest(hasher.finish())
}

/// Digests of every entry in a snapshot.
#[must_use]
pub fn digest_snapshot(snapshot: &NetworkSnapshot) -> BTreeSet<FlowDigest> {
    snapshot
        .tables()
        .flat_map(|(switch, entries)| entries.iter().map(move |e| digest_entry(switch, e)))
        .collect()
}

/// One installed entry and the switch it sits on.
type Rule = (SwitchId, FlowEntry);

/// Installed entries keyed by their digest.
type RuleIndex = BTreeMap<FlowDigest, Rule>;

/// One published, immutable epoch of network state.
#[derive(Debug)]
pub struct SnapshotEpoch {
    /// Monotonically increasing serial (the first published epoch is 1;
    /// serial 0 means "no state", as in the sync protocol).
    pub serial: u64,
    /// The frozen snapshot queries are answered against.
    pub snapshot: NetworkSnapshot,
    /// Digest-indexed entries: the keys are the epoch's digest set (what
    /// sync ships and deltas are computed over), the values let the next
    /// publish resolve removed digests back to concrete rules without
    /// re-hashing this snapshot.
    pub rules: BTreeMap<FlowDigest, (SwitchId, FlowEntry)>,
    /// When the epoch was published (simulation time of the last update).
    pub published_at: SimTime,
}

impl SnapshotEpoch {
    /// An order-independent FNV-1a fold over the epoch's digest set: one
    /// `u64` that identifies the *content* of the epoch (two epochs with the
    /// same installed rules share it regardless of publish path). The same
    /// constants as the daemon's `/v1/epoch` body, so provenance records and
    /// the HTTP surface agree.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for d in self.rules.keys() {
            for byte in d.0.to_be_bytes() {
                acc ^= u64::from(byte);
                acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        acc
    }
}

/// One entry of the epoch provenance log: who published an epoch, what it
/// changed, which standing queries the interest index selected, and how much
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
    /// Rule-level delta size (added + removed entries).
    pub delta_rules: usize,
    /// Standing queries the interest-space index selected, when bounded.
    pub affected_queries: usize,
    /// True when the change conservatively affects every standing query
    /// (bulk rebuild / unbounded region); `affected_queries` is then the
    /// registration count at publish time.
    pub affected_everything: bool,
    /// Whether the shadow model took the bulk-rebuild path.
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

/// The difference between two epochs, at digest, rule and header-space
/// granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochDelta {
    /// Serial this delta starts from.
    pub from_serial: u64,
    /// Serial this delta produces.
    pub to_serial: u64,
    /// Digests present in `to` but not `from`.
    pub added: Vec<FlowDigest>,
    /// Digests present in `from` but not `to`.
    pub removed: Vec<FlowDigest>,
    /// The added entries, in per-switch arrival order.
    pub added_rules: Vec<(SwitchId, FlowEntry)>,
    /// The removed entries (order irrelevant).
    pub removed_rules: Vec<(SwitchId, FlowEntry)>,
    /// Affected header region of the change (union over the covered epochs).
    pub changed: ChangedRegion,
    /// The standing queries the interest-space index selected for this
    /// change, frozen at publish time (union over the covered epochs). Using
    /// the *stored* per-epoch selections — instead of re-querying the index
    /// later — keeps lagging syncs sound: the selection reflects each
    /// query's footprint as it was at that epoch, unaffected by refinements
    /// that happened since.
    pub affected: AffectedQueries,
}

impl EpochDelta {
    fn empty(serial: u64) -> Self {
        EpochDelta {
            from_serial: serial,
            to_serial: serial,
            added: Vec::new(),
            removed: Vec::new(),
            added_rules: Vec::new(),
            removed_rules: Vec::new(),
            changed: ChangedRegion::default(),
            affected: AffectedQueries::default(),
        }
    }

    /// True when the delta carries no change.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// The delta as an ordered [`RuleChange`] batch: removals first (so a
    /// modify repairs priorities correctly), then installs in arrival order.
    /// This is what [`IncrementalModel::apply`] consumes.
    #[must_use]
    pub fn rule_changes(&self) -> Vec<RuleChange> {
        self.removed_rules
            .iter()
            .map(|(switch, entry)| RuleChange::removed(*switch, entry.clone()))
            .chain(
                self.added_rules
                    .iter()
                    .map(|(switch, entry)| RuleChange::installed(*switch, entry.clone())),
            )
            .collect()
    }
}

/// What one [`EpochStore::publish`] produced: the new serial plus the
/// affected header region of the change, for targeted invalidation.
#[derive(Debug, Clone)]
pub struct Published {
    /// The serial of the freshly published epoch.
    pub serial: u64,
    /// The affected header region relative to the previous epoch.
    pub changed: ChangedRegion,
    /// Rule-level size of the delta (added + removed entries).
    pub delta_rules: usize,
    /// Whether the shadow model took the bulk-rebuild path (delta too large
    /// for per-rule region tracking to pay off), reporting an unbounded
    /// changed region.
    pub bulk_rebuild: bool,
    /// The standing queries the interest-space index selected for this epoch
    /// (computed under the publish lock, before the swap). The cache and the
    /// sync server invalidate/re-verify exactly these.
    pub affected: AffectedQueries,
    /// Flight-recorder trace id of the publish event chain; downstream
    /// consumers (cache carry-forward, re-verification) append to it.
    pub trace: TraceId,
}

/// The entries of `of` whose digest `other` lacks, in ascending digest
/// order: one linear merge over the two sorted indexes.
fn absent_from<'a>(
    of: &'a RuleIndex,
    other: &'a RuleIndex,
) -> impl Iterator<Item = (&'a FlowDigest, &'a Rule)> {
    let mut theirs = other.keys().peekable();
    of.iter().filter(move |(d, _)| {
        while theirs.next_if(|t| t < d).is_some() {}
        theirs.peek() != Some(d)
    })
}

/// The next epoch as a publish front half derives it from the current one:
/// its content plus the net change against the predecessor.
struct NextEpoch {
    snapshot: NetworkSnapshot,
    rules: RuleIndex,
    /// Net additions; arrival order per switch, so equal-priority
    /// tie-breaking downstream matches a full rebuild.
    added: Vec<(FlowDigest, Rule)>,
    /// Net removals (order irrelevant).
    removed: Vec<(FlowDigest, Rule)>,
    /// The ordered batch the shadow model applies to find the changed
    /// region: the net change, plus any within-batch flaps.
    applied: Vec<RuleChange>,
}

/// The atomically swapped epoch store.
///
/// Readers grab the current `Arc<SnapshotEpoch>` under a briefly held read
/// lock and then work lock-free on the frozen epoch; the publisher builds
/// the next epoch off to the side and swaps the `Arc` in one write-lock
/// acquisition. In-flight queries keep their old epoch alive through the
/// `Arc` for as long as they need it.
#[derive(Debug)]
pub struct EpochStore {
    current: RwLock<Arc<SnapshotEpoch>>,
    deltas: Mutex<VecDeque<EpochDelta>>,
    /// Shadow incremental model mirroring the published state; computes the
    /// affected header region of each delta in `O(delta)` under the publish
    /// lock. Wiring-free (an empty topology): exposed-region computation
    /// only needs the per-switch rule lists.
    shadow: Mutex<IncrementalModel>,
    /// The interest-space index over the registered standing queries.
    /// Advanced under the publish lock (widening affected interests before
    /// the new epoch becomes visible); registered/refined concurrently by
    /// the worker pool and the sync server.
    interest: Mutex<InterestIndex>,
    /// Bounded provenance log, newest at the back; queryable by serial for
    /// as long as the record has not aged out.
    provenance: Mutex<VecDeque<EpochProvenance>>,
    max_deltas: usize,
}

impl EpochStore {
    /// Creates a store holding an empty epoch 0 and retaining up to
    /// `max_deltas` per-epoch deltas for sync.
    // Takes no topology only because `benchmark/` calls it so; see `attach_interest_topology`.
    #[must_use]
    pub fn new(max_deltas: usize) -> Self {
        EpochStore {
            current: RwLock::new(Arc::new(SnapshotEpoch {
                serial: 0,
                snapshot: NetworkSnapshot::default(),
                rules: BTreeMap::new(),
                published_at: SimTime::ZERO,
            })),
            deltas: Mutex::new(VecDeque::new()),
            shadow: Mutex::new(IncrementalModel::new(Topology::new())),
            interest: Mutex::new(InterestIndex::new(Topology::new())),
            provenance: Mutex::new(VecDeque::new()),
            max_deltas,
        }
    }

    fn interest_lock(&self) -> std::sync::MutexGuard<'_, InterestIndex> {
        self.interest
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Supplies the trusted deployment knowledge the interest-space index
    /// derives default interests from. Without it every registration is
    /// conservative (affected by any change). Call before registering.
    // Not a `new` argument only because `benchmark/` calls both; merge at the next re-baseline.
    pub fn attach_interest_topology(&self, topology: Topology) {
        self.interest_lock().set_topology(topology);
    }

    /// Mirrors the store's activity into `registry`: the interest-space
    /// index under `rvaas_interest_*`, the shadow incremental model under
    /// `rvaas_incremental_*_total`.
    pub fn attach_telemetry(&self, registry: &rvaas_telemetry::Registry) {
        self.interest_lock().attach_telemetry(registry);
        self.shadow
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .attach_telemetry(registry);
    }

    /// Registers a standing query in the interest-space index (idempotent).
    pub fn register_interest(&self, client: ClientId, spec: &QuerySpec) -> bool {
        self.interest_lock().register(client, spec)
    }

    /// Removes a standing query from the interest-space index.
    pub fn deregister_interest(&self, client: ClientId, spec: &QuerySpec) -> bool {
        self.interest_lock().deregister(client, spec)
    }

    /// Narrows a standing query's interest to the traversal footprint an
    /// evaluation against epoch `serial` recorded (ignored when stale).
    pub fn refine_interest(
        &self,
        client: ClientId,
        spec: &QuerySpec,
        serial: u64,
        footprint: &QueryFootprint,
    ) {
        self.interest_lock().refine(client, spec, serial, footprint);
    }

    /// Number of standing queries registered in the interest-space index.
    #[must_use]
    pub fn registered_interests(&self) -> usize {
        self.interest_lock().len()
    }

    fn provenance_lock(&self) -> std::sync::MutexGuard<'_, VecDeque<EpochProvenance>> {
        self.provenance
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn record_provenance(&self, record: EpochProvenance) {
        let mut log = self.provenance_lock();
        log.push_back(record);
        while log.len() > PROVENANCE_CAPACITY {
            log.pop_front();
        }
    }

    /// The provenance record of epoch `serial`, if it has not aged out of
    /// the bounded log.
    #[must_use]
    pub fn provenance(&self, serial: u64) -> Option<EpochProvenance> {
        self.provenance_lock()
            .iter()
            .rev()
            .find(|p| p.serial == serial)
            .cloned()
    }

    /// The most recent provenance records, newest first, at most `limit`.
    #[must_use]
    pub fn recent_provenance(&self, limit: usize) -> Vec<EpochProvenance> {
        self.provenance_lock()
            .iter()
            .rev()
            .take(limit)
            .cloned()
            .collect()
    }

    /// Accumulates re-verification fan-out into epoch `serial`'s provenance
    /// record: a sync session that re-verified `queries` standing queries
    /// while serving this epoch reports the exact count here. No-op when the
    /// record has aged out.
    pub fn record_reverify(&self, serial: u64, queries: u64) {
        let mut log = self.provenance_lock();
        if let Some(record) = log.iter_mut().rev().find(|p| p.serial == serial) {
            record.reverified += queries;
            record.reverify_sessions += 1;
        }
    }

    /// The current epoch. Never blocks the publisher for longer than the
    /// `Arc` clone.
    #[must_use]
    pub fn current(&self) -> Arc<SnapshotEpoch> {
        self.current
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Takes the publish lock. It is held across a publish's read–diff–swap
    /// so concurrent publishers serialise: each epoch gets a unique serial
    /// and a delta chained to its true predecessor.
    fn publish_lock(&self) -> RwLockWriteGuard<'_, Arc<SnapshotEpoch>> {
        self.current
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
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
    /// delta (digests, rules and affected header region) against the
    /// previous epoch.
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
        // One hash pass over the tables, in per-switch arrival order and
        // outside the publish lock; the digest index and the
        // (arrival-ordered) added-rule resolution both derive from it.
        let ordered: Vec<(FlowDigest, SwitchId, &FlowEntry)> = snapshot
            .tables()
            .flat_map(|(switch, entries)| {
                entries
                    .iter()
                    .map(move |e| (digest_entry(switch, e), switch, e))
            })
            .collect();
        let current = self.publish_lock();
        let rules: RuleIndex = ordered
            .iter()
            .map(|(d, switch, e)| (*d, (*switch, (*e).clone())))
            .collect();
        // Adds resolve in arrival order (delta-sized clones), removals from
        // the previous epoch's index.
        let added_set: BTreeSet<FlowDigest> = absent_from(&rules, &current.rules)
            .map(|(d, _)| *d)
            .collect();
        let added: Vec<(FlowDigest, Rule)> = ordered
            .iter()
            .filter(|(d, _, _)| added_set.contains(d))
            .map(|(d, switch, e)| (*d, (*switch, (*e).clone())))
            .collect();
        let removed: Vec<(FlowDigest, Rule)> = absent_from(&current.rules, &rules)
            .map(|(d, rule)| (*d, rule.clone()))
            .collect();
        let applied = removed
            .iter()
            .map(|(_, (switch, e))| RuleChange::removed(*switch, e.clone()))
            .chain(
                added
                    .iter()
                    .map(|(_, (switch, e))| RuleChange::installed(*switch, e.clone())),
            )
            .collect();
        let next = NextEpoch {
            snapshot,
            rules,
            added,
            removed,
            applied,
        };
        self.commit(current, next, at)
    }

    /// Advances the epoch by a rule-level delta instead of a full snapshot:
    /// the monitor hands [`ConfigMonitor::drain_changes`] output straight
    /// here, and the store derives the next epoch from the previous one —
    /// hashing only the delta entries instead of re-digesting every rule.
    /// (The frozen snapshot itself is still a clone of its predecessor plus
    /// the delta, so memory stays `O(rules)`; the per-publish *hashing* cost
    /// drops from `O(rules)` to `O(delta)`.)
    ///
    /// Installs already present and removals of absent rules are skipped, so
    /// the recorded delta always matches the digest diff of the two epochs.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::PublishRejected`] if the serial space is
    /// exhausted.
    ///
    /// [`ConfigMonitor::drain_changes`]: rvaas::ConfigMonitor::drain_changes
    pub fn try_publish_changes(
        &self,
        changes: &[RuleChange],
        at: SimTime,
    ) -> Result<Published, ServiceError> {
        let current = self.publish_lock();
        let mut next = NextEpoch {
            snapshot: current.snapshot.clone(),
            rules: current.rules.clone(),
            added: Vec::new(),
            removed: Vec::new(),
            applied: Vec::new(),
        };
        for change in changes {
            let d = digest_entry(change.switch, &change.entry);
            if change.installed == next.rules.contains_key(&d) {
                continue; // installing a present rule / removing an absent one
            }
            let rule = (change.switch, change.entry.clone());
            let (done, undone) = if change.installed {
                next.snapshot
                    .record_installed(change.switch, change.entry.clone(), at);
                next.rules.insert(d, rule.clone());
                (&mut next.added, &mut next.removed)
            } else {
                next.snapshot
                    .record_removed(change.switch, &change.entry, at);
                next.rules.remove(&d);
                (&mut next.removed, &mut next.added)
            };
            // A change undoing an earlier one of this batch (a flap) is a
            // digest-level no-op, like cancellation across epochs...
            if let Some(pos) = undone.iter().position(|(u, _)| *u == d) {
                undone.remove(pos);
            } else {
                done.push((d, rule));
            }
            // ...but the applied batch keeps it on purpose: the changed
            // region must cover the flap, exactly as `delta_between` keeps
            // flapped regions across epochs.
            next.applied.push(change.clone());
        }
        self.commit(current, next, at)
    }

    /// The shared tail of every publish: allocates the serial, runs the
    /// shadow model over the applied changes, advances the interest index,
    /// retains the delta, swaps the epoch in and records provenance.
    /// `current` is the publish lock the caller derived `next` under.
    fn commit(
        &self,
        mut current: RwLockWriteGuard<'_, Arc<SnapshotEpoch>>,
        next: NextEpoch,
        at: SimTime,
    ) -> Result<Published, ServiceError> {
        let from_serial = current.serial;
        let serial = from_serial.checked_add(1).ok_or_else(|| {
            ServiceError::PublishRejected(format!("epoch serial space exhausted at {from_serial}"))
        })?;
        // Past this size the per-rule exposed-region bookkeeping costs
        // more than it saves (the canonical case is the first, full
        // publish): bulk-rebuild the shadow and report an unbounded
        // region, which conservatively re-verifies everything once.
        let bulk_rebuild = next.applied.len() > (next.rules.len() / 4).max(64);
        let changed = {
            let mut shadow = self
                .shadow
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if bulk_rebuild {
                shadow.rebuild_from(&next.snapshot);
                ChangedRegion::everything()
            } else {
                let region = shadow.apply(&next.applied);
                if shadow.is_desynced() {
                    // This publish already reports a conservative region;
                    // resynchronise so future publishes are bounded again.
                    shadow.rebuild_from(&next.snapshot);
                }
                region
            }
        };
        // Select (and widen) the affected standing queries before the new
        // epoch becomes visible: a footprint refined against this serial can
        // then never be invalidated by this publish.
        let affected = self.interest_lock().advance(serial, &changed);
        let (added, added_rules): (Vec<_>, Vec<_>) = next.added.into_iter().unzip();
        let (removed, removed_rules): (Vec<_>, Vec<_>) = next.removed.into_iter().unzip();
        let (added_count, removed_count) = (added.len(), removed.len());
        {
            let mut deltas = self
                .deltas
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            deltas.push_back(EpochDelta {
                from_serial,
                to_serial: serial,
                added,
                removed,
                added_rules,
                removed_rules,
                changed: changed.clone(),
                affected: affected.clone(),
            });
            while deltas.len() > self.max_deltas {
                deltas.pop_front();
            }
        }
        let epoch = Arc::new(SnapshotEpoch {
            serial,
            snapshot: next.snapshot,
            rules: next.rules,
            published_at: at,
        });
        let digest = epoch.content_digest();
        *current = epoch;
        let trace = self.trace_publish(
            serial,
            digest,
            added_count,
            removed_count,
            added_count + removed_count,
            bulk_rebuild,
            at,
            &affected,
        );
        Ok(Published {
            serial,
            changed,
            delta_rules: added_count + removed_count,
            bulk_rebuild,
            affected,
            trace,
        })
    }

    /// Emits the publish event chain into the flight recorder and appends
    /// the provenance record.
    #[allow(clippy::too_many_arguments)]
    fn trace_publish(
        &self,
        serial: u64,
        digest: u64,
        added: usize,
        removed: usize,
        delta_rules: usize,
        bulk_rebuild: bool,
        at: SimTime,
        affected: &AffectedQueries,
    ) -> TraceId {
        let trace = TraceContext::mint();
        trace.event(TraceStage::EpochPublish, serial, delta_rules as u64);
        let affected_everything = affected.is_everything();
        let affected_queries = if affected_everything {
            self.registered_interests()
        } else {
            affected.len()
        };
        trace.event(
            TraceStage::EpochDigest,
            digest,
            if affected_everything {
                u64::MAX
            } else {
                affected_queries as u64
            },
        );
        self.record_provenance(EpochProvenance {
            serial,
            digest,
            added,
            removed,
            delta_rules,
            affected_queries,
            affected_everything,
            bulk_rebuild,
            published_at: at,
            trace: trace.id,
            reverified: 0,
            reverify_sessions: 0,
        });
        trace.id
    }

    /// The combined delta from `since_serial` to the current serial, or
    /// `None` when any intermediate delta has been evicted (the caller must
    /// fall back to a full reset). A request for the current serial returns
    /// an empty delta.
    #[must_use]
    pub fn delta_since(&self, since_serial: u64) -> Option<EpochDelta> {
        self.delta_between(since_serial, self.current().serial)
    }

    /// The combined delta covering the window `(from_serial, to_serial]`, or
    /// `None` when the retained history does not cover it (including
    /// `from_serial > to_serial` and serials from the future). An equal pair
    /// returns an empty delta.
    #[must_use]
    pub fn delta_between(&self, from_serial: u64, to_serial: u64) -> Option<EpochDelta> {
        if from_serial > to_serial || to_serial > self.current().serial {
            return None;
        }
        if from_serial == to_serial {
            return Some(EpochDelta::empty(from_serial));
        }
        let deltas = self
            .deltas
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // The retained window must cover every epoch in (from, to].
        let mut added: BTreeSet<FlowDigest> = BTreeSet::new();
        let mut removed: BTreeSet<FlowDigest> = BTreeSet::new();
        // Rule-level adds keep their arrival order; cancellation filters the
        // ordered list rather than re-sorting it.
        let mut added_rules: Vec<(FlowDigest, SwitchId, FlowEntry)> = Vec::new();
        let mut removed_rules: BTreeMap<FlowDigest, (SwitchId, FlowEntry)> = BTreeMap::new();
        let mut changed = ChangedRegion::default();
        let mut affected = AffectedQueries::default();
        let mut next_expected = from_serial;
        for delta in deltas
            .iter()
            .filter(|d| d.from_serial >= from_serial && d.to_serial <= to_serial)
        {
            if delta.from_serial != next_expected {
                return None;
            }
            next_expected = delta.to_serial;
            // The changed region accumulates even across cancelling rule
            // changes: an add-then-remove pair still perturbed the region in
            // between, and over-approximating is the safe direction.
            changed.merge(&delta.changed);
            // A query affected anywhere in the window may hold a moved
            // verdict: the per-epoch selections union, they are never
            // re-derived from the (since-refined) index.
            affected.merge(&delta.affected);
            for (switch, entry) in &delta.added_rules {
                let d = digest_entry(*switch, entry);
                // An add that cancels an earlier remove is a no-op overall.
                if removed.remove(&d) {
                    removed_rules.remove(&d);
                } else {
                    added.insert(d);
                    added_rules.push((d, *switch, entry.clone()));
                }
            }
            for (switch, entry) in &delta.removed_rules {
                let d = digest_entry(*switch, entry);
                if added.remove(&d) {
                    added_rules.retain(|(ad, _, _)| *ad != d);
                } else {
                    removed.insert(d);
                    removed_rules.insert(d, (*switch, entry.clone()));
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
            added_rules: added_rules.into_iter().map(|(_, s, e)| (s, e)).collect(),
            removed_rules: removed_rules.into_values().collect(),
            changed,
            affected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_openflow::{Action, FlowMatch};
    use rvaas_types::PortId;

    fn entry(dst: u32) -> FlowEntry {
        FlowEntry::new(10, FlowMatch::to_ip(dst), vec![Action::Output(PortId(1))])
    }

    fn snapshot_with(dsts: &[u32]) -> NetworkSnapshot {
        let mut snap = NetworkSnapshot::new(SimTime::from_secs(1));
        for dst in dsts {
            snap.record_installed(SwitchId(1), entry(*dst), SimTime::from_millis(1));
        }
        snap
    }

    #[test]
    fn digests_ignore_stats_and_cookie_but_not_actions() {
        let a = entry(5);
        let mut b = entry(5);
        b.stats.packets = 99;
        b.cookie = rvaas_types::FlowCookie(7);
        assert_eq!(digest_entry(SwitchId(1), &a), digest_entry(SwitchId(1), &b));
        let c = FlowEntry::new(10, FlowMatch::to_ip(5), vec![Action::Drop]);
        assert_ne!(digest_entry(SwitchId(1), &a), digest_entry(SwitchId(1), &c));
        assert_ne!(digest_entry(SwitchId(2), &a), digest_entry(SwitchId(1), &a));
    }

    #[test]
    fn publish_advances_serial_and_records_delta() {
        let store = EpochStore::new(8);
        assert_eq!(store.current().serial, 0);
        let p1 = store
            .try_publish(snapshot_with(&[1, 2]), SimTime::from_millis(1))
            .unwrap();
        assert_eq!(p1.serial, 1);
        assert!(!p1.changed.is_empty());
        let p2 = store
            .try_publish(snapshot_with(&[2, 3]), SimTime::from_millis(2))
            .unwrap();
        assert_eq!(p2.serial, 2);
        assert_eq!(store.current().serial, 2);

        let delta = store.delta_since(1).expect("retained");
        assert_eq!(delta.to_serial, 2);
        assert_eq!(delta.added.len(), 1, "rule for dst 3 added");
        assert_eq!(delta.removed.len(), 1, "rule for dst 1 removed");
        // Rule-level views mirror the digest-level ones.
        assert_eq!(delta.added_rules.len(), 1);
        assert_eq!(delta.removed_rules.len(), 1);
        assert_eq!(delta.added_rules[0].1.flow_match, FlowMatch::to_ip(3));
        assert_eq!(delta.removed_rules[0].1.flow_match, FlowMatch::to_ip(1));
        let changes = delta.rule_changes();
        assert_eq!(changes.len(), 2);
        assert!(!changes[0].installed, "removals come first");
        assert!(changes[1].installed);
        // The affected region covers both changed destinations.
        assert!(!delta.changed.is_empty());
        assert!(delta.changed.switches.contains(&SwitchId(1)));

        let empty = store.delta_since(2).expect("current serial");
        assert!(empty.is_empty());
        assert!(empty.changed.is_empty());
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
        let delta = store.delta_since(1).expect("retained");
        assert!(delta.added.is_empty());
        assert!(delta.removed.is_empty());
        assert!(delta.added_rules.is_empty());
        assert!(delta.removed_rules.is_empty());
        // ...but the affected region still records that the rule flapped.
        assert!(!delta.changed.is_empty());
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
        assert!(store.delta_since(1).is_none());
        assert!(store.delta_since(3).is_some());
        // A serial from the future is also unanswerable.
        assert!(store.delta_since(99).is_none());
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
                    // point of view, and the frozen snapshot must always be
                    // internally consistent with its digest set.
                    assert!(epoch.serial >= last_serial, "serial went backwards");
                    assert!(digest_snapshot(&epoch.snapshot)
                        .iter()
                        .eq(epoch.rules.keys()));
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
        assert_eq!(p_delta.delta_rules, p_full.delta_rules);
        assert!(delta.current().rules.keys().eq(full.current().rules.keys()));
        assert!(digest_snapshot(&delta.current().snapshot)
            .iter()
            .eq(delta.current().rules.keys()));
        let d_full = full.delta_since(1).expect("retained");
        let d_delta = delta.delta_since(1).expect("retained");
        assert_eq!(d_delta.added, d_full.added);
        assert_eq!(d_delta.removed, d_full.removed);
        assert_eq!(d_delta.changed.switches, d_full.changed.switches);
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
        assert_eq!(p.delta_rules, 0, "digest-level no-op");
        let d = store.delta_since(1).expect("retained");
        assert!(d.added.is_empty() && d.removed.is_empty());
        assert!(
            !d.changed.is_empty(),
            "the flap still perturbed the region: {:?}",
            d.changed
        );
        assert_eq!(store.current().serial, 2);
        assert_eq!(store.current().snapshot.rule_count(), 1);
    }

    #[test]
    fn published_affected_tracks_registered_interests() {
        use rvaas_topology::generators;
        use rvaas_types::ClientId;

        let topology = generators::line(4, 2);
        let store = EpochStore::new(8);
        store.attach_interest_topology(topology.clone());
        store.register_interest(ClientId(1), &QuerySpec::ReachableDestinations);
        store.register_interest(ClientId(2), &QuerySpec::ReachableDestinations);
        assert_eq!(store.registered_interests(), 2);

        // The first publish installs a dst-pinned, src-wild rule: it overlaps
        // both clients' emission interests, so both are selected (exactly —
        // one rule is far below the bulk-rebuild threshold).
        let p1 = store
            .try_publish(snapshot_with(&[1]), SimTime::from_millis(1))
            .unwrap();
        assert!(!p1.affected.is_everything());
        assert_eq!(p1.affected.len(), 2);

        // A tenant-pinned rule change on client 1's source only selects
        // client 1's query.
        let c1_ip = topology.hosts_of_client(ClientId(1))[0].ip;
        let c2_ip = topology.hosts_of_client(ClientId(2))[0].ip;
        let tenant = FlowEntry::new(
            400,
            FlowMatch::from_ip(c1_ip).field(rvaas_types::Field::IpDst, u64::from(c2_ip)),
            vec![Action::Output(PortId(1))],
        );
        let p2 = store
            .try_publish_changes(
                &[RuleChange::installed(SwitchId(2), tenant)],
                SimTime::from_millis(2),
            )
            .unwrap();
        assert!(!p2.affected.is_everything());
        assert!(p2
            .affected
            .is_affected(ClientId(1), &QuerySpec::ReachableDestinations));
        assert!(!p2
            .affected
            .is_affected(ClientId(2), &QuerySpec::ReachableDestinations));
        // The per-epoch selection is frozen into the delta history.
        let window = store.delta_between(1, 2).expect("retained");
        assert!(window
            .affected
            .is_affected(ClientId(1), &QuerySpec::ReachableDestinations));
        // ...and a wider window unions the per-epoch selections, picking the
        // epoch-1 selection of client 2 back up.
        let wide = store.delta_between(0, 2).expect("retained");
        assert!(wide
            .affected
            .is_affected(ClientId(2), &QuerySpec::ReachableDestinations));
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

        // Newest-first listing; both publishes are on record.
        let recent = store.recent_provenance(8);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].serial, 2);
        assert_eq!(recent[1].serial, 1);

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
            let mut current = self.publish_lock();
            *current = Arc::new(SnapshotEpoch {
                serial: u64::MAX,
                snapshot: current.snapshot.clone(),
                rules: current.rules.clone(),
                published_at: current.published_at,
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
