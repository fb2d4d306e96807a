//! The configuration snapshot maintained by the RVaaS monitor.
//!
//! A [`NetworkSnapshot`] is RVaaS's current belief about the data-plane
//! configuration: one flow table per switch, acquired exclusively through the
//! authenticated control channel (never by trusting the provider's
//! controller). It also keeps a bounded history of recently *removed* entries
//! so that verification can optionally consider rules that existed in the
//! recent past — the defence the paper sketches against "short term
//! reconfiguration attacks" (Section IV-A).
//!
//! This module owns **rule identity**: `(priority, match)` keys a table
//! slot, an install over a present key displaces the entry in that slot, a
//! removal resolves by key, and two entries are the same rule when priority,
//! match and actions agree (stats and cookie do not count). Everything
//! downstream — the service plane's digests, deltas and HSA model — is
//! derived from the net [`RuleChange`] list a snapshot reports against its
//! predecessor, by [`NetworkSnapshot::apply_changes`] (a batch applied to
//! the predecessor) or [`NetworkSnapshot::changes_to`] (two snapshots
//! compared); nothing else decides whether an install is a no-op, a fresh
//! install or a displacement.
//!
//! Tables are **shared copy-on-write, a chunk at a time**: a table's
//! entries and its index are [`Chunked`] sequences behind one [`Arc`] per
//! switch, so a clone copies no [`FlowEntry`], an edit copies the table's
//! two chunk-pointer lists and the chunks (at most [`RULE_CHUNK`] entries
//! or keys each) it lands in, and dropping a snapshot frees only the chunks
//! nothing else holds. Copying a chunk does not copy its entries' action
//! lists, which are shared [`Arc`]s: no entry costs an allocation of its
//! own, and freeing the copy frees no action list a predecessor still uses.
//! Two pointer-equal tables, or chunks, are therefore equal, which is the
//! one thing the diff behind `changes_to` uses the sharing for — it skips
//! them. Edits look before they write: a removal of an absent key and an
//! install of an entry `==` to the held one copy nothing. An install of the
//! same *rule* under another cookie or with other counters is not such a
//! no-op: the held entry is replaced (so its chunk is copied if shared)
//! because `table_of` hands the cookie and the counters out, while the
//! change list — which is about rules — stays empty.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rvaas_hsa::NetworkFunction;
use rvaas_openflow::{FlowEntry, FlowMatch};
use rvaas_topology::Topology;
use rvaas_types::{chunked, Chunked, SimTime, SwitchId, RULE_CHUNK};

use crate::incremental::RuleChange;

/// A recently removed flow entry, kept for history-based verification.
#[derive(Debug, Clone, PartialEq)]
pub struct RemovedEntry {
    /// The switch the entry was removed from.
    pub switch: SwitchId,
    /// The removed entry.
    pub entry: FlowEntry,
    /// When the removal was observed.
    pub removed_at: SimTime,
}

/// One switch's believed flow table: the entries in arrival order (equal
/// priorities must keep insertion order, matching the data plane's stable
/// sort), each under the arrival number it was installed with, plus a
/// `(priority, match)` index to those numbers, so the install/modify path is
/// `O(log n)` instead of a linear scan per monitor event and a removal
/// shifts nothing. Both are [`Chunked`]: an edit of a shared table copies the
/// chunks it lands in, not the table.
#[derive(Debug, Clone, Default)]
struct SwitchTable {
    /// `(arrival, entry)`, ascending by arrival.
    entries: Chunked<(u64, FlowEntry), RULE_CHUNK>,
    /// `(priority, match, arrival)`, ascending by `(priority, match)`.
    index: Chunked<(u16, FlowMatch, u64), RULE_CHUNK>,
    /// The arrival number the next fresh install gets.
    next: u64,
}

impl SwitchTable {
    /// Adds `entry`, or replaces the entry with the same `(priority, match)`
    /// in its slot. Returns the displaced entry.
    fn upsert(&mut self, entry: FlowEntry) -> Option<FlowEntry> {
        if let Some((_, arrival)) = self.slot_of(entry.priority, &entry.flow_match) {
            let at = self.at(arrival);
            return Some(self.entries.replace(at, (arrival, entry)).1);
        }
        let arrival = self.next;
        self.next += 1;
        let key = (entry.priority, entry.flow_match.clone(), arrival);
        self.index.insert(self.key_at(key.0, &key.1), key);
        self.entries.insert(self.entries.len(), (arrival, entry));
        None
    }

    /// Removes and returns the entry with the given `(priority, match)`,
    /// preserving the arrival order of the survivors.
    fn remove(&mut self, priority: u16, flow_match: &FlowMatch) -> Option<FlowEntry> {
        let (key, arrival) = self.slot_of(priority, flow_match)?;
        self.index.remove(key);
        Some(self.entries.remove(self.at(arrival)).1)
    }

    /// Where in `index` the key `(priority, match)` is or would go.
    fn key_at(&self, priority: u16, flow_match: &FlowMatch) -> usize {
        self.index
            .partition_point(|(p, m, _)| (*p, m) < (priority, flow_match))
    }

    /// Where in `entries` the entry that arrived as `arrival` is.
    fn at(&self, arrival: u64) -> usize {
        self.entries.partition_point(|(held, _)| *held < arrival)
    }

    /// Where in `index` the key `(priority, match)` is, and the arrival
    /// number of its entry (ascending in `entries`' order).
    fn slot_of(&self, priority: u16, flow_match: &FlowMatch) -> Option<(usize, u64)> {
        let key = self.key_at(priority, flow_match);
        let (p, m, arrival) = self.index.get(key)?;
        ((*p, m) == (priority, flow_match)).then_some((key, *arrival))
    }

    /// The entry with the given `(priority, match)` and its arrival number.
    fn find(&self, priority: u16, flow_match: &FlowMatch) -> Option<(u64, &FlowEntry)> {
        let (_, arrival) = self.slot_of(priority, flow_match)?;
        let (_, entry) = self.entries.get(self.at(arrival))?;
        Some((arrival, entry))
    }

    fn get(&self, priority: u16, flow_match: &FlowMatch) -> Option<&FlowEntry> {
        self.find(priority, flow_match).map(|(_, entry)| entry)
    }

    /// The entries in arrival order.
    fn iter(&self) -> TableIter<'_> {
        TableIter(self.entries.iter())
    }

    /// The table `upsert`ing `entries` in order into an empty one builds, in
    /// one sort: an entry whose key an earlier one holds displaces it in
    /// that slot.
    fn from_entries(entries: Vec<FlowEntry>) -> Self {
        let mut keyed: Vec<(u16, &FlowMatch, usize)> = entries
            .iter()
            .enumerate()
            .map(|(at, entry)| (entry.priority, &entry.flow_match, at))
            .collect();
        keyed.sort_unstable();
        // Per position: the position of the entry that ends up in its slot,
        // for the first position of every key.
        let mut holder: Vec<Option<usize>> = vec![None; entries.len()];
        let index = keyed
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
            .map(|same| {
                let (first, last) = (same[0].2, same[same.len() - 1].2);
                holder[first] = Some(last);
                (same[0].0, same[0].1.clone(), first as u64)
            })
            .collect();
        let mut entries: Vec<Option<FlowEntry>> = entries.into_iter().map(Some).collect();
        let arrivals: Vec<(u64, FlowEntry)> = (0..entries.len())
            .filter_map(|at| Some((at as u64, entries[holder[at]?].take()?)))
            .collect();
        SwitchTable {
            next: entries.len() as u64,
            entries: arrivals.into_iter().collect(),
            index,
        }
    }
}

/// The table of a switch the snapshot holds nothing for.
static EMPTY_TABLE: SwitchTable = SwitchTable {
    entries: Chunked::new(),
    index: Chunked::new(),
    next: 0,
};

/// The entries RVaaS believes are installed on one switch, in arrival order
/// (what [`NetworkSnapshot::table_of`] and [`NetworkSnapshot::tables`] hand
/// out). A view: it borrows the snapshot's table and copies nothing.
#[derive(Clone, Copy)]
pub struct TableEntries<'a> {
    table: &'a SwitchTable,
}

impl<'a> TableEntries<'a> {
    /// The entries in arrival order.
    #[must_use]
    pub fn iter(&self) -> TableIter<'a> {
        self.table.iter()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.entries.len()
    }

    /// True when the switch holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.entries.is_empty()
    }

    /// True when the table holds an entry `==` to `entry`.
    #[must_use]
    pub fn contains(&self, entry: &FlowEntry) -> bool {
        self.table.get(entry.priority, &entry.flow_match) == Some(entry)
    }

    /// The entries in arrival order, in one vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<FlowEntry> {
        self.iter().cloned().collect()
    }

    /// True when both views borrow the very same table (by pointer): one
    /// snapshot shares it with the other, and no edit in between copied it.
    #[must_use]
    pub fn same_table(&self, other: TableEntries<'_>) -> bool {
        std::ptr::eq(self.table, other.table)
    }

    /// How many entries and index keys this table holds in chunks `older`'s
    /// does not share: what the edits that turned `older` into it copied.
    #[must_use]
    pub fn unshared_with(&self, older: TableEntries<'_>) -> usize {
        let (mine, theirs) = (self.table, older.table);
        mine.entries.unshared_with(&theirs.entries) + mine.index.unshared_with(&theirs.index)
    }
}

impl<'a> IntoIterator for TableEntries<'a> {
    type Item = &'a FlowEntry;
    type IntoIter = TableIter<'a>;

    fn into_iter(self) -> TableIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for TableEntries<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Two views are equal when they hold equal entries in the same order.
impl PartialEq for TableEntries<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<const N: usize> PartialEq<[FlowEntry; N]> for TableEntries<'_> {
    fn eq(&self, other: &[FlowEntry; N]) -> bool {
        self.len() == N && self.iter().eq(other.iter())
    }
}

/// Iterator over a [`TableEntries`] view, in arrival order.
#[derive(Debug, Clone)]
pub struct TableIter<'a>(chunked::Iter<'a, (u64, FlowEntry)>);

impl<'a> Iterator for TableIter<'a> {
    type Item = &'a FlowEntry;

    fn next(&mut self) -> Option<&'a FlowEntry> {
        self.0.next().map(|(_, entry)| entry)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for TableIter<'_> {}

/// RVaaS's view of the network configuration: one table per switch, each
/// shared with every clone and, inside, shared chunk by chunk with the
/// snapshot it was edited from (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct NetworkSnapshot {
    /// Shared copy-on-write with every clone: an edit goes through
    /// [`Arc::make_mut`] on the one table it changes, which copies that
    /// table's chunk-pointer lists, and then copies the chunks it edits.
    tables: BTreeMap<SwitchId, Arc<SwitchTable>>,
    removed: Vec<RemovedEntry>,
    /// Time of the last update applied to the snapshot.
    last_update: SimTime,
    /// How long removed entries are retained for history-based checks.
    history_window: SimTime,
}

impl NetworkSnapshot {
    /// Creates an empty snapshot with the given history retention window.
    #[must_use]
    pub fn new(history_window: SimTime) -> Self {
        NetworkSnapshot {
            history_window,
            ..NetworkSnapshot::default()
        }
    }

    /// A snapshot holding `rules`, exactly as recording each of them
    /// installed at `at`, in order, into [`NetworkSnapshot::new`] would
    /// leave it (an entry whose `(priority, match)` an earlier one holds
    /// displaces that one in its slot), built in one pass: the rules are
    /// grouped by switch and each table is built with one sort.
    #[must_use]
    pub fn with_rules(
        history_window: SimTime,
        rules: impl IntoIterator<Item = (SwitchId, FlowEntry)>,
        at: SimTime,
    ) -> Self {
        let mut by_switch: BTreeMap<SwitchId, Vec<FlowEntry>> = BTreeMap::new();
        for (switch, entry) in rules {
            by_switch.entry(switch).or_default().push(entry);
        }
        let mut snapshot = NetworkSnapshot::new(history_window);
        snapshot.tables = by_switch
            .into_iter()
            .map(|(switch, entries)| (switch, Arc::new(SwitchTable::from_entries(entries))))
            .collect();
        snapshot.touch(at);
        snapshot
    }

    /// Time of the most recent update.
    #[must_use]
    pub fn last_update(&self) -> SimTime {
        self.last_update
    }

    /// Total number of entries currently believed installed.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.tables.values().map(|t| t.entries.len()).sum()
    }

    /// Number of removed entries currently retained in history.
    #[must_use]
    pub fn history_len(&self) -> usize {
        self.removed.len()
    }

    /// Records that `entry` is installed on `switch` (add or modify).
    pub fn record_installed(&mut self, switch: SwitchId, entry: FlowEntry, at: SimTime) {
        self.put(switch, entry);
        self.touch(at);
    }

    /// Installs `entry` on `switch` and returns the entry it displaced. Looks
    /// before it writes: an entry `==` to the held one displaces itself and
    /// copies no shared table.
    fn put(&mut self, switch: SwitchId, entry: FlowEntry) -> Option<FlowEntry> {
        let table = self.tables.entry(switch).or_default();
        if table.get(entry.priority, &entry.flow_match) == Some(&entry) {
            return Some(entry);
        }
        Arc::make_mut(table).upsert(entry)
    }

    /// Removes and returns the entry `switch` holds under `(priority,
    /// match)`. Looks before it writes: an absent key copies no shared table.
    fn take(
        &mut self,
        switch: SwitchId,
        priority: u16,
        flow_match: &FlowMatch,
    ) -> Option<FlowEntry> {
        let table = self.tables.get_mut(&switch)?;
        table.get(priority, flow_match)?;
        Arc::make_mut(table).remove(priority, flow_match)
    }

    /// Records that `entry` was removed from `switch`.
    pub fn record_removed(&mut self, switch: SwitchId, entry: &FlowEntry, at: SimTime) {
        self.take(switch, entry.priority, &entry.flow_match);
        self.removed.push(RemovedEntry {
            switch,
            entry: entry.clone(),
            removed_at: at,
        });
        self.touch(at);
    }

    /// Applies a batch of observed changes and returns the *effective* ones,
    /// in order: an install of an entry that is already installed and a
    /// removal of an absent key are dropped, an install over a present key
    /// with other actions becomes the removal of the displaced entry (marked
    /// [`RuleChange::displaced`]: it kept its slot) plus the install, and a
    /// removal names the entry the table actually held.
    /// A rule that flaps within the batch stays in the list (both changes
    /// took effect), so a consumer can tell the region was perturbed.
    pub fn apply_changes(&mut self, changes: &[RuleChange], at: SimTime) -> Vec<RuleChange> {
        let mut effective = Vec::with_capacity(changes.len());
        for change in changes {
            let (switch, entry) = (change.switch, &change.entry);
            if change.installed {
                match self.put(switch, entry.clone()) {
                    Some(old) if old.actions == entry.actions => continue,
                    Some(old) => effective.push(RuleChange::displaced(switch, old)),
                    None => {}
                }
                effective.push(change.clone());
            } else if let Some(held) = self.take(switch, entry.priority, &entry.flow_match) {
                self.removed.push(RemovedEntry {
                    switch,
                    entry: held.clone(),
                    removed_at: at,
                });
                effective.push(RuleChange::removed(switch, held));
            }
        }
        self.touch(at);
        effective
    }

    /// The effective changes that turn `self` into `next`: the removals of
    /// every entry that left its slot, then the installs of every entry
    /// that did not keep one, in `next`'s per-switch arrival order. An entry
    /// **kept its slot** when it stands, among `next`'s entries of its
    /// priority, before any that arrived and behind the ones `self` held
    /// before it — applied in order, the list removes, then appends behind
    /// equal-priority peers, so it can leave exactly those where they are.
    /// One that kept its slot with other actions is reported as
    /// [`NetworkSnapshot::apply_changes`] reports a displacement: its
    /// removal, marked [`RuleChange::displaced`], right before the install.
    /// One that holds its key in both snapshots but not its slot (removed
    /// and installed again in between) is a removal and an install, even
    /// with the same actions. A table the two snapshots share is skipped: it
    /// cannot contribute; so is every entry of a chunk of a table they both
    /// hold, which is neither gone nor moved (only its slot is read).
    #[must_use]
    pub fn changes_to(&self, next: &NetworkSnapshot) -> Vec<RuleChange> {
        let shared = |a: Option<&Arc<SwitchTable>>, b: &Arc<SwitchTable>| {
            a.is_some_and(|a| Arc::ptr_eq(a, b))
        };
        let mut removals = Vec::new();
        let mut installs = Vec::new();
        for (switch, table) in &self.tables {
            let theirs = next.table(*switch);
            if shared(next.tables.get(switch), table) {
                continue;
            }
            // A chunk `next` holds too holds nothing `next` lacks.
            let unshared = table.entries.chunks_shared_with(&theirs.entries);
            let gone = unshared
                .filter(|(_, shared)| !shared)
                .flat_map(|(chunk, _)| chunk)
                .filter(|(_, mine)| theirs.get(mine.priority, &mine.flow_match).is_none());
            removals.extend(gone.map(|(_, mine)| RuleChange::removed(*switch, mine.clone())));
        }
        for (switch, table) in &next.tables {
            let mine = self.table(*switch);
            if shared(self.tables.get(switch), table) {
                continue;
            }
            // Per priority: the first slot (arrival number) of `self` a kept
            // entry may still come from, `None` once an entry of that
            // priority has arrived.
            let mut open: BTreeMap<u16, Option<u64>> = BTreeMap::new();
            let chunks = table.entries.chunks_shared_with(&mine.entries);
            for (chunk, shared) in chunks {
                for (arrival, entry) in chunk {
                    // An entry of a chunk `self` holds too is held there as here.
                    let slot = if shared {
                        Some((*arrival, entry))
                    } else {
                        mine.find(entry.priority, &entry.flow_match)
                    };
                    let from = open.entry(entry.priority).or_insert(Some(0));
                    match slot {
                        Some((slot, held)) if from.is_some_and(|from| slot >= from) => {
                            *from = Some(slot + 1);
                            if held.actions != entry.actions {
                                installs.push(RuleChange::displaced(*switch, held.clone()));
                                installs.push(RuleChange::installed(*switch, entry.clone()));
                            }
                        }
                        _ => {
                            *from = None;
                            if let Some((_, held)) = slot {
                                removals.push(RuleChange::removed(*switch, held.clone()));
                            }
                            installs.push(RuleChange::installed(*switch, entry.clone()));
                        }
                    }
                }
            }
        }
        removals.extend(installs);
        removals
    }

    /// Replaces the entire table of `switch` (the result of an active poll).
    /// Entries that disappear relative to the previous belief are moved to
    /// history.
    pub fn record_full_table(&mut self, switch: SwitchId, entries: Vec<FlowEntry>, at: SimTime) {
        let new_table = SwitchTable::from_entries(entries);
        if let Some(old) = self.tables.get(&switch) {
            for old_entry in old.iter() {
                if new_table
                    .get(old_entry.priority, &old_entry.flow_match)
                    .is_none()
                {
                    self.removed.push(RemovedEntry {
                        switch,
                        entry: old_entry.clone(),
                        removed_at: at,
                    });
                }
            }
        }
        self.tables.insert(switch, Arc::new(new_table));
        self.touch(at);
    }

    fn touch(&mut self, at: SimTime) {
        self.last_update = self.last_update.max(at);
        let cutoff = self.last_update.saturating_sub(self.history_window);
        self.removed.retain(|r| r.removed_at >= cutoff);
    }

    /// The entries RVaaS believes are installed on `switch`.
    #[must_use]
    pub fn table_of(&self, switch: SwitchId) -> TableEntries<'_> {
        TableEntries {
            table: self.table(switch),
        }
    }

    /// The table of `switch`, empty when the snapshot holds none.
    fn table(&self, switch: SwitchId) -> &SwitchTable {
        self.tables.get(&switch).map_or(&EMPTY_TABLE, Arc::as_ref)
    }

    /// Iterates every believed table as `(switch, entries)` (used by the
    /// service plane to digest the whole configuration).
    pub fn tables(&self) -> impl Iterator<Item = (SwitchId, TableEntries<'_>)> {
        self.tables
            .iter()
            .map(|(s, t)| (*s, TableEntries { table: t }))
    }

    /// Builds the HSA network function for the *current* belief, wiring taken
    /// from the trusted topology.
    #[must_use]
    pub fn to_network_function(&self, topology: &Topology) -> NetworkFunction {
        self.build_function(topology, false)
    }

    /// Builds the HSA network function for the current belief *plus* every
    /// rule removed within the history window (used to defeat flapping
    /// attacks: a rule that existed recently is still considered).
    #[must_use]
    pub fn to_network_function_with_history(&self, topology: &Topology) -> NetworkFunction {
        self.build_function(topology, true)
    }

    fn build_function(&self, topology: &Topology, include_history: bool) -> NetworkFunction {
        let mut nf = NetworkFunction::new();
        for sw in topology.switches() {
            nf.declare_switch(sw.id, sw.ports.clone());
        }
        for link in topology.links() {
            nf.connect(link.a, link.b);
        }
        for sw in topology.switches() {
            let mut rules: Vec<rvaas_hsa::RuleTransfer> = self
                .table_of(sw.id)
                .iter()
                .map(FlowEntry::to_rule_transfer)
                .collect();
            if include_history {
                rules.extend(
                    self.removed
                        .iter()
                        .filter(|r| r.switch == sw.id)
                        .map(|r| r.entry.to_rule_transfer()),
                );
            }
            nf.set_transfer(sw.id, rvaas_hsa::SwitchTransfer::from_rules(rules));
        }
        nf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_openflow::{Action, FlowMatch};
    use rvaas_topology::generators;
    use rvaas_types::PortId;

    fn entry(dst: u32, port: u32) -> FlowEntry {
        FlowEntry::new(
            10,
            FlowMatch::to_ip(dst),
            vec![Action::Output(PortId(port))],
        )
    }

    #[test]
    fn install_modify_remove_lifecycle() {
        let mut snap = NetworkSnapshot::new(SimTime::from_secs(1));
        snap.record_installed(SwitchId(1), entry(5, 1), SimTime::from_millis(1));
        assert_eq!(snap.rule_count(), 1);
        // Same match/priority replaces.
        snap.record_installed(SwitchId(1), entry(5, 2), SimTime::from_millis(2));
        assert_eq!(snap.rule_count(), 1);
        assert_eq!(snap.table_of(SwitchId(1)), [entry(5, 2)]);
        // Removal moves the entry to history.
        let removed = entry(5, 2);
        snap.record_removed(SwitchId(1), &removed, SimTime::from_millis(3));
        assert_eq!(snap.rule_count(), 0);
        assert_eq!(snap.history_len(), 1);
        assert_eq!(snap.last_update(), SimTime::from_millis(3));
    }

    #[test]
    fn history_expires_outside_window() {
        let mut snap = NetworkSnapshot::new(SimTime::from_millis(10));
        snap.record_installed(SwitchId(1), entry(5, 1), SimTime::from_millis(1));
        snap.record_removed(SwitchId(1), &entry(5, 1), SimTime::from_millis(2));
        assert_eq!(snap.history_len(), 1);
        // An update far in the future expires the history entry.
        snap.record_installed(SwitchId(1), entry(6, 1), SimTime::from_millis(50));
        assert_eq!(snap.history_len(), 0);
    }

    #[test]
    fn full_table_poll_detects_silent_removals() {
        let mut snap = NetworkSnapshot::new(SimTime::from_secs(1));
        snap.record_installed(SwitchId(1), entry(5, 1), SimTime::from_millis(1));
        snap.record_installed(SwitchId(1), entry(6, 1), SimTime::from_millis(1));
        // The poll only reports the rule for dst 6: dst 5 must move to history.
        snap.record_full_table(SwitchId(1), vec![entry(6, 1)], SimTime::from_millis(5));
        assert_eq!(snap.rule_count(), 1);
        assert_eq!(snap.history_len(), 1);
    }

    #[test]
    fn network_function_with_and_without_history() {
        let topo = generators::line(2, 1);
        let mut snap = NetworkSnapshot::new(SimTime::from_secs(1));
        snap.record_installed(SwitchId(1), entry(5, 1), SimTime::from_millis(1));
        snap.record_removed(SwitchId(1), &entry(5, 1), SimTime::from_millis(2));
        let current = snap.to_network_function(&topo);
        let with_history = snap.to_network_function_with_history(&topo);
        assert_eq!(current.rule_count(), 0);
        assert_eq!(with_history.rule_count(), 1);
        assert_eq!(current.switch_count(), 2);
    }

    #[test]
    fn indexed_table_preserves_arrival_order_across_removals() {
        // The (priority, match) index must never reorder survivors: equal
        // priorities resolve by arrival order in the data plane's stable sort.
        let mut snap = NetworkSnapshot::new(SimTime::from_secs(1));
        for dst in 0..8u32 {
            snap.record_installed(SwitchId(1), entry(dst, 1), SimTime::from_millis(1));
        }
        // Remove from the middle, then re-install and modify around the hole.
        snap.record_removed(SwitchId(1), &entry(3, 1), SimTime::from_millis(2));
        snap.record_installed(SwitchId(1), entry(8, 1), SimTime::from_millis(3));
        snap.record_installed(SwitchId(1), entry(6, 9), SimTime::from_millis(4));
        let order: Vec<u32> = snap
            .table_of(SwitchId(1))
            .iter()
            .map(|e| match e.actions[0] {
                Action::Output(p) => p.0,
                _ => unreachable!(),
            })
            .collect();
        // dst order: 0,1,2,4,5,6,7,8 — with dst 6's action modified in place.
        assert_eq!(order, vec![1, 1, 1, 1, 1, 9, 1, 1]);
        assert_eq!(snap.rule_count(), 8);
        // Removing via the index still works after the shift.
        snap.record_removed(SwitchId(1), &entry(8, 1), SimTime::from_millis(5));
        assert_eq!(snap.rule_count(), 7);
    }

    #[test]
    fn net_change_lists_drop_no_ops_and_expand_displacements() {
        let at = SimTime::from_millis(2);
        let mut before = NetworkSnapshot::new(SimTime::from_secs(1));
        for dst in [5, 6] {
            before.record_installed(SwitchId(1), entry(dst, 1), SimTime::from_millis(1));
        }
        let on = |dst, port| RuleChange::installed(SwitchId(1), entry(dst, port));
        let off = |dst, port| RuleChange::removed(SwitchId(1), entry(dst, port));
        let displaced = |dst, port| RuleChange::displaced(SwitchId(1), entry(dst, port));

        let mut after = before.clone();
        let effective = after.apply_changes(
            &[
                on(5, 1),  // already installed (stats and cookie do not count)
                off(9, 1), // never installed
                on(6, 2),  // displaces dst 6 in its slot
                on(7, 1),  // flaps...
                off(7, 3), // ...and a removal resolves by key, not actions
                on(8, 1),
            ],
            at,
        );
        let expected = [displaced(6, 1), on(6, 2), on(7, 1), off(7, 1), on(8, 1)];
        assert_eq!(effective, expected);
        assert_eq!(
            after.table_of(SwitchId(1)),
            [entry(5, 1), entry(6, 2), entry(8, 1)]
        );
        assert_eq!(after.history_len(), 1, "only what a table held is history");

        // Comparing the two snapshots yields the same list minus the flap:
        // removals first, installs in arrival order, each displaced entry
        // right before the install that took its slot.
        let net = [displaced(6, 1), on(6, 2), on(8, 1)];
        assert_eq!(before.changes_to(&after), net);
        assert_eq!(after.changes_to(&after), []);
        let undo = [off(8, 1), displaced(6, 2), on(6, 1)];
        assert_eq!(after.changes_to(&before), undo);

        // Holding its key in both snapshots is not keeping its slot: dst 5,
        // removed and installed again, now stands behind its peers.
        let mut moved = after.clone();
        moved.record_removed(SwitchId(1), &entry(5, 1), at);
        moved.record_installed(SwitchId(1), entry(5, 1), at);
        assert_eq!(after.changes_to(&moved), [off(5, 1), on(5, 1)]);
        assert_eq!(
            moved.changes_to(&after),
            [off(6, 2), off(8, 1), on(6, 2), on(8, 1)]
        );
    }

    #[test]
    fn edits_unshare_only_the_tables_they_change() {
        let at = SimTime::from_millis(2);
        let mut source = NetworkSnapshot::new(SimTime::from_secs(1));
        for switch in 1..=3 {
            for dst in [5, 6] {
                source.record_installed(SwitchId(switch), entry(dst, 1), SimTime::from_millis(1));
            }
        }
        let shared = |a: &NetworkSnapshot, b: &NetworkSnapshot| -> Vec<bool> {
            (1..=3)
                .map(|s| Arc::ptr_eq(&a.tables[&SwitchId(s)], &b.tables[&SwitchId(s)]))
                .collect()
        };
        let frozen: Vec<_> = source.tables().map(|(s, t)| (s, t.to_vec())).collect();

        // A batch that changes nothing copies nothing, on either edit path.
        let mut clone = source.clone();
        let no_ops = [
            RuleChange::installed(SwitchId(1), entry(5, 1)), // == the held entry
            RuleChange::removed(SwitchId(2), entry(9, 1)),   // absent key
            RuleChange::removed(SwitchId(7), entry(5, 1)),   // absent switch
        ];
        assert_eq!(clone.apply_changes(&no_ops, at), []);
        clone.record_installed(SwitchId(3), entry(6, 1), at);
        clone.record_removed(SwitchId(3), &entry(9, 1), at);
        assert_eq!(shared(&source, &clone), [true, true, true]);
        assert_eq!(source.changes_to(&clone), []);

        // One rule unshares exactly its switch's table; the source is as it was.
        let one = [RuleChange::installed(SwitchId(2), entry(7, 1))];
        assert_eq!(clone.apply_changes(&one, at), one);
        assert_eq!(shared(&source, &clone), [true, false, true]);
        assert_eq!(source.changes_to(&clone), one);
        let now: Vec<_> = source.tables().map(|(s, t)| (s, t.to_vec())).collect();
        assert_eq!(now, frozen);

        // The same rule under another cookie changes no rule, but `table_of`
        // reads the cookie, so the held entry is replaced.
        let mut recoloured = entry(5, 1);
        recoloured.cookie = rvaas_types::FlowCookie(7);
        let install = [RuleChange::installed(SwitchId(1), recoloured.clone())];
        assert_eq!(clone.apply_changes(&install, at), []);
        assert_eq!(clone.table_of(SwitchId(1)).iter().next(), Some(&recoloured));
        assert_eq!(shared(&source, &clone), [false, false, true]);
        assert_eq!(source.changes_to(&clone), one);
    }

    #[test]
    fn a_copied_table_shares_every_untouched_action_list() {
        let mut source = NetworkSnapshot::new(SimTime::from_secs(1));
        for dst in 0..8 {
            source.record_installed(SwitchId(1), entry(dst, 1), SimTime::from_millis(1));
        }
        let mut next = source.clone();
        let changes = [
            RuleChange::removed(SwitchId(1), entry(2, 1)),
            RuleChange::installed(SwitchId(1), entry(5, 9)),
            RuleChange::installed(SwitchId(1), entry(8, 1)),
        ];
        next.apply_changes(&changes, SimTime::from_millis(2));
        let (before, after) = (source.table_of(SwitchId(1)), next.table_of(SwitchId(1)));
        assert_eq!(
            after.unshared_with(before),
            8 + 8,
            "its entries and index were copied"
        );
        assert_eq!(after.len(), 8);
        for held in after {
            let touched = [5, 8].map(FlowMatch::to_ip).contains(&held.flow_match);
            let shares = before
                .iter()
                .any(|old| Arc::ptr_eq(&old.actions, &held.actions));
            assert_eq!(shares, !touched, "{:?}", held.flow_match);
        }
    }

    #[test]
    fn a_bulk_build_equals_recording_every_rule_in_order() {
        let at = SimTime::from_millis(3);
        // Three switches, interleaved, with a displacement, a re-install of
        // the same entry and two priorities sharing one match.
        let mut rules: Vec<(SwitchId, FlowEntry)> = (0..120u32)
            .map(|i| (SwitchId(i % 3), entry(i % 50, i % 7)))
            .collect();
        rules.push((
            SwitchId(1),
            FlowEntry::new(20, FlowMatch::to_ip(4), vec![Action::Drop]),
        ));
        rules.push((SwitchId(1), entry(4, 1)));
        let mut recorded = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in rules.clone() {
            recorded.record_installed(switch, entry, at);
        }
        let bulk = NetworkSnapshot::with_rules(SimTime::from_secs(1), rules, at);
        assert_eq!(bulk.last_update(), recorded.last_update());
        assert_eq!(bulk.rule_count(), recorded.rule_count());
        for switch in 0..3 {
            assert_eq!(
                bulk.table_of(SwitchId(switch)),
                recorded.table_of(SwitchId(switch))
            );
        }
        assert_eq!(recorded.changes_to(&bulk), []);
        assert_eq!(bulk.changes_to(&recorded), []);
        // The bulk tables edit like recorded ones.
        let mut edited = bulk.clone();
        edited.record_removed(SwitchId(2), &entry(17, 1), at);
        edited.record_installed(SwitchId(2), entry(17, 5), at);
        assert_eq!(
            bulk.changes_to(&edited),
            [
                RuleChange::removed(SwitchId(2), entry(17, 3)),
                RuleChange::installed(SwitchId(2), entry(17, 5))
            ]
        );
    }

    #[test]
    fn an_edit_of_a_large_table_copies_chunks_not_the_table() {
        let at = SimTime::from_millis(2);
        let rules = (0..16 * RULE_CHUNK as u32).map(|dst| (SwitchId(1), entry(dst, 1)));
        let source = NetworkSnapshot::with_rules(SimTime::from_secs(1), rules, at);
        let mut next = source.clone();
        let changes = [
            RuleChange::removed(SwitchId(1), entry(100, 1)),
            RuleChange::installed(SwitchId(1), entry(100_000, 1)),
            RuleChange::installed(SwitchId(1), entry(300, 2)),
        ];
        assert_eq!(
            next.apply_changes(&changes, at).len(),
            4,
            "a displacement is two"
        );
        let copied = next
            .table_of(SwitchId(1))
            .unshared_with(source.table_of(SwitchId(1)));
        // Entries and index: each change copies at most two chunks of each.
        assert!(copied > 0 && copied <= 3 * 2 * 2 * RULE_CHUNK, "{copied}");
        assert_eq!(source.table_of(SwitchId(1)).len(), 16 * RULE_CHUNK);
        assert_eq!(source.changes_to(&next).len(), 4);
    }
}
