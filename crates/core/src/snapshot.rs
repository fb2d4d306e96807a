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
//! Tables are **shared copy-on-write**: a clone copies no [`FlowEntry`], an
//! edit copies the one table it changes, and dropping a snapshot frees only
//! the tables nothing else holds. Copying a table copies its entries and its
//! index but not the entries' action lists, which are shared [`Arc`]s: no
//! entry costs an allocation of its own, and freeing the copy frees no
//! action list a predecessor still uses. Two pointer-equal tables are therefore
//! equal, which is the one thing the diff behind `changes_to` uses the
//! sharing for — it skips them. Edits look before they write: a removal of
//! an absent key and an install of an entry `==` to the held one copy
//! nothing. An install of the same *rule* under another cookie or with
//! other counters is not such a no-op: the held entry is replaced (so its
//! table is copied if shared) because `table_of` hands the cookie and the
//! counters out, while the change list — which is about rules — stays empty.

use std::collections::btree_map::Entry as BTreeEntry;
use std::collections::BTreeMap;
use std::sync::Arc;

use rvaas_hsa::NetworkFunction;
use rvaas_openflow::{FlowEntry, FlowMatch};
use rvaas_topology::Topology;
use rvaas_types::{SimTime, SwitchId};

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
/// sort) plus a `(priority, match)` index so the install/modify path is
/// `O(log n)` instead of a linear scan per monitor event.
#[derive(Debug, Clone, Default)]
struct SwitchTable {
    entries: Vec<FlowEntry>,
    index: BTreeMap<(u16, FlowMatch), usize>,
}

impl SwitchTable {
    /// Adds `entry`, or replaces the entry with the same `(priority, match)`
    /// in its slot. Returns the displaced entry.
    fn upsert(&mut self, entry: FlowEntry) -> Option<FlowEntry> {
        match self.index.entry((entry.priority, entry.flow_match.clone())) {
            BTreeEntry::Occupied(slot) => {
                Some(std::mem::replace(&mut self.entries[*slot.get()], entry))
            }
            BTreeEntry::Vacant(slot) => {
                slot.insert(self.entries.len());
                self.entries.push(entry);
                None
            }
        }
    }

    /// Removes and returns the entry with the given `(priority, match)`,
    /// preserving the arrival order of the survivors.
    fn remove(&mut self, priority: u16, flow_match: &FlowMatch) -> Option<FlowEntry> {
        let pos = self.index.remove(&(priority, flow_match.clone()))?;
        for slot in self.index.values_mut() {
            if *slot > pos {
                *slot -= 1;
            }
        }
        Some(self.entries.remove(pos))
    }

    /// Where in `entries` the entry with the given `(priority, match)` is.
    fn slot_of(&self, priority: u16, flow_match: &FlowMatch) -> Option<usize> {
        self.index.get(&(priority, flow_match.clone())).copied()
    }

    fn get(&self, priority: u16, flow_match: &FlowMatch) -> Option<&FlowEntry> {
        self.slot_of(priority, flow_match)
            .map(|slot| &self.entries[slot])
    }

    fn from_entries(entries: Vec<FlowEntry>) -> Self {
        let mut table = SwitchTable {
            entries: Vec::with_capacity(entries.len()),
            index: BTreeMap::new(),
        };
        for entry in entries {
            table.upsert(entry);
        }
        table
    }
}

/// RVaaS's view of the network configuration.
#[derive(Debug, Clone, Default)]
pub struct NetworkSnapshot {
    /// Shared copy-on-write with every clone: an edit goes through
    /// [`Arc::make_mut`] on the one table it changes.
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
    /// cannot contribute.
    #[must_use]
    pub fn changes_to(&self, next: &NetworkSnapshot) -> Vec<RuleChange> {
        let shared = |a: Option<&Arc<SwitchTable>>, b: &Arc<SwitchTable>| {
            a.is_some_and(|a| Arc::ptr_eq(a, b))
        };
        let mut removals = Vec::new();
        let mut installs = Vec::new();
        for (switch, table) in &self.tables {
            let theirs = next.tables.get(switch);
            if shared(theirs, table) {
                continue;
            }
            let gone = table.entries.iter().filter(|mine| {
                theirs.is_none_or(|t| t.get(mine.priority, &mine.flow_match).is_none())
            });
            removals.extend(gone.map(|mine| RuleChange::removed(*switch, mine.clone())));
        }
        for (switch, table) in &next.tables {
            let mine = self.tables.get(switch);
            if shared(mine, table) {
                continue;
            }
            // Per priority: the first slot of `self` a kept entry may still
            // come from, `None` once an entry of that priority has arrived.
            let mut open: BTreeMap<u16, Option<usize>> = BTreeMap::new();
            for entry in &table.entries {
                let slot = mine.and_then(|t| {
                    let slot = t.slot_of(entry.priority, &entry.flow_match)?;
                    Some((slot, &t.entries[slot]))
                });
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
        removals.extend(installs);
        removals
    }

    /// Replaces the entire table of `switch` (the result of an active poll).
    /// Entries that disappear relative to the previous belief are moved to
    /// history.
    pub fn record_full_table(&mut self, switch: SwitchId, entries: Vec<FlowEntry>, at: SimTime) {
        let new_table = SwitchTable::from_entries(entries);
        if let Some(old) = self.tables.get(&switch) {
            for old_entry in &old.entries {
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
    pub fn table_of(&self, switch: SwitchId) -> &[FlowEntry] {
        self.tables
            .get(&switch)
            .map_or(&[], |t| t.entries.as_slice())
    }

    /// Iterates every believed table as `(switch, entries)` (used by the
    /// service plane to digest the whole configuration).
    pub fn tables(&self) -> impl Iterator<Item = (SwitchId, &[FlowEntry])> {
        self.tables.iter().map(|(s, t)| (*s, t.entries.as_slice()))
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
        assert_eq!(
            *snap.table_of(SwitchId(1))[0].actions,
            [Action::Output(PortId(2))]
        );
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
        // A shared table is one allocation: its entries sit at one address.
        let shared = |a: &NetworkSnapshot, b: &NetworkSnapshot| -> Vec<bool> {
            (1..=3)
                .map(|s| a.table_of(SwitchId(s)).as_ptr() == b.table_of(SwitchId(s)).as_ptr())
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
        assert_eq!(clone.table_of(SwitchId(1))[0], recoloured);
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
        assert_ne!(before.as_ptr(), after.as_ptr(), "the table was copied");
        assert_eq!(after.len(), 8);
        for held in after {
            let touched = [5, 8].map(FlowMatch::to_ip).contains(&held.flow_match);
            let shares = before
                .iter()
                .any(|old| Arc::ptr_eq(&old.actions, &held.actions));
            assert_eq!(shares, !touched, "{:?}", held.flow_match);
        }
    }
}
