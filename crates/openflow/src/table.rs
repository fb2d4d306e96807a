//! Flow tables and meter tables.
//!
//! The [`FlowTable`] holds prioritised [`FlowEntry`]s with per-entry
//! counters, supports the Flow-Mod operations (add / modify / delete, strict
//! and non-strict), and converts itself into an HSA
//! [`SwitchTransfer`](rvaas_hsa::SwitchTransfer) so that whoever holds a copy
//! of the table (the RVaaS configuration monitor) can analyse it symbolically.
//! The [`MeterTable`] models simple rate limiters, enough for the fairness /
//! network-neutrality queries.

use std::sync::Arc;

use rvaas_hsa::{RuleTransfer, SwitchTransfer};
use rvaas_types::{FlowCookie, Header, PortId};

use crate::action::{self, Action};
use crate::flowmatch::FlowMatch;

/// Per-entry traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowStats {
    /// Packets matched by the entry.
    pub packets: u64,
    /// Bytes matched by the entry (payload length; headers are uniform).
    pub bytes: u64,
}

/// A single flow-table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntry {
    /// Priority: higher matches first.
    pub priority: u16,
    /// Match expression.
    pub flow_match: FlowMatch,
    /// Action list applied to matching packets. Shared, so copying an entry
    /// (a table's copy-on-write, a change list, a removal record) allocates
    /// nothing.
    pub actions: Arc<[Action]>,
    /// Cookie chosen by the installing controller.
    pub cookie: FlowCookie,
    /// Counters.
    pub stats: FlowStats,
}

impl FlowEntry {
    /// Creates an entry with zeroed counters.
    #[must_use]
    pub fn new(priority: u16, flow_match: FlowMatch, actions: impl Into<Arc<[Action]>>) -> Self {
        FlowEntry {
            priority,
            flow_match,
            actions: actions.into(),
            cookie: FlowCookie(0),
            stats: FlowStats::default(),
        }
    }

    /// Sets the cookie (builder style).
    #[must_use]
    pub fn with_cookie(mut self, cookie: FlowCookie) -> Self {
        self.cookie = cookie;
        self
    }

    /// Converts the entry to its HSA rule model.
    #[must_use]
    pub fn to_rule_transfer(&self) -> RuleTransfer {
        let mut rule = RuleTransfer::new(
            self.priority,
            self.flow_match.cube,
            action::to_rule_action(&self.actions),
        )
        .with_cookie(self.cookie);
        if let Some(port) = self.flow_match.in_port {
            rule = rule.on_port(port);
        }
        rule
    }
}

/// A switch flow table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
    capacity: Option<usize>,
}

impl FlowTable {
    /// Creates an empty, unbounded table.
    #[must_use]
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Creates an empty table that rejects additions beyond `capacity`.
    #[must_use]
    pub fn with_capacity_limit(capacity: usize) -> Self {
        FlowTable {
            entries: Vec::new(),
            capacity: Some(capacity),
        }
    }

    /// Number of installed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, highest priority first.
    #[must_use]
    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }

    /// Adds an entry. An existing entry with the same match and priority is
    /// replaced (OpenFlow add semantics). Returns `false` if the table is
    /// full.
    pub fn add(&mut self, entry: FlowEntry) -> bool {
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.priority == entry.priority && e.flow_match == entry.flow_match)
        {
            *existing = entry;
            return true;
        }
        if let Some(cap) = self.capacity {
            if self.entries.len() >= cap {
                return false;
            }
        }
        self.entries.push(entry);
        self.entries
            .sort_by_key(|entry| std::cmp::Reverse(entry.priority));
        true
    }

    /// Modifies the actions of all entries whose match equals `flow_match`
    /// (strict modify). Returns the number of entries changed.
    pub fn modify_strict(
        &mut self,
        priority: u16,
        flow_match: &FlowMatch,
        actions: &[Action],
    ) -> usize {
        let actions: Arc<[Action]> = actions.into();
        let mut changed = 0;
        for e in &mut self.entries {
            if e.priority == priority && &e.flow_match == flow_match {
                e.actions = Arc::clone(&actions);
                changed += 1;
            }
        }
        changed
    }

    /// Deletes entries whose match is a subset of `flow_match` (non-strict
    /// OpenFlow delete). Returns the removed entries (used to generate
    /// Flow-Removed messages).
    pub fn delete_matching(&mut self, flow_match: &FlowMatch) -> Vec<FlowEntry> {
        let (removed, kept): (Vec<_>, Vec<_>) = self
            .entries
            .drain(..)
            .partition(|e| e.flow_match.is_subset_of(flow_match));
        self.entries = kept;
        removed
    }

    /// Deletes entries carrying the given cookie. Returns the removed entries.
    pub fn delete_by_cookie(&mut self, cookie: FlowCookie) -> Vec<FlowEntry> {
        let (removed, kept): (Vec<_>, Vec<_>) =
            self.entries.drain(..).partition(|e| e.cookie == cookie);
        self.entries = kept;
        removed
    }

    /// Finds the highest-priority entry matching a packet, without updating
    /// counters.
    #[must_use]
    pub fn lookup(&self, in_port: PortId, header: &Header) -> Option<&FlowEntry> {
        self.entries
            .iter()
            .find(|e| e.flow_match.matches(in_port, header))
    }

    /// Finds the highest-priority matching entry and bumps its counters.
    pub fn lookup_and_count(
        &mut self,
        in_port: PortId,
        header: &Header,
        bytes: usize,
    ) -> Option<&FlowEntry> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.flow_match.matches(in_port, header))?;
        let entry = &mut self.entries[idx];
        entry.stats.packets += 1;
        entry.stats.bytes += bytes as u64;
        Some(&self.entries[idx])
    }

    /// Converts the whole table into an HSA switch transfer function.
    #[must_use]
    pub fn to_switch_transfer(&self) -> SwitchTransfer {
        SwitchTransfer::from_rules(self.entries.iter().map(FlowEntry::to_rule_transfer))
    }
}

/// One meter band: traffic above `rate_kbps` is dropped (the only band type
/// the experiments need).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeterBand {
    /// Drop threshold in kilobits per second.
    pub rate_kbps: u64,
}

/// A meter-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeterEntry {
    /// Meter identifier referenced by [`Action::Meter`].
    pub id: u32,
    /// Bands (all applied; the lowest threshold dominates).
    pub bands: Vec<MeterBand>,
}

impl MeterEntry {
    /// The effective rate limit (minimum band threshold), if any band exists.
    #[must_use]
    pub fn effective_rate_kbps(&self) -> Option<u64> {
        self.bands.iter().map(|b| b.rate_kbps).min()
    }
}

/// The switch meter table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeterTable {
    meters: Vec<MeterEntry>,
}

impl MeterTable {
    /// Creates an empty meter table.
    #[must_use]
    pub fn new() -> Self {
        MeterTable::default()
    }

    /// Installs (or replaces) a meter.
    pub fn set(&mut self, meter: MeterEntry) {
        if let Some(existing) = self.meters.iter_mut().find(|m| m.id == meter.id) {
            *existing = meter;
        } else {
            self.meters.push(meter);
        }
    }

    /// Removes a meter by id; returns true if it existed.
    pub fn remove(&mut self, id: u32) -> bool {
        let before = self.meters.len();
        self.meters.retain(|m| m.id != id);
        self.meters.len() != before
    }

    /// Looks up a meter by id.
    #[must_use]
    pub fn get(&self, id: u32) -> Option<&MeterEntry> {
        self.meters.iter().find(|m| m.id == id)
    }

    /// All installed meters.
    #[must_use]
    pub fn meters(&self) -> &[MeterEntry] {
        &self.meters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_hsa::{HeaderSpace, ReachabilityEngine};
    use rvaas_types::Field;

    fn hdr(dst: u32, dport: u16) -> Header {
        Header::builder().ip_dst(dst).l4_dst(dport).build()
    }

    fn fwd_entry(priority: u16, dst: u32, port: u32) -> FlowEntry {
        FlowEntry::new(
            priority,
            FlowMatch::to_ip(dst),
            vec![Action::Output(PortId(port))],
        )
    }

    #[test]
    fn add_and_lookup_respects_priority() {
        let mut t = FlowTable::new();
        assert!(t.add(fwd_entry(1, 5, 1)));
        assert!(t.add(FlowEntry::new(
            100,
            FlowMatch::to_ip(5).field(Field::L4Dst, 80),
            vec![Action::Drop],
        )));
        // Port-80 traffic hits the high-priority drop.
        let hit = t.lookup(PortId(1), &hdr(5, 80)).unwrap();
        assert_eq!(*hit.actions, [Action::Drop]);
        // Other traffic to 5 hits the forward rule.
        let hit = t.lookup(PortId(1), &hdr(5, 443)).unwrap();
        assert_eq!(*hit.actions, [Action::Output(PortId(1))]);
        // Unrelated traffic misses.
        assert!(t.lookup(PortId(1), &hdr(6, 80)).is_none());
    }

    #[test]
    fn add_replaces_same_match_and_priority() {
        let mut t = FlowTable::new();
        t.add(fwd_entry(10, 5, 1));
        t.add(FlowEntry::new(
            10,
            FlowMatch::to_ip(5),
            vec![Action::Output(PortId(9))],
        ));
        assert_eq!(t.len(), 1);
        assert_eq!(
            *t.lookup(PortId(1), &hdr(5, 1)).unwrap().actions,
            [Action::Output(PortId(9))]
        );
    }

    #[test]
    fn capacity_limit_rejects() {
        let mut t = FlowTable::with_capacity_limit(1);
        assert!(t.add(fwd_entry(1, 1, 1)));
        assert!(!t.add(fwd_entry(1, 2, 1)));
        assert_eq!(t.len(), 1);
        // Replacement still allowed at capacity.
        assert!(t.add(fwd_entry(1, 1, 3)));
    }

    #[test]
    fn counters_update_on_lookup_and_count() {
        let mut t = FlowTable::new();
        t.add(fwd_entry(1, 5, 1));
        t.lookup_and_count(PortId(1), &hdr(5, 80), 100);
        t.lookup_and_count(PortId(1), &hdr(5, 81), 50);
        assert!(t.lookup_and_count(PortId(1), &hdr(6, 80), 10).is_none());
        let e = &t.entries()[0];
        assert_eq!(e.stats.packets, 2);
        assert_eq!(e.stats.bytes, 150);
    }

    #[test]
    fn modify_strict_changes_actions_only_on_exact_match() {
        let mut t = FlowTable::new();
        t.add(fwd_entry(7, 5, 1));
        let changed = t.modify_strict(7, &FlowMatch::to_ip(5), &[Action::Drop]);
        assert_eq!(changed, 1);
        assert_eq!(*t.entries()[0].actions, [Action::Drop]);
        assert_eq!(t.modify_strict(8, &FlowMatch::to_ip(5), &[Action::Drop]), 0);
        assert_eq!(t.modify_strict(7, &FlowMatch::to_ip(6), &[Action::Drop]), 0);
    }

    #[test]
    fn delete_matching_is_nonstrict_subset_delete() {
        let mut t = FlowTable::new();
        t.add(fwd_entry(1, 5, 1));
        t.add(fwd_entry(1, 6, 1));
        t.add(FlowEntry::new(
            2,
            FlowMatch::to_ip(5).field(Field::L4Dst, 80),
            vec![Action::Drop],
        ));
        // Delete everything matching dst 5 (both the exact and the narrower rule).
        let removed = t.delete_matching(&FlowMatch::to_ip(5));
        assert_eq!(removed.len(), 2);
        assert_eq!(t.len(), 1);
        // Delete-all.
        let removed = t.delete_matching(&FlowMatch::any());
        assert_eq!(removed.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn delete_by_cookie() {
        let mut t = FlowTable::new();
        t.add(fwd_entry(1, 5, 1).with_cookie(FlowCookie(11)));
        t.add(fwd_entry(1, 6, 1).with_cookie(FlowCookie(22)));
        let removed = t.delete_by_cookie(FlowCookie(11));
        assert_eq!(removed.len(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].cookie, FlowCookie(22));
    }

    #[test]
    fn flow_table_to_switch_transfer_agrees_with_concrete_lookup() {
        // The symbolic transfer derived from the table must classify probe
        // packets exactly like the concrete lookup does.
        let mut t = FlowTable::new();
        t.add(fwd_entry(10, 5, 2));
        t.add(fwd_entry(10, 6, 3));
        t.add(FlowEntry::new(
            100,
            FlowMatch::to_ip(5).field(Field::L4Dst, 80),
            vec![Action::Drop],
        ));
        let transfer = t.to_switch_transfer();
        for (dst, dport) in [(5u32, 80u16), (5, 443), (6, 80), (7, 80)] {
            let h = hdr(dst, dport);
            let concrete_port = t.lookup(PortId(1), &h).and_then(|e| {
                e.actions.iter().find_map(|a| match a {
                    Action::Output(p) => Some(*p),
                    _ => None,
                })
            });
            let outs = transfer.apply(PortId(1), &HeaderSpace::singleton(&h));
            let symbolic_port = outs
                .iter()
                .find(|o| o.space.contains(&h) && o.out_port.is_some())
                .and_then(|o| o.out_port);
            assert_eq!(concrete_port, symbolic_port, "probe {dst}:{dport}");
        }
        // And it plugs into the reachability engine.
        let mut nf = rvaas_hsa::NetworkFunction::new();
        nf.declare_switch(rvaas_types::SwitchId(1), [PortId(1), PortId(2), PortId(3)]);
        nf.set_transfer(rvaas_types::SwitchId(1), transfer);
        let engine = ReachabilityEngine::new(&nf);
        let reached = engine.reachable_edge_ports(
            rvaas_types::SwitchPort::new(rvaas_types::SwitchId(1), PortId(1)),
            HeaderSpace::singleton(&hdr(6, 1)),
        );
        assert_eq!(
            reached,
            vec![rvaas_types::SwitchPort::new(
                rvaas_types::SwitchId(1),
                PortId(3)
            )]
        );
    }

    #[test]
    fn meter_table_crud_and_effective_rate() {
        let mut mt = MeterTable::new();
        mt.set(MeterEntry {
            id: 1,
            bands: vec![MeterBand { rate_kbps: 1000 }, MeterBand { rate_kbps: 500 }],
        });
        assert_eq!(mt.get(1).unwrap().effective_rate_kbps(), Some(500));
        mt.set(MeterEntry {
            id: 1,
            bands: vec![MeterBand { rate_kbps: 2000 }],
        });
        assert_eq!(mt.get(1).unwrap().effective_rate_kbps(), Some(2000));
        assert_eq!(mt.meters().len(), 1);
        assert!(mt.remove(1));
        assert!(!mt.remove(1));
        assert!(mt.get(1).is_none());
        assert_eq!(
            MeterEntry {
                id: 9,
                bands: vec![]
            }
            .effective_rate_kbps(),
            None
        );
    }
}
