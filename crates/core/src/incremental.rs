//! The incremental verification model: delta-driven HSA updates.
//!
//! The seed rebuilt the whole HSA [`NetworkFunction`] from the snapshot on
//! every epoch publish and re-verified every standing query on every epoch
//! advance — the per-update full-recomputation cost the path-validation
//! literature identifies as the scalability wall of data-plane checking.
//! This module replaces both with delta-sized work:
//!
//! * [`IncrementalModel`] owns a long-lived, *mutable* network function and
//!   applies [`RuleChange`]s (rule add / remove / modify, where a modify
//!   arrives as remove-old + add-new) in place via the HSA incremental-update
//!   APIs ([`NetworkFunction::insert_rule`] / [`NetworkFunction::remove_rule`]),
//!   turning the per-epoch model cost from `O(network)` to `O(delta)`.
//! * Every application reports the [`ChangedRegion`]: the union of the
//!   changed rules' *exposed* header regions (match cube minus shadowing
//!   higher-precedence rules) plus the set of touched switches. A standing
//!   query only needs re-verification when its interest space intersects
//!   this region — [`query_affected`] encodes that test per query class.
//!
//! # Soundness of the affected-query test
//!
//! The test over-approximates: a query reported unaffected is guaranteed to
//! produce the same verdict, because
//!
//! * the verifier injects per-client header spaces (source-pinned emission
//!   spaces, destination-pinned inbound spaces) and, absent header rewrites,
//!   traffic never leaves the injected space while traversing the network —
//!   so a rule change can only alter a traversal if its exposed match region
//!   intersects the injected space;
//! * any change involving a rewrite action, or a removal the model cannot
//!   resolve (a desynchronised mirror), sets
//!   [`ChangedRegion::conservative`], which forces *every* query to
//!   re-verify;
//! * neutrality verdicts do not traverse header spaces at all — they inspect
//!   delivery rules on access switches — so their affected test is
//!   switch-based: any change on a switch with attached hosts re-verifies.
//!
//! The reverse direction is deliberately not exact: a query flagged affected
//! may still produce an identical verdict and merely costs one re-check.

use std::collections::BTreeSet;

use rvaas_client::QuerySpec;
use rvaas_hsa::{Cube, HeaderSpace, NetworkFunction, RuleAction, RuleTransfer};
use rvaas_openflow::FlowEntry;
use rvaas_topology::Topology;
use rvaas_types::{ClientId, Field, SwitchId};

use crate::snapshot::NetworkSnapshot;

/// One rule-level change between two configuration epochs. A modify shows up
/// as the removal of the old rule plus the installation of the new one.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleChange {
    /// The switch whose table changed.
    pub switch: SwitchId,
    /// The flow entry that was installed or removed.
    pub entry: FlowEntry,
    /// `true` for an installation, `false` for a removal.
    pub installed: bool,
    /// Set on the removal of an entry that an install displaced **in its
    /// slot** (same priority and match, other actions): the install is the
    /// next change of the list and takes the slot over. It is what tells a
    /// modify apart from a removal followed by a re-install, which lands
    /// behind its equal-priority peers. Only [`NetworkSnapshot`]'s effective
    /// change lists set it; as an input it reads as a plain removal.
    pub displaced: bool,
}

impl RuleChange {
    /// A rule installation.
    #[must_use]
    pub fn installed(switch: SwitchId, entry: FlowEntry) -> Self {
        RuleChange {
            switch,
            entry,
            installed: true,
            displaced: false,
        }
    }

    /// A rule removal.
    #[must_use]
    pub fn removed(switch: SwitchId, entry: FlowEntry) -> Self {
        RuleChange {
            switch,
            entry,
            installed: false,
            displaced: false,
        }
    }

    /// The removal of an entry displaced in its slot by the install that
    /// follows it in the list (see [`RuleChange::displaced`]).
    #[must_use]
    pub fn displaced(switch: SwitchId, entry: FlowEntry) -> Self {
        RuleChange {
            displaced: true,
            ..RuleChange::removed(switch, entry)
        }
    }

    /// True when this is the removal of an entry displaced in its slot and
    /// `next`, the change after it, is the install that took the slot over.
    fn displaced_by(&self, next: &RuleChange) -> bool {
        self.displaced
            && next.installed
            && self.switch == next.switch
            && self.entry.priority == next.entry.priority
            && self.entry.flow_match == next.entry.flow_match
    }
}

/// The header-space footprint of a batch of applied [`RuleChange`]s: where
/// (and on which switches) forwarding behaviour may differ from the previous
/// epoch. Queries whose interest space misses this region need no
/// re-verification.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChangedRegion {
    /// Union of the changed rules' exposed header regions.
    pub space: HeaderSpace,
    /// Switches whose tables changed.
    pub switches: BTreeSet<SwitchId>,
    /// Rules installed by the batch.
    pub rules_added: usize,
    /// Rules removed by the batch.
    pub rules_removed: usize,
    /// When set, the region could not be bounded (a rewrite action was
    /// involved, or the model had to resynchronise) and *every* query must be
    /// treated as affected.
    pub conservative: bool,
}

impl ChangedRegion {
    /// A region forcing every query to re-verify.
    #[must_use]
    pub fn everything() -> Self {
        ChangedRegion {
            space: HeaderSpace::all(),
            conservative: true,
            ..ChangedRegion::default()
        }
    }

    /// True when the batch changed nothing observable.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.conservative && self.space.is_empty() && self.switches.is_empty()
    }
}

fn has_rewrite(action: &RuleAction) -> bool {
    matches!(
        action,
        RuleAction::Forward {
            rewrite: Some(_),
            ..
        }
    )
}

/// A long-lived, mutable HSA model kept in sync with the published epochs by
/// applying rule-level deltas in place.
#[derive(Debug, Clone)]
pub struct IncrementalModel {
    topology: Topology,
    nf: NetworkFunction,
    /// Rewrite rules currently installed. While any is present, traffic can
    /// leave the src/dst-pinned interest spaces mid-path, so every changed
    /// region must stay conservative — not just the delta that installed
    /// the rewrite.
    rewrite_rules: usize,
    /// Sticky desync marker: set when a removal could not be resolved (the
    /// mirror no longer matches the publisher); cleared by a rebuild.
    desynced: bool,
}

impl IncrementalModel {
    /// An empty model over the trusted wiring: switches and links declared,
    /// no rules installed.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        let mut model = IncrementalModel {
            topology,
            nf: NetworkFunction::new(),
            rewrite_rules: 0,
            desynced: false,
        };
        model.reset();
        model
    }

    /// A model seeded from an existing snapshot.
    #[must_use]
    pub fn from_snapshot(topology: Topology, snapshot: &NetworkSnapshot) -> Self {
        let mut model = IncrementalModel::new(topology);
        model.rebuild_from(snapshot);
        model
    }

    fn reset(&mut self) {
        let mut nf = NetworkFunction::new();
        for sw in self.topology.switches() {
            nf.declare_switch(sw.id, sw.ports.clone());
        }
        for link in self.topology.links() {
            nf.connect(link.a, link.b);
        }
        self.nf = nf;
        self.rewrite_rules = 0;
        self.desynced = false;
    }

    /// Discards the model state and rebuilds it from `snapshot` (the
    /// fallback when the delta chain to the current epoch is unavailable, or
    /// when the delta is so large that per-rule incremental insertion —
    /// which computes an exposed region per rule — would cost more than a
    /// bulk rebuild).
    pub fn rebuild_from(&mut self, snapshot: &NetworkSnapshot) {
        self.reset();
        for (switch, entries) in snapshot.tables() {
            let mut rewrites = 0usize;
            let rules: Vec<RuleTransfer> = entries
                .iter()
                .map(|entry| {
                    let rule = entry.to_rule_transfer();
                    rewrites += usize::from(has_rewrite(&rule.action));
                    rule
                })
                .collect();
            self.rewrite_rules += rewrites;
            self.nf
                .set_transfer(switch, rvaas_hsa::SwitchTransfer::from_rules(rules));
        }
    }

    /// The trusted topology the model reasons over.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The up-to-date network function (borrowed by the query evaluator).
    #[must_use]
    pub fn network_function(&self) -> &NetworkFunction {
        &self.nf
    }

    /// Rules currently installed in the model.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.nf.rule_count()
    }

    /// True once a removal could not be resolved against the mirror: the
    /// model no longer matches the publisher and must be rebuilt (callers
    /// should fall back to [`IncrementalModel::rebuild_from`]). Only a broken
    /// invariant gets here: every list [`NetworkSnapshot`] derives resolves.
    #[must_use]
    pub fn is_desynced(&self) -> bool {
        self.desynced
    }

    /// Applies a list of rule-level changes in place, in list order, and
    /// returns the changed header region: an install goes in behind its
    /// equal-priority peers, a removal takes its rule out, and the removal of
    /// an entry displaced in its slot ([`RuleChange::displaced`]) takes the
    /// install after it along as one in-slot replacement. Every list
    /// [`NetworkSnapshot`] derives is in that order, so it resolves and
    /// leaves each rule where a rebuild puts it.
    ///
    /// The region is conservative ("everything") while *any* rewrite rule is
    /// installed in the model, not just when the batch touches one: a
    /// rewrite installed epochs ago still lets traffic leave its pinned
    /// interest space mid-path, so no later delta can be bounded either.
    pub fn apply(&mut self, changes: &[RuleChange]) -> ChangedRegion {
        let mut region = ChangedRegion::default();
        let mut changes = changes.iter().peekable();
        while let Some(change) = changes.next() {
            let rule = change.entry.to_rule_transfer();
            let rewrites = usize::from(has_rewrite(&rule.action));
            let space = if change.installed {
                self.rewrite_rules += rewrites;
                region.rules_added += 1;
                Some(self.nf.insert_rule(change.switch, rule))
            } else {
                // The network function looks the rule up and changes nothing
                // on a miss, which is the desync signal handled below.
                let space = match changes.next_if(|next| change.displaced_by(next)) {
                    Some(install) => {
                        let new = install.entry.to_rule_transfer();
                        let added = usize::from(has_rewrite(&new.action));
                        let space = self.nf.replace_rule(change.switch, &rule, new);
                        if space.is_some() {
                            self.rewrite_rules += added;
                            region.rules_added += 1;
                        }
                        space
                    }
                    None => self.nf.remove_rule(change.switch, &rule),
                };
                if space.is_some() {
                    self.rewrite_rules = self.rewrite_rules.saturating_sub(rewrites);
                    region.rules_removed += 1;
                }
                space
            };
            match space {
                Some(space) => {
                    region.space = region.space.union(&space);
                    region.switches.insert(change.switch);
                }
                None => {
                    // Asked to remove a rule the mirror does not hold: the
                    // model desynchronised from the publisher. Stay safe and
                    // remember it until a rebuild.
                    self.desynced = true;
                    region.conservative = true;
                }
            }
        }
        if self.rewrite_rules > 0 || self.desynced {
            region.conservative = true;
        }
        if region.conservative {
            region.space = HeaderSpace::all();
        }
        region
    }
}

/// Union of `src = host ip` cubes over the client's hosts: the traffic the
/// client can emit (what reachable-destination, isolation and geo queries
/// inject).
pub(crate) fn emission_space_of(topology: &Topology, client: ClientId) -> HeaderSpace {
    topology
        .hosts_of_client(client)
        .iter()
        .map(|h| Cube::wildcard().with_field(Field::IpSrc, u64::from(h.ip)))
        .collect()
}

/// Union of `dst = host ip` cubes over the client's hosts: the traffic that
/// can be addressed to the client (what reaching-source queries depend on).
pub(crate) fn inbound_space_of(topology: &Topology, client: ClientId) -> HeaderSpace {
    topology
        .hosts_of_client(client)
        .iter()
        .map(|h| Cube::wildcard().with_field(Field::IpDst, u64::from(h.ip)))
        .collect()
}

/// Decides whether `region` can change the verdict of `(client, spec)`.
/// Over-approximate (see the module docs): `false` guarantees the verdict is
/// unchanged; `true` merely schedules one re-verification.
#[must_use]
pub fn query_affected(
    topology: &Topology,
    client: ClientId,
    spec: &QuerySpec,
    region: &ChangedRegion,
) -> bool {
    if region.conservative {
        return true;
    }
    if region.is_empty() {
        return false;
    }
    match spec {
        QuerySpec::ReachableDestinations | QuerySpec::GeoLocation => {
            region.space.overlaps(&emission_space_of(topology, client))
        }
        QuerySpec::ReachingSources => region.space.overlaps(&inbound_space_of(topology, client)),
        QuerySpec::Isolation => {
            region.space.overlaps(&emission_space_of(topology, client))
                || region.space.overlaps(&inbound_space_of(topology, client))
        }
        QuerySpec::PathLength { to_ip } => {
            let interest: HeaderSpace = topology
                .hosts_of_client(client)
                .iter()
                .map(|h| {
                    Cube::wildcard()
                        .with_field(Field::IpSrc, u64::from(h.ip))
                        .with_field(Field::IpDst, u64::from(*to_ip))
                })
                .collect();
            region.space.overlaps(&interest)
        }
        // Neutrality inspects delivery rules on access switches (of every
        // client — the verdict compares clients against each other), not
        // header-space traversals.
        QuerySpec::Neutrality => region
            .switches
            .iter()
            .any(|s| topology.hosts().any(|h| h.attachment.switch == *s)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rvaas_controlplane::benign_rules;
    use rvaas_hsa::{reachability_equivalent, SwitchTransfer};
    use rvaas_openflow::{Action, FlowMatch};
    use rvaas_topology::generators;
    use rvaas_types::{PortId, SimTime};

    fn tenant_rule(src: u32, dst: u32, out: u32) -> FlowEntry {
        // Priority above the benign admission/transit rules so the rule is
        // actually exposed (not shadowed into an empty changed region).
        FlowEntry::new(
            400,
            FlowMatch::from_ip(src).field(Field::IpDst, u64::from(dst)),
            vec![Action::Output(PortId(out))],
        )
    }

    fn benign_snapshot(topology: &Topology) -> NetworkSnapshot {
        let mut snap = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in benign_rules(topology) {
            snap.record_installed(switch, entry, SimTime::from_millis(1));
        }
        snap
    }

    #[test]
    fn model_from_snapshot_matches_full_rebuild() {
        let topology = generators::line(4, 2);
        let snapshot = benign_snapshot(&topology);
        let model = IncrementalModel::from_snapshot(topology.clone(), &snapshot);
        let rebuilt = snapshot.to_network_function(&topology);
        assert_eq!(model.rule_count(), rebuilt.rule_count());
        assert!(reachability_equivalent(model.network_function(), &rebuilt));
    }

    #[test]
    fn apply_tracks_changed_region_and_stays_equivalent() {
        let topology = generators::line(4, 2);
        let mut snapshot = benign_snapshot(&topology);
        let mut model = IncrementalModel::from_snapshot(topology.clone(), &snapshot);

        let entry = tenant_rule(0x0a00_0001, 0x0a00_0003, 2);
        snapshot.record_installed(SwitchId(2), entry.clone(), SimTime::from_millis(2));
        let region = model.apply(&[RuleChange::installed(SwitchId(2), entry.clone())]);
        assert_eq!(region.rules_added, 1);
        assert!(!region.conservative);
        assert!(region.switches.contains(&SwitchId(2)));
        assert!(!region.space.is_empty());
        assert!(reachability_equivalent(
            model.network_function(),
            &snapshot.to_network_function(&topology)
        ));

        snapshot.record_removed(SwitchId(2), &entry, SimTime::from_millis(3));
        let region = model.apply(&[RuleChange::removed(SwitchId(2), entry)]);
        assert_eq!(region.rules_removed, 1);
        assert!(!region.conservative);
        assert!(reachability_equivalent(
            model.network_function(),
            &snapshot.to_network_function(&topology)
        ));
    }

    #[test]
    fn unknown_removal_goes_conservative() {
        let topology = generators::line(3, 1);
        let mut model = IncrementalModel::new(topology);
        let region = model.apply(&[RuleChange::removed(SwitchId(1), tenant_rule(1, 2, 1))]);
        assert!(region.conservative);
        assert_eq!(region.space, HeaderSpace::all());
        // Desync is sticky until a rebuild clears it.
        assert!(model.is_desynced());
        let region = model.apply(&[RuleChange::installed(SwitchId(1), tenant_rule(1, 2, 1))]);
        assert!(region.conservative);
        model.rebuild_from(&NetworkSnapshot::default());
        assert!(!model.is_desynced());
    }

    #[test]
    fn rewrite_changes_go_conservative() {
        let topology = generators::line(3, 1);
        let mut model = IncrementalModel::new(topology);
        let entry = FlowEntry::new(
            9,
            FlowMatch::to_ip(5),
            vec![Action::SetField(Field::Vlan, 7), Action::Output(PortId(1))],
        );
        let region = model.apply(&[RuleChange::installed(SwitchId(1), entry.clone())]);
        assert!(region.conservative);
        // The conservatism is *persistent*: while the rewrite is installed,
        // traffic can leave any pinned interest space mid-path, so even a
        // later rewrite-free delta must stay unbounded.
        let plain = tenant_rule(1, 2, 1);
        let region = model.apply(&[RuleChange::installed(SwitchId(2), plain.clone())]);
        assert!(region.conservative, "rewrite installed earlier: {region:?}");
        // Once the rewrite (and nothing else offending) is gone, regions are
        // bounded again.
        let region = model.apply(&[
            RuleChange::removed(SwitchId(1), entry),
            RuleChange::removed(SwitchId(2), plain),
        ]);
        assert!(!region.conservative, "rewrite removed: {region:?}");
    }

    #[test]
    fn affected_queries_follow_interest_spaces() {
        let topology = generators::line(4, 2);
        // Clients: host ips are assigned by the generator; client 1 and 2.
        let client1 = ClientId(1);
        let client2 = ClientId(2);
        let c1_ip = topology.hosts_of_client(client1)[0].ip;
        let mut model = IncrementalModel::new(topology.clone());
        // A rule pinned to client 1's source address on a core switch.
        let region = model.apply(&[RuleChange::installed(
            SwitchId(2),
            tenant_rule(c1_ip, c1_ip ^ 1, 2),
        )]);
        assert!(query_affected(
            &topology,
            client1,
            &QuerySpec::ReachableDestinations,
            &region
        ));
        assert!(
            !query_affected(
                &topology,
                client2,
                &QuerySpec::ReachableDestinations,
                &region
            ),
            "a change pinned to client 1's sources cannot alter client 2's emission"
        );
        assert!(
            !query_affected(&topology, client2, &QuerySpec::ReachingSources, &region),
            "the changed destination is not one of client 2's hosts"
        );
        // Neutrality keys on access switches, not header spaces: the line
        // generator attaches a host to every switch, so this change is on an
        // access switch and neutrality re-verifies.
        assert!(query_affected(
            &topology,
            client2,
            &QuerySpec::Neutrality,
            &region
        ));
        // An empty region affects nobody.
        assert!(!query_affected(
            &topology,
            client1,
            &QuerySpec::Isolation,
            &ChangedRegion::default()
        ));
        // A conservative region affects everybody.
        assert!(query_affected(
            &topology,
            client2,
            &QuerySpec::GeoLocation,
            &ChangedRegion::everything()
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The tentpole equivalence property: after a random add/remove
        /// sequence the incremental model is reachability-equivalent to a
        /// from-scratch rebuild of the same snapshot.
        #[test]
        fn prop_incremental_equals_rebuild(
            ops in proptest::collection::vec((0u32..6, 0u32..6, 1u32..4, any::<bool>()), 1..16)
        ) {
            let topology = generators::line(3, 2);
            let ips: Vec<u32> = topology.hosts().map(|h| h.ip).collect();
            let mut snapshot = benign_snapshot(&topology);
            let mut model = IncrementalModel::from_snapshot(topology.clone(), &snapshot);
            for (i, (src, dst, sw, install)) in ops.into_iter().enumerate() {
                let entry = tenant_rule(
                    ips[src as usize % ips.len()],
                    ips[dst as usize % ips.len()],
                    2,
                );
                let switch = SwitchId(sw);
                let at = SimTime::from_millis(10 + i as u64);
                let present = snapshot
                    .table_of(switch)
                    .iter()
                    .any(|e| e.priority == entry.priority && e.flow_match == entry.flow_match);
                let change = if install {
                    // Re-installing an identical rule leaves the digest set
                    // unchanged, so a digest diff emits nothing.
                    if present {
                        continue;
                    }
                    snapshot.record_installed(switch, entry.clone(), at);
                    RuleChange::installed(switch, entry)
                } else {
                    // Only remove rules the snapshot actually holds, so the
                    // change stream mirrors what a digest diff would emit.
                    if !present {
                        continue;
                    }
                    snapshot.record_removed(switch, &entry, at);
                    RuleChange::removed(switch, entry)
                };
                model.apply(std::slice::from_ref(&change));
            }
            prop_assert!(reachability_equivalent(
                model.network_function(),
                &snapshot.to_network_function(&topology)
            ));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Order-exact, on both publish paths: whatever a change list does
        /// among overlapping equal-priority peers on one switch — fresh
        /// installs, removals, displacements in place (twice in one list
        /// too), removals re-installed later in the list, flaps — the model
        /// resolves every list, never desyncs, and holds every switch's rules
        /// in the order a rebuild of the next snapshot puts them.
        #[test]
        fn prop_applied_lists_leave_every_table_in_rebuild_order(
            ops in proptest::collection::vec((0usize..5, 0u32..4, any::<bool>(), 1usize..5), 1..40)
        ) {
            let topology = generators::line(3, 2);
            let ips: Vec<u32> = topology.hosts().map(|h| h.ip).collect();
            // Five matches that overlap one another, at one priority.
            let matches = [
                FlowMatch::to_ip(ips[0]),
                FlowMatch::from_ip(ips[1]),
                FlowMatch::from_ip(ips[1]).field(Field::IpDst, u64::from(ips[0])),
                FlowMatch::to_ip(ips[2]),
                FlowMatch::from_ip(ips[2]),
            ];
            let switch = SwitchId(2);
            let mut snapshot = benign_snapshot(&topology);
            // One model fed the delta path's lists, one the full path's.
            let mut by_delta = IncrementalModel::from_snapshot(topology.clone(), &snapshot);
            let mut by_diff = by_delta.clone();
            let mut ops = ops.as_slice();
            let mut step = 0u64;
            while let Some(&(_, _, _, len)) = ops.first() {
                let (batch, rest) = ops.split_at(len.min(ops.len()));
                ops = rest;
                step += 1;
                let raw: Vec<RuleChange> = batch
                    .iter()
                    .map(|&(m, action, install, _)| {
                        let actions = match action {
                            0 => vec![Action::Drop],
                            port => vec![Action::Output(PortId(port))],
                        };
                        let entry = FlowEntry::new(400, matches[m].clone(), actions);
                        if install {
                            RuleChange::installed(switch, entry)
                        } else {
                            RuleChange::removed(switch, entry)
                        }
                    })
                    .collect();
                let mut next = snapshot.clone();
                let effective = next.apply_changes(&raw, SimTime::from_millis(10 + step));
                let rebuilt = IncrementalModel::from_snapshot(topology.clone(), &next);

                // Applied in list order, a flap inside one list resolves too.
                by_delta.apply(&effective);
                prop_assert!(!by_delta.is_desynced(), "delta path, list {} = {:?}", step, effective);
                prop_assert_eq!(
                    by_delta.network_function().transfer(switch).map(SwitchTransfer::rules),
                    rebuilt.network_function().transfer(switch).map(SwitchTransfer::rules),
                    "delta path, list {} = {:?}", step, effective
                );

                // Comparing the two snapshots instead sees no flap, but it
                // must see every entry that left its slot.
                let diff = snapshot.changes_to(&next);
                by_diff.apply(&diff);
                prop_assert!(!by_diff.is_desynced(), "full path, list {} = {:?}", step, diff);
                prop_assert_eq!(
                    by_diff.network_function().transfer(switch).map(SwitchTransfer::rules),
                    rebuilt.network_function().transfer(switch).map(SwitchTransfer::rules),
                    "full path, list {} = {:?} of {:?}", step, diff, raw
                );
                prop_assert_eq!(by_delta.network_function(), rebuilt.network_function());
                snapshot = next;
            }
        }
    }
}
