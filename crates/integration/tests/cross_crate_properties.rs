//! Property-based integration tests checking that the symbolic view (HSA over
//! the RVaaS snapshot) agrees with the concrete behaviour of the simulated
//! data plane, across randomly chosen topologies and traffic.

use proptest::prelude::*;

use rvaas::NetworkSnapshot;
use rvaas_controlplane::{benign_rules, ProviderController};
use rvaas_hsa::{Cube, HeaderSpace, ReachabilityEngine};
use rvaas_netsim::{Network, NetworkConfig};
use rvaas_topology::generators;
use rvaas_types::{Field, Header, HostId, Packet, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any pair of hosts in a small line network running the benign
    /// policy, the HSA reachability verdict computed from the *snapshot*
    /// (built from the same rules) matches whether a concrete packet is
    /// actually delivered by the simulator.
    #[test]
    fn symbolic_reachability_matches_concrete_delivery(
        n in 3usize..6,
        clients in 1usize..3,
        src_idx in 0usize..5,
        dst_idx in 0usize..5,
    ) {
        let topo = generators::line(n, clients);
        let hosts: Vec<_> = topo.hosts().cloned().collect();
        let src = &hosts[src_idx % hosts.len()];
        let dst = &hosts[dst_idx % hosts.len()];
        prop_assume!(src.id != dst.id);

        // Symbolic verdict from a snapshot holding the benign rules.
        let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in benign_rules(&topo) {
            snapshot.record_installed(switch, entry, SimTime::from_millis(1));
        }
        let nf = snapshot.to_network_function(&topo);
        let engine = ReachabilityEngine::new(&nf);
        let space = HeaderSpace::from(
            Cube::wildcard()
                .with_field(Field::IpSrc, u64::from(src.ip))
                .with_field(Field::IpDst, u64::from(dst.ip)),
        );
        let symbolically_reachable = engine
            .reachable_edge_ports(src.attachment, space)
            .contains(&dst.attachment);

        // Concrete verdict from the simulator.
        let mut net = Network::new(topo.clone(), NetworkConfig::default());
        net.add_controller(Box::new(ProviderController::honest(topo.clone())));
        net.run_until(SimTime::from_millis(2));
        let packet = Packet::new(Header::builder().ip_src(src.ip).ip_dst(dst.ip).build());
        net.inject_from_host(src.id, packet).unwrap();
        net.run_until(SimTime::from_millis(10));
        let concretely_delivered = net.deliveries().iter().any(|d| d.host == dst.id);

        prop_assert_eq!(symbolically_reachable, concretely_delivered,
            "symbolic and concrete verdicts must agree for {} -> {}", src.id, dst.id);
        // And both must equal the policy intent: same client <=> reachable.
        prop_assert_eq!(concretely_delivered, src.owner == dst.owner);
    }

    /// The ground-truth network function exported by the simulator after the
    /// provider installed its rules is equivalent (rule-count wise and for
    /// sampled probes) to the snapshot built directly from the same policy.
    #[test]
    fn snapshot_matches_ground_truth_after_installation(n in 3usize..6, clients in 1usize..3) {
        let topo = generators::line(n, clients);
        let mut net = Network::new(topo.clone(), NetworkConfig::default());
        net.add_controller(Box::new(ProviderController::honest(topo.clone())));
        net.run_until(SimTime::from_millis(5));
        let ground_truth = net.ground_truth_function();

        let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in benign_rules(&topo) {
            snapshot.record_installed(switch, entry, SimTime::from_millis(1));
        }
        let from_snapshot = snapshot.to_network_function(&topo);
        prop_assert_eq!(ground_truth.rule_count(), from_snapshot.rule_count());
        prop_assert_eq!(ground_truth.switch_count(), from_snapshot.switch_count());
    }
}

/// The delivered-packet traces recorded by the simulator never contradict the
/// wiring plan: consecutive trace hops are always joined by a physical link.
#[test]
fn packet_traces_respect_the_wiring_plan() {
    let topo = generators::leaf_spine(2, 3, 2, 9);
    let mut net = Network::new(topo.clone(), NetworkConfig::default());
    net.add_controller(Box::new(ProviderController::honest(topo.clone())));
    net.run_until(SimTime::from_millis(5));
    // Blast traffic between all same-client pairs.
    let hosts: Vec<_> = topo.hosts().cloned().collect();
    for a in &hosts {
        for b in &hosts {
            if a.id != b.id && a.owner == b.owner {
                let packet = Packet::new(Header::builder().ip_src(a.ip).ip_dst(b.ip).build());
                net.inject_from_host(a.id, packet).unwrap();
            }
        }
    }
    net.run_until(SimTime::from_millis(50));
    assert!(net.stats().packets_delivered > 0);
    for delivery in net.deliveries() {
        let path = delivery.path();
        for pair in path.windows(2) {
            assert!(
                topo.neighbors(pair[0]).contains(&pair[1]),
                "trace hop {} -> {} has no physical link",
                pair[0],
                pair[1]
            );
        }
    }
    assert_eq!(
        net.deliveries().len(),
        net.stats().packets_delivered as usize
    );
    let _ = HostId(1);
}

// ---------------------------------------------------------------------------
// Incremental verification engine: cross-crate equivalence and soundness.
// ---------------------------------------------------------------------------

/// A tenant-pinned rule above the benign priorities, as the incremental
/// churn workload installs them.
fn tenant_entry(src_ip: u32, dst_ip: u32) -> rvaas_openflow::FlowEntry {
    rvaas_openflow::FlowEntry::new(
        400,
        rvaas_openflow::FlowMatch::from_ip(src_ip).field(Field::IpDst, u64::from(dst_ip)),
        vec![rvaas_openflow::Action::Drop],
    )
}

fn benign_snapshot_of(topo: &rvaas_topology::Topology) -> NetworkSnapshot {
    let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
    for (switch, entry) in benign_rules(topo) {
        snapshot.record_installed(switch, entry, SimTime::from_millis(1));
    }
    snapshot
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// After every random op — an install, an in-place rewrite (an install
    /// over a present priority + match with other actions) or a removal,
    /// published as a full snapshot or as a rule delta — the epoch's digest
    /// set is the digest of the snapshot, the model the store froze into the
    /// epoch is reachability-equivalent to a from-scratch rebuild of it, and
    /// `delta_between` over a window of one or more epochs is exactly the
    /// digest diff of the window's end points.
    #[test]
    fn incremental_model_tracks_epoch_deltas(
        // Four keys (source × switch), so ops keep landing on present ones.
        ops in proptest::collection::vec(
            (0usize..2, 1u32..3, any::<bool>(), any::<bool>()),
            4..8,
        ),
    ) {
        use rvaas::RuleChange;
        use rvaas_openflow::Action;
        use rvaas_service::{digest_snapshot, EpochStore};

        let topo = generators::line(4, 2);
        let ips: Vec<u32> = topo.hosts().map(|h| h.ip).collect();
        let mut snapshot = benign_snapshot_of(&topo);
        let store = EpochStore::new(64);
        store.attach_interest_topology(topo.clone());
        store.try_publish(snapshot.clone(), SimTime::from_millis(1)).unwrap();

        let mut window_start = store.current();
        for (i, (src, sw, install, full)) in ops.iter().enumerate() {
            let entry = tenant_entry(ips[*src], ips[2]);
            let switch = rvaas_types::SwitchId(*sw);
            let at = SimTime::from_millis(10 + i as u64);
            let held = snapshot
                .table_of(switch)
                .iter()
                .find(|e| e.priority == entry.priority && e.flow_match == entry.flow_match);
            let change = match (install, held) {
                (true, None) => RuleChange::installed(switch, entry),
                (true, Some(held)) => {
                    let mut rewritten = held.clone();
                    rewritten.actions = if *held.actions == [Action::Drop] {
                        [Action::Output(rvaas_types::PortId(1))].into()
                    } else {
                        [Action::Drop].into()
                    };
                    RuleChange::installed(switch, rewritten)
                }
                // Names the key, not necessarily the actions the table holds.
                (false, Some(_)) => RuleChange::removed(switch, entry),
                (false, None) => continue,
            };
            if change.installed {
                snapshot.record_installed(switch, change.entry.clone(), at);
            } else {
                snapshot.record_removed(switch, &change.entry, at);
            }
            if *full {
                store.try_publish(snapshot.clone(), at).unwrap();
            } else {
                store.try_publish_changes(&[change], at).unwrap();
            }
            let current = store.current();
            prop_assert_eq!(&current.rules, &digest_snapshot(&snapshot), "digest set at op {}", i);
            prop_assert!(
                rvaas_hsa::reachability_equivalent(
                    &current.function,
                    &snapshot.to_network_function(&topo),
                ),
                "frozen model diverged from rebuild at op {}", i
            );
            // Close the window every third op so some windows aggregate more
            // than one epoch's delta.
            if i % 3 == 0 {
                let delta = store
                    .delta_between(window_start.serial, current.serial)
                    .expect("retained window");
                let (from, to) = (&window_start.rules, &current.rules);
                prop_assert!(delta.added.iter().eq(to.difference(from)));
                prop_assert!(delta.removed.iter().eq(from.difference(to)));
                window_start = current;
            }
        }
    }

    /// Soundness of the affected-query computation: any standing query the
    /// changed region reports as *unaffected* must produce exactly the same
    /// verdict on the new snapshot as on the old one.
    #[test]
    fn unaffected_queries_keep_their_verdicts(
        ops in proptest::collection::vec((0usize..6, 0usize..6, 1u32..5, any::<bool>()), 1..6),
    ) {
        use rvaas_client::QuerySpec;
        use rvaas_types::ClientId;

        let topo = generators::line(4, 2);
        let ips: Vec<u32> = topo.hosts().map(|h| h.ip).collect();
        let before = benign_snapshot_of(&topo);
        let mut after = before.clone();
        let mut model = rvaas::IncrementalModel::from_snapshot(topo.clone(), &before);

        let mut changes = Vec::new();
        for (src, dst, sw, install) in &ops {
            let entry = tenant_entry(ips[src % ips.len()], ips[dst % ips.len()]);
            let switch = rvaas_types::SwitchId(*sw);
            let present = after
                .table_of(switch)
                .iter()
                .any(|e| e.priority == entry.priority && e.flow_match == entry.flow_match);
            if *install && !present {
                after.record_installed(switch, entry.clone(), SimTime::from_millis(9));
                changes.push(rvaas::RuleChange::installed(switch, entry));
            } else if !*install && present {
                after.record_removed(switch, &entry, SimTime::from_millis(9));
                changes.push(rvaas::RuleChange::removed(switch, entry));
            }
        }
        let region = model.apply(&changes);

        let verifier = rvaas::LogicalVerifier::new(
            topo.clone(),
            rvaas::VerifierConfig {
                use_history: false,
                locations: rvaas::LocationMap::disclosed(&topo),
            },
        );
        let some_ip = ips[0];
        let specs = [
            QuerySpec::ReachableDestinations,
            QuerySpec::ReachingSources,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
            QuerySpec::PathLength { to_ip: some_ip },
            QuerySpec::Neutrality,
        ];
        for client in [ClientId(1), ClientId(2)] {
            for spec in &specs {
                if !rvaas::query_affected(&topo, client, spec, &region) {
                    prop_assert_eq!(
                        verifier.answer(&before, client, spec),
                        verifier.answer(&after, client, spec),
                        "query {:?}/{:?} was reported unaffected but changed verdict",
                        client, spec
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Snapshots share their tables copy-on-write, so over random chains of
    /// `clone → edit → clone → edit` through every edit path: (a) editing a
    /// clone never changes any snapshot it descends from; (b) the diff of a
    /// sharing pair — which skips pointer-equal tables — is the diff of the
    /// same pair rebuilt table by table, sharing nothing; (c) publishing the
    /// clone whole (it shares with the store's current snapshot) and
    /// publishing the same edits as a rule delta to a second store give one
    /// digest set, the digest of the snapshot, and one carried-forward
    /// content digest, the from-scratch fold of that set.
    #[test]
    fn shared_tables_never_alias_and_never_change_a_diff(
        // (edit path, switch, destination, output port)
        ops in proptest::collection::vec((0u8..4, 1u32..4, 0u32..4, 0u32..3), 3..19),
    ) {
        use rvaas::RuleChange;
        use rvaas_openflow::{Action, FlowEntry, FlowMatch};
        use rvaas_service::{content_digest_of, digest_snapshot, EpochStore};
        use rvaas_types::{PortId, SwitchId};

        let entry = |dst: u32, port: u32| {
            FlowEntry::new(10 + (dst % 2) as u16, FlowMatch::to_ip(dst), vec![Action::Output(PortId(port))])
        };
        let deep = |s: &NetworkSnapshot| -> Vec<(SwitchId, Vec<FlowEntry>)> {
            s.tables().map(|(switch, entries)| (switch, entries.to_vec())).collect()
        };
        let rebuilt = |s: &NetworkSnapshot| {
            let mut fresh = NetworkSnapshot::new(SimTime::from_secs(1));
            for (switch, entries) in s.tables() {
                fresh.record_full_table(switch, entries.to_vec(), SimTime::from_millis(1));
            }
            fresh
        };

        let mut a = NetworkSnapshot::new(SimTime::from_secs(1));
        for switch in 1..4 {
            for dst in 0..2 {
                a.record_installed(SwitchId(switch), entry(dst, 1), SimTime::from_millis(1));
            }
        }
        let (whole, by_delta) = (EpochStore::new(64), EpochStore::new(64));
        whole.try_publish(a.clone(), SimTime::from_millis(1)).unwrap();
        by_delta.try_publish(rebuilt(&a), SimTime::from_millis(1)).unwrap();

        // Every snapshot of the chain, beside a deep copy taken when it was
        // last written.
        let mut ancestors = Vec::new();
        for (link, edits) in ops.chunks(3).enumerate() {
            let at = SimTime::from_millis(10 + link as u64);
            let frozen = deep(&a);
            let mut b = a.clone();
            let mut same_edits = Vec::new();
            for (path, switch, dst, port) in edits {
                let (switch, next) = (SwitchId(*switch), SwitchId(*switch % 3 + 1));
                match path {
                    // Fresh, displacing (another port) or a no-op (the held entry).
                    0 => {
                        b.record_installed(switch, entry(*dst, *port), at);
                        same_edits.push(RuleChange::installed(switch, entry(*dst, *port)));
                    }
                    // Of a present key (whatever its actions) or an absent one.
                    1 => {
                        b.record_removed(switch, &entry(*dst, *port), at);
                        same_edits.push(RuleChange::removed(switch, entry(*dst, *port)));
                    }
                    // A poll reply that drops one key and, for port > 0, adds
                    // it back at the end: sometimes the very table it replaces.
                    2 => {
                        let key = entry(*dst, *port);
                        let mut table: Vec<FlowEntry> = b
                            .table_of(switch)
                            .iter()
                            .filter(|e| (e.priority, &e.flow_match) != (key.priority, &key.flow_match))
                            .cloned()
                            .collect();
                        if *port > 0 {
                            table.push(key);
                        }
                        let polled = b.clone();
                        b.record_full_table(switch, table, at);
                        same_edits.extend(polled.changes_to(&b));
                    }
                    // One batch: an install, a removal, and a flap next door.
                    _ => {
                        let batch = [
                            RuleChange::installed(switch, entry(*dst, *port)),
                            RuleChange::removed(switch, entry((*dst + 1) % 4, 0)),
                            RuleChange::installed(next, entry(*dst, *port + 3)),
                            RuleChange::removed(next, entry(*dst, 0)),
                        ];
                        b.apply_changes(&batch, at);
                        same_edits.extend(batch);
                    }
                }
            }
            // (b)
            prop_assert_eq!(
                a.changes_to(&b), rebuilt(&a).changes_to(&rebuilt(&b)),
                "link {} of {:?}: sharing changed the forward diff", link, ops
            );
            prop_assert_eq!(
                b.changes_to(&a), rebuilt(&b).changes_to(&rebuilt(&a)),
                "link {} of {:?}: sharing changed the backward diff", link, ops
            );
            // (c)
            whole.try_publish(b.clone(), at).unwrap();
            by_delta.try_publish_changes(&same_edits, at).unwrap();
            let (w, d) = (whole.current(), by_delta.current());
            let digests = digest_snapshot(&b);
            prop_assert_eq!(&w.rules, &digests, "link {} of {:?}: whole publish", link, ops);
            prop_assert_eq!(&d.rules, &digests, "link {} of {:?}: delta publish", link, ops);
            prop_assert_eq!(&w.rules, &d.rules, "link {} of {:?}", link, ops);
            let folded = content_digest_of(digests);
            prop_assert_eq!(w.content_digest(), folded, "link {} of {:?}: whole publish", link, ops);
            prop_assert_eq!(d.content_digest(), folded, "link {} of {:?}: delta publish", link, ops);
            prop_assert_eq!(digest_snapshot(&d.snapshot), d.rules.clone(), "link {} of {:?}", link, ops);
            // (a)
            ancestors.push((std::mem::replace(&mut a, b), frozen));
            for (generation, (ancestor, frozen)) in ancestors.iter().enumerate() {
                prop_assert_eq!(
                    &deep(ancestor), frozen,
                    "link {} of {:?}: generation {} changed under a descendant's edit", link, ops, generation
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// HSA against a concrete packet walk: the oracle that shares no cube algebra.
// ---------------------------------------------------------------------------

/// Where one concrete packet goes, decided with no header space: at each
/// switch the highest-priority entry of `NetworkSnapshot::table_of` that
/// `FlowMatch::matches` it (the earliest in table order among equals) acts —
/// set-fields applied, one copy per output — copies follow the topology's
/// links, and a copy leaving through a port with no link has left the
/// network there. A copy that returns to a switch already on its path is cut,
/// as the reachability engine cuts (and reports) a loop; `crossed` collects
/// every switch any copy arrived at.
fn walk_packet(
    topo: &rvaas_topology::Topology,
    snapshot: &NetworkSnapshot,
    ingress: rvaas_types::SwitchPort,
    header: Header,
    crossed: &mut std::collections::BTreeSet<rvaas_types::SwitchId>,
) -> std::collections::BTreeSet<rvaas_types::SwitchPort> {
    use rvaas_types::SwitchPort;

    const HOP_BOUND: usize = 64;
    let mut exits = std::collections::BTreeSet::new();
    let mut copies = vec![(ingress, header, Vec::new())];
    while let Some((at, header, mut path)) = copies.pop() {
        crossed.insert(at.switch);
        if path.len() >= HOP_BOUND || path.contains(&at.switch) {
            continue;
        }
        path.push(at.switch);
        let matching = snapshot
            .table_of(at.switch)
            .iter()
            .enumerate()
            .filter(|(_, entry)| entry.flow_match.matches(at.port, &header))
            .min_by_key(|(index, entry)| (std::cmp::Reverse(entry.priority), *index));
        let Some((_, entry)) = matching else {
            continue; // table miss: dropped
        };
        for (port, rewritten) in
            rvaas_openflow::action::apply_actions(&entry.actions, &header).outputs
        {
            let egress = SwitchPort::new(at.switch, port);
            match topo.link_peer(egress) {
                Some(peer) => copies.push((peer, rewritten, path.clone())),
                None => {
                    exits.insert(egress);
                }
            }
        }
    }
    exits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every other oracle in the repo — `LogicalVerifier::answer` from
    /// scratch, the benchmark's rebuild — runs the same
    /// `SwitchTransfer::apply`, so a consistently wrong transfer function
    /// passes all of them. This one shares nothing with it: with a random
    /// subset of the data-plane attack catalogue installed (admissions,
    /// mirrors, drops, detours above the benign layers — overlapping,
    /// port-pinned and not, equal-priority), for every ordered host pair the
    /// edge ports a concrete `src → dst` packet leaves through are exactly
    /// the endpoints whose space holds that header when the source's whole
    /// emission space is injected, and every switch the packet crossed is in
    /// the traversal's footprint. (No attack of the catalogue rewrites, so
    /// the header that leaves is the header injected; the walk applies
    /// set-fields all the same.)
    #[test]
    fn symbolic_traversal_matches_a_concrete_packet_walk_under_attacks(
        fat in any::<bool>(),
        // (kind, a, b): which attack, and the hosts it names.
        attacks in proptest::collection::vec((0u8..5, 0usize..64, 0usize..64), 0..7),
    ) {
        use rvaas_controlplane::Attack;

        let topo = if fat { generators::fat_tree(4, 3) } else { generators::leaf_spine(2, 3, 3, 7) };
        let hosts: Vec<_> = topo.hosts().cloned().collect();
        let mut snapshot = benign_snapshot_of(&topo);
        for (kind, a, b) in &attacks {
            let (x, y) = (&hosts[a % hosts.len()], &hosts[b % hosts.len()]);
            let attack = match kind {
                0 => Attack::Join { attacker_host: x.id, victim_client: y.owner },
                1 => Attack::Exfiltrate { victim_host: x.id, collector_host: y.id },
                2 => Attack::Blackhole { victim_host: x.id },
                3 => {
                    let via = topo.switches().nth(b % topo.switch_count()).expect("in range");
                    Attack::GeoDivert {
                        from_host: x.id,
                        to_host: y.id,
                        via_region: via.location.region.clone(),
                    }
                }
                _ => Attack::Throttle { victim_client: x.owner, rate_kbps: 64 },
            };
            for change in attack_changes(&topo, &attack, true) {
                snapshot.record_installed(change.switch, change.entry, SimTime::from_millis(2));
            }
        }
        let nf = snapshot.to_network_function(&topo);
        let engine = ReachabilityEngine::new(&nf);

        let mut delivered = 0usize;
        for src in &hosts {
            let emission =
                HeaderSpace::from(Cube::wildcard().with_field(Field::IpSrc, u64::from(src.ip)));
            let result = engine.reachable_from(src.attachment, emission);
            prop_assert_eq!(result.truncated_branches, 0);
            for dst in hosts.iter().filter(|dst| dst.id != src.id) {
                let header = Header::builder().ip_src(src.ip).ip_dst(dst.ip).build();
                let mut crossed = std::collections::BTreeSet::new();
                let concrete = walk_packet(&topo, &snapshot, src.attachment, header, &mut crossed);
                let symbolic: std::collections::BTreeSet<_> = result
                    .endpoints
                    .iter()
                    .filter(|e| e.space.contains(&header))
                    .map(|e| e.egress)
                    .collect();
                prop_assert_eq!(
                    &concrete, &symbolic,
                    "{} -> {} under {:?}: the packet leaves at {:?}, the traversal says {:?}",
                    src.id, dst.id, attacks, concrete, symbolic
                );
                prop_assert!(
                    crossed.iter().all(|switch| result.visited.contains(switch)),
                    "{} -> {} under {:?}: crossed {:?}, footprint {:?}",
                    src.id, dst.id, attacks, crossed, result.visited
                );
                delivered += usize::from(concrete.contains(&dst.attachment));
            }
        }
        // Not vacuous: same-tenant pairs are delivered whatever is installed
        // (a blackhole takes out one destination at most).
        prop_assert!(delivered > hosts.len(), "{} deliveries under {:?}", delivered, attacks);
    }
}

// ---------------------------------------------------------------------------
// Traversal memo: a verdict assembled from shared traversals equals a fresh one.
// ---------------------------------------------------------------------------

/// The rule changes that install (or remove again) what `attack` compiles to.
fn attack_changes(
    topo: &rvaas_topology::Topology,
    attack: &rvaas_controlplane::Attack,
    install: bool,
) -> Vec<rvaas::RuleChange> {
    use rvaas_openflow::{FlowModCommand, Message};
    attack
        .compile(topo)
        .into_iter()
        .filter_map(|(switch, message)| match message {
            Message::FlowMod {
                command: FlowModCommand::Add(entry),
            } if install => Some(rvaas::RuleChange::installed(switch, entry)),
            Message::FlowMod {
                command: FlowModCommand::Add(entry),
            } => Some(rvaas::RuleChange::removed(switch, entry)),
            // Meter definitions are not flow rules.
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The service answers every non-history query through the traversal
    /// memo of the epoch it answers on: whatever an earlier batch walked on
    /// that epoch is served, and so is whatever the publish carried over
    /// from the epoch before, because the change could not alter it.
    /// Over a random sequence of epochs that *do* flip verdicts — compiled
    /// attacks installed and later removed, tenant churn on transit switches,
    /// a benign rule rewritten in place, a flap inside one change list
    /// (applied in order, it never desyncs the model), one list large enough
    /// to trip the bulk rebuild, over both publish paths — and with the
    /// result cache off, every verdict of the six-query mix equals the
    /// reference verifier's from scratch on the test's own snapshot, after
    /// every epoch, both when it walks and when it is assembled from what the
    /// first pass left. (The benchmark's churn installs same-direction
    /// forwarding rules that flip nothing, so its oracle cannot see a memo
    /// that outlives its epoch; this can.)
    #[test]
    fn shared_traversals_equal_fresh_ones_under_verdict_flipping_churn(
        fat in any::<bool>(),
        // (kind, a, b, publish as a full snapshot)
        random in proptest::collection::vec((0u8..7, 0usize..64, 0usize..64, any::<bool>()), 8..13),
        // Where the rewrite, the flap and the bulk list go, and their victims.
        specials in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64), 3..4),
    ) {
        use rvaas::RuleChange;
        use rvaas_client::QuerySpec;
        use rvaas_controlplane::Attack;
        use rvaas_openflow::Action;
        use rvaas_service::VerificationService;
        use rvaas_types::{ClientId, SwitchId};

        // Three tenants either way: 9 hosts on 5 switches, or 16 on 20.
        let topo = if fat { generators::fat_tree(4, 3) } else { generators::leaf_spine(2, 3, 3, 7) };
        let hosts: Vec<_> = topo.hosts().cloned().collect();
        let switches: Vec<SwitchId> = topo.switches().map(|s| s.id).collect();
        let clients = topo.clients();
        prop_assert!(clients.len() >= 3);
        let of = |client: ClientId| -> Vec<&rvaas_topology::Host> {
            hosts.iter().filter(|h| h.owner == client).collect()
        };
        let verifier_config = rvaas::VerifierConfig {
            use_history: false,
            locations: rvaas::LocationMap::disclosed(&topo),
        };
        let service = VerificationService::new(topo.clone(), false);
        let oracle = rvaas::LogicalVerifier::new(topo.clone(), verifier_config);
        let mix: Vec<(ClientId, QuerySpec)> = clients
            .iter()
            .flat_map(|c| {
                let to_ip = hosts[c.0 as usize % hosts.len()].ip;
                [
                    QuerySpec::ReachableDestinations,
                    QuerySpec::ReachingSources,
                    QuerySpec::Isolation,
                    QuerySpec::GeoLocation,
                    QuerySpec::PathLength { to_ip },
                    QuerySpec::Neutrality,
                ]
                .map(|spec| (*c, spec))
            })
            .collect();
        let counter = |name: &str| -> f64 {
            let scrape = service.registry().render_text();
            let sample = scrape.lines().find_map(|line| line.strip_prefix(name)?.strip_prefix(' '));
            sample.expect(name).parse().expect(name)
        };
        let memo_counts = || -> (f64, f64) {
            (counter("rvaas_traversal_memo_hits_total"), counter("rvaas_traversal_memo_misses_total"))
        };

        // The attack an op names, victims and accomplices drawn freely: two
        // of them may well put different actions on one (priority, match)
        // key, and the later one then displaces the earlier in its slot.
        let attack_of = |kind: u8, a: usize, b: usize| -> Attack {
            let host = |i: usize| &hosts[i % hosts.len()];
            let outsider = |of: &rvaas_topology::Host, i: usize| {
                let others: Vec<_> = hosts.iter().filter(|h| h.owner != of.owner).collect();
                others[i % others.len()].id
            };
            match kind {
                0 => {
                    let attacker = &hosts[a % hosts.len()];
                    let victims: Vec<ClientId> =
                        clients.iter().copied().filter(|c| *c != attacker.owner).collect();
                    Attack::Join { attacker_host: attacker.id, victim_client: victims[b % victims.len()] }
                }
                1 => Attack::Exfiltrate {
                    victim_host: host(a).id,
                    collector_host: outsider(host(a), b),
                },
                2 => Attack::Blackhole { victim_host: host(a).id },
                3 => {
                    let from = host(a);
                    let peers: Vec<_> = of(from.owner).into_iter().filter(|h| h.id != from.id).collect();
                    let via = topo.switches().nth(b % switches.len()).expect("in range");
                    Attack::GeoDivert {
                        from_host: from.id,
                        to_host: peers[b / switches.len() % peers.len()].id,
                        via_region: via.location.region.clone(),
                    }
                }
                _ => Attack::Throttle { victim_client: clients[2], rate_kbps: 64 },
            }
        };

        let mut ops: Vec<(u8, usize, usize, bool)> = random;
        for (kind, (at, a, b)) in (7u8..10).zip(specials) {
            ops.insert(at % (ops.len() + 1), (kind, a, b, false));
        }

        let mut snapshot = benign_snapshot_of(&topo);
        let benign: Vec<(SwitchId, rvaas_openflow::FlowEntry)> = benign_rules(&topo)
            .into_iter()
            .filter(|(_, entry)| *entry.actions != [Action::Drop])
            .collect();
        service.try_publish(&snapshot, SimTime::from_millis(1)).unwrap();
        let mut installed: Vec<Attack> = Vec::new();
        let mut churn_round = 0u64;
        let mut carried_any = false;
        let mut step = 0usize;
        // The random ops, then whatever is still installed comes out again.
        while step < ops.len() || !installed.is_empty() {
            let (kind, a, b, full) = ops.get(step).copied().unwrap_or((6, 0, 0, step.is_multiple_of(2)));
            step += 1;
            let at = SimTime::from_millis(10 + step as u64);
            let toggle = |installed: &mut Vec<Attack>, attack: Attack| {
                let held = installed.iter().position(|held| *held == attack);
                let changes = attack_changes(&topo, &attack, held.is_none());
                match held {
                    Some(index) => { installed.remove(index); }
                    None => installed.push(attack),
                }
                changes
            };
            let changes: Vec<RuleChange> = match kind {
                0..=4 => toggle(&mut installed, attack_of(kind, a, b)),
                5 => {
                    let mut next = snapshot.clone();
                    rvaas_workloads::tenant_churn_round(&topo, &mut next, churn_round, 2, 2, at);
                    churn_round += 1;
                    snapshot.changes_to(&next)
                }
                // The oldest attack still installed comes out.
                6 => match installed.first().cloned() {
                    Some(attack) => toggle(&mut installed, attack),
                    None => continue,
                },
                // A benign forwarding rule rewritten in place: to a drop, or back.
                7 => {
                    let (switch, original) = &benign[a % benign.len()];
                    let mut entry = original.clone();
                    if snapshot.table_of(*switch).contains(original) {
                        entry.actions = [Action::Drop].into();
                    }
                    vec![RuleChange::installed(*switch, entry)]
                }
                // A flap inside the list (applied in order, it resolves like
                // any other change), beside an attack that does change
                // verdicts.
                8 => {
                    let flapper = tenant_entry(hosts[a % hosts.len()].ip, 0xdead_beef);
                    let switch = switches[b % switches.len()];
                    let mut list = vec![
                        RuleChange::installed(switch, flapper.clone()),
                        RuleChange::removed(switch, flapper),
                    ];
                    list.extend(toggle(&mut installed, attack_of(2, a, b)));
                    list
                }
                // A list past the bulk-rebuild threshold, same company.
                _ => {
                    let rules = (snapshot.rule_count() / 2).max(64) as u32 + 8;
                    let flood = Attack::ChurnFlood { switch: switches[b % switches.len()], rules };
                    let mut list = toggle(&mut installed, flood);
                    list.extend(toggle(&mut installed, attack_of(0, a, b)));
                    list
                }
            };
            // The test's own snapshot, edited the way a monitor would.
            for change in &changes {
                if change.installed {
                    snapshot.record_installed(change.switch, change.entry.clone(), at);
                } else {
                    snapshot.record_removed(change.switch, &change.entry, at);
                }
            }
            let rebuilds = service.stats().model_rebuilds;
            if full {
                service.try_publish(&snapshot, at).unwrap();
            } else {
                service.try_publish_changes(&changes, at).unwrap();
            }
            if kind == 9 {
                prop_assert_eq!(service.stats().model_rebuilds, rebuilds + 1, "bulk list at step {}", step);
            }
            // Every list resolves in the model, the flap's included.
            prop_assert_eq!(counter("rvaas_incremental_desyncs_total"), 0.0, "kind {} at step {}", kind, step);
            // What the publish moved into the new epoch's memo, read before
            // any query adds to it.
            let held = service.store().current().traversals.keys();
            if kind == 9 {
                // A conservative region (the bulk list's) carries nothing.
                prop_assert!(held.is_empty(), "kind {} at step {}", kind, step);
            }
            carried_any |= !held.is_empty();

            // The mix in one call, then again one query — one batch — at a
            // time: the second pass is assembled from what the first left.
            let before = memo_counts();
            let mut served = service.try_query_all(&mix).unwrap();
            let first_pass = memo_counts();
            for (client, spec) in &mix {
                served.push(service.try_query(*client, spec.clone()).unwrap());
            }
            let second_pass = memo_counts();
            let mut fresh = oracle.evaluator(&snapshot);
            for response in &served {
                prop_assert_eq!(response.epoch_serial, service.current_serial());
                prop_assert_eq!(
                    &response.result,
                    &fresh.answer(response.client, &response.spec),
                    "{:?}/{:?} after step {} (kind {}, {} changes, full = {}) of {:?}",
                    response.client, response.spec, step, kind, changes.len(), full, ops
                );
            }
            // Not vacuous: the second pass walked nothing and was served.
            prop_assert_eq!(second_pass.1, first_pass.1, "step {}", step);
            prop_assert!(second_pass.0 > first_pass.0, "step {}", step);
            // No key was walked twice on the epoch: it walked each key its
            // publish did not carry once, one walk per host's emission, per
            // host with a share missing (that walk fills every missing share
            // at once) and per client's path probe — and after the mix it
            // holds each key once: hosts + hosts × (clients − 1) shares +
            // clients path probes.
            use rvaas::VerdictKey;
            let missing = |key: VerdictKey| !held.contains(&key);
            let emissions = hosts.iter().filter(|h| missing(VerdictKey::Emission(h.owner, h.id))).count();
            let inbound = hosts
                .iter()
                .filter(|h| clients.iter().any(|c| *c != h.owner && missing(VerdictKey::Inbound(*c, h.id))))
                .count();
            let paths = clients
                .iter()
                .filter(|c| missing(VerdictKey::Path(**c, hosts[c.0 as usize % hosts.len()].ip)))
                .count();
            let (walked, fresh_walks) = (first_pass.1 - before.1, fresh.traversal_counts().1 as f64);
            prop_assert_eq!(walked, (emissions + inbound + paths) as f64, "step {} (kind {})", step, kind);
            let keys = hosts.len() * clients.len() + clients.len();
            prop_assert_eq!(service.store().current().traversals.len(), keys, "step {}", step);
            // And what one fresh evaluator walks for the mix is one emission
            // and one inbound walk per host (the latter probing every other
            // client at once) plus each client's one path probe.
            let expected_walks = (2 * hosts.len() + clients.len()) as f64;
            prop_assert_eq!(fresh_walks, expected_walks, "step {} (kind {})", step, kind);
        }
        // Not vacuous: some epoch of the run was served traversals walked on
        // an earlier one.
        prop_assert!(carried_any, "nothing carried in {:?}", ops);
    }
}

// ---------------------------------------------------------------------------
// The memo carry selects the verdicts a publish moves.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A publish names the verdicts it may have changed by the keys its memo
    /// carry found altered. Over random tenant churn, flaps inside one
    /// change list, the attack catalogue installed and removed, and one-way
    /// joins (a join's attacker-sourced rules alone, so the victim's
    /// verdicts move through inbound walks only), with a
    /// random part of the query mix answered on each epoch's memo before the
    /// next publish (so some keys are held and some are not): every
    /// standing query whose from-scratch verdict differs across the publish
    /// is selected, and nothing is selected that the linear reference
    /// (`query_affected`, what the retired interest index was held to)
    /// leaves out — checked on every bounded region, the exact-source ones
    /// included (no walk here is cut by the cube budget, the one thing that
    /// lets the carry select beyond what a region overlaps).
    #[test]
    fn the_carry_selects_every_verdict_a_publish_moves(
        shape in 0u8..3,
        ops in proptest::collection::vec((0u8..9, 0usize..64, 0usize..64), 6..12),
        asked in proptest::collection::vec(any::<bool>(), 18..19),
    ) {
        use rvaas::RuleChange;
        use rvaas_client::QuerySpec;
        use rvaas_controlplane::Attack;
        use rvaas_service::EpochStore;
        use rvaas_types::{ClientId, SwitchId};

        let topo = match shape {
            0 => generators::line(5, 3),
            1 => generators::leaf_spine(2, 3, 3, 7),
            _ => generators::fat_tree(4, 3),
        };
        let hosts: Vec<_> = topo.hosts().cloned().collect();
        let switches: Vec<SwitchId> = topo.switches().map(|s| s.id).collect();
        let clients = topo.clients();
        let mix: Vec<(ClientId, QuerySpec)> = clients
            .iter()
            .flat_map(|c| {
                let to_ip = hosts[c.0 as usize % hosts.len()].ip;
                [
                    QuerySpec::ReachableDestinations,
                    QuerySpec::ReachingSources,
                    QuerySpec::Isolation,
                    QuerySpec::GeoLocation,
                    QuerySpec::PathLength { to_ip },
                    QuerySpec::Neutrality,
                ]
                .map(|spec| (*c, spec))
            })
            .collect();
        let oracle = rvaas::LogicalVerifier::new(
            topo.clone(),
            rvaas::VerifierConfig {
                use_history: false,
                locations: rvaas::LocationMap::disclosed(&topo),
            },
        );
        let attack_of = |kind: u8, a: usize, b: usize| -> Attack {
            let host = &hosts[a % hosts.len()];
            let others: Vec<_> = hosts.iter().filter(|h| h.owner != host.owner).collect();
            match kind {
                0 => Attack::Join { attacker_host: host.id, victim_client: others[b % others.len()].owner },
                1 => Attack::Exfiltrate { victim_host: host.id, collector_host: others[b % others.len()].id },
                2 => Attack::Blackhole { victim_host: host.id },
                3 => {
                    let peers: Vec<_> = hosts
                        .iter()
                        .filter(|h| h.owner == host.owner && h.id != host.id)
                        .collect();
                    let via = topo.switches().nth(b % switches.len()).expect("in range");
                    match peers.get(b % peers.len().max(1)) {
                        Some(peer) => Attack::GeoDivert {
                            from_host: host.id,
                            to_host: peer.id,
                            via_region: via.location.region.clone(),
                        },
                        None => Attack::Blackhole { victim_host: host.id },
                    }
                }
                _ => Attack::Throttle { victim_client: clients[b % clients.len()], rate_kbps: 64 },
            }
        };

        let mut snapshot = benign_snapshot_of(&topo);
        let store = EpochStore::new(64);
        store.attach_interest_topology(topo.clone());
        store.try_publish(snapshot.clone(), SimTime::from_millis(1)).unwrap();
        let mut model = rvaas::IncrementalModel::from_snapshot(topo.clone(), &snapshot);
        let (mut installed, mut one_way): (Vec<Attack>, Vec<Attack>) = (Vec::new(), Vec::new());
        let (mut churn_round, mut moved, mut exact_source) = (0u64, 0usize, 0usize);
        for (step, (kind, a, b)) in ops.iter().copied().enumerate() {
            let at = SimTime::from_millis(10 + step as u64);
            let toggle = |installed: &mut Vec<Attack>, attack: Attack| {
                let held = installed.iter().position(|held| *held == attack);
                let changes = attack_changes(&topo, &attack, held.is_none());
                match held {
                    Some(index) => { installed.remove(index); }
                    None => installed.push(attack),
                }
                changes
            };
            let changes: Vec<RuleChange> = match kind {
                0..=4 => toggle(&mut installed, attack_of(kind, a, b)),
                5 | 6 => {
                    let mut next = snapshot.clone();
                    rvaas_workloads::tenant_churn_round(&topo, &mut next, churn_round, 1, 2, at);
                    churn_round += 1;
                    snapshot.changes_to(&next)
                }
                // A tenant-pinned rule flapped inside one list.
                7 => {
                    let (src, dst) = (&hosts[a % hosts.len()], &hosts[b % hosts.len()]);
                    let flapper = tenant_entry(src.ip, dst.ip);
                    let switch = switches[b % switches.len()];
                    vec![
                        RuleChange::installed(switch, flapper.clone()),
                        RuleChange::removed(switch, flapper),
                    ]
                }
                // A one-way join, installed or removed: the attacker's host
                // reaches the victim tenant, whose own traffic is untouched.
                _ => {
                    let attacker = hosts[a % hosts.len()].ip;
                    let from_attacker = |change: &RuleChange| {
                        change.entry.flow_match.cube.field_exact(rvaas_types::Field::IpSrc)
                            == Some(u64::from(attacker))
                    };
                    let mut changes = toggle(&mut one_way, attack_of(0, a, b));
                    changes.retain(from_attacker);
                    changes
                }
            };

            // A random part of the mix walks its keys into this epoch's memo.
            let epoch = store.current();
            let mut session = oracle.evaluator_sharing(&epoch.snapshot, &epoch.function, &epoch.traversals);
            for ((client, spec), ask) in mix.iter().zip(&asked) {
                if *ask ^ (step % 2 == 1) {
                    let _ = session.answer(*client, spec);
                }
            }

            let mut next = snapshot.clone();
            let effective = next.apply_changes(&changes, at);
            let region = model.apply(&effective);
            let published = store.try_publish_changes(&changes, at).unwrap();
            let (mut before, mut after) = (oracle.evaluator(&snapshot), oracle.evaluator(&next));
            let bounded = !region.conservative;
            let pinned = region.space.cubes().iter().all(|c| c.field_exact(rvaas_types::Field::IpSrc).is_some());
            exact_source += usize::from(bounded && pinned && !region.is_empty());
            for (client, spec) in &mix {
                let selected = published.affected.is_affected(*client, spec);
                if before.answer(*client, spec) != after.answer(*client, spec) {
                    moved += 1;
                    prop_assert!(
                        selected,
                        "{:?}/{:?} moved but was not selected at step {} (kind {}, {:?})",
                        client, spec, step, kind, published.affected
                    );
                }
                if bounded {
                    prop_assert!(
                        !selected || rvaas::query_affected(&topo, *client, spec, &region),
                        "{:?}/{:?} selected beyond the linear reference at step {} (kind {})",
                        client, spec, step, kind
                    );
                }
            }
            snapshot = next;
        }
        // Not vacuous across the cases: verdicts do move, and tenant churn
        // and flaps pin their sources.
        prop_assert!(moved + exact_source > 0, "{:?}", ops);
    }
}
