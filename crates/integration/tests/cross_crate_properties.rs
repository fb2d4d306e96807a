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
                    rewritten.actions = if held.actions == [Action::Drop] {
                        vec![Action::Output(rvaas_types::PortId(1))]
                    } else {
                        vec![Action::Drop]
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
