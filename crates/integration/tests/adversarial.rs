//! Service-plane attack soundness gates.
//!
//! Every attack in the service-plane catalogue
//! ([`Attack::service_plane_expectation`]) is compiled to legitimate
//! OpenFlow/sync traffic and driven through the verification service
//! (delta sync, result cache, the epoch's frozen model); the oracle is the
//! reference implementation, which shares no service code —
//! [`LogicalVerifier::answer`] from scratch over the snapshot the test
//! itself maintains. The gates assert the predicates the attacks probe:
//! replays cannot divert a sync client for longer than one round trip,
//! phantom removals degrade to conservative re-verification instead of
//! silent divergence, caches never serve a stale epoch's verdict, and churn
//! floods trip the bulk-rebuild heuristic — and under *every* attack, the
//! service's verdicts equal the oracle's.

use proptest::prelude::*;

use rvaas::{
    query_affected, IncrementalModel, LocationMap, LogicalVerifier, NetworkSnapshot, RuleChange,
    VerifierConfig,
};
use rvaas_client::{QuerySpec, SyncError, SyncPayload, SyncResponse, SyncSession};
use rvaas_controlplane::attack::PRIO_ATTACK;
use rvaas_controlplane::{benign_rules, Attack, ServicePlaneExpectation};
use rvaas_hsa::reachability_equivalent;
use rvaas_openflow::{Action, FlowEntry, FlowMatch, FlowModCommand, Message};
use rvaas_service::{EpochStore, SyncServer, VerificationService};
use rvaas_topology::{generators, Topology};
use rvaas_types::{ClientId, Field, HostId, PortId, SimTime, SwitchId};

/// Applies compiled attack messages to the provider's snapshot, the way the
/// simulated switches would, and returns the rule changes the switches'
/// notifications would have a monitor queue.
fn apply_messages(
    snapshot: &mut NetworkSnapshot,
    messages: &[(SwitchId, Message)],
    at: SimTime,
) -> Vec<RuleChange> {
    let mut changes = Vec::new();
    for (switch, message) in messages {
        let Message::FlowMod { command } = message else {
            continue;
        };
        match command {
            FlowModCommand::Add(entry) => {
                snapshot.record_installed(*switch, entry.clone(), at);
                changes.push(RuleChange::installed(*switch, entry.clone()));
            }
            FlowModCommand::Delete { flow_match } => {
                let victims: Vec<FlowEntry> = snapshot
                    .table_of(*switch)
                    .iter()
                    .filter(|e| e.flow_match == *flow_match)
                    .cloned()
                    .collect();
                for entry in victims {
                    snapshot.record_removed(*switch, &entry, at);
                    changes.push(RuleChange::removed(*switch, entry));
                }
            }
            FlowModCommand::DeleteByCookie { cookie } => {
                let victims: Vec<FlowEntry> = snapshot
                    .table_of(*switch)
                    .iter()
                    .filter(|e| e.cookie == *cookie)
                    .cloned()
                    .collect();
                for entry in victims {
                    snapshot.record_removed(*switch, &entry, at);
                    changes.push(RuleChange::removed(*switch, entry));
                }
            }
            FlowModCommand::ModifyStrict {
                priority,
                flow_match,
                actions,
            } => {
                let held = snapshot
                    .table_of(*switch)
                    .iter()
                    .find(|e| e.priority == *priority && e.flow_match == *flow_match);
                if let Some(mut entry) = held.cloned() {
                    entry.actions = actions.as_slice().into();
                    snapshot.record_installed(*switch, entry.clone(), at);
                    changes.push(RuleChange::installed(*switch, entry));
                }
            }
        }
    }
    changes
}

fn benign_snapshot(topology: &Topology, at: SimTime) -> NetworkSnapshot {
    let mut snapshot = NetworkSnapshot::new(at);
    for (switch, entry) in benign_rules(topology) {
        snapshot.record_installed(switch, entry, at);
    }
    snapshot
}

fn verifier_config(topology: &Topology) -> VerifierConfig {
    VerifierConfig {
        use_history: false,
        locations: LocationMap::disclosed(topology),
    }
}

fn service(topology: &Topology) -> VerificationService {
    VerificationService::new(topology.clone(), true)
}

/// The full-rebuild oracle: the reference verifier, answering from scratch.
fn oracle(topology: &Topology) -> LogicalVerifier {
    LogicalVerifier::new(topology.clone(), verifier_config(topology))
}

fn publish(service: &VerificationService, snapshot: &NetworkSnapshot, at: SimTime) {
    service.try_publish(snapshot, at).unwrap();
}

/// What `server` answers to `session`'s next request as `client`.
fn serve(
    server: &SyncServer,
    service: &VerificationService,
    session: &SyncSession,
    client: ClientId,
) -> SyncResponse {
    server.handle(service, &session.request(client))
}

fn service_plane_attacks(topology: &Topology) -> Vec<Attack> {
    let flood_switch = topology.switches().next().expect("a switch").id;
    vec![
        Attack::StaleEpochReplay {
            victim_host: HostId(2),
        },
        Attack::MirrorDesync {
            victim_host: HostId(2),
            phantom_rules: 6,
        },
        Attack::CachePoison {
            victim_host: HostId(2),
        },
        Attack::ChurnFlood {
            switch: flood_switch,
            rules: 120,
        },
    ]
}

fn all_queries(topology: &Topology) -> Vec<(ClientId, QuerySpec)> {
    let clients = [ClientId(1), ClientId(2)];
    queries_of(
        clients
            .into_iter()
            .filter(|c| !topology.hosts_of_client(*c).is_empty()),
    )
}

/// The parameterless query mix, once per client.
fn queries_of(clients: impl IntoIterator<Item = ClientId>) -> Vec<(ClientId, QuerySpec)> {
    let mut queries = Vec::new();
    for client in clients {
        for spec in [
            QuerySpec::ReachableDestinations,
            QuerySpec::ReachingSources,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
            QuerySpec::Neutrality,
        ] {
            queries.push((client, spec));
        }
    }
    queries
}

/// Every verdict `service` serves for its current epoch must be the
/// oracle's from-scratch answer over `snapshot` (what that epoch holds).
fn assert_verdicts_match(
    service: &VerificationService,
    oracle: &LogicalVerifier,
    snapshot: &NetworkSnapshot,
    queries: &[(ClientId, QuerySpec)],
    context: &str,
) {
    for (client, spec) in queries {
        let served = service.try_query(*client, spec.clone()).unwrap();
        assert_eq!(served.epoch_serial, service.current_serial());
        assert_eq!(
            served.result,
            oracle.answer(snapshot, *client, spec),
            "{context}: service and full-rebuild verdicts diverge \
             for {client:?} {spec:?}"
        );
    }
}

/// The model the store froze into `service`'s current epoch must be, rule
/// for rule, what a from-scratch rebuild of `snapshot` yields.
fn assert_model_matches_rebuild(
    service: &VerificationService,
    snapshot: &NetworkSnapshot,
    context: &str,
) {
    // Identical rule lists over identical wiring: stronger than (and far
    // cheaper to check than) reachability equivalence.
    assert!(
        service.store().current().function == snapshot.to_network_function(service.topology()),
        "{context}: the epoch's frozen model diverges from a rebuild"
    );
}

/// What `service`'s registry reads for `rvaas_incremental_desyncs_total`.
fn desyncs(service: &VerificationService) -> f64 {
    let scrape = service.registry().render_text();
    let name = "rvaas_incremental_desyncs_total ";
    let sample = scrape.lines().find_map(|line| line.strip_prefix(name));
    sample.expect(name).parse().expect(name)
}

/// A table on a switch the trusted topology lacks (a rules file may name
/// any switch id) is modelled alike by the bulk build of epoch 1 and by an
/// incremental removal after it: the switch is declared with no ports and
/// holds the table, the frozen function is the snapshot's rebuild at both
/// epochs, and the removal resolves against the model.
#[test]
fn a_table_on_a_switch_the_topology_lacks_is_built_as_it_is_applied() {
    let topology = generators::line(4, 2);
    let stray = SwitchId(99);
    assert!(topology.switches().all(|sw| sw.id != stray));
    let verification = service(&topology);
    let entry = FlowEntry::new(10, FlowMatch::to_ip(7), vec![Action::Output(PortId(1))]);
    let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
    snapshot.record_installed(stray, entry.clone(), SimTime::from_millis(1));
    publish(&verification, &snapshot, SimTime::from_millis(1));
    assert_model_matches_rebuild(&verification, &snapshot, "epoch 1");
    let function = &verification.store().current().function;
    assert_eq!(function.transfer(stray).map(|t| t.len()), Some(1));
    assert!(function.ports_of(stray).is_empty());

    let at = SimTime::from_millis(2);
    snapshot.record_removed(stray, &entry, at);
    let removal = [RuleChange::removed(stray, entry)];
    verification.try_publish_changes(&removal, at).unwrap();
    assert_model_matches_rebuild(&verification, &snapshot, "epoch 2");
    assert_eq!(desyncs(&verification), 0.0);
}

/// The central soundness gate: under every service-plane attack — install,
/// attacked steady state, removal — the service's verdicts are byte-for-byte
/// the full-rebuild oracle's, and the model it answers from is a rebuild of
/// the epoch's snapshot.
#[test]
fn verdicts_match_the_full_rebuild_oracle_under_every_service_plane_attack() {
    let topology = generators::line(4, 2);
    let queries = all_queries(&topology);
    let oracle = oracle(&topology);
    for attack in service_plane_attacks(&topology) {
        assert!(
            attack.service_plane_expectation().is_some(),
            "catalogue invariant: these are service-plane attacks"
        );
        let verification = service(&topology);
        let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
        // "steady" is the attacked steady state: an epoch that changes nothing.
        for (phase, millis, messages) in [
            ("pre-attack", 1, Vec::new()),
            ("installed", 10, attack.compile(&topology)),
            ("steady", 15, Vec::new()),
            ("removed", 20, attack.compile_removal(&topology)),
        ] {
            let at = SimTime::from_millis(millis);
            apply_messages(&mut snapshot, &messages, at);
            publish(&verification, &snapshot, at);
            let context = format!("{} {phase}", attack.label());
            assert_model_matches_rebuild(&verification, &snapshot, &context);
            assert_verdicts_match(&verification, &oracle, &snapshot, &queries, &context);
        }
    }

    // The same gate for an in-place action rewrite: a rule goes in, has its
    // actions replaced under the same priority + match (`ModifyStrict`), and
    // gets them back. The service is fed the rule changes only; the oracle
    // reads the snapshot `apply_messages` edits.
    let verification = service(&topology);
    let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
    publish(&verification, &snapshot, SimTime::from_millis(1));
    let victim = topology.hosts().find(|h| h.id == HostId(2)).expect("host");
    let decoy = FlowEntry::new(
        PRIO_ATTACK,
        FlowMatch::to_ip(victim.ip),
        vec![Action::Output(victim.attachment.port)],
    );
    let rewrite = |actions: &[Action]| FlowModCommand::ModifyStrict {
        priority: decoy.priority,
        flow_match: decoy.flow_match.clone(),
        actions: actions.to_vec(),
    };
    let phases = [
        ("installed", Some(FlowModCommand::Add(decoy.clone()))),
        ("rewritten", Some(rewrite(&[Action::Drop]))),
        ("steady", None),
        ("restored", Some(rewrite(&decoy.actions))),
    ];
    for (i, (phase, command)) in phases.into_iter().enumerate() {
        let at = SimTime::from_millis(10 + 5 * i as u64);
        let messages: Vec<(SwitchId, Message)> = command
            .map(|command| (victim.attachment.switch, Message::FlowMod { command }))
            .into_iter()
            .collect();
        let changes = apply_messages(&mut snapshot, &messages, at);
        verification.try_publish_changes(&changes, at).unwrap();
        let context = format!("action rewrite {phase}");
        assert_model_matches_rebuild(&verification, &snapshot, &context);
        assert_verdicts_match(&verification, &oracle, &snapshot, &queries, &context);
    }
}

/// In-place displacement: two exfiltrations of one victim toward different
/// collectors put different actions on one `(priority, match)` key, so the
/// second displaces the first *in its slot* — in the switch, in the snapshot,
/// in a rebuild. A join rule installed between the two overlaps it at equal
/// priority, so where the displaced rule sits decides what is forwarded: a
/// model that re-installed it behind its peers would answer reachability and
/// isolation differently from the oracle until its next rebuild.
#[test]
fn an_in_place_displacement_keeps_its_slot_among_equal_priority_peers() {
    let topology = generators::leaf_spine(2, 3, 3, 7);
    let oracle = oracle(&topology);
    let hosts: Vec<_> = topology.hosts().cloned().collect();
    let victim = &hosts[0];
    let outsiders: Vec<_> = hosts.iter().filter(|h| h.owner != victim.owner).collect();
    let queries = queries_of(topology.clients());
    let exfiltrate = |collector: HostId| Attack::Exfiltrate {
        victim_host: victim.id,
        collector_host: collector,
    };
    for attacker in &outsiders {
        for k in 0..3 {
            let (first, second) = (outsiders[k].id, outsiders[(k + 1) % outsiders.len()].id);
            let verification = service(&topology);
            let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
            publish(&verification, &snapshot, SimTime::from_millis(1));
            let steps = [
                ("first exfiltration", exfiltrate(first)),
                (
                    "join beside it",
                    Attack::Join {
                        attacker_host: attacker.id,
                        victim_client: victim.owner,
                    },
                ),
                ("displacing exfiltration", exfiltrate(second)),
            ];
            for (i, (phase, attack)) in steps.into_iter().enumerate() {
                let at = SimTime::from_millis(10 + 5 * i as u64);
                let changes = apply_messages(&mut snapshot, &attack.compile(&topology), at);
                verification.try_publish_changes(&changes, at).unwrap();
                let context = format!("{phase} ({} joins, {first} then {second})", attacker.id);
                assert!(
                    reachability_equivalent(
                        &verification.store().current().function,
                        &snapshot.to_network_function(&topology),
                    ),
                    "{context}: the frozen model forwards differently from a rebuild"
                );
                assert_model_matches_rebuild(&verification, &snapshot, &context);
                assert_verdicts_match(&verification, &oracle, &snapshot, &queries, &context);
            }
        }
    }
}

/// Stale-epoch replay: replayed pre-attack sync responses cannot divert a
/// client for longer than one round trip. Deltas from a wrong session are
/// rejected outright; a replayed (authoritative-looking) reset is undone by
/// the next ordinary sync exchange.
#[test]
fn stale_epoch_replay_cannot_roll_back_a_sync_client() {
    let topology = generators::line(3, 1);
    let attack = Attack::StaleEpochReplay {
        victim_host: HostId(2),
    };
    assert_eq!(
        attack.service_plane_expectation(),
        Some(ServicePlaneExpectation::ReplayRejected)
    );

    let verification = service(&topology);
    let sync_server = SyncServer::new(7, &verification.registry());
    let client = ClientId(1);

    let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
    publish(&verification, &snapshot, SimTime::from_millis(1));

    // The victim client synchronises with the clean epoch; the adversary
    // records the very response it received.
    let mut session = SyncSession::new();
    let recorded_clean = serve(&sync_server, &verification, &session, client);
    session.apply(&recorded_clean).expect("initial reset");
    assert!(session.is_synchronised());

    // The attack lands and the service publishes the poisoned epoch; the
    // client picks it up through a normal delta.
    apply_messages(
        &mut snapshot,
        &attack.compile(&topology),
        SimTime::from_millis(10),
    );
    publish(&verification, &snapshot, SimTime::from_millis(10));
    let delta = serve(&sync_server, &verification, &session, client);
    session.apply(&delta).expect("delta to the attacked epoch");
    let truth_serial = session.serial();

    // Replay 1: a delta stamped with a foreign session id must be rejected.
    let foreign = SyncResponse {
        session: 999,
        serial: truth_serial + 1,
        payload: SyncPayload::Delta {
            added: Vec::new(),
            removed: Vec::new(),
            reverified: Vec::new(),
        },
        trace: 0,
    };
    assert!(matches!(
        session.apply(&foreign),
        Err(SyncError::SessionMismatch { .. })
    ));
    assert_eq!(session.serial(), truth_serial, "rejected replay is a no-op");

    // Replay 2: the recorded clean-epoch reset *does* apply (resets are
    // server-authoritative), rolling the mirror back...
    session
        .apply(&recorded_clean)
        .expect("replayed reset applies");
    assert!(session.serial() < truth_serial, "the rollback happened");

    // ...but a single ordinary round trip reconverges the mirror onto the
    // server's real state, with the usual desync-reset fallback.
    let catchup = serve(&sync_server, &verification, &session, client);
    if session.apply(&catchup).is_err() {
        session.desynchronise();
        let reset = serve(&sync_server, &verification, &session, client);
        session.apply(&reset).expect("recovery reset");
    }
    assert_eq!(session.serial(), verification.current_serial());

    // Converged means converged: a fresh observer syncing from scratch holds
    // exactly the same digest set.
    let mut fresh = SyncSession::new();
    let full = serve(&sync_server, &verification, &fresh, ClientId(1));
    fresh.apply(&full).expect("fresh reset");
    assert_eq!(session.digests(), fresh.digests());
}

/// Mirror-desync: phantom removals must flip the incremental model into its
/// desynchronised, conservative mode (every query re-verified), and a
/// rebuild from the true snapshot must restore exact equivalence.
#[test]
fn phantom_removals_degrade_to_conservative_reverification() {
    let topology = generators::line(3, 1);
    let attack = Attack::MirrorDesync {
        victim_host: HostId(2),
        phantom_rules: 6,
    };
    let snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
    let mut model = IncrementalModel::from_snapshot(topology.clone(), &snapshot);
    assert!(!model.is_desynced());

    // Compile the phantom removals into rule-level changes, exactly the way
    // the epoch delta would present them.
    let changes: Vec<RuleChange> = attack
        .compile(&topology)
        .into_iter()
        .filter_map(|(switch, message)| match message {
            Message::FlowMod {
                command: FlowModCommand::Delete { flow_match },
            } => Some(RuleChange::removed(
                switch,
                FlowEntry::new(PRIO_ATTACK, flow_match, Vec::new()),
            )),
            _ => None,
        })
        .collect();
    assert_eq!(changes.len(), 6);

    let region = model.apply(&changes);
    assert!(model.is_desynced(), "unknown removals must be noticed");
    assert!(
        region.conservative,
        "a desynchronised model must not claim a bounded region"
    );
    // Conservative means *every* standing query re-verifies — the safe
    // direction; no verdict is ever served from the diverged mirror.
    for (client, spec) in all_queries(&topology) {
        assert!(
            query_affected(&topology, client, &spec, &region),
            "{client:?} {spec:?} must be re-verified under a conservative region"
        );
    }

    // Recovery: a rebuild from the (true) snapshot restores exact
    // behavioural equivalence with the real network.
    model.rebuild_from(&snapshot);
    assert!(!model.is_desynced());
    assert!(reachability_equivalent(
        model.network_function(),
        &snapshot.to_network_function(&topology)
    ));

    // The service's one model sits behind the epoch store, which drops
    // removals of rules the epoch does not hold before they reach it: the
    // phantoms are a no-op epoch, not a desync.
    let verification = service(&topology);
    publish(&verification, &snapshot, SimTime::from_millis(1));
    let store = verification.store();
    let at = SimTime::from_millis(10);
    let phantom = store.try_publish_changes(&changes, at).unwrap();
    let record = store.provenance(phantom.serial).expect("retained");
    assert_eq!(record.delta_rules, 0);
    assert!(phantom.affected.is_empty(), "{:?}", phantom.affected);
    assert_model_matches_rebuild(&verification, &snapshot, "phantom removals");

    // Nor does a phantom that first gets installed within the same batch:
    // the model applies the list in its order, so the removal finds the
    // rule the install just put in. The flap epoch is bounded and leaves
    // the model a rebuild of the unchanged snapshot, and so is the epoch
    // that installs the phantom for real.
    let (switch, flapper) = (changes[0].switch, changes[0].entry.clone());
    let flap = [
        RuleChange::installed(switch, flapper.clone()),
        changes[0].clone(),
    ];
    let flapped = store.try_publish_changes(&flap, at).unwrap();
    assert!(!flapped.affected.is_everything(), "{:?}", flapped.affected);
    assert_model_matches_rebuild(&verification, &snapshot, "flap epoch");
    let installed = store.try_publish_changes(&flap[..1], at).unwrap();
    assert!(
        !installed.affected.is_everything(),
        "{:?}",
        installed.affected
    );
    let mut attacked = snapshot.clone();
    attacked.record_installed(switch, flapper, at);
    assert_model_matches_rebuild(&verification, &attacked, "after the install");
}

/// A rule flapped inside one batch buys the adversary nothing. It holds the
/// control plane, so it decides what one batch of monitoring carries: here
/// every batch of tenant churn also carries a rule installed and removed
/// again, and one carries a rule installed twice with different actions,
/// the drop displacing the forward in its slot and staying until the next
/// batch removes it. Applied in list order, every such list resolves: no
/// publish desyncs the model or re-verifies every standing query, each one
/// carries traversals over from the epoch before, and every verdict the
/// service serves or a sync session re-verifies is the from-scratch
/// oracle's.
#[test]
fn a_rule_flapped_inside_one_batch_is_a_bounded_epoch() {
    let topology = generators::fat_tree(4, 4);
    let clients = topology.clients();
    let queries = queries_of(clients.iter().copied());
    let verification = service(&topology);
    let oracle = oracle(&topology);
    let store = verification.store();
    let sync_server = SyncServer::new(11, &verification.registry());
    for (client, spec) in &queries {
        sync_server.subscribe(*client, spec.clone());
    }

    let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
    publish(&verification, &snapshot, SimTime::from_millis(1));
    let mut sessions: Vec<(ClientId, SyncSession)> =
        clients.iter().map(|c| (*c, SyncSession::new())).collect();
    for (client, session) in &mut sessions {
        let reset = serve(&sync_server, &verification, session, *client);
        session.apply(&reset).expect("initial reset");
    }
    assert_verdicts_match(&verification, &oracle, &snapshot, &queries, "epoch 1");

    // The flapped rule: one tenant's own (src, dst) pair on the source's
    // access switch, dropping or sent out of port 1.
    let tenant = topology.hosts_of_client(clients[0]);
    let (switch, pair) = (
        tenant[0].attachment.switch,
        FlowMatch::from_ip(tenant[0].ip).field(Field::IpDst, u64::from(tenant[1].ip)),
    );
    let rule = |action| FlowEntry::new(PRIO_ATTACK, pair.clone(), vec![action]);
    let (forward, drop) = (rule(Action::Output(PortId(1))), rule(Action::Drop));
    let on = |entry: &FlowEntry| RuleChange::installed(switch, entry.clone());
    let off = |entry: &FlowEntry| RuleChange::removed(switch, entry.clone());

    let mut reverified = 0;
    for round in 1..=4u64 {
        let at = SimTime::from_millis(10 * round);
        let flap = match round {
            2 => vec![on(&forward), on(&drop)],
            3 => vec![off(&drop), on(&forward), off(&forward)],
            _ => vec![on(&drop), off(&drop)],
        };
        let mut next = snapshot.clone();
        rvaas_workloads::tenant_churn_round(&topology, &mut next, round, 1, 2, at);
        let mut batch = snapshot.changes_to(&next);
        let middle = batch.len() / 2;
        batch.splice(middle..middle, flap);
        // The test's own snapshot, edited the way a monitor would.
        for change in &batch {
            if change.installed {
                snapshot.record_installed(change.switch, change.entry.clone(), at);
            } else {
                snapshot.record_removed(change.switch, &change.entry, at);
            }
        }

        let serial = verification.try_publish_changes(&batch, at).unwrap();
        let context = format!("round {round}: {batch:?}");
        assert_eq!(desyncs(&verification), 0.0, "{context}");
        let record = store.provenance(serial).expect("retained");
        assert!(!record.affected_everything, "{context}");
        assert!(store.current().traversals.len() > 0, "{context}");
        assert_model_matches_rebuild(&verification, &snapshot, &context);

        for (client, session) in &mut sessions {
            let response = serve(&sync_server, &verification, session, *client);
            if let SyncPayload::Delta {
                reverified: answers,
                ..
            } = &response.payload
            {
                for answer in answers {
                    assert_eq!(
                        answer.result,
                        oracle.answer(&snapshot, *client, &answer.spec),
                        "{context}: {client:?} {:?} re-verified",
                        answer.spec
                    );
                    reverified += 1;
                }
            }
            session.apply(&response).expect("delta applies");
        }
        assert_verdicts_match(&verification, &oracle, &snapshot, &queries, &context);
    }
    assert!(reverified > 0, "sync re-verified nothing");
}

/// Cache poisoning: a rule toggled on and off across epochs flips the
/// reachability verdict each time, and every answer — cached or not — must
/// equal the full-rebuild oracle's answer for the *same* epoch's snapshot.
#[test]
fn epoch_toggled_rule_cannot_poison_the_result_cache() {
    let topology = generators::line(3, 1);
    let attack = Attack::CachePoison {
        victim_host: HostId(2),
    };
    let cached = service(&topology);
    let oracle = oracle(&topology);
    let client = ClientId(1);
    let spec = QuerySpec::ReachableDestinations;

    let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
    publish(&cached, &snapshot, SimTime::from_millis(1));

    let mut verdicts = Vec::new();
    for epoch in 0..6u64 {
        let at = SimTime::from_millis(10 + 10 * epoch);
        let messages = if epoch % 2 == 0 {
            attack.compile(&topology)
        } else {
            attack.compile_removal(&topology)
        };
        apply_messages(&mut snapshot, &messages, at);
        publish(&cached, &snapshot, at);

        // Query twice so the second answer is eligible for the cache, then
        // compare both against the oracle.
        let first = cached.try_query(client, spec.clone()).unwrap();
        let second = cached.try_query(client, spec.clone()).unwrap();
        let truth = oracle.answer(&snapshot, client, &spec);
        assert_eq!(first.result, truth, "epoch {epoch}: fresh answer");
        assert_eq!(second.result, truth, "epoch {epoch}: cached answer");
        assert_eq!(first.epoch_serial, cached.current_serial());
        assert_eq!(second.epoch_serial, first.epoch_serial);
        verdicts.push(first.result);
    }
    // Ground truth that the probe works: consecutive epochs disagree.
    for pair in verdicts.windows(2) {
        assert_ne!(
            pair[0], pair[1],
            "the toggled rule must flip the verdict between epochs"
        );
    }
    // And the cache was actually exercised, not bypassed.
    assert!(
        cached.stats().cache_hits > 0,
        "second same-epoch query must hit the cache"
    );
}

/// Churn flood: a single epoch carrying hundreds of distinct rule changes
/// must trip the epoch store's bulk-rebuild heuristic (per-rule region
/// tracking would be slower than a rebuild), while an ordinary small delta
/// must not.
#[test]
fn churn_flood_trips_the_bulk_rebuild_heuristic() {
    let topology = generators::line(3, 1);
    let flood_switch = topology.switches().next().expect("a switch").id;
    let attack = Attack::ChurnFlood {
        switch: flood_switch,
        rules: 120,
    };
    let Some(ServicePlaneExpectation::BulkRebuild { min_changes }) =
        attack.service_plane_expectation()
    else {
        panic!("churn flood must carry the bulk-rebuild expectation");
    };

    let store = EpochStore::new(8);
    let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
    store
        .try_publish(snapshot.clone(), SimTime::from_millis(1))
        .expect("baseline epoch");

    // The flood epoch: every rule is a distinct digest, so the delta size
    // equals the flood size and the heuristic must fire.
    apply_messages(
        &mut snapshot,
        &attack.compile(&topology),
        SimTime::from_millis(10),
    );
    let flooded = store
        .try_publish(snapshot.clone(), SimTime::from_millis(10))
        .expect("flood epoch");
    let record = |serial| store.provenance(serial).expect("retained");
    let flood = record(flooded.serial);
    assert!(flood.delta_rules >= min_changes as usize);
    assert!(
        flood.bulk_rebuild,
        "{} rule changes must take the bulk-rebuild path",
        flood.delta_rules
    );
    assert!(
        flooded.affected.is_everything(),
        "a bulk rebuild affects every query"
    );

    // Removing the flood is the same storm in reverse.
    apply_messages(
        &mut snapshot,
        &attack.compile_removal(&topology),
        SimTime::from_millis(20),
    );
    let drained = store
        .try_publish(snapshot.clone(), SimTime::from_millis(20))
        .expect("drain epoch");
    assert!(record(drained.serial).bulk_rebuild);

    // Control: one ordinary change stays on the per-rule delta path.
    apply_messages(
        &mut snapshot,
        &Attack::Blackhole {
            victim_host: HostId(2),
        }
        .compile(&topology),
        SimTime::from_millis(30),
    );
    let small = store
        .try_publish(snapshot.clone(), SimTime::from_millis(30))
        .expect("small epoch");
    assert!(
        !record(small.serial).bulk_rebuild,
        "a one-rule delta must not trigger a bulk rebuild"
    );
    assert_eq!(record(small.serial).delta_rules, 1);
}

/// An inert flood buys neither a verdict nor verifier CPU. 2000
/// high-priority drop rules for destinations nobody has, on an edge switch —
/// every traversal that starts at a host port there walks past all of them,
/// above the port's admissions and wildcard drop — leave the six-query mix
/// of a tenant attached there exactly what it was before the flood, from the
/// service and from the from-scratch oracle alike. There is no wall-clock
/// assertion. With a transfer function that re-partitions the not-yet-matched
/// space around every rule overlapping it, one `ReachableDestinations`
/// verdict here took 1.3 s at 256 flood rules in a release build and grew
/// cubically with the count: such a build does not fail this test, it does
/// not finish it.
#[test]
fn an_inert_rule_flood_neither_changes_nor_slows_a_verdict() {
    let topology = generators::leaf_spine(4, 16, 8, 7);
    let victim = topology.hosts().next().expect("a host").clone();
    let queries: Vec<(ClientId, QuerySpec)> = [
        QuerySpec::ReachableDestinations,
        QuerySpec::ReachingSources,
        QuerySpec::Isolation,
        QuerySpec::GeoLocation,
        QuerySpec::PathLength { to_ip: victim.ip },
        QuerySpec::Neutrality,
    ]
    .map(|spec| (victim.owner, spec))
    .to_vec();
    let service = service(&topology);
    let oracle = oracle(&topology);
    let answers = |snapshot: &NetworkSnapshot| {
        let mut fresh = oracle.evaluator(snapshot);
        let served = service.try_query_all(&queries).unwrap();
        let results: Vec<_> = served.into_iter().map(|r| r.result).collect();
        for ((client, spec), result) in queries.iter().zip(&results) {
            assert_eq!(*result, fresh.answer(*client, spec), "{client:?} {spec:?}");
        }
        results
    };

    let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
    publish(&service, &snapshot, SimTime::from_millis(1));
    let before = answers(&snapshot);

    let flood = Attack::ChurnFlood {
        switch: victim.attachment.switch,
        rules: 2000,
    };
    let installed = apply_messages(
        &mut snapshot,
        &flood.compile(&topology),
        SimTime::from_millis(10),
    );
    assert_eq!(installed.len(), 2000);
    publish(&service, &snapshot, SimTime::from_millis(10));
    assert_eq!(answers(&snapshot), before, "the flood changed a verdict");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Convergence under adversarial interleavings: whatever mix of benign
    /// churn, attacks, removals, stale replays and forced desyncs a client
    /// endures, one ordinary sync exchange (with the standard desync-reset
    /// fallback) lands it exactly on the server's current digest set.
    #[test]
    fn sync_session_converges_after_any_interleaving(ops in proptest::collection::vec(0u8..6u8, 1..24)) {
        let topology = generators::line(3, 1);
        let verification = service(&topology);
        let sync_server = SyncServer::new(11, &verification.registry());
        let client = ClientId(1);
        let attack = Attack::StaleEpochReplay { victim_host: HostId(2) };

        let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
        publish(&verification, &snapshot, SimTime::from_millis(1));
        let mut session = SyncSession::new();
        let recorded = serve(&sync_server, &verification, &session, client);
        session.apply(&recorded).expect("initial reset");

        let mut attacked = false;
        for (step, op) in ops.iter().enumerate() {
            let at = SimTime::from_millis(10 + step as u64 * 10);
            match op {
                // Benign churn: toggle an unrelated blackhole.
                0 => {
                    let benign = Attack::Blackhole { victim_host: HostId(3) };
                    let messages = if step % 2 == 0 {
                        benign.compile(&topology)
                    } else {
                        benign.compile_removal(&topology)
                    };
                    apply_messages(&mut snapshot, &messages, at);
                    publish(&verification, &snapshot, at);
                }
                // Attack install / removal epochs.
                1 => {
                    if !attacked {
                        apply_messages(&mut snapshot, &attack.compile(&topology), at);
                        publish(&verification, &snapshot, at);
                        attacked = true;
                    }
                }
                2 => {
                    if attacked {
                        apply_messages(&mut snapshot, &attack.compile_removal(&topology), at);
                        publish(&verification, &snapshot, at);
                        attacked = false;
                    }
                }
                // An ordinary sync round trip, with the reset fallback.
                3 => {
                    let response = serve(&sync_server, &verification, &session, client);
                    if session.apply(&response).is_err() {
                        session.desynchronise();
                        let reset = serve(&sync_server, &verification, &session, client);
                        session.apply(&reset).expect("recovery reset");
                    }
                }
                // Adversarial replay of the recorded clean epoch; errors
                // (e.g. removal of a digest the rollback lost) force the
                // documented desync fallback.
                4 => {
                    if session.apply(&recorded).is_err() {
                        session.desynchronise();
                    }
                }
                // Spontaneous client state loss (crash/restart).
                _ => session.desynchronise(),
            }
        }

        // One ordinary exchange must now converge the mirror exactly.
        let response = serve(&sync_server, &verification, &session, client);
        if session.apply(&response).is_err() {
            session.desynchronise();
            let reset = serve(&sync_server, &verification, &session, client);
            session.apply(&reset).expect("final recovery reset");
        }
        prop_assert_eq!(session.serial(), verification.current_serial());
        let mut fresh = SyncSession::new();
        let full = serve(&sync_server, &verification, &fresh, client);
        fresh.apply(&full).expect("fresh observer reset");
        prop_assert_eq!(session.digests(), fresh.digests());
    }
}
