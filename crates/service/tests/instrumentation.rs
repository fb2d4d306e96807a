//! Readers for what the epoch store records about its model and interest
//! index: the chain a publish leaves in the flight recorder, event for
//! event, and the exact value of every `rvaas_interest_*` /
//! `rvaas_incremental_*` series — and of the four traversal-memo counters,
//! two the store records at publish and two the query path records — after
//! a scripted scenario.

use rvaas::{
    LocationMap, LogicalVerifier, NetworkSnapshot, QueryFootprint, RuleChange, VerifierConfig,
};
use rvaas_client::QuerySpec;
use rvaas_controlplane::benign_rules;
use rvaas_openflow::{Action, FlowEntry, FlowMatch};
use rvaas_service::{ServiceSettings, VerificationService};
use rvaas_telemetry::{parse_text, trace::recorder, TraceStage, TraceStage::*};
use rvaas_topology::{generators, Host, Topology};
use rvaas_types::{ClientId, Field, PortId, SimTime, SwitchId};

fn verifier_config(topology: &Topology) -> VerifierConfig {
    VerifierConfig {
        use_history: false,
        locations: LocationMap::disclosed(topology),
    }
}

/// A service over a four-tenant fat tree whose first epoch is the benign
/// rule set: more than 64 changes, so that publish bulk-rebuilds.
fn service() -> (Topology, VerificationService, NetworkSnapshot) {
    let topology = generators::fat_tree(4, 4);
    let service = VerificationService::new(topology.clone(), ServiceSettings::default());
    let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
    for (switch, entry) in benign_rules(&topology) {
        snapshot.record_installed(switch, entry, SimTime::from_millis(1));
    }
    assert!(snapshot.rule_count() > 64, "{}", snapshot.rule_count());
    service
        .try_publish(&snapshot, SimTime::from_millis(1))
        .unwrap();
    (topology, service, snapshot)
}

fn host_of(topology: &Topology, client: u32) -> &Host {
    topology.hosts_of_client(ClientId(client))[0]
}

/// A rule above the benign priorities (so its whole match is exposed),
/// pinned to one `(src, dst)` tenant pair.
fn tenant_rule(topology: &Topology, src: u32, dst: u32) -> FlowEntry {
    let pair = FlowMatch::from_ip(host_of(topology, src).ip)
        .field(Field::IpDst, u64::from(host_of(topology, dst).ip));
    FlowEntry::new(400, pair, vec![Action::Drop])
}

/// The same rule installed and removed within one list. The model applies
/// the list in its order, so the removal finds the rule the install put in:
/// the region is the rule's own, pinned to tenants 3 and 4, and nothing is
/// rebuilt. Digest-wise the flap is a no-op.
fn flap(topology: &Topology, switch: SwitchId) -> [RuleChange; 2] {
    let flapper = tenant_rule(topology, 3, 4);
    [
        RuleChange::installed(switch, flapper.clone()),
        RuleChange::removed(switch, flapper),
    ]
}

#[test]
fn a_publish_leaves_exactly_its_documented_chain() {
    let (topology, service, snapshot) = service();
    let store = service.store();
    let chain_of = |serial: u64| -> Vec<(TraceStage, u64, u64)> {
        let trace = store.provenance(serial).expect("retained").trace;
        let chain = recorder().chain(trace);
        chain.iter().map(|e| (e.stage, e.a, e.b)).collect()
    };
    let rules = snapshot.rule_count() as u64;
    let switches = snapshot.tables().count() as u64;
    let digest = || store.current().content_digest();

    // The first publish is a bulk one: the model is rebuilt and, with no
    // bounded region, everything is affected.
    assert_eq!(
        chain_of(1),
        [
            (EpochPublish, 1, rules),
            (ModelRebuild, rules, switches),
            (EpochDigest, digest(), u64::MAX),
            (CacheCarry, 0, 0),
        ]
    );

    // A query's chain holds no model stage (the publisher owns the model)
    // and no hand-over: it is answered on the thread that asked.
    let response = service
        .try_query(ClientId(1), QuerySpec::ReachableDestinations)
        .unwrap();
    let chain = recorder().chain(response.trace);
    assert_eq!(
        chain.iter().map(|e| e.stage).collect::<Vec<_>>(),
        [CacheMiss, Eval, Verdict]
    );

    // A delta publish applies its list in place. The rule sits on client
    // 1's access switch, pinned to its source: it selects the one standing
    // query, whose cached verdict is invalidated, not carried.
    let switch = host_of(&topology, 1).attachment.switch;
    let install = RuleChange::installed(switch, tenant_rule(&topology, 1, 2));
    let serial = service
        .try_publish_changes(&[install], SimTime::from_millis(2))
        .unwrap();
    assert_eq!(
        chain_of(serial),
        [
            (EpochPublish, serial, 1),
            (IncrementalApply, 1, rules + 1),
            (EpochDigest, digest(), 1),
            (CacheCarry, 0, 1),
        ]
    );

    // A flap is applied in place like any other list, and leaves the model
    // as it found it. Its region, pinned to tenants 3 and 4, misses client
    // 1's emission: nothing is selected, and the cache, emptied by the
    // publish above, has nothing to carry or invalidate.
    let serial = service
        .try_publish_changes(&flap(&topology, switch), SimTime::from_millis(3))
        .unwrap();
    assert_eq!(
        chain_of(serial),
        [
            (EpochPublish, serial, 0),
            (IncrementalApply, 2, rules + 1),
            (EpochDigest, digest(), 0),
            (CacheCarry, 0, 0),
        ]
    );
}

#[test]
fn every_store_side_series_reads_its_scripted_value() {
    let (topology, service, snapshot) = service();
    let store = service.store();

    // Three standing queries, each evaluated at epoch 1 — so registered,
    // then refined with the footprint the evaluation recorded.
    let queries = [
        (ClientId(1), QuerySpec::ReachableDestinations),
        (ClientId(2), QuerySpec::ReachingSources),
        (ClientId(3), QuerySpec::ReachableDestinations),
    ];
    let verifier = LogicalVerifier::new(topology.clone(), verifier_config(&topology));
    let mut evaluator = verifier.evaluator(&snapshot);
    let mut footprint_switches = 0;
    for (client, spec) in &queries {
        service.try_query(*client, spec.clone()).unwrap();
        let (_, footprint) = evaluator.answer_with_footprint(*client, spec);
        footprint_switches += footprint.switches.expect("bounded").len();
    }

    // One refinement the index accepts — it narrows client 2's query to a
    // switch the coming change is not on — and one it drops as stale
    // (captured at serial 0; the query was registered at serial 1).
    let changed = host_of(&topology, 1).attachment.switch;
    let elsewhere = host_of(&topology, 4).attachment.switch;
    let narrowed = QueryFootprint::bounded([elsewhere].into_iter().collect());
    store.refine_interest(queries[1].0, &queries[1].1, 1, &narrowed);
    store.refine_interest(queries[2].0, &queries[2].1, 0, &narrowed);
    footprint_switches += 1;

    // A delta publish whose region (src = client 1, dst = client 2) makes
    // the first two queries candidates: the exact test confirms the first
    // (its traversal starts on the changed switch) and rejects the second
    // (narrowed away above). One hit, one miss, one interest widened.
    let install = RuleChange::installed(changed, tenant_rule(&topology, 1, 2));
    service
        .try_publish_changes(&[install], SimTime::from_millis(2))
        .unwrap();

    // A flap, straight into the store (the pool's publish counters do not
    // see it), led by the removal of a rule the epoch never held — which
    // never reaches the model. Two rule changes, both resolved in list
    // order. Their region (src = client 3, dst = client 4, on client 1's
    // access switch) makes the third query a candidate, which the exact
    // test rejects: none of its traversals reaches that switch. One miss,
    // nothing widened.
    let mut changes = vec![RuleChange::removed(changed, tenant_rule(&topology, 4, 3))];
    changes.extend(flap(&topology, changed));
    store
        .try_publish_changes(&changes, SimTime::from_millis(3))
        .unwrap();

    // A rewrite rule: every region is conservative while one is installed.
    // One rule change, one conservative region, three interests widened.
    let rewrite = FlowEntry::new(
        400,
        FlowMatch::to_ip(0xdead_beef),
        vec![Action::SetField(Field::Vlan, 7), Action::Output(PortId(1))],
    );
    service
        .try_publish_changes(
            &[RuleChange::installed(elsewhere, rewrite)],
            SimTime::from_millis(4),
        )
        .unwrap();

    // Everything the scrape says about the model and the index, in render
    // order — so a series beyond these (the lookup count that restated
    // `rvaas_epoch_publishes_total`) fails this too.
    let samples = parse_text(&service.registry().render_text()).expect("well-formed");
    let about_the_store = |name: &str| {
        [
            "rvaas_interest_",
            "rvaas_incremental_",
            "rvaas_model_",
            "rvaas_traversal_memo_",
        ]
        .iter()
        .any(|family| name.starts_with(family))
            && !name.ends_with("_bucket")
    };
    let exported: Vec<(&str, f64)> = samples
        .iter()
        .filter(|s| about_the_store(&s.name))
        .map(|s| (s.name.as_str(), s.value))
        .collect();
    assert_eq!(
        exported,
        [
            // The pool's count of the two deltas that went through it...
            ("rvaas_incremental_applies_total", 2.0),
            ("rvaas_incremental_conservative_regions_total", 1.0),
            ("rvaas_incremental_desyncs_total", 0.0),
            ("rvaas_incremental_rule_changes_total", 4.0),
            (
                "rvaas_interest_footprint_switches_sum",
                footprint_switches as f64
            ),
            ("rvaas_interest_footprint_switches_count", 4.0),
            ("rvaas_interest_hits_total", 1.0),
            ("rvaas_interest_misses_total", 2.0),
            ("rvaas_interest_refinements_total", 4.0),
            ("rvaas_interest_registered_queries", 3.0),
            ("rvaas_interest_stale_refinements_total", 1.0),
            ("rvaas_interest_widened_total", 4.0),
            // ...and of the bulk first epoch.
            ("rvaas_model_rebuilds_total", 1.0),
            // The delta publish carries 18 of the 20 traversals walked at
            // epoch 1: it drops the emission of client 1's first host and
            // that host's inbound walk (one walk, probing clients 2, 3 and
            // 4, and client 2 owns the region's destination), both starting
            // on the changed switch inside the region. The flap's region
            // meets none of the 18, so it carries all of them, and the
            // conservative rewrite epoch drops them: 18 + 18 carried,
            // 2 + 18 dropped.
            ("rvaas_traversal_memo_carried_total", 36.0),
            ("rvaas_traversal_memo_dropped_total", 20.0),
            // The three queries, all at epoch 1 on its cold memo, share no
            // traversal: each walked its own (4 emissions of client 1's
            // hosts, one inbound walk from each of the 12 hosts foreign to
            // client 2, 4 emissions of client 3's) and read verdict and
            // footprint off that one lookup.
            ("rvaas_traversal_memo_hits_total", 0.0),
            ("rvaas_traversal_memo_misses_total", 20.0),
        ]
    );
}
