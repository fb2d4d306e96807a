//! Readers for what the epoch store records about its publishes, its model
//! and its traversal memos: the chain a publish leaves in the flight
//! recorder, event for event, the verdict keys each publish's provenance
//! counts, and the exact value of every `rvaas_epoch_*` and
//! `rvaas_incremental_*` series — and of the four traversal-memo counters,
//! two the store records at publish and two the query path records — after
//! a scripted scenario.

use rvaas::{NetworkSnapshot, RuleChange};
use rvaas_client::QuerySpec;
use rvaas_controlplane::benign_rules;
use rvaas_openflow::{Action, FlowEntry, FlowMatch};
use rvaas_service::VerificationService;
use rvaas_telemetry::{parse_text, trace::recorder, TraceStage, TraceStage::*};
use rvaas_topology::{generators, Host, Topology};
use rvaas_types::{ClientId, Field, PortId, SimTime, SwitchId};

/// A service over a four-tenant fat tree whose first epoch is the benign
/// rule set: more than 64 changes, so that publish bulk-rebuilds.
fn service() -> (Topology, VerificationService, NetworkSnapshot) {
    let topology = generators::fat_tree(4, 4);
    let service = VerificationService::new(topology.clone(), true);
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
    // 1's access switch, pinned to its source and to a host of client 2:
    // four verdict keys — the held emission of that source host, which
    // starts on the changed switch, client 2's share of the host's inbound
    // walk and client 1's path probe towards the destination (neither
    // walked yet), and the access switches' tables. The one cached verdict
    // reads the emission and is invalidated, not carried.
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
            (EpochDigest, digest(), 4),
            (CacheCarry, 0, 1),
        ]
    );

    // A flap is applied in place like any other list, and leaves the model
    // as it found it. Its region, pinned to tenants 3 and 4 on the same
    // access switch, reaches the same four kinds of key, none held, for
    // tenant 3's source host; the cache, emptied by the publish above, has
    // nothing to carry or invalidate.
    let serial = service
        .try_publish_changes(&flap(&topology, switch), SimTime::from_millis(3))
        .unwrap();
    assert_eq!(
        chain_of(serial),
        [
            (EpochPublish, serial, 0),
            (IncrementalApply, 2, rules + 1),
            (EpochDigest, digest(), 4),
            (CacheCarry, 0, 0),
        ]
    );
}

#[test]
fn every_store_side_series_reads_its_scripted_value() {
    let (topology, service, benign) = service();
    let store = service.store();

    // Three standing queries, each evaluated at epoch 1 on its cold memo.
    let queries = [
        (ClientId(1), QuerySpec::ReachableDestinations),
        (ClientId(2), QuerySpec::ReachingSources),
        (ClientId(3), QuerySpec::ReachableDestinations),
    ];
    for (client, spec) in &queries {
        service.try_query(*client, spec.clone()).unwrap();
    }

    // A delta publish whose region (src = client 1, dst = client 2) sits on
    // client 1's first host's access switch. It drops two held keys, both
    // walked from there: that host's emission and client 2's share of its
    // inbound walk, which the region reaches. With client 1's path probe
    // towards the destination, never walked, and the tables: four keys.
    let changed = host_of(&topology, 1).attachment.switch;
    let elsewhere = host_of(&topology, 4).attachment.switch;
    let install = RuleChange::installed(changed, tenant_rule(&topology, 1, 2));
    service
        .try_publish_changes(&[install], SimTime::from_millis(2))
        .unwrap();
    assert_eq!(store.provenance(2).expect("retained").affected_queries, 4);

    // A flap, straight into the store (counted like any other publish: the
    // store counts every publish it makes), led by the removal of a rule the epoch never held — which
    // never reaches the model. Two rule changes, both resolved in list
    // order. Their region (src = client 3, dst = client 4, on client 1's
    // access switch) reaches client 3's first host's emission and inbound
    // walk, held but neither arriving at that switch, so both are carried:
    // the keys are client 3's path probe, never walked, and the tables.
    let mut changes = vec![RuleChange::removed(changed, tenant_rule(&topology, 4, 3))];
    changes.extend(flap(&topology, changed));
    store
        .try_publish_changes(&changes, SimTime::from_millis(3))
        .unwrap();
    assert_eq!(store.provenance(3).expect("retained").affected_queries, 2);

    // A rewrite rule: every region is conservative while one is installed.
    // One rule change, one conservative region, every verdict affected.
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
    assert!(store.provenance(4).expect("retained").affected_everything);

    // Everything the scrape says about the model and the memos, in render
    // order — so a series beyond these (the lookup count that restated
    // `rvaas_epoch_publishes_total`) fails this too.
    let samples = parse_text(&service.registry().render_text()).expect("well-formed");
    let about_the_store = |name: &str| {
        [
            "rvaas_epoch_",
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
            // Four publishes: the bulk first epoch's benign rules, then one
            // rule in, a flap that nets to nothing, one rule in.
            (
                "rvaas_epoch_delta_rules_sum",
                benign.rule_count() as f64 + 2.0
            ),
            ("rvaas_epoch_delta_rules_count", 4.0),
            ("rvaas_epoch_publishes_total", 4.0),
            ("rvaas_epoch_serial", 4.0),
            // The store's count of the three deltas, the flap among them...
            ("rvaas_incremental_applies_total", 3.0),
            ("rvaas_incremental_conservative_regions_total", 1.0),
            ("rvaas_incremental_desyncs_total", 0.0),
            ("rvaas_incremental_rule_changes_total", 4.0),
            // ...and of the bulk first epoch.
            ("rvaas_model_rebuilds_total", 1.0),
            // The 20 walks of epoch 1 left 44 keys: 4 + 4 emissions, and
            // 12 inbound walks of 3 shares each. The delta publish carries
            // 42 of them: it drops the emission of client 1's first host
            // and client 2's share of that host's inbound walk (client 2
            // owns the region's destination), both starting on the changed
            // switch inside the region; the walk's shares for clients 3 and
            // 4 ride on. The flap's region meets none of the 42, so it
            // carries all of them, and the conservative rewrite epoch drops
            // them: 42 + 42 carried, 2 + 42 dropped.
            ("rvaas_traversal_memo_carried_total", 84.0),
            ("rvaas_traversal_memo_dropped_total", 44.0),
            // The three queries, all at epoch 1 on its cold memo, share no
            // traversal: each walked its own (4 emissions of client 1's
            // hosts, one inbound walk from each of the 12 hosts foreign to
            // client 2, 4 emissions of client 3's) and read its verdict off
            // that one lookup.
            ("rvaas_traversal_memo_hits_total", 0.0),
            ("rvaas_traversal_memo_misses_total", 20.0),
        ]
    );
}
