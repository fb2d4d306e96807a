//! Closes the monitor → epoch-store loop end to end: a [`ConfigMonitor`]
//! consumes raw switch messages, the rule changes those messages carry are
//! handed, in arrival order, straight to
//! [`VerificationService::try_publish_changes`], and the resulting epochs
//! must be indistinguishable — digest for digest — from a twin service that
//! is handed the monitor's full snapshot on every publish. A full-table poll
//! reply, whose per-rule diff is unknown, is published as a full snapshot.

use rvaas::{ConfigMonitor, MonitorConfig, NetworkFunction, RuleChange};
use rvaas_client::QuerySpec;
use rvaas_controlplane::benign_rules;
use rvaas_openflow::{Action, FlowEntry, FlowMatch, Message};
use rvaas_service::VerificationService;
use rvaas_topology::{generators, Topology};
use rvaas_types::{ClientId, SimTime, SwitchId};

fn service_over(topology: &Topology) -> VerificationService {
    VerificationService::new(topology.clone(), true)
}

/// Both services must expose the same epoch — serial, digest set, rule
/// count, provenance (content digest and delta sizes) and a representative
/// verdict — reached by the same digest-level delta from the previous
/// epoch, and each store's frozen model must hold,
/// switch by switch and in order, the rule lists a from-scratch rebuild of
/// its snapshot holds (equal-priority rules in arrival order).
fn assert_epochs_agree(
    delta: &VerificationService,
    full: &VerificationService,
    topology: &Topology,
    round: &str,
) {
    let (d_store, f_store) = (delta.store(), full.store());
    let (d, f) = (d_store.current(), f_store.current());
    assert_eq!(d.serial, f.serial, "{round}: serials diverged");
    assert_eq!(d.rules, f.rules, "{round}: digest sets diverged");
    assert_eq!(
        d.snapshot.rule_count(),
        f.snapshot.rule_count(),
        "{round}: rule counts diverged"
    );
    let dp = d_store.provenance(d.serial).expect("fresh epoch");
    let fp = f_store.provenance(f.serial).expect("fresh epoch");
    assert_eq!(
        (dp.digest, dp.added, dp.removed, dp.delta_rules),
        (fp.digest, fp.added, fp.removed, fp.delta_rules),
        "{round}: provenance diverged"
    );
    let dd = d_store
        .delta_between(d.serial - 1, d.serial)
        .expect("retained");
    let fd = f_store
        .delta_between(f.serial - 1, f.serial)
        .expect("retained");
    assert_eq!(
        (dd.added, dd.removed),
        (fd.added, fd.removed),
        "{round}: deltas diverged"
    );
    for (fed, epoch) in [("delta-fed", &d), ("snapshot-fed", &f)] {
        let rebuilt = epoch.snapshot.to_network_function(topology);
        for switch in rebuilt.switches() {
            let rules = |nf: &NetworkFunction| nf.transfer(switch).map(|t| t.rules().to_vec());
            assert_eq!(
                rules(&epoch.function),
                rules(&rebuilt),
                "{round}: {fed} model diverged from a rebuild on {switch:?}"
            );
        }
    }
    let spec = QuerySpec::ReachableDestinations;
    let dv = delta.try_query(ClientId(1), spec.clone()).unwrap();
    let fv = full.try_query(ClientId(1), spec).unwrap();
    assert_eq!(dv.result, fv.result, "{round}: verdicts diverged");
}

/// The monitor under test and the rule changes fed to it since the last
/// publish, in arrival order.
struct Feed {
    monitor: ConfigMonitor,
    changes: Vec<RuleChange>,
}

impl Feed {
    fn notify(&mut self, switch: SwitchId, entry: &FlowEntry, at: SimTime) {
        self.monitor.on_switch_message(
            switch,
            &Message::FlowMonitorNotify {
                switch,
                entry: entry.clone(),
                added: true,
                at,
            },
            at,
        );
        self.changes
            .push(RuleChange::installed(switch, entry.clone()));
    }

    fn removed(&mut self, switch: SwitchId, entry: &FlowEntry, at: SimTime) {
        self.monitor.on_switch_message(
            switch,
            &Message::FlowRemoved {
                switch,
                entry: entry.clone(),
                at,
            },
            at,
        );
        self.changes
            .push(RuleChange::removed(switch, entry.clone()));
    }
}

#[test]
fn monitor_drained_changes_reproduce_full_snapshot_publishes() {
    let topology = generators::line(4, 2);
    let delta_service = service_over(&topology);
    let full_service = service_over(&topology);
    let mut feed = Feed {
        monitor: ConfigMonitor::new(MonitorConfig::default()),
        changes: Vec::new(),
    };
    // Publishes one monitor window into both services: the rule changes fed
    // into one, the monitor's full snapshot into the other.
    let publish_window = |feed: &mut Feed, expected: usize, at, round: &str| {
        let changes = std::mem::take(&mut feed.changes);
        assert_eq!(changes.len(), expected, "{round}");
        let before = [&delta_service, &full_service].map(|s| s.store().current());
        delta_service.try_publish_changes(&changes, at).unwrap();
        full_service
            .try_publish(feed.monitor.snapshot(), at)
            .unwrap();
        assert_epochs_agree(&delta_service, &full_service, &topology, round);
        // On both paths the new epoch shares with its predecessor the table
        // of every switch the window did not name.
        for (service, before) in [&delta_service, &full_service].into_iter().zip(before) {
            let after = service.store().current();
            for switch in topology.switches().map(|s| s.id) {
                let (old, new) = (
                    before.snapshot.table_of(switch),
                    after.snapshot.table_of(switch),
                );
                if !old.is_empty() && changes.iter().all(|c| c.switch != switch) {
                    assert!(new.same_table(old), "{round}: {switch:?} copied");
                }
            }
        }
    };

    // --- initial table build arrives as passive notifications -----------
    let seed = benign_rules(&topology);
    for (switch, entry) in &seed {
        feed.notify(*switch, entry, SimTime::from_millis(1));
    }
    publish_window(&mut feed, seed.len(), SimTime::from_millis(1), "seed");

    // --- install + remove churn, one publish per window -------------------
    for round in 0..3u64 {
        let at = SimTime::from_millis(10 + round);
        let filter = FlowEntry::new(
            300 + round as u16,
            FlowMatch::to_ip(0x0a00_0001 + round as u32),
            vec![Action::Drop],
        );
        feed.notify(SwitchId(2), &filter, at);
        let (victim_switch, victim_entry) = &seed[round as usize];
        feed.removed(*victim_switch, victim_entry, at);
        publish_window(&mut feed, 2, at, &format!("churn {round}"));
    }

    // --- a rule that flaps within one window, then a window of changes that
    // change nothing (install of a present rule, removal of an absent one):
    // both paths must record an empty delta ---------------------------------
    let flapper = FlowEntry::new(350, FlowMatch::to_ip(0x0a00_0009), vec![Action::Drop]);
    let at = SimTime::from_millis(20);
    feed.notify(SwitchId(3), &flapper, at);
    feed.removed(SwitchId(3), &flapper, at);
    publish_window(&mut feed, 2, at, "flap");
    let at = SimTime::from_millis(21);
    let (present_switch, present_entry) = &seed[3];
    feed.notify(*present_switch, present_entry, at);
    feed.removed(SwitchId(3), &flapper, at);
    publish_window(&mut feed, 2, at, "no-op");
    let store = delta_service.store();
    for serial in [store.current().serial - 1, store.current().serial] {
        assert_eq!(store.provenance(serial).expect("recent").delta_rules, 0);
    }

    // --- an in-place rewrite: a switch reports a `ModifyStrict` (or an `Add`
    // over a present priority + match) as a notification carrying the new
    // actions, the monitor upserts and the feed holds one install; both paths must
    // record one rule gone and one arrived. (The last benign rule is the last
    // of its priority on its switch, so the re-installed entry's slot is the
    // rebuild's.) ----------------------------------------------------------
    let at = SimTime::from_millis(30);
    let (rewritten_switch, original) = seed.last().expect("benign rules");
    let mut rewritten = original.clone();
    rewritten.actions = [Action::Drop].into();
    feed.notify(*rewritten_switch, &rewritten, at);
    publish_window(&mut feed, 1, at, "rewrite");
    let rewrite = store.provenance(store.current().serial).expect("recent");
    assert_eq!(
        (rewrite.added, rewrite.removed, rewrite.delta_rules),
        (1, 1, 2)
    );

    // --- a full-table poll reply carries no per-rule diff: both services
    // take the full-snapshot publish ----------------------------------------
    let at = SimTime::from_millis(50);
    feed.monitor.on_switch_message(
        SwitchId(1),
        &Message::FlowStatsReply {
            switch: SwitchId(1),
            entries: vec![FlowEntry::new(
                9,
                FlowMatch::to_ip(0x0a00_0002),
                vec![Action::Output(rvaas_types::PortId(1))],
            )],
        },
        at,
    );
    delta_service
        .try_publish(feed.monitor.snapshot(), at)
        .unwrap();
    full_service
        .try_publish(feed.monitor.snapshot(), at)
        .unwrap();
    assert_epochs_agree(&delta_service, &full_service, &topology, "resync");

    // The next window is delta-driven again.
    let at = SimTime::from_millis(60);
    let catch_all = FlowEntry::new(8, FlowMatch::any(), vec![Action::Drop]);
    feed.notify(SwitchId(3), &catch_all, at);
    let before = full_service.store().current();
    publish_window(&mut feed, 1, at, "post-resync");
    // ...and the one switch it touched is the one table it copied.
    let after = full_service.store().current();
    let copied: Vec<SwitchId> = (topology.switches().map(|s| s.id))
        .filter(|s| {
            let (old, new) = (before.snapshot.table_of(*s), after.snapshot.table_of(*s));
            !new.same_table(old)
        })
        .collect();
    assert_eq!(copied, [SwitchId(3)]);
}
