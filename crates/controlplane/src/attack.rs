//! The attack catalogue of the compromised control plane.
//!
//! Every attack is expressed purely as a sequence of legitimate OpenFlow
//! Flow-Mod / Meter-Mod commands — exactly the capability the paper grants a
//! remote attacker who hacked the management system. The compilation of an
//! attack into concrete messages is a pure function of the (known) topology,
//! so experiments can also use it to compute ground truth.

use rvaas_openflow::{
    Action, FlowEntry, FlowMatch, FlowModCommand, Message, MeterBand, MeterEntry,
};
use rvaas_topology::Topology;
use rvaas_types::{ClientId, Field, HostId, Region, SimTime, SwitchId};

use crate::routing::{next_hop_port, ATTACK_COOKIE};

/// Priority used by attack rules: above the benign admission rules so the
/// malicious behaviour takes precedence, below RVaaS's interception rules.
pub const PRIO_ATTACK: u16 = 400;

/// An attack the compromised control plane can mount.
#[derive(Debug, Clone, PartialEq)]
pub enum Attack {
    /// Join attack (paper Section IV-B1): secretly give `attacker_host`
    /// connectivity into `victim_client`'s sub-network, so the attacker can
    /// reach the victim's assets through an unsupervised access point.
    Join {
        /// The host (owned by another client) that gains illegitimate access.
        attacker_host: HostId,
        /// The client whose isolation is broken.
        victim_client: ClientId,
    },
    /// Geo-diversion (paper Section IV-B2): reroute traffic from
    /// `client`'s host `from_host` to `to_host` through a switch located in
    /// `via_region`, violating jurisdiction constraints.
    GeoDivert {
        /// Source host of the diverted flow.
        from_host: HostId,
        /// Destination host of the diverted flow.
        to_host: HostId,
        /// Region the detour must pass through.
        via_region: Region,
    },
    /// Exfiltration: mirror traffic addressed to `victim_host` additionally
    /// toward `collector_host` (owned by a different client).
    Exfiltrate {
        /// The host whose incoming traffic is mirrored.
        victim_host: HostId,
        /// The host receiving the mirrored copy.
        collector_host: HostId,
    },
    /// Blackhole: silently drop traffic addressed to `victim_host`.
    Blackhole {
        /// The host whose traffic is dropped.
        victim_host: HostId,
    },
    /// Neutrality violation: rate-limit `victim_client`'s traffic at its
    /// access points while other clients stay unthrottled.
    Throttle {
        /// The client being discriminated against.
        victim_client: ClientId,
        /// The discriminatory rate limit in kbit/s.
        rate_kbps: u64,
    },
    /// Stale-epoch replay (service plane): blackhole the victim's traffic
    /// while replaying captured pre-attack sync responses to clients, hoping
    /// they keep trusting the clean epoch. The data-plane half compiles
    /// here; the replay half is pure recorded traffic, so the ground truth
    /// is that a sound sync client rejects the replay (session/serial
    /// checks) and converges to the server's real digest set.
    StaleEpochReplay {
        /// The host whose traffic is dropped behind the replayed epoch.
        victim_host: HostId,
    },
    /// Mirror-desync induction (service plane): send removals for rules that
    /// were never installed, trying to desynchronise the verifier's
    /// incremental model from the real network. A sound verifier must notice
    /// (unknown removal), fall back to conservative re-verification and
    /// recover by rebuilding — never silently diverge.
    MirrorDesync {
        /// The host whose flow rules the phantom removals claim to delete.
        victim_host: HostId,
        /// How many phantom removals to send.
        phantom_rules: u32,
    },
    /// Cross-epoch cache-poisoning probe (service plane): toggle a
    /// verdict-changing rule on and off across consecutive epochs so that a
    /// service answering from a stale per-epoch cache returns the verdict of
    /// the *wrong* epoch. Ground truth: every answer equals a fresh
    /// full-rebuild answer for the epoch it was issued in.
    CachePoison {
        /// The host whose reachability the toggled rule flips.
        victim_host: HostId,
    },
    /// Worst-case `ChangedRegion` churn flood (service plane): install many
    /// distinct high-priority rules on one switch in a single epoch, making
    /// per-rule delta processing maximally expensive. Ground truth: the
    /// epoch store's bulk-rebuild heuristic must trip, and verdicts must
    /// still match a from-scratch rebuild.
    ChurnFlood {
        /// The switch receiving the flood.
        switch: SwitchId,
        /// How many distinct rules to install.
        rules: u32,
    },
}

/// The soundness property a verification service must uphold under a
/// service-plane attack. [`Attack::service_plane_expectation`] maps each
/// attack to its predicate; the integration suite asserts every one of
/// them against a full-rebuild oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicePlaneExpectation {
    /// Replayed stale sync responses must not roll a client back: session
    /// and serial checks reject the replay and the client converges to the
    /// server's current digest set.
    ReplayRejected,
    /// Phantom removals must drive the incremental model into its
    /// desynchronised, conservative mode — and verdicts must still match a
    /// from-scratch rebuild before and after recovery.
    DesyncConservative,
    /// Queries answered from per-epoch caches must equal fresh full-rebuild
    /// answers in *every* epoch the attack toggles through.
    CacheConsistent,
    /// The single-epoch rule flood must trip the bulk-rebuild heuristic
    /// instead of degenerating into per-rule delta work.
    BulkRebuild {
        /// Minimum number of rule changes the flood injects.
        min_changes: u32,
    },
}

impl Attack {
    /// Compiles the attack into the Flow-Mod / Meter-Mod messages the
    /// compromised controller must send, as `(switch, message)` pairs.
    #[must_use]
    pub fn compile(&self, topology: &Topology) -> Vec<(SwitchId, Message)> {
        match self {
            Attack::Join {
                attacker_host,
                victim_client,
            } => compile_join(topology, *attacker_host, *victim_client),
            Attack::GeoDivert {
                from_host,
                to_host,
                via_region,
            } => compile_geo_divert(topology, *from_host, *to_host, via_region),
            Attack::Exfiltrate {
                victim_host,
                collector_host,
            } => compile_exfiltrate(topology, *victim_host, *collector_host),
            Attack::Blackhole { victim_host } => compile_blackhole(topology, *victim_host),
            Attack::Throttle {
                victim_client,
                rate_kbps,
            } => compile_throttle(topology, *victim_client, *rate_kbps),
            // The replayed sync traffic is recorded, not compiled; the
            // data-plane change being masked is a plain blackhole.
            Attack::StaleEpochReplay { victim_host } => compile_blackhole(topology, *victim_host),
            Attack::MirrorDesync {
                victim_host,
                phantom_rules,
            } => compile_mirror_desync(topology, *victim_host, *phantom_rules),
            // The toggled rule is a verdict-flipping drop; the epoch-by-epoch
            // toggling itself is driven through `compile_removal` by the
            // scheduler (see `ScheduledAttack::flapping`).
            Attack::CachePoison { victim_host } => compile_blackhole(topology, *victim_host),
            Attack::ChurnFlood { switch, rules } => compile_churn_flood(topology, *switch, *rules),
        }
    }

    /// The service-plane soundness predicate this attack probes, if it is a
    /// service-plane attack (`None` for the purely data-plane catalogue).
    #[must_use]
    pub fn service_plane_expectation(&self) -> Option<ServicePlaneExpectation> {
        match self {
            Attack::StaleEpochReplay { .. } => Some(ServicePlaneExpectation::ReplayRejected),
            Attack::MirrorDesync { .. } => Some(ServicePlaneExpectation::DesyncConservative),
            Attack::CachePoison { .. } => Some(ServicePlaneExpectation::CacheConsistent),
            Attack::ChurnFlood { rules, .. } => Some(ServicePlaneExpectation::BulkRebuild {
                min_changes: *rules,
            }),
            _ => None,
        }
    }

    /// Compiles the messages that *undo* the attack (delete the installed
    /// rules); used by the short-term reconfiguration (flapping) attack.
    #[must_use]
    pub fn compile_removal(&self, topology: &Topology) -> Vec<(SwitchId, Message)> {
        self.compile(topology)
            .into_iter()
            .filter_map(|(switch, message)| match message {
                Message::FlowMod {
                    command: FlowModCommand::Add(entry),
                } => Some((
                    switch,
                    Message::FlowMod {
                        command: FlowModCommand::DeleteByCookie {
                            cookie: entry.cookie,
                        },
                    },
                )),
                _ => None,
            })
            .collect()
    }

    /// Short human-readable label for experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Attack::Join { .. } => "join",
            Attack::GeoDivert { .. } => "geo_divert",
            Attack::Exfiltrate { .. } => "exfiltrate",
            Attack::Blackhole { .. } => "blackhole",
            Attack::Throttle { .. } => "throttle",
            Attack::StaleEpochReplay { .. } => "stale_epoch_replay",
            Attack::MirrorDesync { .. } => "mirror_desync",
            Attack::CachePoison { .. } => "cache_poison",
            Attack::ChurnFlood { .. } => "churn_flood",
        }
    }
}

fn add(switch: SwitchId, entry: FlowEntry) -> (SwitchId, Message) {
    (
        switch,
        Message::FlowMod {
            command: FlowModCommand::Add(entry),
        },
    )
}

fn compile_join(
    topology: &Topology,
    attacker_host: HostId,
    victim_client: ClientId,
) -> Vec<(SwitchId, Message)> {
    let mut out = Vec::new();
    let Some(attacker) = topology.host(attacker_host) else {
        return out;
    };
    for victim in topology.hosts_of_client(victim_client) {
        // Admit attacker -> victim traffic at the attacker's edge switch…
        if let Some(port) = next_hop_port(topology, attacker.attachment.switch, victim) {
            out.push(add(
                attacker.attachment.switch,
                FlowEntry::new(
                    PRIO_ATTACK,
                    FlowMatch::from_ip(attacker.ip)
                        .field(Field::IpDst, u64::from(victim.ip))
                        .on_port(attacker.attachment.port),
                    vec![Action::Output(port)],
                )
                .with_cookie(ATTACK_COOKIE),
            ));
        }
        // …and victim -> attacker traffic at the victim's edge switch, so the
        // attacker can also receive answers.
        if let Some(port) = next_hop_port(topology, victim.attachment.switch, attacker) {
            out.push(add(
                victim.attachment.switch,
                FlowEntry::new(
                    PRIO_ATTACK,
                    FlowMatch::from_ip(victim.ip)
                        .field(Field::IpDst, u64::from(attacker.ip))
                        .on_port(victim.attachment.port),
                    vec![Action::Output(port)],
                )
                .with_cookie(ATTACK_COOKIE),
            ));
        }
    }
    out
}

fn compile_geo_divert(
    topology: &Topology,
    from_host: HostId,
    to_host: HostId,
    via_region: &Region,
) -> Vec<(SwitchId, Message)> {
    let mut out = Vec::new();
    let (Some(from), Some(to)) = (topology.host(from_host), topology.host(to_host)) else {
        return out;
    };
    // Pick a detour switch in the target region.
    let Some(detour) = topology
        .switches()
        .find(|s| s.location.region == *via_region)
    else {
        return out;
    };
    // Build the full detour path source-edge -> detour -> destination-edge
    // and install next-hop rules along it. If the detour revisits a switch
    // (no clean detour exists in this topology) only the first traversal of
    // each switch gets a rule — per-switch destination rules cannot express a
    // revisit, so such a detour would loop and the attack degenerates.
    let (Some(p1), Some(p2)) = (
        topology.shortest_path(from.attachment.switch, detour.id),
        topology.shortest_path(detour.id, to.attachment.switch),
    ) else {
        return out;
    };
    let mut path = p1;
    path.extend(p2.into_iter().skip(1));
    let mut configured: Vec<SwitchId> = Vec::new();
    for window in path.windows(2) {
        let (here, next) = (window[0], window[1]);
        if configured.contains(&here) {
            continue;
        }
        configured.push(here);
        if let Some(port) = topology.port_towards(here, next) {
            out.push(add(
                here,
                FlowEntry::new(
                    PRIO_ATTACK,
                    FlowMatch::from_ip(from.ip).field(Field::IpDst, u64::from(to.ip)),
                    vec![Action::Output(port)],
                )
                .with_cookie(ATTACK_COOKIE),
            ));
        }
    }
    // Final delivery at the destination edge switch (unless it already got a
    // transit rule above, which would indicate a revisiting path).
    if !configured.contains(&to.attachment.switch) {
        out.push(add(
            to.attachment.switch,
            FlowEntry::new(
                PRIO_ATTACK,
                FlowMatch::from_ip(from.ip).field(Field::IpDst, u64::from(to.ip)),
                vec![Action::Output(to.attachment.port)],
            )
            .with_cookie(ATTACK_COOKIE),
        ));
    }
    out
}

fn compile_exfiltrate(
    topology: &Topology,
    victim_host: HostId,
    collector_host: HostId,
) -> Vec<(SwitchId, Message)> {
    let mut out = Vec::new();
    let (Some(victim), Some(collector)) =
        (topology.host(victim_host), topology.host(collector_host))
    else {
        return out;
    };
    // At the victim's edge switch, deliver traffic to the victim *and* mirror
    // it toward the collector.
    let Some(toward_collector) = next_hop_port(topology, victim.attachment.switch, collector)
    else {
        return out;
    };
    out.push(add(
        victim.attachment.switch,
        FlowEntry::new(
            PRIO_ATTACK,
            FlowMatch::to_ip(victim.ip),
            vec![
                Action::Output(victim.attachment.port),
                Action::Output(toward_collector),
            ],
        )
        .with_cookie(ATTACK_COOKIE),
    ));
    // Make sure the mirrored copy is delivered at the collector's edge switch
    // even though it is addressed to the victim: rewrite the destination at
    // the collector's edge switch is not needed — instead install transit
    // rules along the path matching (dst = victim) toward the collector.
    if let Some(path) =
        topology.shortest_path(victim.attachment.switch, collector.attachment.switch)
    {
        for window in path.windows(2) {
            let (here, next) = (window[0], window[1]);
            if here == victim.attachment.switch {
                continue; // already handled by the mirror rule
            }
            if let Some(port) = topology.port_towards(here, next) {
                out.push(add(
                    here,
                    FlowEntry::new(
                        PRIO_ATTACK,
                        FlowMatch::to_ip(victim.ip),
                        vec![Action::Output(port)],
                    )
                    .with_cookie(ATTACK_COOKIE),
                ));
            }
        }
    }
    // Final delivery of the mirrored copy to the collector host.
    out.push(add(
        collector.attachment.switch,
        FlowEntry::new(
            PRIO_ATTACK,
            FlowMatch::to_ip(victim.ip).on_port(
                topology
                    .port_towards(
                        collector.attachment.switch,
                        topology
                            .shortest_path(collector.attachment.switch, victim.attachment.switch)
                            .and_then(|p| p.get(1).copied())
                            .unwrap_or(collector.attachment.switch),
                    )
                    .unwrap_or(collector.attachment.port),
            ),
            vec![Action::Output(collector.attachment.port)],
        )
        .with_cookie(ATTACK_COOKIE),
    ));
    out
}

fn compile_blackhole(topology: &Topology, victim_host: HostId) -> Vec<(SwitchId, Message)> {
    let Some(victim) = topology.host(victim_host) else {
        return Vec::new();
    };
    vec![add(
        victim.attachment.switch,
        FlowEntry::new(PRIO_ATTACK, FlowMatch::to_ip(victim.ip), vec![Action::Drop])
            .with_cookie(ATTACK_COOKIE),
    )]
}

fn compile_throttle(
    topology: &Topology,
    victim_client: ClientId,
    rate_kbps: u64,
) -> Vec<(SwitchId, Message)> {
    let mut out = Vec::new();
    const METER_ID: u32 = 0xBAD;
    for victim in topology.hosts_of_client(victim_client) {
        let switch = victim.attachment.switch;
        out.push((
            switch,
            Message::MeterMod {
                meter: MeterEntry {
                    id: METER_ID,
                    bands: vec![MeterBand { rate_kbps }],
                },
            },
        ));
        // Apply the meter to traffic addressed to the victim before delivery.
        out.push(add(
            switch,
            FlowEntry::new(
                PRIO_ATTACK,
                FlowMatch::to_ip(victim.ip),
                vec![
                    Action::Meter(METER_ID),
                    Action::Output(victim.attachment.port),
                ],
            )
            .with_cookie(ATTACK_COOKIE),
        ));
    }
    out
}

fn compile_mirror_desync(
    topology: &Topology,
    victim_host: HostId,
    phantom_rules: u32,
) -> Vec<(SwitchId, Message)> {
    let Some(victim) = topology.host(victim_host) else {
        return Vec::new();
    };
    // Removals for rules that were never installed: same shape as real
    // delivery rules (so they look plausible to the control channel) but
    // distinguished by transport ports no benign rule constrains.
    (0..phantom_rules)
        .map(|i| {
            (
                victim.attachment.switch,
                Message::FlowMod {
                    command: FlowModCommand::Delete {
                        flow_match: FlowMatch::to_ip(victim.ip)
                            .field(Field::L4Dst, u64::from(50_000 + (i % 10_000))),
                    },
                },
            )
        })
        .collect()
}

fn compile_churn_flood(
    topology: &Topology,
    switch: SwitchId,
    rules: u32,
) -> Vec<(SwitchId, Message)> {
    if !topology.switches().any(|s| s.id == switch) {
        return Vec::new();
    }
    // Distinct destination addresses in a block no host occupies: every
    // rule is a separate digest, so one epoch carries `rules` changes.
    (0..rules)
        .map(|i| {
            add(
                switch,
                FlowEntry::new(
                    PRIO_ATTACK,
                    FlowMatch::to_ip(0xc0a8_0000 + i),
                    vec![Action::Drop],
                )
                .with_cookie(ATTACK_COOKIE),
            )
        })
        .collect()
}

/// An attack bound to a point in time, with optional flapping behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledAttack {
    /// The attack to mount.
    pub attack: Attack,
    /// When to install it.
    pub at: SimTime,
    /// If set, the attack "flaps": it is removed `active` after installation
    /// and re-installed `period` after the previous installation, modelling
    /// the short-term reconfiguration attack of paper Section IV-A
    /// ("the adversary may simply set the correct rules for the short time
    /// periods in which the box checks the configuration").
    pub flapping: Option<Flapping>,
}

/// Flapping (short-term reconfiguration) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flapping {
    /// How long the malicious rules stay installed in each period.
    pub active: SimTime,
    /// Full period between consecutive installations.
    pub period: SimTime,
    /// How many times to repeat the install/remove cycle.
    pub repetitions: u32,
}

impl ScheduledAttack {
    /// A one-shot attack installed at `at` and left in place.
    #[must_use]
    pub fn persistent(attack: Attack, at: SimTime) -> Self {
        ScheduledAttack {
            attack,
            at,
            flapping: None,
        }
    }

    /// A flapping attack.
    #[must_use]
    pub fn flapping(attack: Attack, at: SimTime, flapping: Flapping) -> Self {
        ScheduledAttack {
            attack,
            at,
            flapping: Some(flapping),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_topology::generators;

    #[test]
    fn join_attack_compiles_rules_for_both_directions() {
        let topo = generators::line(4, 2);
        // Host 2 (client 2) attacks client 1 (hosts 1 and 3).
        let attack = Attack::Join {
            attacker_host: HostId(2),
            victim_client: ClientId(1),
        };
        let msgs = attack.compile(&topo);
        assert!(!msgs.is_empty());
        // Two victim hosts x two directions = 4 rules.
        assert_eq!(msgs.len(), 4);
        for (_, m) in &msgs {
            match m {
                Message::FlowMod {
                    command: FlowModCommand::Add(e),
                } => {
                    assert_eq!(e.cookie, ATTACK_COOKIE);
                    assert_eq!(e.priority, PRIO_ATTACK);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Removal compiles to cookie-based deletes on the same switches.
        let removal = attack.compile_removal(&topo);
        assert_eq!(removal.len(), 4);
        assert!(removal.iter().all(|(_, m)| matches!(
            m,
            Message::FlowMod {
                command: FlowModCommand::DeleteByCookie {
                    cookie: ATTACK_COOKIE
                }
            }
        )));
    }

    #[test]
    fn geo_divert_routes_through_the_target_region() {
        // line(): switch regions rotate EU, US, APAC, LATAM, EU, …
        let topo = generators::line(6, 1);
        let attack = Attack::GeoDivert {
            from_host: HostId(1),
            to_host: HostId(2),
            via_region: Region::new("LATAM"), // switch 4
        };
        let msgs = attack.compile(&topo);
        assert!(!msgs.is_empty());
        // The detour passes switches beyond the direct 1->2 path.
        let touched: std::collections::BTreeSet<SwitchId> = msgs.iter().map(|(s, _)| *s).collect();
        assert!(touched.contains(&SwitchId(3)), "touched: {touched:?}");
    }

    #[test]
    fn exfiltrate_mirrors_to_collector() {
        let topo = generators::line(4, 2);
        let attack = Attack::Exfiltrate {
            victim_host: HostId(1),    // client 1 on s1
            collector_host: HostId(4), // client 2 on s4
        };
        let msgs = attack.compile(&topo);
        // The rule at the victim's switch must output to two ports.
        let mirror = msgs
            .iter()
            .find_map(|(s, m)| match m {
                Message::FlowMod {
                    command: FlowModCommand::Add(e),
                } if *s == SwitchId(1) => Some(e.clone()),
                _ => None,
            })
            .expect("mirror rule at victim switch");
        let outputs = mirror
            .actions
            .iter()
            .filter(|a| matches!(a, Action::Output(_)))
            .count();
        assert_eq!(outputs, 2);
    }

    #[test]
    fn blackhole_and_throttle_compile() {
        let topo = generators::line(3, 1);
        let blackhole = Attack::Blackhole {
            victim_host: HostId(2),
        };
        let msgs = blackhole.compile(&topo);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].0, SwitchId(2));

        let throttle = Attack::Throttle {
            victim_client: ClientId(1),
            rate_kbps: 100,
        };
        let msgs = throttle.compile(&topo);
        // 3 hosts of client 1 -> meter mod + flow mod each.
        assert_eq!(msgs.len(), 6);
        assert!(msgs
            .iter()
            .any(|(_, m)| matches!(m, Message::MeterMod { .. })));
    }

    #[test]
    fn labels_and_schedules() {
        assert_eq!(
            Attack::Blackhole {
                victim_host: HostId(1)
            }
            .label(),
            "blackhole"
        );
        let s = ScheduledAttack::persistent(
            Attack::Blackhole {
                victim_host: HostId(1),
            },
            SimTime::from_millis(5),
        );
        assert!(s.flapping.is_none());
        let f = ScheduledAttack::flapping(
            Attack::Blackhole {
                victim_host: HostId(1),
            },
            SimTime::from_millis(5),
            Flapping {
                active: SimTime::from_millis(1),
                period: SimTime::from_millis(10),
                repetitions: 3,
            },
        );
        assert_eq!(f.flapping.unwrap().repetitions, 3);
    }

    #[test]
    fn attacks_against_unknown_hosts_compile_to_nothing() {
        let topo = generators::line(3, 1);
        assert!(Attack::Join {
            attacker_host: HostId(99),
            victim_client: ClientId(1)
        }
        .compile(&topo)
        .is_empty());
        assert!(Attack::Blackhole {
            victim_host: HostId(99)
        }
        .compile(&topo)
        .is_empty());
        assert!(Attack::MirrorDesync {
            victim_host: HostId(99),
            phantom_rules: 4
        }
        .compile(&topo)
        .is_empty());
        assert!(Attack::ChurnFlood {
            switch: SwitchId(99),
            rules: 4
        }
        .compile(&topo)
        .is_empty());
    }

    #[test]
    fn stale_epoch_replay_masks_a_blackhole() {
        let topo = generators::line(3, 1);
        let replay = Attack::StaleEpochReplay {
            victim_host: HostId(2),
        };
        // The data-plane half is exactly a blackhole of the victim...
        assert_eq!(
            replay.compile(&topo),
            Attack::Blackhole {
                victim_host: HostId(2)
            }
            .compile(&topo)
        );
        // ...but the ground-truth predicate is about the sync protocol.
        assert_eq!(
            replay.service_plane_expectation(),
            Some(ServicePlaneExpectation::ReplayRejected)
        );
        assert_eq!(replay.label(), "stale_epoch_replay");
    }

    #[test]
    fn mirror_desync_compiles_phantom_removals_only() {
        let topo = generators::line(3, 1);
        let attack = Attack::MirrorDesync {
            victim_host: HostId(2),
            phantom_rules: 5,
        };
        let msgs = attack.compile(&topo);
        assert_eq!(msgs.len(), 5);
        let victim_switch = topo.host(HostId(2)).unwrap().attachment.switch;
        for (switch, message) in &msgs {
            assert_eq!(*switch, victim_switch);
            assert!(
                matches!(
                    message,
                    Message::FlowMod {
                        command: FlowModCommand::Delete { .. }
                    }
                ),
                "phantom removals must be deletes, got {message:?}"
            );
        }
        // Nothing was added, so there is nothing to remove.
        assert!(attack.compile_removal(&topo).is_empty());
        assert_eq!(
            attack.service_plane_expectation(),
            Some(ServicePlaneExpectation::DesyncConservative)
        );
    }

    #[test]
    fn churn_flood_installs_distinct_rules_on_one_switch() {
        let topo = generators::line(3, 1);
        let attack = Attack::ChurnFlood {
            switch: SwitchId(2),
            rules: 80,
        };
        let msgs = attack.compile(&topo);
        assert_eq!(msgs.len(), 80);
        let mut matches = std::collections::BTreeSet::new();
        for (switch, message) in &msgs {
            assert_eq!(*switch, SwitchId(2));
            match message {
                Message::FlowMod {
                    command: FlowModCommand::Add(entry),
                } => {
                    assert_eq!(entry.cookie, ATTACK_COOKIE);
                    assert!(matches.insert(format!("{:?}", entry.flow_match)));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(matches.len(), 80, "every flood rule is distinct");
        assert_eq!(
            attack.service_plane_expectation(),
            Some(ServicePlaneExpectation::BulkRebuild { min_changes: 80 })
        );
        // The flood is fully removable by cookie.
        assert_eq!(attack.compile_removal(&topo).len(), 80);
    }

    #[test]
    fn cache_poison_toggles_a_verdict_flipping_rule() {
        let topo = generators::line(3, 1);
        let attack = Attack::CachePoison {
            victim_host: HostId(2),
        };
        let install = attack.compile(&topo);
        assert_eq!(install.len(), 1, "one verdict-flipping rule");
        let removal = attack.compile_removal(&topo);
        assert_eq!(removal.len(), 1, "and it toggles back off");
        assert_eq!(
            attack.service_plane_expectation(),
            Some(ServicePlaneExpectation::CacheConsistent)
        );
        // The legacy data-plane attacks carry no service-plane predicate.
        assert_eq!(
            Attack::Blackhole {
                victim_host: HostId(2)
            }
            .service_plane_expectation(),
            None
        );
    }
}
