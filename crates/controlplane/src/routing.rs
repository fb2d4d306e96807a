//! The benign provider routing policy.
//!
//! The provider offers its clients *isolated connectivity*: hosts of the same
//! client can talk to each other along shortest paths; traffic between
//! different clients is not admitted. The policy is compiled into three rule
//! layers per switch:
//!
//! * **Admission** (priority [`PRIO_ADMISSION`]): at the access-point port of
//!   each host, allow exactly the `(src = that host, dst = same-client host)`
//!   pairs and forward them toward the destination.
//! * **Host-port default drop** (priority [`PRIO_EDGE_DROP`]): everything
//!   else entering through a host port is dropped (isolation + anti-spoofing).
//! * **Transit** (priority [`PRIO_TRANSIT`]): destination-based forwarding for
//!   traffic already inside the fabric (arriving on internal ports).
//!
//! The RVaaS controller later installs its own interception rules at a higher
//! priority ([`rvaas` uses 1000]), so client query packets are punted to the
//! controller before the edge drop can discard them.

use std::collections::BTreeMap;

use rvaas_openflow::{Action, FlowEntry, FlowMatch};
use rvaas_topology::{Host, Topology};
use rvaas_types::{ClientId, FlowCookie, PortId, SwitchId};

/// Cookie tagging rules installed by the benign provider policy.
pub const BENIGN_COOKIE: FlowCookie = FlowCookie(0x0001);

/// Cookie tagging rules installed by the adversary. RVaaS never sees cookies
/// semantics (the adversary could reuse the benign cookie); the tag exists so
/// experiments can compute ground truth.
pub const ATTACK_COOKIE: FlowCookie = FlowCookie(0x0BAD);

/// Priority of per-host admission rules at access-point ports.
pub const PRIO_ADMISSION: u16 = 300;
/// Priority of the default drop on access-point ports.
pub const PRIO_EDGE_DROP: u16 = 200;
/// Priority of destination-based transit rules.
pub const PRIO_TRANSIT: u16 = 100;

/// Compiles the benign routing policy for `topology`.
///
/// Returns `(switch, entry)` pairs ready to be sent as Flow-Mod adds: per
/// host (ascending id) its admission rules toward each same-client peer
/// (ascending id) and its edge drop, then per switch (ascending id) one
/// transit rule per host. Every next hop is the one [`next_hop_port`] gives,
/// but read from one [`Topology::next_hops_to`] BFS per distinct
/// host-attachment switch instead of one BFS per `(switch, host)` pair, so
/// the compile costs one BFS per attachment switch plus time linear in the
/// rules it returns.
#[must_use]
pub fn benign_rules(topology: &Topology) -> Vec<(SwitchId, FlowEntry)> {
    let mut rules = Vec::new();
    let mut routes: BTreeMap<SwitchId, BTreeMap<SwitchId, PortId>> = BTreeMap::new();
    let mut by_owner: BTreeMap<ClientId, Vec<&Host>> = BTreeMap::new();
    for host in topology.hosts() {
        let dst = host.attachment.switch;
        routes
            .entry(dst)
            .or_insert_with(|| topology.next_hops_to(dst));
        by_owner.entry(host.owner).or_default().push(host);
    }
    let next_hop = |from: SwitchId, host: &Host| {
        if host.attachment.switch == from {
            return Some(host.attachment.port);
        }
        routes[&host.attachment.switch].get(&from).copied()
    };

    for host in topology.hosts() {
        let edge_switch = host.attachment.switch;
        // Admission rules: this host may talk to every same-client host.
        for peer in &by_owner[&host.owner] {
            if peer.id == host.id {
                continue;
            }
            if let Some(out_port) = next_hop(edge_switch, peer) {
                rules.push((
                    edge_switch,
                    FlowEntry::new(
                        PRIO_ADMISSION,
                        FlowMatch::from_ip(host.ip)
                            .field(rvaas_types::Field::IpDst, u64::from(peer.ip))
                            .on_port(host.attachment.port),
                        [Action::Output(out_port)],
                    )
                    .with_cookie(BENIGN_COOKIE),
                ));
            }
        }
        // Default drop for anything else entering through the host port.
        rules.push((
            edge_switch,
            FlowEntry::new(
                PRIO_EDGE_DROP,
                FlowMatch::any().on_port(host.attachment.port),
                [Action::Drop],
            )
            .with_cookie(BENIGN_COOKIE),
        ));
    }

    // Transit rules: every switch forwards toward every host's attachment.
    for switch in topology.switches() {
        for host in topology.hosts() {
            if let Some(out_port) = next_hop(switch.id, host) {
                rules.push((
                    switch.id,
                    FlowEntry::new(
                        PRIO_TRANSIT,
                        FlowMatch::to_ip(host.ip),
                        [Action::Output(out_port)],
                    )
                    .with_cookie(BENIGN_COOKIE),
                ));
            }
        }
    }
    rules
}

/// The port `from` should use to forward traffic toward `host`
/// (the host's own port if the host attaches to `from`, otherwise the port
/// toward the next switch on the shortest path).
#[must_use]
pub fn next_hop_port(topology: &Topology, from: SwitchId, host: &Host) -> Option<PortId> {
    if host.attachment.switch == from {
        return Some(host.attachment.port);
    }
    let path = topology.shortest_path(from, host.attachment.switch)?;
    let next = *path.get(1)?;
    topology.port_towards(from, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_hsa::{Cube, HeaderSpace, NetworkFunction, ReachabilityEngine, SwitchTransfer};
    use rvaas_topology::generators;
    use rvaas_types::{Field, GeoPoint, HostId, Region, SimTime, SwitchPort};

    /// Installs the benign rules into an HSA network function for analysis.
    fn as_network_function(topology: &Topology) -> NetworkFunction {
        let mut nf = NetworkFunction::default();
        for sw in topology.switches() {
            nf.declare_switch(sw.id, sw.ports.clone());
        }
        for link in topology.links() {
            nf.connect(link.a, link.b);
        }
        let mut tables: std::collections::BTreeMap<SwitchId, Vec<rvaas_hsa::RuleTransfer>> =
            std::collections::BTreeMap::new();
        for (switch, entry) in benign_rules(topology) {
            tables
                .entry(switch)
                .or_default()
                .push(entry.to_rule_transfer());
        }
        for (switch, rules) in tables {
            nf.set_transfer(switch, SwitchTransfer::from_rules(rules));
        }
        nf
    }

    fn space_from_to(src: u32, dst: u32) -> HeaderSpace {
        HeaderSpace::from(
            Cube::wildcard()
                .with_field(Field::IpSrc, u64::from(src))
                .with_field(Field::IpDst, u64::from(dst)),
        )
    }

    #[test]
    fn same_client_hosts_can_reach_each_other() {
        // line(4, 2): hosts 1,3 belong to client 1; hosts 2,4 to client 2.
        let topo = generators::line(4, 2);
        let nf = as_network_function(&topo);
        let engine = ReachabilityEngine::new(&nf);
        let h1 = topo.host(rvaas_types::HostId(1)).unwrap();
        let h3 = topo.host(rvaas_types::HostId(3)).unwrap();
        assert_eq!(h1.owner, h3.owner);
        let reached = engine
            .reachable_from(h1.attachment, space_from_to(h1.ip, h3.ip))
            .reached_ports();
        assert!(reached.contains(&h3.attachment), "reached: {reached:?}");
    }

    #[test]
    fn different_client_hosts_are_isolated() {
        let topo = generators::line(4, 2);
        let nf = as_network_function(&topo);
        let engine = ReachabilityEngine::new(&nf);
        let h1 = topo.host(rvaas_types::HostId(1)).unwrap(); // client 1
        let h2 = topo.host(rvaas_types::HostId(2)).unwrap(); // client 2
        assert_ne!(h1.owner, h2.owner);
        let reached = engine
            .reachable_from(h1.attachment, space_from_to(h1.ip, h2.ip))
            .reached_ports();
        assert!(
            !reached.contains(&h2.attachment),
            "cross-client traffic must not be admitted: {reached:?}"
        );
    }

    #[test]
    fn spoofed_sources_are_dropped_at_the_edge() {
        let topo = generators::line(4, 2);
        let nf = as_network_function(&topo);
        let engine = ReachabilityEngine::new(&nf);
        let h1 = topo.host(rvaas_types::HostId(1)).unwrap();
        let h3 = topo.host(rvaas_types::HostId(3)).unwrap();
        // Traffic injected at h1's port but claiming h3's source address can
        // still only reach same-client destinations... and in fact the
        // admission rule requires src == h1.ip, so spoofed traffic is dropped.
        let spoofed = space_from_to(h3.ip, h1.ip);
        let reached = engine
            .reachable_from(h1.attachment, spoofed)
            .reached_ports();
        assert!(
            reached.is_empty(),
            "spoofed traffic must be dropped: {reached:?}"
        );
    }

    #[test]
    fn leaf_spine_full_same_client_connectivity() {
        let topo = generators::leaf_spine(2, 3, 2, 1);
        let nf = as_network_function(&topo);
        let engine = ReachabilityEngine::new(&nf);
        let client1_hosts = topo.hosts_of_client(ClientId(1));
        assert!(client1_hosts.len() >= 2);
        for a in &client1_hosts {
            for b in &client1_hosts {
                if a.id == b.id {
                    continue;
                }
                let reached = engine
                    .reachable_from(a.attachment, space_from_to(a.ip, b.ip))
                    .reached_ports();
                assert!(
                    reached.contains(&b.attachment),
                    "{} -> {} not reachable",
                    a.id,
                    b.id
                );
            }
        }
    }

    #[test]
    fn next_hop_port_local_and_remote() {
        let topo = generators::line(3, 1);
        let h3 = topo.host(rvaas_types::HostId(3)).unwrap();
        // From switch 3 (local attachment).
        assert_eq!(
            next_hop_port(&topo, SwitchId(3), h3),
            Some(h3.attachment.port)
        );
        // From switch 1, next hop is toward switch 2 via port 3.
        assert_eq!(
            next_hop_port(&topo, SwitchId(1), h3),
            topo.port_towards(SwitchId(1), SwitchId(2))
        );
    }

    /// The per-pair compile `benign_rules` replaced: one `next_hop_port`
    /// (a whole-graph BFS) per `(switch, host)` pair.
    fn per_pair_reference(topology: &Topology) -> Vec<(SwitchId, FlowEntry)> {
        let mut rules = Vec::new();
        let hosts: Vec<_> = topology.hosts().cloned().collect();
        for host in &hosts {
            let edge_switch = host.attachment.switch;
            for peer in &hosts {
                if peer.id == host.id || peer.owner != host.owner {
                    continue;
                }
                if let Some(out_port) = next_hop_port(topology, edge_switch, peer) {
                    rules.push((
                        edge_switch,
                        FlowEntry::new(
                            PRIO_ADMISSION,
                            FlowMatch::from_ip(host.ip)
                                .field(Field::IpDst, u64::from(peer.ip))
                                .on_port(host.attachment.port),
                            vec![Action::Output(out_port)],
                        )
                        .with_cookie(BENIGN_COOKIE),
                    ));
                }
            }
            rules.push((
                edge_switch,
                FlowEntry::new(
                    PRIO_EDGE_DROP,
                    FlowMatch::any().on_port(host.attachment.port),
                    vec![Action::Drop],
                )
                .with_cookie(BENIGN_COOKIE),
            ));
        }
        for switch in topology.switches() {
            for host in &hosts {
                if let Some(out_port) = next_hop_port(topology, switch.id, host) {
                    rules.push((
                        switch.id,
                        FlowEntry::new(
                            PRIO_TRANSIT,
                            FlowMatch::to_ip(host.ip),
                            vec![Action::Output(out_port)],
                        )
                        .with_cookie(BENIGN_COOKIE),
                    ));
                }
            }
        }
        rules
    }

    /// `n` switches, the given `[switch, port, switch, port]` links, and
    /// one host per switch on port 1 owned round-robin by two clients.
    fn hand_built(n: u32, links: &[[u32; 4]]) -> Topology {
        let loc = || GeoPoint::new(0.0, 0.0, Region::new("EU"));
        let sp = |s: u32, p: u32| SwitchPort::new(SwitchId(s), PortId(p));
        let mut t = Topology::new();
        for s in 1..=n {
            t.add_switch(SwitchId(s), 6, loc());
        }
        for &[a, pa, b, pb] in links {
            t.add_link(sp(a, pa), sp(b, pb), SimTime::ZERO).unwrap();
        }
        for s in 1..=n {
            let owner = ClientId(s % 2 + 1);
            t.add_host(HostId(s), 0x0a00_0000 + s, sp(s, 1), owner, loc())
                .unwrap();
        }
        t
    }

    #[test]
    fn benign_rules_equal_the_per_pair_compile() {
        let shapes = [
            generators::line(5, 2),
            generators::ring(6, 2),
            generators::leaf_spine(2, 4, 3, 7),
            generators::fat_tree(4, 4),
            generators::waxman_wan(24, 4, &generators::DEFAULT_REGIONS, 0.4, 0.2, 3),
            generators::fat_tree(6, 20),
            generators::leaf_spine(4, 16, 8, 7),
            generators::fat_tree(8, 32),
            // A diamond (ECMP at s1 and s4) with two parallel s1–s2 links,
            // the first with its ends swapped, and a switch with no links.
            hand_built(
                5,
                &[
                    [2, 3, 1, 3],
                    [1, 4, 3, 3],
                    [2, 4, 4, 3],
                    [3, 4, 4, 4],
                    [1, 5, 2, 5],
                ],
            ),
            // Two components.
            hand_built(5, &[[1, 3, 2, 3], [3, 3, 4, 3], [4, 4, 5, 3], [5, 4, 3, 4]]),
        ];
        for topology in &shapes {
            let rules = benign_rules(topology);
            let reference = per_pair_reference(topology);
            assert_eq!(rules.len(), reference.len());
            for (i, (got, want)) in rules.iter().zip(&reference).enumerate() {
                assert_eq!(got, want, "rule {i}");
            }
        }
    }

    #[test]
    fn all_rules_carry_the_benign_cookie() {
        let topo = generators::line(3, 1);
        for (_, entry) in benign_rules(&topo) {
            assert_eq!(entry.cookie, BENIGN_COOKIE);
        }
    }

    #[test]
    fn rvaas_magic_traffic_would_be_dropped_without_interception() {
        // Sanity check of the layering: a query packet from a host port does
        // not match any admission rule, so without RVaaS's high-priority
        // interception rules it is dropped at the edge. This is why RVaaS
        // must install its own rules (tested in the core crate).
        let topo = generators::line(3, 1);
        let nf = as_network_function(&topo);
        let engine = ReachabilityEngine::new(&nf);
        let h1 = topo.host(rvaas_types::HostId(1)).unwrap();
        let query_space = HeaderSpace::from(
            Cube::wildcard()
                .with_field(Field::IpSrc, u64::from(h1.ip))
                .with_field(Field::IpDst, 0x0aff_fffe)
                .with_field(Field::L4Dst, 47_999),
        );
        let result = engine.reachable_from(h1.attachment, query_space);
        assert!(result.endpoints.is_empty());
        assert!(result.to_controller.is_empty());
    }
}
