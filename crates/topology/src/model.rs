//! The topology data model: switches, hosts, links and client attachment.

use std::collections::{btree_map::Entry, BTreeMap, BTreeSet, VecDeque};

use rvaas_types::{
    ClientId, Error, GeoPoint, HostId, LinkId, PortId, Result, SimTime, SwitchId, SwitchPort,
};

/// A data-plane switch with its ports and physical location.
#[derive(Debug, Clone, PartialEq)]
pub struct Switch {
    /// The switch identifier (datapath id).
    pub id: SwitchId,
    /// All ports of the switch (internal and edge).
    pub ports: Vec<PortId>,
    /// Physical location (used by geo-location queries).
    pub location: GeoPoint,
}

/// An end host attached to an access-point port and owned by a client.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// The host identifier.
    pub id: HostId,
    /// IPv4 address of the host (used as the routing identifier).
    pub ip: u32,
    /// The access point the host is attached to.
    pub attachment: SwitchPort,
    /// The client (tenant) owning this host.
    pub owner: ClientId,
    /// Physical location of the host.
    pub location: GeoPoint,
}

/// A bidirectional internal link between two switch ports.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// The link identifier.
    pub id: LinkId,
    /// One endpoint.
    pub a: SwitchPort,
    /// The other endpoint.
    pub b: SwitchPort,
    /// Propagation latency of the link.
    pub latency: SimTime,
}

/// The trusted physical topology: the "wiring plan" of the provider network.
///
/// Besides switches, hosts and links it keeps indexes derived from them (so
/// two topologies with equal switches, hosts and links compare equal): the
/// port- and switch-level adjacency of `links`, and `hosts` by attachment
/// and by address.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Topology {
    switches: BTreeMap<SwitchId, Switch>,
    hosts: BTreeMap<HostId, Host>,
    links: BTreeMap<LinkId, Link>,
    /// Port-level adjacency derived from `links` (both directions).
    adjacency: BTreeMap<SwitchPort, SwitchPort>,
    /// Switch-level adjacency derived from `links`: per switch, its
    /// neighbours ascending, each with the port of the lowest-`LinkId` link
    /// to it.
    neighbours: BTreeMap<SwitchId, BTreeMap<SwitchId, PortId>>,
    /// `(attachment, host)` for every host.
    host_ports: BTreeSet<(SwitchPort, HostId)>,
    /// `(ip, host)` for every host.
    host_ips: BTreeSet<(u32, HostId)>,
    next_link_id: u32,
}

impl Topology {
    /// Creates an empty topology.
    #[must_use]
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a switch. Replaces any existing switch with the same id.
    pub fn add_switch(&mut self, id: SwitchId, ports: usize, location: GeoPoint) {
        let ports = (1..=ports as u32).map(PortId).collect();
        self.switches.insert(
            id,
            Switch {
                id,
                ports,
                location,
            },
        );
    }

    /// Adds a host attached at `attachment`, owned by `owner`.
    ///
    /// # Errors
    ///
    /// Returns an error if the attachment switch or port does not exist, or
    /// if the port is already used by an internal link.
    pub fn add_host(
        &mut self,
        id: HostId,
        ip: u32,
        attachment: SwitchPort,
        owner: ClientId,
        location: GeoPoint,
    ) -> Result<()> {
        let switch = self
            .switches
            .get(&attachment.switch)
            .ok_or(Error::UnknownSwitch(attachment.switch.0))?;
        if !switch.ports.contains(&attachment.port) {
            return Err(Error::UnknownPort {
                switch: attachment.switch.0,
                port: attachment.port.0,
            });
        }
        if self.adjacency.contains_key(&attachment) {
            return Err(Error::internal(format!(
                "port {attachment} is wired internally and cannot host {id}"
            )));
        }
        let replaced = self.hosts.insert(
            id,
            Host {
                id,
                ip,
                attachment,
                owner,
                location,
            },
        );
        if let Some(old) = replaced {
            self.host_ports.remove(&(old.attachment, id));
            self.host_ips.remove(&(old.ip, id));
        }
        self.host_ports.insert((attachment, id));
        self.host_ips.insert((ip, id));
        Ok(())
    }

    /// Connects two switch ports with a link of the given latency.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint does not exist or is already wired.
    pub fn add_link(&mut self, a: SwitchPort, b: SwitchPort, latency: SimTime) -> Result<LinkId> {
        for end in [a, b] {
            let switch = self
                .switches
                .get(&end.switch)
                .ok_or(Error::UnknownSwitch(end.switch.0))?;
            if !switch.ports.contains(&end.port) {
                return Err(Error::UnknownPort {
                    switch: end.switch.0,
                    port: end.port.0,
                });
            }
            if self.adjacency.contains_key(&end) {
                return Err(Error::internal(format!("port {end} already wired")));
            }
        }
        let id = LinkId(self.next_link_id);
        self.next_link_id += 1;
        self.links.insert(id, Link { id, a, b, latency });
        self.adjacency.insert(a, b);
        self.adjacency.insert(b, a);
        // Link ids only grow, so the first link between two switches is the
        // one whose port the index keeps.
        for (from, to) in [(a, b), (b, a)] {
            self.neighbours
                .entry(from.switch)
                .or_default()
                .entry(to.switch)
                .or_insert(from.port);
        }
        Ok(id)
    }

    /// Returns the switch with the given id.
    #[must_use]
    pub fn switch(&self, id: SwitchId) -> Option<&Switch> {
        self.switches.get(&id)
    }

    /// Returns the host with the given id.
    #[must_use]
    pub fn host(&self, id: HostId) -> Option<&Host> {
        self.hosts.get(&id)
    }

    /// Returns the host attached at the given access point, if any (the
    /// lowest `HostId` when several share it).
    #[must_use]
    pub fn host_at(&self, port: SwitchPort) -> Option<&Host> {
        let (_, id) = self
            .host_ports
            .range((port, HostId(0))..=(port, HostId(u32::MAX)))
            .next()?;
        self.hosts.get(id)
    }

    /// Whether any host is attached to `switch` (an access switch).
    #[must_use]
    pub fn has_hosts_at(&self, switch: SwitchId) -> bool {
        let first = (SwitchPort::new(switch, PortId(0)), HostId(0));
        self.host_ports
            .range(first..)
            .next()
            .is_some_and(|(port, _)| port.switch == switch)
    }

    /// Returns the host with the given IP address, if any (the lowest
    /// `HostId` when several share it).
    #[must_use]
    pub fn host_by_ip(&self, ip: u32) -> Option<&Host> {
        self.hosts_with_ip(ip).next()
    }

    /// Every host with the given IP address, ascending by `HostId`.
    pub fn hosts_with_ip(&self, ip: u32) -> impl Iterator<Item = &Host> {
        self.host_ips
            .range((ip, HostId(0))..=(ip, HostId(u32::MAX)))
            .filter_map(|(_, id)| self.hosts.get(id))
    }

    /// Returns the link with the given id.
    #[must_use]
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(&id)
    }

    /// The internal peer port of `port`, if wired.
    #[must_use]
    pub fn link_peer(&self, port: SwitchPort) -> Option<SwitchPort> {
        self.adjacency.get(&port).copied()
    }

    /// Iterates over all switches.
    pub fn switches(&self) -> impl Iterator<Item = &Switch> {
        self.switches.values()
    }

    /// Iterates over all hosts.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.values()
    }

    /// Iterates over all links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.values()
    }

    /// Number of switches.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of hosts.
    #[must_use]
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The hosts owned by a client.
    #[must_use]
    pub fn hosts_of_client(&self, client: ClientId) -> Vec<&Host> {
        self.hosts.values().filter(|h| h.owner == client).collect()
    }

    /// The access points (host attachment ports) of a client.
    #[must_use]
    pub fn access_points_of(&self, client: ClientId) -> Vec<SwitchPort> {
        let mut ports: Vec<SwitchPort> = self
            .hosts_of_client(client)
            .iter()
            .map(|h| h.attachment)
            .collect();
        ports.sort();
        ports
    }

    /// All clients with at least one host.
    #[must_use]
    pub fn clients(&self) -> Vec<ClientId> {
        let set: BTreeSet<ClientId> = self.hosts.values().map(|h| h.owner).collect();
        set.into_iter().collect()
    }

    /// Edge ports of a switch: ports without an internal link (access points,
    /// whether or not a host is currently attached).
    #[must_use]
    pub fn edge_ports(&self, switch: SwitchId) -> Vec<PortId> {
        self.switches
            .get(&switch)
            .map(|s| {
                s.ports
                    .iter()
                    .copied()
                    .filter(|p| !self.adjacency.contains_key(&SwitchPort::new(switch, *p)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Switch-level neighbours of `switch`, ascending.
    #[must_use]
    pub fn neighbors(&self, switch: SwitchId) -> Vec<SwitchId> {
        self.neighbour_ids(switch).collect()
    }

    /// The neighbours of `switch` in ascending order, from the index.
    fn neighbour_ids(&self, switch: SwitchId) -> impl Iterator<Item = SwitchId> + '_ {
        self.neighbours
            .get(&switch)
            .into_iter()
            .flat_map(|n| n.keys().copied())
    }

    /// The port on `from` that leads directly to `to`, if the switches are
    /// adjacent: that of the lowest-`LinkId` link between them.
    #[must_use]
    pub fn port_towards(&self, from: SwitchId, to: SwitchId) -> Option<PortId> {
        self.neighbours.get(&from)?.get(&to).copied()
    }

    /// True if the switch graph is connected (single component); trivially
    /// true for zero or one switch.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.switches.keys().next().copied() else {
            return true;
        };
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([start]);
        while let Some(s) = queue.pop_front() {
            if !seen.insert(s) {
                continue;
            }
            for n in self.neighbour_ids(s) {
                if !seen.contains(&n) {
                    queue.push_back(n);
                }
            }
        }
        seen.len() == self.switches.len()
    }

    /// Shortest switch-level path (BFS, hop count) between two switches,
    /// including both endpoints. `None` if unreachable.
    ///
    /// Ties between equal-length paths are broken by the BFS itself: it
    /// enqueues each switch's neighbours in ascending id order and keeps the
    /// first parent that discovers a switch. That is a contract, not an
    /// accident: [`next_hops_to`](Self::next_hops_to) returns exactly the
    /// first hop of this path, and the benign routing compile relies on it.
    #[must_use]
    pub fn shortest_path(&self, from: SwitchId, to: SwitchId) -> Option<Vec<SwitchId>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: BTreeMap<SwitchId, SwitchId> = BTreeMap::new();
        let mut seen = BTreeSet::from([from]);
        let mut queue = VecDeque::from([from]);
        while let Some(s) = queue.pop_front() {
            for n in self.neighbour_ids(s) {
                if seen.insert(n) {
                    prev.insert(n, s);
                    if n == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while let Some(&p) = prev.get(&cur) {
                            path.push(p);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(n);
                }
            }
        }
        None
    }

    /// For every switch from which `dst` is reachable (other than `dst`
    /// itself), the port it forwards on toward `dst`: one BFS from `dst`
    /// for what would otherwise take one [`shortest_path`](Self::shortest_path)
    /// per switch.
    ///
    /// Each switch `s` gets the port toward its smallest-id neighbour one
    /// hop closer to `dst`, which is exactly
    /// `port_towards(s, shortest_path(s, dst)?[1])`, ECMP ties included.
    /// Why: `shortest_path(s, dst)` is a BFS from `s` that enqueues
    /// neighbours ascending and keeps first parents, so `path[1]` is the
    /// level-1 ancestor of `dst` in that BFS tree. By induction on the
    /// level, each level of the queue is sorted by level-1 ancestor (level
    /// 1 is sorted by id; a level's children are enqueued in their parents'
    /// order and inherit their ancestor), so a switch's first parent is the
    /// one with the smallest ancestor, and the level-1 ancestor of any `v`
    /// is the smallest neighbour `n` of `s` with
    /// `dist(n, v) = dist(s, v) - 1`. Taking `v = dst` gives the rule above.
    #[must_use]
    pub fn next_hops_to(&self, dst: SwitchId) -> BTreeMap<SwitchId, PortId> {
        let mut dist = BTreeMap::from([(dst, 0usize)]);
        let mut order = vec![dst];
        let mut next = 0;
        while let Some(&s) = order.get(next) {
            next += 1;
            let hops = dist[&s] + 1;
            for n in self.neighbour_ids(s) {
                if let Entry::Vacant(slot) = dist.entry(n) {
                    slot.insert(hops);
                    order.push(n);
                }
            }
        }
        order[1..]
            .iter()
            .map(|&s| {
                let closer = dist[&s] - 1;
                let port = self.neighbours[&s]
                    .iter()
                    .find_map(|(n, port)| (dist.get(n) == Some(&closer)).then_some(*port))
                    .expect("a switch the BFS reached has a neighbour one hop closer");
                (s, port)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_types::Region;

    fn loc() -> GeoPoint {
        GeoPoint::new(0.0, 0.0, Region::new("EU"))
    }

    fn sp(s: u32, p: u32) -> SwitchPort {
        SwitchPort::new(SwitchId(s), PortId(p))
    }

    fn small_topo() -> Topology {
        // s1 -(p3/p3)- s2, host h1 on s1:p1 (client 1), host h2 on s2:p1 (client 2)
        let mut t = Topology::new();
        t.add_switch(SwitchId(1), 3, loc());
        t.add_switch(SwitchId(2), 3, loc());
        t.add_link(sp(1, 3), sp(2, 3), SimTime::from_micros(10))
            .unwrap();
        t.add_host(HostId(1), 0x0a000001, sp(1, 1), ClientId(1), loc())
            .unwrap();
        t.add_host(HostId(2), 0x0a000002, sp(2, 1), ClientId(2), loc())
            .unwrap();
        t
    }

    #[test]
    fn counts_and_lookups() {
        let t = small_topo();
        assert_eq!(t.switch_count(), 2);
        assert_eq!(t.host_count(), 2);
        assert_eq!(t.link_count(), 1);
        assert_eq!(t.host_by_ip(0x0a000001).unwrap().id, HostId(1));
        assert_eq!(t.host_at(sp(2, 1)).unwrap().id, HostId(2));
        assert!(t.host_at(sp(1, 2)).is_none());
        assert_eq!(t.switch(SwitchId(1)).unwrap().ports.len(), 3);
        assert!(t.switch(SwitchId(9)).is_none());
    }

    #[test]
    fn adjacency_and_peer() {
        let t = small_topo();
        assert_eq!(t.link_peer(sp(1, 3)), Some(sp(2, 3)));
        assert_eq!(t.link_peer(sp(2, 3)), Some(sp(1, 3)));
        assert_eq!(t.link_peer(sp(1, 1)), None);
        assert_eq!(t.neighbors(SwitchId(1)), vec![SwitchId(2)]);
        assert_eq!(t.port_towards(SwitchId(1), SwitchId(2)), Some(PortId(3)));
        assert_eq!(t.port_towards(SwitchId(2), SwitchId(1)), Some(PortId(3)));
        assert_eq!(t.port_towards(SwitchId(1), SwitchId(9)), None);
    }

    #[test]
    fn edge_ports_exclude_wired_ports() {
        let t = small_topo();
        assert_eq!(t.edge_ports(SwitchId(1)), vec![PortId(1), PortId(2)]);
        assert_eq!(t.edge_ports(SwitchId(9)), Vec::<PortId>::new());
    }

    #[test]
    fn client_views() {
        let t = small_topo();
        assert_eq!(t.clients(), vec![ClientId(1), ClientId(2)]);
        assert_eq!(t.access_points_of(ClientId(1)), vec![sp(1, 1)]);
        assert_eq!(t.hosts_of_client(ClientId(2)).len(), 1);
    }

    #[test]
    fn connectivity_and_paths() {
        let t = small_topo();
        assert!(t.is_connected());
        assert_eq!(
            t.shortest_path(SwitchId(1), SwitchId(2)),
            Some(vec![SwitchId(1), SwitchId(2)])
        );
        assert_eq!(
            t.shortest_path(SwitchId(1), SwitchId(1)),
            Some(vec![SwitchId(1)])
        );

        let mut disconnected = small_topo();
        disconnected.add_switch(SwitchId(3), 2, loc());
        assert!(!disconnected.is_connected());
        assert_eq!(disconnected.shortest_path(SwitchId(1), SwitchId(3)), None);
        assert!(Topology::new().is_connected());
    }

    #[test]
    fn add_host_validates_attachment() {
        let mut t = small_topo();
        // Unknown switch.
        assert!(t
            .add_host(HostId(3), 5, sp(9, 1), ClientId(1), loc())
            .is_err());
        // Unknown port.
        assert!(t
            .add_host(HostId(3), 5, sp(1, 9), ClientId(1), loc())
            .is_err());
        // Port wired internally.
        assert!(t
            .add_host(HostId(3), 5, sp(1, 3), ClientId(1), loc())
            .is_err());
    }

    #[test]
    fn add_link_validates_endpoints() {
        let mut t = small_topo();
        assert!(t.add_link(sp(1, 9), sp(2, 2), SimTime::ZERO).is_err());
        assert!(t.add_link(sp(9, 1), sp(2, 2), SimTime::ZERO).is_err());
        // Port already wired.
        assert!(t.add_link(sp(1, 3), sp(2, 2), SimTime::ZERO).is_err());
        // Valid link gets a fresh id.
        let id = t.add_link(sp(1, 2), sp(2, 2), SimTime::ZERO).unwrap();
        assert_eq!(id, LinkId(1));
        assert_eq!(t.link(id).unwrap().latency, SimTime::ZERO);
    }

    /// `neighbors` as a scan over every link: the code the index replaced.
    fn neighbors_by_scan(t: &Topology, switch: SwitchId) -> Vec<SwitchId> {
        let mut out: Vec<SwitchId> = t
            .links()
            .filter_map(|l| {
                if l.a.switch == switch {
                    Some(l.b.switch)
                } else if l.b.switch == switch {
                    Some(l.a.switch)
                } else {
                    None
                }
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// `port_towards` as a scan over every link: the code the index replaced.
    fn port_towards_by_scan(t: &Topology, from: SwitchId, to: SwitchId) -> Option<PortId> {
        t.links().find_map(|l| {
            if l.a.switch == from && l.b.switch == to {
                Some(l.a.port)
            } else if l.b.switch == from && l.a.switch == to {
                Some(l.b.port)
            } else {
                None
            }
        })
    }

    fn topo_with_switches(n: u32) -> Topology {
        let mut t = Topology::new();
        for s in 1..=n {
            t.add_switch(SwitchId(s), 6, loc());
        }
        t
    }

    /// A diamond s1 → {s2, s3} → s4 (an ECMP tie at s1 and s4) whose s1–s2
    /// hop is two parallel links, the second added with its ends swapped,
    /// plus s5 with no links at all; one host on each switch.
    fn diamond_with_parallel_links_and_a_lone_switch() -> Topology {
        let mut t = topo_with_switches(5);
        for (a, b) in [
            (sp(2, 3), sp(1, 3)),
            (sp(1, 4), sp(3, 3)),
            (sp(2, 4), sp(4, 3)),
            (sp(3, 4), sp(4, 4)),
            (sp(1, 5), sp(2, 5)),
        ] {
            t.add_link(a, b, SimTime::ZERO).unwrap();
        }
        for s in 1..=5 {
            t.add_host(HostId(s), 0x0a00_0000 + s, sp(s, 1), ClientId(1), loc())
                .unwrap();
        }
        t
    }

    /// Two components: s1 – s2 and a triangle s3 – s4 – s5.
    fn two_components() -> Topology {
        let mut t = topo_with_switches(5);
        for (a, b) in [
            (sp(1, 3), sp(2, 3)),
            (sp(3, 3), sp(4, 3)),
            (sp(4, 4), sp(5, 3)),
            (sp(5, 4), sp(3, 4)),
        ] {
            t.add_link(a, b, SimTime::ZERO).unwrap();
        }
        for s in 1..=5 {
            t.add_host(
                HostId(s),
                0x0a00_0000 + s,
                sp(s, 1),
                ClientId(s % 2 + 1),
                loc(),
            )
            .unwrap();
        }
        t
    }

    /// Every generator shape, the three benchmark topologies and the
    /// hand-built corner cases.
    fn shapes() -> Vec<(&'static str, Topology)> {
        use crate::generators::{fat_tree, leaf_spine, line, ring, waxman_wan, DEFAULT_REGIONS};
        vec![
            ("line(5,2)", line(5, 2)),
            ("ring(6,2)", ring(6, 2)),
            ("leaf_spine(2,4,3)", leaf_spine(2, 4, 3, 7)),
            ("fat_tree(4,4)", fat_tree(4, 4)),
            (
                "waxman(24)",
                waxman_wan(24, 4, &DEFAULT_REGIONS, 0.4, 0.2, 3),
            ),
            ("fat_tree(6,20)", fat_tree(6, 20)),
            ("leaf_spine(4,16,8,7)", leaf_spine(4, 16, 8, 7)),
            ("fat_tree(8,32)", fat_tree(8, 32)),
            ("diamond", diamond_with_parallel_links_and_a_lone_switch()),
            ("two components", two_components()),
        ]
    }

    fn switch_ids(t: &Topology) -> Vec<SwitchId> {
        // One id that is not a switch, so misses are compared too.
        t.switches().map(|s| s.id).chain([SwitchId(999)]).collect()
    }

    #[test]
    fn indexed_adjacency_equals_a_link_scan() {
        for (label, t) in shapes() {
            let ids = switch_ids(&t);
            for &from in &ids {
                assert_eq!(
                    t.neighbors(from),
                    neighbors_by_scan(&t, from),
                    "{label}: {from}"
                );
                for &to in &ids {
                    assert_eq!(
                        t.port_towards(from, to),
                        port_towards_by_scan(&t, from, to),
                        "{label}: {from} -> {to}"
                    );
                }
            }
        }
        // The lowest `LinkId` wins between parallel links.
        let t = diamond_with_parallel_links_and_a_lone_switch();
        assert_eq!(t.port_towards(SwitchId(1), SwitchId(2)), Some(PortId(3)));
        assert_eq!(t.port_towards(SwitchId(2), SwitchId(1)), Some(PortId(3)));
        assert_eq!(t.neighbors(SwitchId(5)), Vec::<SwitchId>::new());
    }

    #[test]
    fn next_hops_to_is_the_first_hop_of_shortest_path() {
        for (label, t) in shapes() {
            let ids = switch_ids(&t);
            for &dst in &ids {
                let expected: BTreeMap<SwitchId, PortId> = ids
                    .iter()
                    .filter_map(|&from| {
                        let path = t.shortest_path(from, dst)?;
                        Some((from, t.port_towards(from, *path.get(1)?)?))
                    })
                    .collect();
                assert_eq!(t.next_hops_to(dst), expected, "{label}: toward {dst}");
            }
        }
        // The ECMP tie at s1 toward s4 goes to the smaller neighbour, s2,
        // over the lower-id of the two parallel links; s5 reaches nothing.
        let t = diamond_with_parallel_links_and_a_lone_switch();
        let hops = t.next_hops_to(SwitchId(4));
        assert_eq!(hops.get(&SwitchId(1)), Some(&PortId(3)));
        assert_eq!(hops.get(&SwitchId(5)), None);
        assert_eq!(hops.get(&SwitchId(4)), None);
        assert!(t.next_hops_to(SwitchId(5)).is_empty());
    }

    #[test]
    fn host_lookups_equal_a_linear_scan() {
        let mut corner = diamond_with_parallel_links_and_a_lone_switch();
        // Two hosts on one port and on one address: the higher id first,
        // so an index that kept insertion order would answer wrong.
        corner
            .add_host(HostId(9), 0x0a00_0063, sp(5, 2), ClientId(2), loc())
            .unwrap();
        corner
            .add_host(HostId(7), 0x0a00_0063, sp(5, 2), ClientId(2), loc())
            .unwrap();
        assert_eq!(corner.host_at(sp(5, 2)).unwrap().id, HostId(7));
        assert_eq!(corner.host_by_ip(0x0a00_0063).unwrap().id, HostId(7));
        // A re-added id leaves its old port and address behind.
        corner
            .add_host(HostId(7), 0x0a00_0064, sp(4, 2), ClientId(2), loc())
            .unwrap();
        assert_eq!(corner.host_at(sp(5, 2)).unwrap().id, HostId(9));
        assert_eq!(corner.host_by_ip(0x0a00_0063).unwrap().id, HostId(9));
        corner
            .add_host(HostId(1), 0x0a00_0065, sp(1, 2), ClientId(1), loc())
            .unwrap();
        assert!(corner.host_at(sp(1, 1)).is_none());
        assert!(corner.host_by_ip(0x0a00_0001).is_none());

        let mut all = shapes();
        all.push(("corner hosts", corner));
        for (label, t) in all {
            for switch in t.switches() {
                for &port in &switch.ports {
                    let at = SwitchPort::new(switch.id, port);
                    assert_eq!(
                        t.host_at(at).map(|h| h.id),
                        t.hosts().find(|h| h.attachment == at).map(|h| h.id),
                        "{label}: {at}"
                    );
                }
            }
            for ip in t.hosts().map(|h| h.ip).chain([0, 0x0a00_0000, u32::MAX]) {
                assert_eq!(
                    t.host_by_ip(ip).map(|h| h.id),
                    t.hosts().find(|h| h.ip == ip).map(|h| h.id),
                    "{label}: {ip:#x}"
                );
            }
        }
    }

    #[test]
    fn equality_is_switches_hosts_and_links_however_hosts_got_there() {
        let mut moved = small_topo();
        moved
            .add_host(HostId(1), 0x0a00_0009, sp(1, 2), ClientId(1), loc())
            .unwrap();
        let mut direct = Topology::new();
        direct.add_switch(SwitchId(1), 3, loc());
        direct.add_switch(SwitchId(2), 3, loc());
        direct
            .add_link(sp(1, 3), sp(2, 3), SimTime::from_micros(10))
            .unwrap();
        direct
            .add_host(HostId(2), 0x0a000002, sp(2, 1), ClientId(2), loc())
            .unwrap();
        direct
            .add_host(HostId(1), 0x0a00_0009, sp(1, 2), ClientId(1), loc())
            .unwrap();
        assert_eq!(moved, direct);
        assert_ne!(moved, small_topo());
    }
}
