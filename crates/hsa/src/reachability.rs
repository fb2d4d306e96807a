//! Reachability and trajectory analysis over a [`NetworkFunction`].
//!
//! Given an injection point (an edge port) and an initial header space, the
//! engine propagates the space through switch transfer functions and internal
//! links, producing:
//!
//! * every **edge port** the traffic can exit through, with the exact header
//!   space that reaches it and the switch-level path taken (one
//!   [`ReachedEndpoint`] per distinct path);
//! * every point where traffic is **delivered to the controller**;
//! * **loop reports** for traffic that revisits a switch it has already
//!   traversed with an overlapping header space.
//!
//! Several spaces injected at one port can share a walk as its labels
//! ([`ReachabilityEngine::reachable_from_each`]): each switch's rules are
//! scanned once for all of them, while each label's cubes, budget and
//! result stay its own — a single space is the one-label case.
//!
//! Loop detection ends every branch that revisits a switch, so no path is
//! longer than the network has switches and every loop-free path, however
//! long, is followed to its end. The one work bound is a cube budget: a
//! branch whose header space holds more than 4 096 cubes is cut and counted
//! in [`ReachabilityResult::truncated_branches`].
//!
//! Only traffic that **leaves** a switch is ever propagated or built:
//! [`SwitchTransfer::apply_each`](crate::SwitchTransfer::apply_each) reports
//! the spaces forwarded and punted and nothing for what a switch drops, so a
//! traversal's cost follows the rules that serve the injected space, not the
//! rules that merely overlap it — a block of inert drop rules on a visited
//! switch costs an overlap test each, not a re-partition of the space.
//!
//! This is the engine RVaaS uses for its logical verification step: isolation
//! queries look at which edge ports are reached, geo queries look at the
//! switches on the paths, and avoidance queries check that a given space
//! reaches *no* endpoint outside an allowed set.

use rvaas_types::{PortId, SwitchId, SwitchPort};

use crate::space::HeaderSpace;
use crate::transfer::NetworkFunction;

/// The most cubes a propagated header space may hold before its branch is
/// cut and counted in [`ReachabilityResult::truncated_branches`] (guards
/// against state explosion in pathological rule sets).
const MAX_CUBES: usize = 4096;

/// Traffic that can leave the network at an edge port.
#[derive(Debug, Clone, PartialEq)]
pub struct ReachedEndpoint {
    /// The edge port the traffic exits through.
    pub egress: SwitchPort,
    /// The header space that reaches the port along this path.
    pub space: HeaderSpace,
    /// Switches traversed, in order (including the egress switch).
    pub path: Vec<SwitchId>,
}

impl ReachedEndpoint {
    /// Number of switches traversed.
    #[must_use]
    pub fn hop_count(&self) -> usize {
        self.path.len()
    }
}

/// Traffic delivered to the controller (Packet-In) during propagation.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerDelivery {
    /// Switch that punts the traffic.
    pub switch: SwitchId,
    /// Header space delivered to the controller.
    pub space: HeaderSpace,
    /// Path taken up to and including the punting switch.
    pub path: Vec<SwitchId>,
}

/// A forwarding loop detected during propagation.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopReport {
    /// Switch that is visited twice.
    pub switch: SwitchId,
    /// Path from injection up to the repeated visit.
    pub path: Vec<SwitchId>,
    /// Header space still alive when the loop was closed.
    pub space: HeaderSpace,
}

/// The full result of a reachability computation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReachabilityResult {
    /// Edge ports reached (one entry per distinct path).
    pub endpoints: Vec<ReachedEndpoint>,
    /// Controller deliveries.
    pub to_controller: Vec<ControllerDelivery>,
    /// Detected forwarding loops.
    pub loops: Vec<LoopReport>,
    /// Number of branches cut because their header space held more than
    /// 4 096 cubes.
    pub truncated_branches: usize,
    /// Every switch the traversal touched, sorted and de-duplicated. Unlike
    /// [`traversed_switches`](Self::traversed_switches) this includes switches
    /// where all traffic was dropped or punted — the full *footprint* of the
    /// computation, i.e. the set of switches whose rules the result depends
    /// on. (A rule change on any other switch cannot alter this result,
    /// except through `truncated_branches`.)
    pub visited: Vec<SwitchId>,
}

impl ReachabilityResult {
    /// Distinct egress ports reached, de-duplicated.
    #[must_use]
    pub fn reached_ports(&self) -> Vec<SwitchPort> {
        let mut ports: Vec<SwitchPort> = self.endpoints.iter().map(|e| e.egress).collect();
        ports.sort();
        ports.dedup();
        ports
    }

    /// All switches that appear on any path (for geo-location queries).
    #[must_use]
    pub fn traversed_switches(&self) -> Vec<SwitchId> {
        let mut switches: Vec<SwitchId> = self
            .endpoints
            .iter()
            .flat_map(|e| e.path.iter().copied())
            .chain(self.loops.iter().flat_map(|l| l.path.iter().copied()))
            .chain(
                self.to_controller
                    .iter()
                    .flat_map(|c| c.path.iter().copied()),
            )
            .collect();
        switches.sort();
        switches.dedup();
        switches
    }

    /// The combined header space that can reach a given egress port.
    #[must_use]
    pub fn space_reaching(&self, port: SwitchPort) -> HeaderSpace {
        self.endpoints
            .iter()
            .filter(|e| e.egress == port)
            .fold(HeaderSpace::empty(), |acc, e| acc.union(&e.space))
    }
}

/// The reachability engine; borrows a [`NetworkFunction`] snapshot.
#[derive(Debug, Clone)]
pub struct ReachabilityEngine<'a> {
    network: &'a NetworkFunction,
}

/// A branch of a traversal: the labelled spaces arriving together at one
/// switch port along one path.
struct WorkItem {
    switch: SwitchId,
    in_port: PortId,
    /// `(input index, header space)`, never empty.
    spaces: Vec<(usize, HeaderSpace)>,
    path: Vec<SwitchId>,
}

impl<'a> ReachabilityEngine<'a> {
    /// Creates an engine over `network`.
    #[must_use]
    pub fn new(network: &'a NetworkFunction) -> Self {
        ReachabilityEngine { network }
    }

    /// Computes everything reachable from traffic injected at edge port
    /// `ingress` with headers in `space`: the one-input case of
    /// [`reachable_from_each`](Self::reachable_from_each).
    #[must_use]
    pub fn reachable_from(&self, ingress: SwitchPort, space: HeaderSpace) -> ReachabilityResult {
        let mut results = self.reachable_from_each(ingress, [space]);
        results.pop().unwrap_or_default()
    }

    /// Computes, in one traversal, everything reachable from traffic
    /// injected at edge port `ingress` with headers in each of `spaces`:
    /// result *i* is exactly what [`reachable_from`](Self::reachable_from)
    /// returns for `spaces[i]` alone — its endpoints, controller deliveries,
    /// loops, `visited` switches and `truncated_branches`.
    ///
    /// The inputs travel as labels of one walk: a branch carries the share
    /// of every input that took it, a switch's rules are scanned once for
    /// all of them ([`SwitchTransfer::apply_each`]), and each input's cubes
    /// stay apart, simplified on their own and held to the 4 096-cube
    /// budget on their own. What inputs share is the walking, never a
    /// header: a rule's output for one input and for another leave as one
    /// branch, and a branch cut, looped or ended for one input is so for
    /// that input alone.
    ///
    /// [`SwitchTransfer::apply_each`]: crate::SwitchTransfer::apply_each
    #[must_use]
    pub fn reachable_from_each(
        &self,
        ingress: SwitchPort,
        spaces: impl IntoIterator<Item = HeaderSpace>,
    ) -> Vec<ReachabilityResult> {
        let mut results = Vec::new();
        let mut injected = Vec::new();
        for (label, space) in spaces.into_iter().enumerate() {
            results.push(ReachabilityResult::default());
            if !space.is_empty() {
                injected.push((label, space));
            }
        }
        let mut queue = Vec::new();
        if !injected.is_empty() {
            queue.push(WorkItem {
                switch: ingress.switch,
                in_port: ingress.port,
                spaces: injected,
                path: Vec::new(),
            });
        }

        while let Some(mut item) = queue.pop() {
            // Footprint bookkeeping: every switch traffic arrives at is part
            // of the result's dependency set, even when it drops or truncates
            // everything.
            item.spaces.retain(|(label, space)| {
                let result = &mut results[*label];
                result.visited.push(item.switch);
                let within = space.cube_count() <= MAX_CUBES;
                if !within {
                    result.truncated_branches += 1;
                }
                within
            });
            if item.spaces.is_empty() {
                continue;
            }
            // Loop detection: a switch revisited along the same path.
            if item.path.contains(&item.switch) {
                for (label, space) in item.spaces {
                    results[label].loops.push(LoopReport {
                        switch: item.switch,
                        path: item.path.clone(),
                        space,
                    });
                }
                continue;
            }
            let Some(transfer) = self.network.transfer(item.switch) else {
                // Unknown switch: treat as dropping everything.
                continue;
            };
            let mut path = item.path;
            path.push(item.switch);

            let inputs = item.spaces.iter().map(|(label, space)| (*label, space));
            for out in transfer.apply_each(item.in_port, inputs) {
                if out.to_controller {
                    for (label, space) in out.spaces {
                        results[label].to_controller.push(ControllerDelivery {
                            switch: item.switch,
                            space,
                            path: path.clone(),
                        });
                    }
                    continue;
                }
                let Some(out_port) = out.out_port else {
                    // Neither a port nor the controller: `apply_each` reports
                    // no such output (dropped traffic is not materialised).
                    continue;
                };
                let egress = SwitchPort::new(item.switch, out_port);
                match self.network.link_peer(egress) {
                    Some(peer) => queue.push(WorkItem {
                        switch: peer.switch,
                        in_port: peer.port,
                        spaces: out.spaces,
                        path: path.clone(),
                    }),
                    None => {
                        for (label, space) in out.spaces {
                            results[label].endpoints.push(ReachedEndpoint {
                                egress,
                                space,
                                path: path.clone(),
                            });
                        }
                    }
                }
            }
        }
        for result in &mut results {
            result.visited.sort();
            result.visited.dedup();
        }
        results
    }
}

/// True when two network functions are *reachability-equivalent*: injecting
/// the full header space at every edge port of either function reaches the
/// same egress ports carrying the same header sets. Spaces are compared
/// semantically (mutual subtraction), not representationally, so differently
/// factored but equal unions of cubes compare equal.
///
/// This is the oracle behind the incremental-model property tests: a network
/// function updated rule-by-rule in place must stay equivalent to one rebuilt
/// from scratch.
#[must_use]
pub fn reachability_equivalent(a: &NetworkFunction, b: &NetworkFunction) -> bool {
    let mut ports_a = a.all_edge_ports();
    let mut ports_b = b.all_edge_ports();
    ports_a.sort();
    ports_b.sort();
    if ports_a != ports_b {
        return false;
    }
    let engine_a = ReachabilityEngine::new(a);
    let engine_b = ReachabilityEngine::new(b);
    for ingress in ports_a {
        let result_a = engine_a.reachable_from(ingress, HeaderSpace::all());
        let result_b = engine_b.reachable_from(ingress, HeaderSpace::all());
        if result_a.reached_ports() != result_b.reached_ports() {
            return false;
        }
        for port in result_a.reached_ports() {
            let space_a = result_a.space_reaching(port);
            let space_b = result_b.space_reaching(port);
            if !space_a.subtract(&space_b).is_empty() || !space_b.subtract(&space_a).is_empty() {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;
    use crate::transfer::{RuleAction, RuleTransfer, SwitchTransfer};
    use proptest::prelude::*;
    use rvaas_types::{Field, FlowCookie, Header};
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    fn dst_match(dst: u32) -> Cube {
        Cube::wildcard().with_field(Field::IpDst, u64::from(dst))
    }

    fn sp(s: u32, p: u32) -> SwitchPort {
        SwitchPort::new(SwitchId(s), PortId(p))
    }

    /// Builds a 3-switch line: h1 -- s1 -- s2 -- s3 -- h2
    /// Port 1 of s1 and port 2 of s3 are edge ports.
    /// All switches forward dst=2 towards s3 and dst=1 towards s1.
    fn line_network() -> NetworkFunction {
        let mut nf = NetworkFunction::default();
        for s in 1..=3u32 {
            nf.declare_switch(SwitchId(s), [PortId(1), PortId(2)]);
        }
        nf.connect(sp(1, 2), sp(2, 1));
        nf.connect(sp(2, 2), sp(3, 1));
        for s in 1..=3u32 {
            nf.set_transfer(
                SwitchId(s),
                SwitchTransfer::from_rules([
                    RuleTransfer::new(10, dst_match(2), RuleAction::forward(PortId(2))),
                    RuleTransfer::new(10, dst_match(1), RuleAction::forward(PortId(1))),
                ]),
            );
        }
        nf
    }

    #[test]
    fn line_reachability_end_to_end() {
        let nf = line_network();
        let engine = ReachabilityEngine::new(&nf);
        let result = engine.reachable_from(sp(1, 1), HeaderSpace::all());
        // Traffic to dst=2 exits at s3:p2; traffic to dst=1 bounces straight
        // back out of s1:p1.
        let ports = result.reached_ports();
        assert!(ports.contains(&sp(3, 2)), "ports: {ports:?}");
        assert!(ports.contains(&sp(1, 1)), "ports: {ports:?}");
        let to_h2 = result.space_reaching(sp(3, 2));
        assert!(to_h2.contains(&Header::builder().ip_dst(2).build()));
        assert!(!to_h2.contains(&Header::builder().ip_dst(1).build()));
        // The path to h2 is s1 -> s2 -> s3.
        let ep = result
            .endpoints
            .iter()
            .find(|e| e.egress == sp(3, 2))
            .unwrap();
        assert_eq!(ep.path, vec![SwitchId(1), SwitchId(2), SwitchId(3)]);
        assert_eq!(ep.hop_count(), 3);
        assert!(result.loops.is_empty());
        assert_eq!(result.truncated_branches, 0);
    }

    #[test]
    fn unmatched_traffic_is_not_reported_as_reached() {
        let nf = line_network();
        let engine = ReachabilityEngine::new(&nf);
        // dst=3 matches no rule anywhere -> dropped at s1, reaches nothing.
        let space = HeaderSpace::from(dst_match(3));
        let result = engine.reachable_from(sp(1, 1), space);
        assert!(result.endpoints.is_empty());
        // ...but the dropping switch is still part of the footprint: its
        // rules decided the (empty) outcome, while s2/s3 never saw traffic.
        assert_eq!(result.visited, vec![SwitchId(1)]);
        assert!(result.traversed_switches().is_empty());
    }

    #[test]
    fn empty_input_space_reaches_nothing() {
        let nf = line_network();
        let engine = ReachabilityEngine::new(&nf);
        let result = engine.reachable_from(sp(1, 1), HeaderSpace::empty());
        assert!(result.endpoints.is_empty());
        assert!(result.loops.is_empty());
    }

    #[test]
    fn controller_bound_traffic_is_reported() {
        let mut nf = line_network();
        // s2 punts dst=2 traffic with l4_dst 9999 to the controller.
        let mut t = nf.transfer(SwitchId(2)).unwrap().clone();
        t.insert_rule(RuleTransfer::new(
            100,
            Cube::wildcard().with_field(Field::L4Dst, 9999),
            RuleAction::ToController,
        ));
        nf.set_transfer(SwitchId(2), t);
        let engine = ReachabilityEngine::new(&nf);
        let probe = Header::builder().ip_dst(2).l4_dst(9999).build();
        let result = engine.reachable_from(sp(1, 1), HeaderSpace::singleton(&probe));
        assert_eq!(result.to_controller.len(), 1);
        assert_eq!(result.to_controller[0].switch, SwitchId(2));
        assert_eq!(result.to_controller[0].path, vec![SwitchId(1), SwitchId(2)]);
        assert!(result.endpoints.is_empty());
    }

    #[test]
    fn forwarding_loop_is_detected() {
        // Two switches forwarding dst=5 to each other forever.
        let mut nf = NetworkFunction::default();
        nf.declare_switch(SwitchId(1), [PortId(1), PortId(2)]);
        nf.declare_switch(SwitchId(2), [PortId(1), PortId(2)]);
        nf.connect(sp(1, 2), sp(2, 1));
        nf.connect(sp(1, 1), sp(2, 2));
        let fwd = |port| {
            SwitchTransfer::from_rules([RuleTransfer::new(
                10,
                dst_match(5),
                RuleAction::forward(PortId(port)),
            )])
        };
        nf.set_transfer(SwitchId(1), fwd(2));
        nf.set_transfer(SwitchId(2), fwd(2));
        // There are no edge ports (fully wired); inject directly at s1:p1.
        let engine = ReachabilityEngine::new(&nf);
        let result = engine.reachable_from(sp(1, 1), HeaderSpace::from(dst_match(5)));
        assert!(!result.loops.is_empty(), "loop must be reported");
        assert!(result.endpoints.is_empty());
    }

    #[test]
    fn traversed_switches_and_path_bounds() {
        let nf = line_network();
        let engine = ReachabilityEngine::new(&nf);
        let result = engine.reachable_from(sp(1, 1), HeaderSpace::from(dst_match(2)));
        assert_eq!(
            result.traversed_switches(),
            vec![SwitchId(1), SwitchId(2), SwitchId(3)]
        );
        assert_eq!(result.visited, result.traversed_switches());
        let hops: Vec<usize> = result
            .endpoints
            .iter()
            .map(ReachedEndpoint::hop_count)
            .collect();
        assert_eq!(hops, [3], "shortest and longest path are 3 hops");
    }

    #[test]
    fn a_path_longer_than_64_switches_reaches_its_far_edge() {
        // s1 -- s2 -- ... -- s70, every switch forwarding everything east.
        let mut nf = NetworkFunction::default();
        for s in 1..=70u32 {
            nf.declare_switch(SwitchId(s), [PortId(1), PortId(2)]);
            nf.set_transfer(
                SwitchId(s),
                SwitchTransfer::from_rules([RuleTransfer::new(
                    10,
                    Cube::wildcard(),
                    RuleAction::forward(PortId(2)),
                )]),
            );
        }
        for s in 1..70u32 {
            nf.connect(sp(s, 2), sp(s + 1, 1));
        }
        let result = ReachabilityEngine::new(&nf).reachable_from(sp(1, 1), HeaderSpace::all());
        assert_eq!(result.reached_ports(), vec![sp(70, 2)]);
        let path: Vec<SwitchId> = (1..=70).map(SwitchId).collect();
        assert_eq!(result.endpoints[0].path, path);
        assert_eq!(result.truncated_branches, 0);
    }

    #[test]
    fn a_space_over_the_cube_budget_is_cut_at_injection() {
        let nf = line_network();
        let space: HeaderSpace = (0..=MAX_CUBES as u32).map(dst_match).collect();
        assert_eq!(space.cube_count(), MAX_CUBES + 1);
        let result = ReachabilityEngine::new(&nf).reachable_from(sp(1, 1), space);
        assert_eq!(result.truncated_branches, 1);
        assert!(result.endpoints.is_empty());
        assert_eq!(result.visited, vec![SwitchId(1)]);
    }

    #[test]
    fn reachability_equivalence_oracle() {
        let nf = line_network();
        // Identical functions are equivalent, and an incrementally mutated
        // copy stays equivalent to a rebuilt one as long as the rule *sets*
        // agree semantically.
        assert!(reachability_equivalent(&nf, &nf.clone()));
        // A rule matching traffic that was already dropped upstream changes
        // nothing: the oracle compares behaviour, not rule lists.
        let mut incremental = line_network();
        let inert = RuleTransfer::new(50, dst_match(7), RuleAction::Drop);
        incremental.insert_rule(SwitchId(2), inert.clone());
        assert!(reachability_equivalent(&nf, &incremental));
        incremental.remove_rule(SwitchId(2), &inert);
        assert!(reachability_equivalent(&nf, &incremental));
        // A behaviour-changing rule breaks equivalence.
        let mut diverged = line_network();
        diverged.insert_rule(
            SwitchId(1),
            RuleTransfer::new(99, dst_match(2), RuleAction::Drop),
        );
        assert!(!reachability_equivalent(&nf, &diverged));
    }

    #[test]
    fn multicast_reaches_multiple_endpoints() {
        // One switch with two edge ports; a rule multicasts to both.
        let mut nf = NetworkFunction::default();
        nf.declare_switch(SwitchId(1), [PortId(1), PortId(2), PortId(3)]);
        nf.set_transfer(
            SwitchId(1),
            SwitchTransfer::from_rules([RuleTransfer::new(
                10,
                dst_match(9),
                RuleAction::Forward {
                    ports: [PortId(2), PortId(3)].into(),
                    rewrite: None,
                },
            )]),
        );
        let engine = ReachabilityEngine::new(&nf);
        let result = engine.reachable_from(sp(1, 1), HeaderSpace::from(dst_match(9)));
        let ports = result.reached_ports();
        assert_eq!(ports, vec![sp(1, 2), sp(1, 3)]);
    }

    // --- One labelled walk against a lone walk per label -------------------

    /// A 1–3-bit *prefix* match on `IpDst`, `IpSrc` or `L4Dst`: containment,
    /// partial overlap and disjointness at a handful of cubes.
    fn prefix_cube(field: u8, bits: u64, len: usize) -> Cube {
        let field = [Field::IpDst, Field::IpSrc, Field::L4Dst][usize::from(field % 3)];
        let top = bits << (field.spec().width - 3);
        Cube::wildcard().with_field_prefix(field, top, len)
    }

    /// One drawn rule: `(switch, (priority class, field, prefix bits, prefix
    /// length, action kind, two ports, ingress pin))`.
    type RuleDraw = (u32, (u8, u8, u64, usize, u8, u32, u32, u8));

    /// Three switches with ports 1–4, wired in a ring (s1:2–s2:1,
    /// s2:2–s3:1, s3:2–s1:1), so ports 3 and 4 of each are edge ports and
    /// rules that send traffic round the ring make loops. Rules drop, punt,
    /// forward, multicast and rewrite `IpDst` before forwarding, pinned to
    /// an ingress port or not.
    fn drawn_network(rules: &[RuleDraw]) -> NetworkFunction {
        let mut nf = NetworkFunction::default();
        for s in 1..=3 {
            nf.declare_switch(SwitchId(s), (1..=4).map(PortId));
        }
        nf.connect(sp(1, 2), sp(2, 1));
        nf.connect(sp(2, 2), sp(3, 1));
        nf.connect(sp(3, 2), sp(1, 1));
        for (index, draw) in rules.iter().enumerate() {
            let (switch, (class, field, bits, len, kind, p, q, pin)) = *draw;
            let rewrite = Cube::wildcard().with_field_prefix(Field::IpDst, u64::from(q) << 30, 2);
            let action = match kind {
                0 => RuleAction::Drop,
                1 => RuleAction::ToController,
                2 | 3 => RuleAction::forward(PortId(p)),
                4 => RuleAction::Forward {
                    ports: [PortId(p), PortId(q)].into(),
                    rewrite: None,
                },
                _ => RuleAction::Forward {
                    ports: [PortId(p)].into(),
                    rewrite: Some(rewrite),
                },
            };
            let rule = RuleTransfer::new(
                u16::from(class) * 100,
                prefix_cube(field, bits, len),
                action,
            )
            .with_cookie(FlowCookie(index as u64 + 1));
            let rule = match pin {
                0 => rule.on_port(PortId(p)),
                _ => rule,
            };
            nf.insert_rule(SwitchId(switch), rule);
        }
        nf
    }

    /// A space over the engine's cube budget: cut where it is injected.
    fn over_budget() -> HeaderSpace {
        static SPACE: OnceLock<HeaderSpace> = OnceLock::new();
        SPACE
            .get_or_init(|| (0..=MAX_CUBES as u32).map(dst_match).collect())
            .clone()
    }

    /// The spaces under each `(switch, path)` key, united.
    fn by_path<'r>(
        found: impl Iterator<Item = (SwitchId, &'r [SwitchId], &'r HeaderSpace)>,
    ) -> BTreeMap<(SwitchId, Vec<SwitchId>), HeaderSpace> {
        let mut keyed: BTreeMap<(SwitchId, Vec<SwitchId>), HeaderSpace> = BTreeMap::new();
        for (switch, path, space) in found {
            let held = keyed.entry((switch, path.to_vec())).or_default();
            *held = held.union(space);
        }
        keyed
    }

    fn same_space(a: &HeaderSpace, b: &HeaderSpace) -> bool {
        a.subtract(b).is_empty() && b.subtract(a).is_empty()
    }

    /// `each` says what `lone` says: the ports reached and, semantically,
    /// the space reaching each; the visited and traversed switches; the
    /// loops and controller deliveries per `(switch, path)`, with their
    /// spaces; and the branches cut.
    fn assert_same(each: &ReachabilityResult, lone: &ReachabilityResult, what: &str) {
        assert_eq!(each.reached_ports(), lone.reached_ports(), "{what}");
        for port in lone.reached_ports() {
            let (a, b) = (each.space_reaching(port), lone.space_reaching(port));
            assert!(same_space(&a, &b), "{what}: {port:?} gets {a}, alone {b}");
        }
        assert_eq!(each.visited, lone.visited, "{what}");
        assert_eq!(
            each.traversed_switches(),
            lone.traversed_switches(),
            "{what}"
        );
        let loops = |r: &'_ ReachabilityResult| {
            by_path(
                r.loops
                    .iter()
                    .map(|l| (l.switch, l.path.as_slice(), &l.space)),
            )
        };
        let punted = |r: &'_ ReachabilityResult| {
            by_path(
                r.to_controller
                    .iter()
                    .map(|c| (c.switch, c.path.as_slice(), &c.space)),
            )
        };
        for (keyed_each, keyed_lone, kind) in [
            (loops(each), loops(lone), "loops"),
            (punted(each), punted(lone), "controller deliveries"),
        ] {
            let keys = |m: &BTreeMap<_, HeaderSpace>| m.keys().cloned().collect::<Vec<_>>();
            assert_eq!(keys(&keyed_each), keys(&keyed_lone), "{what}: {kind}");
            for (key, space) in &keyed_lone {
                assert!(
                    same_space(&keyed_each[key], space),
                    "{what}: {kind} at {key:?}"
                );
            }
        }
        assert_eq!(each.truncated_branches, lone.truncated_branches, "{what}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every label of one `reachable_from_each` is what a lone
        /// `reachable_from` of its space finds, on random rings with
        /// rewrites, punts and loops: 1–8 labels, some empty, overlapping
        /// one another partially, wholly or not at all, and now and then one
        /// over the cube budget among labels within it.
        #[test]
        fn each_label_of_one_walk_is_its_lone_walk(
            rules in collection::vec(
                (1u32..4, (0u8..4, 0u8..3, 0u64..8, 1usize..4, 0u8..6, 1u32..5, 1u32..5, 0u8..3)),
                1..16,
            ),
            labels in collection::vec(
                collection::vec((0u8..3, 0u64..8, 0usize..3), 0..4),
                1..9,
            ),
            over in 0usize..12,
        ) {
            let nf = drawn_network(&rules);
            let mut spaces: Vec<HeaderSpace> = labels
                .iter()
                .map(|cubes| {
                    cubes
                        .iter()
                        .map(|(field, bits, len)| prefix_cube(*field, *bits, *len))
                        .collect()
                })
                .collect();
            if over < spaces.len() {
                spaces.insert(over, over_budget());
            }
            let engine = ReachabilityEngine::new(&nf);
            let ingress = sp(1, 3);
            let each = engine.reachable_from_each(ingress, spaces.clone());
            prop_assert_eq!(each.len(), spaces.len());
            for (label, (space, result)) in spaces.into_iter().zip(&each).enumerate() {
                let lone = engine.reachable_from(ingress, space);
                assert_same(result, &lone, &format!("label {label} of {rules:?}"));
            }
        }
    }
}
