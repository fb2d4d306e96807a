//! Transfer functions: from flow rules to switches to the whole network.
//!
//! * A [`RuleTransfer`] is the HSA view of one flow-table entry: a match cube
//!   (plus optional ingress-port constraint), a priority and an action that
//!   either forwards (possibly after rewriting header bits), drops, or sends
//!   the packet to the controller.
//! * A [`SwitchTransfer`] is a prioritised rule list, held in shared chunks
//!   so that an edit of a copy copies one chunk, not the list; applying it
//!   to labelled input header spaces, in one scan of the table, yields the
//!   spaces that leave the switch, per output port and towards the
//!   controller, honouring OpenFlow priority semantics (higher priority
//!   wins, unmatched traffic is dropped — the OpenFlow table-miss default).
//!   A single input is the one-label case. Dropped traffic is decided, not
//!   described: [`SwitchTransfer::apply_each`] subtracts lazily, per rule,
//!   and never builds the space a drop rule or the table miss takes — a
//!   space no caller reads and whose size the party installing rules
//!   controls.
//! * A [`NetworkFunction`] is the set of switch transfer functions plus the
//!   internal wiring (which switch port connects to which); it is the object
//!   the reachability engine walks.

use std::collections::BTreeMap;
use std::sync::Arc;

use rvaas_types::{Chunked, FlowCookie, PortId, SwitchId, SwitchPort, RULE_CHUNK};

use crate::cube::Cube;
use crate::space::HeaderSpace;

/// What a rule does with matching traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleAction {
    /// Forward to the listed output ports (multicast if more than one),
    /// optionally rewriting header bits first.
    Forward {
        /// Ports the traffic is sent out of. Shared, so copying a rule (a
        /// table's copy-on-write) allocates nothing.
        ports: Arc<[PortId]>,
        /// Optional set-field rewrite applied before forwarding.
        rewrite: Option<Cube>,
    },
    /// Drop matching traffic.
    Drop,
    /// Punt matching traffic to the controller (Packet-In).
    ToController,
}

impl RuleAction {
    /// Convenience constructor: forward to a single port, no rewrite.
    #[must_use]
    pub fn forward(port: PortId) -> Self {
        RuleAction::Forward {
            ports: Arc::from([port]),
            rewrite: None,
        }
    }
}

/// The HSA model of a single flow rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleTransfer {
    /// Rule priority: higher values match first.
    pub priority: u16,
    /// Ingress port constraint (`None` = any port).
    pub in_port: Option<PortId>,
    /// Header match.
    pub match_cube: Cube,
    /// Action applied to matching traffic.
    pub action: RuleAction,
    /// Cookie correlating the rule with control-plane events.
    pub cookie: FlowCookie,
}

impl RuleTransfer {
    /// Creates a rule with the given priority, match and action, matching any
    /// ingress port.
    #[must_use]
    pub fn new(priority: u16, match_cube: Cube, action: RuleAction) -> Self {
        RuleTransfer {
            priority,
            in_port: None,
            match_cube,
            action,
            cookie: FlowCookie(0),
        }
    }

    /// Restricts the rule to one ingress port (builder style).
    #[must_use]
    pub fn on_port(mut self, port: PortId) -> Self {
        self.in_port = Some(port);
        self
    }

    /// Attaches a cookie (builder style).
    #[must_use]
    pub fn with_cookie(mut self, cookie: FlowCookie) -> Self {
        self.cookie = cookie;
        self
    }

    /// True when `other` may take this rule's place in a table: everything
    /// that orders and matches a rule is equal, only action and cookie differ.
    fn same_slot(&self, other: &RuleTransfer) -> bool {
        (self.priority, self.in_port, self.match_cube)
            == (other.priority, other.in_port, other.match_cube)
    }

    fn applies_to_port(&self, port: PortId) -> bool {
        self.in_port.is_none_or(|p| p == port)
    }
}

/// Output of [`SwitchTransfer::apply_each`]: what one rule sends through one
/// port, or to the controller, of each labelled input it serves. Traffic the
/// switch drops has no output, so exactly one of `out_port` and
/// `to_controller` is set.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledPortSpace {
    /// Where the traffic goes (`None` for controller-bound traffic).
    pub out_port: Option<PortId>,
    /// True if the traffic is delivered to the controller instead of a port.
    pub to_controller: bool,
    /// `(label, headers)` per input the rule serves, in input order, the
    /// headers *after* any rewrite; never empty, and no space in it is.
    pub spaces: Vec<(usize, HeaderSpace)>,
    /// Cookie of the rule responsible.
    pub cookie: FlowCookie,
}

/// The transfer function of one switch: its prioritised rule list.
///
/// The list is a [`Chunked`] sequence: a clone shares every chunk, and an
/// insert, removal or in-slot replacement on a clone copies the chunk it
/// lands in (and the chunk-pointer list), never the table. Rule `i` is the
/// list's flat index `i`, whatever chunk it sits in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SwitchTransfer {
    rules: Chunked<RuleTransfer, RULE_CHUNK>,
}

impl SwitchTransfer {
    /// Builds a transfer function from rules (order irrelevant; priorities
    /// are respected).
    #[must_use]
    pub fn from_rules(rules: impl IntoIterator<Item = RuleTransfer>) -> Self {
        let mut rules: Vec<RuleTransfer> = rules.into_iter().collect();
        // Stable sort: equal priorities keep insertion order, mirroring the
        // behaviour of a real switch where overlapping equal-priority rules
        // are matched in an implementation-defined but stable order.
        rules.sort_by_key(|rule| std::cmp::Reverse(rule.priority));
        SwitchTransfer {
            rules: rules.into_iter().collect(),
        }
    }

    /// Inserts `rule` in place, preserving the priority-sorted invariant
    /// without re-sorting: the rule lands *after* every existing rule of
    /// greater-or-equal priority, so equal-priority rules keep arrival order
    /// exactly as [`SwitchTransfer::from_rules`]'s stable sort (and a real
    /// switch's table) would. This is the `O(log n + RULE_CHUNK)` update path
    /// the incremental verification model uses instead of rebuilding the
    /// table. Returns the index the rule occupies after insertion.
    pub fn insert_rule(&mut self, rule: RuleTransfer) -> usize {
        let pos = self.rules.partition_point(|r| r.priority >= rule.priority);
        self.rules.insert(pos, rule);
        pos
    }

    /// Index of the first rule equivalent to `rule`: same priority, ingress
    /// constraint, match cube and action. Cookies are deliberately ignored —
    /// two rules that match and act identically are the same rule as far as
    /// verification is concerned (mirroring the service plane's digests).
    /// Binary-searches to the rule's priority and scans only the rules of
    /// that priority.
    #[must_use]
    pub fn position_of(&self, rule: &RuleTransfer) -> Option<usize> {
        let start = self.rules.partition_point(|r| r.priority > rule.priority);
        let offset = self
            .rules
            .iter_from(start)
            .take_while(|r| r.priority == rule.priority)
            .position(|r| {
                r.in_port == rule.in_port
                    && r.match_cube == rule.match_cube
                    && r.action == rule.action
            })?;
        Some(start + offset)
    }

    /// Removes the first rule equivalent to `rule` (see
    /// [`SwitchTransfer::position_of`]), preserving the order of the
    /// survivors, and returns it.
    pub fn remove_rule(&mut self, rule: &RuleTransfer) -> Option<RuleTransfer> {
        let pos = self.position_of(rule)?;
        Some(self.rules.remove(pos))
    }

    /// The *exposed* header region of the rule at `index`: its match cube
    /// minus everything shadowed by rules earlier in the match order. This is
    /// exactly the region whose forwarding behaviour changes when the rule is
    /// inserted or removed — lower-priority rules lose or regain precisely
    /// this region, so it doubles as the "affected header space" of an
    /// incremental update (the shadowing/priority repair).
    ///
    /// A rule earlier in the order shadows only if its ingress constraint
    /// covers this rule's; partially overlapping port constraints are left
    /// unsubtracted, over-approximating the exposed region (safe direction
    /// for invalidation). When the subtraction grows past an internal cube
    /// budget the full match cube is returned instead — again a safe
    /// over-approximation.
    #[must_use]
    pub fn exposed_region(&self, index: usize) -> HeaderSpace {
        /// Past this many cubes the exact exposed region costs more than the
        /// re-verification it would save; fall back to the whole match cube.
        const CUBE_BUDGET: usize = 64;
        let rule = &self.rules[index];
        let mut region = HeaderSpace::from(rule.match_cube);
        for earlier in self.rules.iter().take(index) {
            let covers_port = match (earlier.in_port, rule.in_port) {
                (None, _) => true,
                (Some(a), Some(b)) => a == b,
                (Some(_), None) => false,
            };
            if !covers_port {
                continue;
            }
            region = region.subtract_cube(&earlier.match_cube);
            if region.is_empty() {
                break;
            }
            if region.cube_count() > CUBE_BUDGET {
                return HeaderSpace::from(rule.match_cube);
            }
        }
        region
    }

    /// The rules, highest priority first.
    #[must_use]
    pub fn rules(&self) -> &Chunked<RuleTransfer, RULE_CHUNK> {
        &self.rules
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the switch has no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Applies the transfer function to traffic entering through `in_port`
    /// with headers in each of several labelled inputs, in one scan of the
    /// table, and reports the traffic that **leaves** the switch: one
    /// [`LabelledPortSpace`] per output port of every forwarding rule that
    /// serves part of some input, one per punting rule, in table order, each
    /// holding the share of every input the rule serves under that input's
    /// label. Each header of an input is served by the first rule in table
    /// order that applies to `in_port` and matches it; what that rule drops,
    /// and what no rule matches (the table-miss drop), is reported nowhere
    /// and never built. An input's shares are exactly what it gets when
    /// applied alone, as the one input of its label: inputs never mix, and
    /// each is cut and simplified on its own. A label names one input:
    /// adjacent inputs under one label are one input.
    ///
    /// Subtraction is lazy, per rule: an input's share of a rule is the
    /// rule's match cut out of the input, minus the matches of the earlier
    /// applicable rules that overlapped the inputs — so the work a rule
    /// costs is bounded by what overlaps *its* share, not by how finely the
    /// rules before it shattered the rest of the input. An earlier match
    /// that overlapped only other inputs is no cut at all: it missed every
    /// cube this input still had then, and a share only narrows those. A
    /// drop rule still joins the shadow list (it takes its headers away from
    /// every later rule; it just emits nothing), a rule pinned to another
    /// port never does (it sees none of this traffic), and the walk ends as
    /// soon as every input cube lies whole inside some rule's match. A rule
    /// overlapping no input costs one pass over the inputs' cubes, however
    /// many inputs they come from.
    #[must_use]
    pub fn apply_each<'s>(
        &self,
        in_port: PortId,
        inputs: impl IntoIterator<Item = (usize, &'s HeaderSpace)>,
    ) -> Vec<LabelledPortSpace> {
        let mut outputs = Vec::new();
        // Input cubes no rule so far contains whole, under their input's
        // label and in input order: only these can still give a later rule
        // a share.
        let mut live: Vec<(usize, Cube)> = inputs
            .into_iter()
            .flat_map(|(label, input)| input.cubes().iter().map(move |cube| (label, *cube)))
            .collect();
        // Matches of the applicable rules so far that overlapped the inputs.
        let mut shadows: Vec<Cube> = Vec::new();

        // Chunk by chunk: two flat loops over the shared rule list.
        'table: for chunk in self.rules.chunks() {
            for rule in chunk {
                if live.is_empty() {
                    break 'table;
                }
                if !rule.applies_to_port(in_port)
                    || !live.iter().any(|(_, cube)| cube.overlaps(&rule.match_cube))
                {
                    continue;
                }
                let rewrite = match &rule.action {
                    RuleAction::Drop => None,
                    RuleAction::ToController => Some(None),
                    RuleAction::Forward { rewrite, .. } => Some(rewrite.as_ref()),
                };
                if let Some(rewrite) = rewrite {
                    // Each input's share, rewritten; none for an input earlier
                    // rules took all of.
                    let mut shares = Vec::new();
                    for run in live.chunk_by(|a, b| a.0 == b.0) {
                        let mut cubes: Vec<Cube> = run
                            .iter()
                            .filter_map(|(_, cube)| cube.intersect(&rule.match_cube))
                            .collect();
                        for earlier in &shadows {
                            if cubes.iter().any(|cube| cube.overlaps(earlier)) {
                                cubes = cubes.iter().flat_map(|c| c.subtract(earlier)).collect();
                            }
                        }
                        let share: HeaderSpace = cubes
                            .into_iter()
                            .map(|cube| rewrite.map_or(cube, |rw| cube.rewrite(rw)))
                            .collect();
                        if !share.is_empty() {
                            shares.push((run[0].0, share));
                        }
                    }
                    let leaving = |out_port: Option<PortId>, spaces| LabelledPortSpace {
                        out_port,
                        to_controller: out_port.is_none(),
                        spaces,
                        cookie: rule.cookie,
                    };
                    match &rule.action {
                        _ if shares.is_empty() => {}
                        RuleAction::Forward { ports, .. } => {
                            if let Some((last, rest)) = ports.split_last() {
                                let copies =
                                    rest.iter().map(|port| leaving(Some(*port), shares.clone()));
                                outputs.extend(copies);
                                outputs.push(leaving(Some(*last), shares));
                            }
                        }
                        _ => outputs.push(leaving(None, shares)),
                    }
                }
                shadows.push(rule.match_cube);
                live.retain(|(_, cube)| !cube.is_subset_of(&rule.match_cube));
            }
        }
        outputs
    }
}

/// Declared ports and internal links: the part of a [`NetworkFunction`] rule
/// changes never touch.
#[derive(Debug, Clone, Default, PartialEq)]
struct Wiring {
    /// Declared ports per switch (both internal and edge).
    ports: BTreeMap<SwitchId, Vec<PortId>>,
    /// Internal links: unidirectional port-to-port adjacency (stored both ways
    /// for a bidirectional link).
    links: BTreeMap<SwitchPort, SwitchPort>,
}

/// The whole-network transfer function: per-switch rules plus internal wiring.
///
/// Clones share structure: every switch's table and the wiring sit behind an
/// [`Arc`], and a table's rules sit in shared chunks, so cloning copies no
/// rule, and editing a clone copies the edited switch's chunk-pointer list
/// and the chunks the edit lands in (copy-on-write). That is what lets an
/// immutable copy of a long-lived, incrementally updated function be frozen
/// per epoch at `O(switches touched + changes × RULE_CHUNK)` cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkFunction {
    switches: BTreeMap<SwitchId, Arc<SwitchTransfer>>,
    wiring: Arc<Wiring>,
}

impl NetworkFunction {
    /// Declares a switch with its set of ports (replacing any previous
    /// declaration).
    pub fn declare_switch(&mut self, switch: SwitchId, ports: impl IntoIterator<Item = PortId>) {
        Arc::make_mut(&mut self.wiring)
            .ports
            .insert(switch, ports.into_iter().collect());
        self.switches.entry(switch).or_default();
    }

    /// Sets (replaces) the transfer function of a switch.
    pub fn set_transfer(&mut self, switch: SwitchId, transfer: SwitchTransfer) {
        self.ensure_declared(switch);
        self.switches.insert(switch, Arc::new(transfer));
    }

    /// Gives an unknown switch an empty port declaration; leaves the shared
    /// wiring alone otherwise.
    fn ensure_declared(&mut self, switch: SwitchId) {
        if !self.wiring.ports.contains_key(&switch) {
            Arc::make_mut(&mut self.wiring)
                .ports
                .insert(switch, Vec::new());
        }
    }

    /// Returns the transfer function of `switch`, if declared.
    #[must_use]
    pub fn transfer(&self, switch: SwitchId) -> Option<&SwitchTransfer> {
        self.switches.get(&switch).map(Arc::as_ref)
    }

    /// Mutable access to the transfer function of `switch`, declaring the
    /// switch (with no ports) if it was unknown. Copies the switch's table
    /// first when a clone of this function still shares it.
    fn transfer_mut(&mut self, switch: SwitchId) -> &mut SwitchTransfer {
        self.ensure_declared(switch);
        Arc::make_mut(self.switches.entry(switch).or_default())
    }

    /// Incrementally inserts one rule on `switch` and returns the affected
    /// header region: the part of the rule's match cube it now actually
    /// serves (everything not shadowed by higher-precedence rules). The rest
    /// of the network function is untouched — this is the `O(delta)`
    /// alternative to rebuilding the whole function on every change.
    pub fn insert_rule(&mut self, switch: SwitchId, rule: RuleTransfer) -> HeaderSpace {
        let transfer = self.transfer_mut(switch);
        let index = transfer.insert_rule(rule);
        transfer.exposed_region(index)
    }

    /// Incrementally removes the rule equivalent to `rule` from `switch` and
    /// returns the affected header region it was serving (the traffic that
    /// now falls through to lower-precedence rules or the table-miss drop).
    /// Returns `None` when no equivalent rule is installed.
    pub fn remove_rule(&mut self, switch: SwitchId, rule: &RuleTransfer) -> Option<HeaderSpace> {
        let shared = self.switches.get_mut(&switch)?;
        // Look before copying: a miss must not unshare the table.
        let index = shared.position_of(rule)?;
        let region = shared.exposed_region(index);
        Arc::make_mut(shared).rules.remove(index);
        Some(region)
    }

    /// Incrementally replaces the first rule equivalent to `old` on `switch`
    /// (see [`SwitchTransfer::position_of`]) with `new` **in its slot**: what
    /// a switch does when an add arrives for a `(priority, ingress, match)`
    /// it already holds — the actions change, the entry's place among its
    /// equal-priority peers does not. Returns the affected header region:
    /// the slot's exposed region, which the old rule was serving and the new
    /// one serves now. Returns `None`, changing nothing, when `old` is not
    /// installed or `new` differs from it in more than action and cookie.
    pub fn replace_rule(
        &mut self,
        switch: SwitchId,
        old: &RuleTransfer,
        new: RuleTransfer,
    ) -> Option<HeaderSpace> {
        let shared = self.switches.get_mut(&switch)?;
        // Look before copying: a miss must not unshare the table.
        let index = shared.position_of(old).filter(|_| old.same_slot(&new))?;
        Arc::make_mut(shared).rules.replace(index, new);
        Some(shared.exposed_region(index))
    }

    /// Connects two switch ports with a bidirectional internal link.
    pub fn connect(&mut self, a: SwitchPort, b: SwitchPort) {
        let links = &mut Arc::make_mut(&mut self.wiring).links;
        links.insert(a, b);
        links.insert(b, a);
    }

    /// Returns the internal peer of a port, if the port is wired internally.
    #[must_use]
    pub fn link_peer(&self, port: SwitchPort) -> Option<SwitchPort> {
        self.wiring.links.get(&port).copied()
    }

    /// All declared switches.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.switches.keys().copied()
    }

    /// Number of declared switches.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Total number of rules across all switches.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.switches.values().map(|t| t.len()).sum()
    }

    /// Declared ports of a switch.
    #[must_use]
    pub fn ports_of(&self, switch: SwitchId) -> &[PortId] {
        self.wiring.ports.get(&switch).map_or(&[], Vec::as_slice)
    }

    /// Edge ports of a switch: declared ports with no internal link. These
    /// are the network's access points (where hosts/clients attach).
    #[must_use]
    pub fn edge_ports(&self, switch: SwitchId) -> Vec<PortId> {
        self.ports_of(switch)
            .iter()
            .copied()
            .filter(|p| !self.wiring.links.contains_key(&SwitchPort::new(switch, *p)))
            .collect()
    }

    /// All edge ports in the network.
    #[must_use]
    pub fn all_edge_ports(&self) -> Vec<SwitchPort> {
        self.switches()
            .flat_map(|s| {
                self.edge_ports(s)
                    .into_iter()
                    .map(move |p| SwitchPort::new(s, p))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rvaas_types::{Field, Header};

    fn dst_match(dst: u32) -> Cube {
        Cube::wildcard().with_field(Field::IpDst, u64::from(dst))
    }

    fn header_to(dst: u32) -> Header {
        Header::builder().ip_dst(dst).build()
    }

    /// What one rule sends through one port, or to the controller, of a
    /// single input: an output of [`SwitchTransfer::apply_each`] with one
    /// label.
    #[derive(Debug, Clone, PartialEq)]
    struct Output {
        out_port: Option<PortId>,
        to_controller: bool,
        space: HeaderSpace,
        cookie: FlowCookie,
    }

    /// `table` applied to the one input `input` (label 0).
    fn apply(table: &SwitchTransfer, in_port: PortId, input: &HeaderSpace) -> Vec<Output> {
        let outputs = table.apply_each(in_port, [(0, input)]);
        outputs
            .into_iter()
            .map(|mut out| {
                assert_eq!(out.spaces.len(), 1, "one input, one share");
                let (_, space) = out.spaces.pop().expect("one share");
                Output {
                    out_port: out.out_port,
                    to_controller: out.to_controller,
                    space,
                    cookie: out.cookie,
                }
            })
            .collect()
    }

    /// The outputs holding `header`, as `(out_port, to_controller)`.
    fn holders(out: &[Output], header: &Header) -> Vec<(Option<PortId>, bool)> {
        out.iter()
            .filter(|o| o.space.contains(header))
            .map(|o| (o.out_port, o.to_controller))
            .collect()
    }

    /// The eager transfer function [`SwitchTransfer::apply_each`] replaced, kept
    /// as the reference the differential property compares against: it
    /// carries the not-yet-matched space through the whole table, subtracts
    /// every matched rule from it, and also reports what is dropped (by a
    /// rule, or by the table miss under cookie `u64::MAX`).
    fn apply_eager(table: &SwitchTransfer, in_port: PortId, input: &HeaderSpace) -> Vec<Output> {
        let mut outputs = Vec::new();
        let mut remaining = input.clone();

        for rule in &table.rules {
            if remaining.is_empty() {
                break;
            }
            if !rule.applies_to_port(in_port) {
                continue;
            }
            let matched = remaining.intersect(&HeaderSpace::from(rule.match_cube));
            if matched.is_empty() {
                continue;
            }
            remaining = remaining.subtract_cube(&rule.match_cube);
            match &rule.action {
                RuleAction::Forward { ports, rewrite } => {
                    let out_space = match rewrite {
                        Some(rw) => matched.rewrite(rw),
                        None => matched.clone(),
                    };
                    for port in ports.iter() {
                        outputs.push(Output {
                            out_port: Some(*port),
                            to_controller: false,
                            space: out_space.clone(),
                            cookie: rule.cookie,
                        });
                    }
                }
                RuleAction::Drop => outputs.push(Output {
                    out_port: None,
                    to_controller: false,
                    space: matched,
                    cookie: rule.cookie,
                }),
                RuleAction::ToController => outputs.push(Output {
                    out_port: None,
                    to_controller: true,
                    space: matched,
                    cookie: rule.cookie,
                }),
            }
        }

        if !remaining.is_empty() {
            // Table miss: dropped (OpenFlow default when no miss rule exists).
            outputs.push(Output {
                out_port: None,
                to_controller: false,
                space: remaining,
                cookie: FlowCookie(u64::MAX),
            });
        }
        outputs
    }

    #[test]
    fn empty_switch_drops_everything() {
        let t = SwitchTransfer::default();
        assert!(t.is_empty());
        // Nothing matches, so nothing leaves — and the miss is not reported.
        assert!(apply(&t, PortId(1), &HeaderSpace::all()).is_empty());
    }

    #[test]
    fn single_forward_rule_partitions_traffic() {
        let t = SwitchTransfer::from_rules([RuleTransfer::new(
            10,
            dst_match(1),
            RuleAction::forward(PortId(2)),
        )]);
        let out = apply(&t, PortId(1), &HeaderSpace::all());
        assert_eq!(out.len(), 1);
        assert_eq!(
            holders(&out, &header_to(1)),
            [(Some(PortId(2)), false)],
            "served by the rule that matches it"
        );
        assert!(holders(&out, &header_to(2)).is_empty(), "table miss");
    }

    #[test]
    fn priority_order_wins() {
        // High-priority drop for dst 1, low-priority forward-all.
        let t = SwitchTransfer::from_rules([
            RuleTransfer::new(100, dst_match(1), RuleAction::Drop),
            RuleTransfer::new(1, Cube::wildcard(), RuleAction::forward(PortId(9))),
        ]);
        let out = apply(&t, PortId(1), &HeaderSpace::all());
        assert_eq!(out.len(), 1);
        // The drop produces nothing and still takes dst 1 from the rule below.
        assert!(holders(&out, &header_to(1)).is_empty());
        assert_eq!(holders(&out, &header_to(2)), [(Some(PortId(9)), false)]);
    }

    #[test]
    fn in_port_constraint_is_honoured() {
        let t = SwitchTransfer::from_rules([RuleTransfer::new(
            10,
            Cube::wildcard(),
            RuleAction::forward(PortId(2)),
        )
        .on_port(PortId(1))]);
        let from_p1 = apply(&t, PortId(1), &HeaderSpace::all());
        assert!(from_p1.iter().any(|o| o.out_port == Some(PortId(2))));
        assert!(apply(&t, PortId(3), &HeaderSpace::all()).is_empty());
    }

    #[test]
    fn rewrite_action_transforms_space() {
        let rewrite = Cube::wildcard().with_field(Field::Vlan, 77);
        let t = SwitchTransfer::from_rules([RuleTransfer::new(
            5,
            dst_match(3),
            RuleAction::Forward {
                ports: [PortId(4)].into(),
                rewrite: Some(rewrite),
            },
        )]);
        let out = apply(&t, PortId(1), &HeaderSpace::from(dst_match(3)));
        let fwd = out.iter().find(|o| o.out_port == Some(PortId(4))).unwrap();
        for cube in fwd.space.cubes() {
            assert_eq!(cube.field_exact(Field::Vlan), Some(77));
        }
    }

    #[test]
    fn to_controller_action_is_flagged() {
        let t = SwitchTransfer::from_rules([RuleTransfer::new(
            10,
            Cube::wildcard().with_field(Field::L4Dst, 9999),
            RuleAction::ToController,
        )]);
        let probe = Header::builder().ip_dst(1).l4_dst(9999).build();
        let out = apply(&t, PortId(1), &HeaderSpace::singleton(&probe));
        assert_eq!(out.len(), 1);
        assert!(out[0].to_controller);
    }

    #[test]
    fn multicast_forward_duplicates_space() {
        let t = SwitchTransfer::from_rules([RuleTransfer::new(
            10,
            Cube::wildcard(),
            RuleAction::Forward {
                ports: [PortId(1), PortId(2), PortId(3)].into(),
                rewrite: None,
            },
        )]);
        let out = apply(&t, PortId(9), &HeaderSpace::all());
        let fwd_ports: Vec<_> = out.iter().filter_map(|o| o.out_port).collect();
        assert_eq!(fwd_ports, vec![PortId(1), PortId(2), PortId(3)]);
    }

    #[test]
    fn apply_partitions_input_exactly() {
        // Every probe header appears in the output of its first matching
        // rule and nowhere else — in no output when that rule drops.
        let t = SwitchTransfer::from_rules([
            RuleTransfer::new(10, dst_match(1), RuleAction::forward(PortId(1))),
            RuleTransfer::new(10, dst_match(2), RuleAction::forward(PortId(2))),
            RuleTransfer::new(5, Cube::wildcard(), RuleAction::Drop),
            RuleTransfer::new(1, Cube::wildcard(), RuleAction::forward(PortId(3))),
        ]);
        let out = apply(&t, PortId(7), &HeaderSpace::all());
        assert_eq!(out.len(), 2);
        for dst in [1u32, 2] {
            let served = [(Some(PortId(dst)), false)];
            assert_eq!(holders(&out, &header_to(dst)), served, "header to {dst}");
        }
        for dst in [3u32, 4] {
            assert!(holders(&out, &header_to(dst)).is_empty(), "header to {dst}");
        }
    }

    /// One drawn rule: `(priority class, field, prefix bits, prefix length,
    /// action kind, two ports, ingress pin)`.
    type RuleDraw = (u8, u8, u64, usize, u8, u32, u32, u8);

    /// A 1–3-bit *prefix* match on `IpDst`, `IpSrc` or `L4Dst`. Not exact
    /// fields: rules that fix different fields always overlap, every
    /// subtraction of a 32-bit exact match splits a cube up to 32 ways, and
    /// a dozen such rules take the eager reference to 46 000 cubes and two
    /// seconds for one case in a release build (the lazy side: 3 800 cubes,
    /// 3 ms; measured with this generator switched to exact values) — a
    /// minute for the property, spent re-simplifying spaces, not comparing
    /// algorithms. Short prefixes keep the overlap structure — containment,
    /// partial overlap, disjointness, across fields and within one — at a
    /// handful of cubes.
    fn prefix_cube(field: u8, bits: u64, len: usize) -> Cube {
        let field = [Field::IpDst, Field::IpSrc, Field::L4Dst][usize::from(field % 3)];
        let top = bits << (field.spec().width - 3);
        Cube::wildcard().with_field_prefix(field, top, len)
    }

    fn drawn_rule(index: usize, draw: RuleDraw) -> RuleTransfer {
        let (class, field, bits, len, kind, p, q, pin) = draw;
        let rewrite = Cube::wildcard().with_field_prefix(Field::IpDst, u64::from(q) << 30, 2);
        let action = match kind {
            0 | 1 => RuleAction::Drop,
            2 => RuleAction::ToController,
            3 | 4 => RuleAction::forward(PortId(p)),
            5 => RuleAction::Forward {
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
        // Port 0 is the one the property injects at.
        match pin {
            0 | 1 => rule.on_port(PortId(0)),
            2 => rule.on_port(PortId(1)),
            _ => rule,
        }
    }

    /// What leaves the switch per `(out_port | controller, cookie)`.
    fn leaving(outputs: &[Output]) -> BTreeMap<(Option<PortId>, bool, FlowCookie), HeaderSpace> {
        let mut by_key = BTreeMap::new();
        for out in outputs {
            if out.out_port.is_none() && !out.to_controller {
                continue;
            }
            let held: &mut HeaderSpace = by_key
                .entry((out.out_port, out.to_controller, out.cookie))
                .or_default();
            *held = held.union(&out.space);
        }
        by_key
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On everything that leaves the switch, the lazy `apply` and the
        /// eager loop it replaced agree: the same `(out_port | controller,
        /// cookie)` keys, and under each a semantically equal space.
        /// Priorities come from four values and `from_rules` sorts stably,
        /// so equal-priority order matters; rules pinned to the injection
        /// port, to another port and to none mix; the input is one to four
        /// cubes from the same generator, so they overlap each other and
        /// the rules partially, wholly and not at all.
        #[test]
        fn lazy_apply_equals_eager_on_everything_that_leaves(
            rules in collection::vec(
                (0u8..4, 0u8..3, 0u64..8, 1usize..4, 0u8..7, 0u32..4, 0u32..4, 0u8..6),
                1..13,
            ),
            input in collection::vec((0u8..3, 0u64..8, 0usize..3), 1..5),
        ) {
            let table = SwitchTransfer::from_rules(
                rules.iter().enumerate().map(|(index, draw)| drawn_rule(index, *draw)),
            );
            let input: HeaderSpace = input
                .iter()
                .map(|(field, bits, len)| prefix_cube(*field, *bits, *len))
                .collect();
            let lazy = apply(&table, PortId(0), &input);
            prop_assert!(
                lazy.iter().all(|o| o.out_port.is_some() != o.to_controller && !o.space.is_empty()),
                "only traffic that leaves is reported: {:?}", lazy
            );
            let (lazy, eager) = (leaving(&lazy), leaving(&apply_eager(&table, PortId(0), &input)));
            prop_assert_eq!(
                lazy.keys().collect::<Vec<_>>(),
                eager.keys().collect::<Vec<_>>(),
                "table {:?} on {}", table.rules(), input
            );
            for (key, space) in &lazy {
                let reference = &eager[key];
                prop_assert!(
                    space.is_subset_of(reference) && reference.is_subset_of(space),
                    "{:?}: lazy {} vs eager {} for table {:?} on {}",
                    key, space, reference, table.rules(), input
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One scan for several labelled inputs gives each input exactly
        /// the outputs — same rules, ports, order and cubes — that `apply`
        /// gives it alone: an earlier match that overlapped only other
        /// inputs cuts nothing from this one. Inputs are zero to three
        /// cubes, so some are empty, and overlap one another and the rules
        /// partially, wholly and not at all.
        #[test]
        fn each_labelled_input_gets_what_apply_gives_it_alone(
            rules in collection::vec(
                (0u8..4, 0u8..3, 0u64..8, 1usize..4, 0u8..7, 0u32..4, 0u32..4, 0u8..6),
                1..13,
            ),
            inputs in collection::vec(collection::vec((0u8..3, 0u64..8, 0usize..3), 0..4), 1..6),
        ) {
            let table = SwitchTransfer::from_rules(
                rules.iter().enumerate().map(|(index, draw)| drawn_rule(index, *draw)),
            );
            let inputs: Vec<HeaderSpace> = inputs
                .iter()
                .map(|cubes| {
                    cubes
                        .iter()
                        .map(|(field, bits, len)| prefix_cube(*field, *bits, *len))
                        .collect()
                })
                .collect();
            let each = table.apply_each(PortId(0), inputs.iter().enumerate());
            prop_assert!(each.iter().all(|out| !out.spaces.is_empty()));
            for (label, input) in inputs.iter().enumerate() {
                let shares: Vec<Output> = each
                    .iter()
                    .filter_map(|out| {
                        let (_, space) = out.spaces.iter().find(|(l, _)| *l == label)?;
                        Some(Output {
                            out_port: out.out_port,
                            to_controller: out.to_controller,
                            space: space.clone(),
                            cookie: out.cookie,
                        })
                    })
                    .collect();
                prop_assert_eq!(shares, apply(&table, PortId(0), input), "input {}", label);
            }
        }
    }

    #[test]
    fn insert_rule_matches_full_rebuild_order() {
        // Incremental insertion must land rules exactly where the stable
        // sort of a full rebuild would put them, including equal priorities.
        let rules = [
            RuleTransfer::new(10, dst_match(1), RuleAction::forward(PortId(1))),
            RuleTransfer::new(30, dst_match(2), RuleAction::forward(PortId(2))),
            RuleTransfer::new(10, dst_match(3), RuleAction::forward(PortId(3))),
            RuleTransfer::new(20, dst_match(4), RuleAction::Drop),
            RuleTransfer::new(30, dst_match(5), RuleAction::forward(PortId(5))),
        ];
        let rebuilt = SwitchTransfer::from_rules(rules.clone());
        let mut incremental = SwitchTransfer::default();
        for rule in rules {
            incremental.insert_rule(rule);
        }
        assert_eq!(incremental, rebuilt);
    }

    #[test]
    fn remove_rule_is_cookie_insensitive_and_order_preserving() {
        let mut t = SwitchTransfer::from_rules([
            RuleTransfer::new(10, dst_match(1), RuleAction::forward(PortId(1)))
                .with_cookie(FlowCookie(1)),
            RuleTransfer::new(10, dst_match(2), RuleAction::forward(PortId(2)))
                .with_cookie(FlowCookie(2)),
            RuleTransfer::new(10, dst_match(3), RuleAction::forward(PortId(3)))
                .with_cookie(FlowCookie(3)),
        ]);
        // Same match/action but a different cookie still identifies the rule.
        let probe = RuleTransfer::new(10, dst_match(2), RuleAction::forward(PortId(2)))
            .with_cookie(FlowCookie(99));
        let removed = t.remove_rule(&probe).expect("equivalent rule found");
        assert_eq!(removed.cookie, FlowCookie(2));
        let dsts: Vec<Option<u64>> = t
            .rules()
            .iter()
            .map(|r| r.match_cube.field_exact(Field::IpDst))
            .collect();
        assert_eq!(dsts, vec![Some(1), Some(3)]);
        // A different action is a different rule.
        let wrong_action = RuleTransfer::new(10, dst_match(1), RuleAction::Drop);
        assert!(t.remove_rule(&wrong_action).is_none());
    }

    #[test]
    fn replace_rule_keeps_the_slot_among_equal_priority_peers() {
        let peer =
            |dst, port| RuleTransfer::new(10, dst_match(dst), RuleAction::forward(PortId(port)));
        let mut nf = NetworkFunction::default();
        for (dst, port) in [(1, 1), (2, 2), (3, 3)] {
            nf.insert_rule(SwitchId(2), peer(dst, port));
        }
        let rules = |nf: &NetworkFunction| nf.transfer(SwitchId(2)).unwrap().rules().to_vec();
        let region = nf.replace_rule(SwitchId(2), &peer(2, 2), peer(2, 9));
        assert_eq!(region, Some(HeaderSpace::from(dst_match(2))));
        assert_eq!(rules(&nf), [peer(1, 1), peer(2, 9), peer(3, 3)]);
        // Not installed (any more), or not the same slot: nothing changes.
        assert_eq!(nf.replace_rule(SwitchId(2), &peer(2, 2), peer(2, 7)), None);
        assert_eq!(nf.replace_rule(SwitchId(2), &peer(2, 9), peer(4, 9)), None);
        let other_priority = RuleTransfer::new(20, dst_match(2), RuleAction::Drop);
        assert_eq!(
            nf.replace_rule(SwitchId(2), &peer(2, 9), other_priority),
            None
        );
        assert_eq!(rules(&nf), [peer(1, 1), peer(2, 9), peer(3, 3)]);

        // The region is the slot's exposed one, and a clone taken before
        // never sees the edit.
        let mut nf = NetworkFunction::default();
        nf.insert_rule(
            SwitchId(1),
            RuleTransfer::new(20, dst_match(2), RuleAction::Drop),
        );
        nf.insert_rule(
            SwitchId(1),
            RuleTransfer::new(10, Cube::wildcard(), RuleAction::Drop),
        );
        let frozen = nf.clone();
        let wide = RuleTransfer::new(10, Cube::wildcard(), RuleAction::forward(PortId(4)));
        let old = RuleTransfer::new(10, Cube::wildcard(), RuleAction::Drop);
        let region = nf
            .replace_rule(SwitchId(1), &old, wide.clone())
            .expect("held");
        assert!(region.contains(&header_to(1)) && !region.contains(&header_to(2)));
        assert_eq!(nf.transfer(SwitchId(1)).unwrap().rules()[1], wide);
        assert_eq!(frozen.transfer(SwitchId(1)).unwrap().rules()[1], old);
        assert_eq!(nf.replace_rule(SwitchId(1), &old, wide), None);
    }

    #[test]
    fn exposed_region_subtracts_shadowing_rules() {
        let t = SwitchTransfer::from_rules([
            RuleTransfer::new(100, dst_match(1), RuleAction::Drop),
            RuleTransfer::new(10, Cube::wildcard(), RuleAction::forward(PortId(9))),
        ]);
        // The wildcard rule is shadowed on dst=1 by the high-priority drop.
        let region = t.exposed_region(1);
        assert!(!region.contains(&header_to(1)));
        assert!(region.contains(&header_to(2)));
        // The top rule is fully exposed.
        assert_eq!(t.exposed_region(0), HeaderSpace::from(dst_match(1)));
    }

    #[test]
    fn exposed_region_honours_port_constraints() {
        let t = SwitchTransfer::from_rules([
            RuleTransfer::new(100, dst_match(1), RuleAction::Drop).on_port(PortId(7)),
            RuleTransfer::new(10, dst_match(1), RuleAction::forward(PortId(9))).on_port(PortId(8)),
            RuleTransfer::new(5, dst_match(1), RuleAction::forward(PortId(2))).on_port(PortId(7)),
        ]);
        // Rule on port 8 is not shadowed by the port-7 drop.
        assert!(t.exposed_region(1).contains(&header_to(1)));
        // Rule on port 7 is shadowed by the port-7 drop.
        assert!(t.exposed_region(2).is_empty());
    }

    #[test]
    fn network_function_incremental_insert_remove_roundtrip() {
        let mut nf = NetworkFunction::default();
        nf.declare_switch(SwitchId(1), [PortId(1), PortId(2)]);
        let rule = RuleTransfer::new(10, dst_match(1), RuleAction::forward(PortId(2)));
        let inserted_region = nf.insert_rule(SwitchId(1), rule.clone());
        assert!(inserted_region.contains(&header_to(1)));
        assert_eq!(nf.rule_count(), 1);
        // Shadow it entirely: the new rule's exposed region is full, and the
        // shadowed rule's removal affects nothing.
        let shadow = RuleTransfer::new(100, dst_match(1), RuleAction::Drop);
        let shadow_region = nf.insert_rule(SwitchId(1), shadow);
        assert!(shadow_region.contains(&header_to(1)));
        let removed_region = nf.remove_rule(SwitchId(1), &rule).expect("installed");
        assert!(
            removed_region.is_empty(),
            "fully shadowed rule: {removed_region}"
        );
        assert_eq!(nf.rule_count(), 1);
        assert!(nf.remove_rule(SwitchId(1), &rule).is_none());
        assert!(nf.remove_rule(SwitchId(9), &rule).is_none());
        // Inserting on an unknown switch declares it.
        let region = nf.insert_rule(SwitchId(3), rule);
        assert!(!region.is_empty());
        assert_eq!(nf.switch_count(), 2);
    }

    #[test]
    fn clones_share_untouched_switches_and_never_see_later_edits() {
        let rule = |dst| RuleTransfer::new(10, dst_match(dst), RuleAction::forward(PortId(2)));
        let mut original = NetworkFunction::default();
        for switch in [SwitchId(1), SwitchId(2), SwitchId(3)] {
            original.declare_switch(switch, [PortId(1), PortId(2)]);
            original.insert_rule(switch, rule(1));
        }
        original.connect(
            SwitchPort::new(SwitchId(1), PortId(2)),
            SwitchPort::new(SwitchId(2), PortId(1)),
        );
        let frozen = original.clone();
        let shared = |a: &NetworkFunction, b: &NetworkFunction, switch| {
            std::ptr::eq(a.transfer(switch).unwrap(), b.transfer(switch).unwrap())
        };
        assert!((1..=3).all(|s| shared(&original, &frozen, SwitchId(s))));
        assert!(Arc::ptr_eq(&original.wiring, &frozen.wiring));

        // Every way of editing the original leaves the clone as it was and
        // unshares only the edited switch.
        original.insert_rule(SwitchId(1), rule(2));
        assert!(original.remove_rule(SwitchId(2), &rule(1)).is_some());
        assert!(original.remove_rule(SwitchId(3), &rule(9)).is_none());
        assert!(!shared(&original, &frozen, SwitchId(1)));
        assert!(!shared(&original, &frozen, SwitchId(2)));
        assert!(
            shared(&original, &frozen, SwitchId(3)),
            "a removal that misses must not copy the table"
        );
        assert!(Arc::ptr_eq(&original.wiring, &frozen.wiring));
        original.set_transfer(SwitchId(3), SwitchTransfer::default());
        original.transfer_mut(SwitchId(4)).insert_rule(rule(4));
        assert_eq!(frozen.rule_count(), 3);
        assert_eq!(frozen.switch_count(), 3);
        for s in 1..=3 {
            assert_eq!(
                frozen.transfer(SwitchId(s)).unwrap().rules().to_vec(),
                [rule(1)]
            );
        }
        assert_eq!(original.rule_count(), 3);
        assert_eq!(
            frozen.link_peer(SwitchPort::new(SwitchId(2), PortId(1))),
            Some(SwitchPort::new(SwitchId(1), PortId(2)))
        );
    }

    #[test]
    fn a_copied_table_shares_every_untouched_port_list() {
        let forward =
            |dst, port| RuleTransfer::new(10, dst_match(dst), RuleAction::forward(PortId(port)));
        let ports = |rule: &RuleTransfer| match &rule.action {
            RuleAction::Forward { ports, .. } => Arc::clone(ports),
            other => panic!("not a forward: {other:?}"),
        };
        let mut original = NetworkFunction::default();
        for dst in 0..6 {
            original.insert_rule(SwitchId(1), forward(dst, dst + 1));
        }
        let frozen = original.clone();
        original.insert_rule(SwitchId(1), forward(9, 9));
        assert!(original.remove_rule(SwitchId(1), &forward(2, 3)).is_some());
        assert!(original
            .replace_rule(SwitchId(1), &forward(4, 5), forward(4, 7))
            .is_some());
        let before = frozen.transfer(SwitchId(1)).unwrap().rules();
        let after = original.transfer(SwitchId(1)).unwrap().rules();
        assert_eq!(after.unshared_with(before), 6, "the one chunk was copied");
        for rule in after {
            let dst = rule.match_cube.field_exact(Field::IpDst).unwrap();
            let shares = before
                .iter()
                .any(|old| Arc::ptr_eq(&ports(old), &ports(rule)));
            assert_eq!(shares, ![4, 9].contains(&dst), "rule to {dst}");
        }
    }

    #[test]
    fn an_edit_of_a_large_shared_table_copies_at_most_two_chunks() {
        let rule = |dst: u32| RuleTransfer::new(10, dst_match(dst), RuleAction::Drop);
        let n = 16 * RULE_CHUNK as u32;
        let mut original = NetworkFunction::default();
        original.set_transfer(SwitchId(1), SwitchTransfer::from_rules((0..n).map(rule)));
        let table = |nf: &NetworkFunction| nf.transfer(SwitchId(1)).unwrap().rules().clone();
        let frozen = original.clone();
        let mut copied = 0;
        for (step, dst) in [3, 200, 511, 64].into_iter().enumerate() {
            let before = table(&original);
            let removed = original.remove_rule(SwitchId(1), &rule(dst));
            assert!(removed.is_some(), "{dst} held");
            original.insert_rule(SwitchId(1), rule(n + dst));
            // A removal and an insert: each copies its chunk, or two when it
            // splits or merges.
            let now = table(&original).unshared_with(&before);
            assert!((1..=4 * RULE_CHUNK).contains(&now), "step {step}: {now}");
            copied += now;
        }
        assert!(table(&original).unshared_with(&table(&frozen)) <= copied);
        assert_eq!(
            table(&frozen).to_vec(),
            (0..n).map(rule).collect::<Vec<_>>()
        );
        let dsts = |nf: &NetworkFunction| -> Vec<u64> {
            let rules = nf.transfer(SwitchId(1)).unwrap().rules();
            rules
                .iter()
                .filter_map(|r| r.match_cube.field_exact(Field::IpDst))
                .collect()
        };
        let mut expected: Vec<u64> = (0..u64::from(n))
            .filter(|d| ![3, 200, 511, 64].contains(d))
            .collect();
        expected.extend([3, 200, 511, 64].map(|dst| u64::from(n + dst)));
        assert_eq!(dsts(&original), expected);
    }

    #[test]
    fn position_of_finds_a_rule_among_its_priority_peers_only() {
        let table = SwitchTransfer::from_rules((0..100u32).map(|dst| {
            RuleTransfer::new(
                dst as u16 % 5,
                dst_match(dst),
                RuleAction::forward(PortId(dst)),
            )
        }));
        for (index, rule) in table.rules().iter().enumerate() {
            assert_eq!(table.position_of(rule), Some(index));
            let other = RuleTransfer {
                priority: rule.priority + 1,
                ..rule.clone()
            };
            assert_eq!(
                table.position_of(&other),
                None,
                "priority is part of the rule"
            );
        }
    }

    #[test]
    fn network_function_wiring_and_edge_ports() {
        let mut nf = NetworkFunction::default();
        nf.declare_switch(SwitchId(1), [PortId(1), PortId(2)]);
        nf.declare_switch(SwitchId(2), [PortId(1), PortId(2)]);
        nf.connect(
            SwitchPort::new(SwitchId(1), PortId(2)),
            SwitchPort::new(SwitchId(2), PortId(1)),
        );
        assert_eq!(
            nf.link_peer(SwitchPort::new(SwitchId(1), PortId(2))),
            Some(SwitchPort::new(SwitchId(2), PortId(1)))
        );
        assert_eq!(
            nf.link_peer(SwitchPort::new(SwitchId(2), PortId(1))),
            Some(SwitchPort::new(SwitchId(1), PortId(2)))
        );
        assert_eq!(nf.edge_ports(SwitchId(1)), vec![PortId(1)]);
        assert_eq!(nf.edge_ports(SwitchId(2)), vec![PortId(2)]);
        assert_eq!(nf.all_edge_ports().len(), 2);
        assert_eq!(nf.switch_count(), 2);
        assert_eq!(nf.rule_count(), 0);
    }
}
