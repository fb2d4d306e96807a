//! # rvaas-baselines
//!
//! The route-verification approaches the paper argues are *insufficient*
//! against a compromised control plane (Section I): traceroute-style probing,
//! trajectory sampling, and plain end-to-end acknowledgements. They are
//! implemented over the same simulator so the isolation-detection experiment
//! (`t1`, README's "Experiments, benches, examples") can compare their detection rates against
//! RVaaS on identical attack scenarios.
//!
//! What each baseline can observe:
//!
//! * **Acknowledgement-only** ([`AckOnlyBaseline`]): the client only learns
//!   whether its own packets arrived. It detects blackholing, and nothing
//!   else — "a (possibly signed) acknowledgment from the receiver … does not
//!   provide any information about which paths have been taken and which
//!   (possibly additional) destinations have been reached".
//! * **Traceroute** ([`TracerouteBaseline`]): additionally learns the hop
//!   count / path of its *own probes*. It can notice blackholes and gross
//!   path-length changes of probed flows, but join attacks and exfiltration
//!   never touch the victim's probes, and the (compromised) operator controls
//!   probe handling anyway.
//! * **Trajectory sampling** ([`TrajectorySamplingBaseline`]): the network
//!   reports sampled packet trajectories — but the reports are collected by
//!   the very management plane the attacker controls, so they can be
//!   sanitised. With an honest operator it detects path diversions of
//!   observed traffic; with a compromised one it detects nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rvaas_controlplane::Attack;
use rvaas_netsim::Network;
use rvaas_types::{ClientId, Header, HostId, Packet, PacketKind, Region, SimTime, SwitchId};

/// The outcome of probing connectivity between a client's own hosts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProbeReport {
    /// Probes injected, as `(source host, destination host)` pairs.
    pub sent: Vec<(HostId, HostId)>,
    /// Probes that arrived, with the hop count observed by the destination
    /// (only a traceroute-capable prober learns the hop count).
    pub delivered: Vec<(HostId, HostId, usize)>,
}

impl ProbeReport {
    /// Probe pairs that never arrived.
    #[must_use]
    pub fn missing(&self) -> Vec<(HostId, HostId)> {
        self.sent
            .iter()
            .copied()
            .filter(|(s, d)| !self.delivered.iter().any(|(ds, dd, _)| ds == s && dd == d))
            .collect()
    }
}

/// Injects one probe from every host of `client` to every other host of the
/// same client, runs the simulator for `settle`, and reports what arrived.
///
/// The probes are ordinary data packets; the network forwards them according
/// to whatever rules the (possibly compromised) controller installed.
pub fn probe_connectivity(net: &mut Network, client: ClientId, settle: SimTime) -> ProbeReport {
    let hosts: Vec<_> = net
        .topology()
        .hosts_of_client(client)
        .into_iter()
        .cloned()
        .collect();
    let mut report = ProbeReport::default();
    let before = net.deliveries().len();
    for src in &hosts {
        for dst in &hosts {
            if src.id == dst.id {
                continue;
            }
            let header = Header::builder()
                .ip_src(src.ip)
                .ip_dst(dst.ip)
                .ip_proto(Header::PROTO_UDP)
                .l4_dst(33434) // classic traceroute port range
                .build();
            let mut packet = Packet::new(header);
            packet.kind = PacketKind::TracerouteProbe;
            net.inject_from_host(src.id, packet).expect("host exists");
            report.sent.push((src.id, dst.id));
        }
    }
    let deadline = net.now() + settle;
    net.run_until(deadline);
    for delivery in &net.deliveries()[before..] {
        if delivery.packet.kind != PacketKind::TracerouteProbe {
            continue;
        }
        let Some(origin) = delivery.packet.origin else {
            continue;
        };
        report
            .delivered
            .push((origin, delivery.host, delivery.packet.hop_count()));
    }
    report
}

/// The acknowledgement-only baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct AckOnlyBaseline;

impl AckOnlyBaseline {
    /// True if the baseline flags the situation as suspicious: some probe was
    /// never acknowledged.
    #[must_use]
    pub fn detects(&self, report: &ProbeReport) -> bool {
        !report.missing().is_empty()
    }
}

/// The traceroute baseline; `expected_hops` is the path length the client
/// measured during onboarding (before any compromise).
#[derive(Debug, Clone, Default)]
pub struct TracerouteBaseline {
    /// Hop counts measured in the benign reference run, keyed by probe pair.
    pub expected_hops: Vec<(HostId, HostId, usize)>,
}

impl TracerouteBaseline {
    /// Records the benign reference measurement.
    #[must_use]
    pub fn calibrate(report: &ProbeReport) -> Self {
        TracerouteBaseline {
            expected_hops: report.delivered.clone(),
        }
    }

    /// True if a probe went missing or its hop count changed versus the
    /// calibration run.
    #[must_use]
    pub fn detects(&self, report: &ProbeReport) -> bool {
        if !report.missing().is_empty() {
            return true;
        }
        report.delivered.iter().any(|(s, d, hops)| {
            self.expected_hops
                .iter()
                .any(|(es, ed, ehops)| es == s && ed == d && ehops != hops)
        })
    }
}

/// The trajectory-sampling baseline.
#[derive(Debug, Clone, Copy)]
pub struct TrajectorySamplingBaseline {
    /// Whether the operator's management plane forwards sampling reports
    /// honestly. Under the paper's threat model this is `false`: the
    /// compromised control plane sanitises the reports.
    pub operator_honest: bool,
}

impl TrajectorySamplingBaseline {
    /// Collects the sampled trajectories of the client's delivered probes:
    /// the switch sequences, plus the regions they traverse (resolved against
    /// the trusted topology, which the sampling infrastructure knows).
    #[must_use]
    pub fn sample(&self, net: &Network, client: ClientId) -> Vec<(Vec<SwitchId>, Vec<Region>)> {
        if !self.operator_honest {
            // The compromised management plane returns the trajectories it
            // wants the client to see: those consistent with the contracted
            // routes, i.e. nothing anomalous. Modelled as an empty report.
            return Vec::new();
        }
        let host_ids: Vec<HostId> = net
            .topology()
            .hosts_of_client(client)
            .iter()
            .map(|h| h.id)
            .collect();
        net.deliveries()
            .iter()
            .filter(|d| {
                d.packet.kind == PacketKind::TracerouteProbe
                    && d.packet.origin.is_some_and(|o| host_ids.contains(&o))
            })
            .map(|d| {
                let path = d.packet.visited_switches();
                let regions = path
                    .iter()
                    .map(|s| {
                        net.topology()
                            .switch(*s)
                            .map_or_else(Region::unknown, |sw| sw.location.region.clone())
                    })
                    .collect();
                (path, regions)
            })
            .collect()
    }

    /// True if any sampled trajectory traverses a region outside
    /// `allowed_regions`.
    #[must_use]
    pub fn detects_geo_violation(
        &self,
        samples: &[(Vec<SwitchId>, Vec<Region>)],
        allowed_regions: &[Region],
    ) -> bool {
        samples
            .iter()
            .any(|(_, regions)| regions.iter().any(|r| !allowed_regions.contains(r)))
    }
}

/// Whether a baseline *can in principle* detect an attack class, used to
/// explain experiment outcomes. RVaaS detects all of these (evaluated
/// empirically in the benchmark harness).
#[must_use]
pub fn attack_observable_by_endpoint_probing(attack: &Attack) -> bool {
    matches!(attack, Attack::Blackhole { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_controlplane::{Attack, ProviderController, ScheduledAttack};
    use rvaas_netsim::NetworkConfig;
    use rvaas_topology::generators;

    fn network_with(attacks: Vec<ScheduledAttack>) -> Network {
        let topo = generators::line(4, 2);
        let mut net = Network::new(topo.clone(), NetworkConfig::default());
        net.add_controller(Box::new(ProviderController::compromised(topo, attacks)));
        net.run_until(SimTime::from_millis(2));
        net
    }

    #[test]
    fn benign_probing_finds_full_connectivity() {
        let mut net = network_with(vec![]);
        let report = probe_connectivity(&mut net, ClientId(1), SimTime::from_millis(10));
        assert_eq!(report.sent.len(), 2); // h1 <-> h3
        assert!(report.missing().is_empty());
        assert!(!AckOnlyBaseline.detects(&report));
        let calibrated = TracerouteBaseline::calibrate(&report);
        assert!(!calibrated.detects(&report));
    }

    #[test]
    fn blackhole_is_detected_by_all_probing_baselines() {
        let mut net = network_with(vec![ScheduledAttack::persistent(
            Attack::Blackhole {
                victim_host: HostId(3),
            },
            SimTime::from_millis(1),
        )]);
        let report = probe_connectivity(&mut net, ClientId(1), SimTime::from_millis(10));
        assert!(!report.missing().is_empty());
        assert!(AckOnlyBaseline.detects(&report));
        assert!(TracerouteBaseline::default().detects(&report));
    }

    #[test]
    fn join_attack_is_invisible_to_endpoint_probing() {
        // The attacker (client 2, host 2) gains access to client 1's hosts,
        // but client 1's own probes behave exactly as before.
        let attack = Attack::Join {
            attacker_host: HostId(2),
            victim_client: ClientId(1),
        };
        assert!(!attack_observable_by_endpoint_probing(&attack));
        let mut benign = network_with(vec![]);
        let reference = probe_connectivity(&mut benign, ClientId(1), SimTime::from_millis(10));
        let calibrated = TracerouteBaseline::calibrate(&reference);

        let mut attacked = network_with(vec![ScheduledAttack::persistent(
            attack,
            SimTime::from_millis(1),
        )]);
        let report = probe_connectivity(&mut attacked, ClientId(1), SimTime::from_millis(10));
        assert!(!AckOnlyBaseline.detects(&report));
        assert!(!calibrated.detects(&report));
    }

    #[test]
    fn trajectory_sampling_depends_on_operator_honesty() {
        let mut net = network_with(vec![]);
        let _ = probe_connectivity(&mut net, ClientId(1), SimTime::from_millis(10));
        let honest = TrajectorySamplingBaseline {
            operator_honest: true,
        };
        let samples = honest.sample(&net, ClientId(1));
        assert!(!samples.is_empty());
        // All regions of the benign line path are allowed -> no violation.
        let allowed: Vec<Region> = net
            .topology()
            .switches()
            .map(|s| s.location.region.clone())
            .collect();
        assert!(!honest.detects_geo_violation(&samples, &allowed));
        // A restricted allow-list triggers detection for the honest operator.
        assert!(
            honest.detects_geo_violation(&samples, &[Region::new("EU")])
                || samples
                    .iter()
                    .all(|(_, r)| r.iter().all(|x| x.label() == "EU"))
        );

        // The compromised operator reports nothing, so nothing is detected.
        let dishonest = TrajectorySamplingBaseline {
            operator_honest: false,
        };
        assert!(dishonest.sample(&net, ClientId(1)).is_empty());
        assert!(!dishonest.detects_geo_violation(&[], &[Region::new("EU")]));
    }
}
