//! A sync `Delta` ships the verdicts of the epoch whose serial it carries,
//! even when a publish lands while the server is answering: one thread
//! flips a tenant's isolation verdict on every epoch while this one runs a
//! sync session, and every re-verified verdict must be the oracle's on the
//! snapshot published at the response's serial.

use std::time::{Duration, Instant};

use rvaas::{LocationMap, LogicalVerifier, NetworkSnapshot, RuleChange, VerifierConfig};
use rvaas_client::{QuerySpec, SyncPayload, SyncSession};
use rvaas_controlplane::{benign_rules, Attack};
use rvaas_openflow::{FlowModCommand, Message};
use rvaas_service::{SyncServer, VerificationService};
use rvaas_topology::generators;
use rvaas_types::{ClientId, HostId, SimTime};

#[test]
fn reverified_verdicts_are_those_of_the_served_serial() {
    // `line(4, 2)`: client 1 owns hosts 1 and 3, client 2 hosts 2 and 4.
    let topology = generators::line(4, 2);
    let victim = ClientId(1);
    let mut benign = NetworkSnapshot::new(SimTime::from_secs(1));
    for (switch, entry) in benign_rules(&topology) {
        benign.record_installed(switch, entry, SimTime::from_millis(1));
    }
    let attack = Attack::Join {
        attacker_host: HostId(2),
        victim_client: victim,
    };
    let join: Vec<RuleChange> = attack
        .compile(&topology)
        .into_iter()
        .filter_map(|(switch, message)| match message {
            Message::FlowMod {
                command: FlowModCommand::Add(entry),
            } => Some(RuleChange::installed(switch, entry)),
            _ => None,
        })
        .collect();
    let leave: Vec<RuleChange> = join
        .iter()
        .map(|c| RuleChange::removed(c.switch, c.entry.clone()))
        .collect();
    let mut joined = benign.clone();
    joined.apply_changes(&join, SimTime::from_millis(2));

    // Epoch 1 is the benign network; from there every publish flips it, so
    // an odd serial is benign and an even one joined.
    let oracle = LogicalVerifier::new(
        topology.clone(),
        VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(&topology),
        },
    );
    let verdicts = [&benign, &joined].map(|s| oracle.answer(s, victim, &QuerySpec::Isolation));
    assert_ne!(verdicts[0], verdicts[1], "the join flips the verdict");
    let verdict_at = |serial: u64| &verdicts[usize::from(serial.is_multiple_of(2))];

    let service = VerificationService::new(topology.clone(), true);
    service.try_publish(&benign, SimTime::ZERO).unwrap();
    let server = SyncServer::new(7, &service.registry());
    server.subscribe(victim, QuerySpec::Isolation);
    let deadline = Instant::now() + Duration::from_secs(2);
    let checked = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            for round in 0u64.. {
                if Instant::now() >= deadline {
                    break;
                }
                let changes = if round.is_multiple_of(2) {
                    &join
                } else {
                    &leave
                };
                let at = SimTime::from_millis(round + 2);
                let serial = service.try_publish_changes(changes, at).unwrap();
                assert_eq!(serial, round + 2, "one publisher");
            }
        });
        let mut session = SyncSession::new();
        let mut checked = 0u64;
        while Instant::now() < deadline {
            let response = server.handle(&service, &session.request(victim));
            if let SyncPayload::Delta { reverified, .. } = &response.payload {
                for query in reverified {
                    assert_eq!(
                        &query.result,
                        verdict_at(response.serial),
                        "serial {}",
                        response.serial
                    );
                    checked += 1;
                }
            }
            session.apply(&response).unwrap();
        }
        publisher.join().unwrap();
        checked
    });
    assert!(checked >= 100, "only {checked} verdicts checked");
}
