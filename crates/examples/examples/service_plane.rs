//! End-to-end tour of the `rvaas-service` verification service plane — the
//! one the `rvaas` daemon serves:
//!
//! 1. the service driven directly — epoch publishing under churn, batched
//!    queries, the result cache, and RTR-style delta sync, and
//! 2. the telemetry registry behind it all, rendered in Prometheus text
//!    exposition format (what a `/metrics` endpoint would serve).
//!
//! ```sh
//! cargo run --release -p rvaas-examples --example service_plane
//! ```

use rvaas_client::{QuerySpec, SyncPayload, SyncSession};
use rvaas_service::{ServiceError, SyncServer, VerificationService};
use rvaas_topology::generators;
use rvaas_types::{ClientId, SimTime};
use rvaas_workloads::{benign_snapshot, tenant_churn_round};

fn main() -> Result<(), ServiceError> {
    // --- 1. The service plane driven directly ----------------------------
    let topo = generators::leaf_spine(2, 4, 2, 1);
    let service = VerificationService::new(topo.clone(), true);
    let mut snapshot = benign_snapshot(&topo);
    let serial = service.try_publish(&snapshot, SimTime::from_millis(1))?;
    println!(
        "service plane: leaf-spine fabric, {} switches / {} hosts; published epoch {serial} ({} rules)",
        topo.switch_count(),
        topo.host_count(),
        snapshot.rule_count()
    );

    let workload: Vec<(ClientId, QuerySpec)> = (1..=4)
        .flat_map(|c| {
            [QuerySpec::Isolation, QuerySpec::GeoLocation]
                .into_iter()
                .map(move |s| (ClientId(c), s))
        })
        .collect();
    // Same batch twice: the second pass is answered from the result cache.
    let _ = service.try_query_all(&workload)?;
    let responses = service.try_query_all(&workload)?;
    println!(
        "  {} queries answered at epoch {} (cache hit rate {:.0}%)",
        responses.len() * 2,
        responses[0].epoch_serial,
        100.0 * service.stats().cache_hit_rate
    );

    // Delta sync: a client mirrors the state, then churn arrives.
    let server = SyncServer::new(7, &service.registry());
    let mut session = SyncSession::new();
    let reset = server.handle(&service, &session.request(ClientId(1)));
    session.apply(&reset).expect("reset applies");
    println!(
        "  sync: client reset to serial {} ({} digests, {} B)",
        session.serial(),
        session.digests().len(),
        reset.encoded_len()
    );
    // Two tenants each get two fresh rules on the spines. The new epoch's
    // memo starts with every entry (one per verdict key) the churn cannot
    // have altered.
    tenant_churn_round(&topo, &mut snapshot, 1, 2, 2, SimTime::from_millis(2));
    let serial = service.try_publish(&snapshot, SimTime::from_millis(2))?;
    println!(
        "  epoch {serial}: {} memo entries carried over from the epoch before",
        service.store().current().traversals.len()
    );
    let response = server.handle(&service, &session.request(ClientId(1)));
    let SyncPayload::Delta { added, removed, .. } = &response.payload else {
        panic!("expected a delta after churn");
    };
    println!(
        "  sync: delta +{} -{} digests in {} B (vs {} B full resend)",
        added.len(),
        removed.len(),
        response.encoded_len(),
        reset.encoded_len()
    );
    session.apply(&response).expect("delta applies");
    assert_eq!(session.serial(), service.current_serial());
    println!(
        "  sync: client mirror converged at serial {}",
        session.serial()
    );

    // --- 2. The metrics registry, scraped -------------------------------
    // Everything above — queries, cache traffic, epoch publishes, query
    // batches — was recorded into the service's shared registry as it
    // happened; render it exactly as a `/metrics` endpoint would.
    let exposition = service.registry().render_text();
    let samples = rvaas_telemetry::parse_text(&exposition)
        .expect("rendered exposition must be valid Prometheus text format");
    let total = |name: &str| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };
    // The run above must have left visible traces in the core counters; a
    // zero here means an instrumentation path silently rotted.
    for counter in [
        "rvaas_queries_total",
        "rvaas_cache_hits_total",
        "rvaas_epoch_publishes_total",
        "rvaas_traversal_memo_carried_total",
    ] {
        assert!(
            total(counter) > 0.0,
            "expected {counter} > 0 after the tour, got 0 — exposition:\n{exposition}"
        );
    }
    println!(
        "\nmetrics: {} samples across {} lines of exposition; excerpt:",
        samples.len(),
        exposition.lines().count()
    );
    for line in exposition.lines().filter(|l| {
        l.starts_with("rvaas_queries_total")
            || l.starts_with("rvaas_cache_hits_total")
            || l.starts_with("rvaas_epoch_publishes_total")
            || l.starts_with("rvaas_traversal_memo_carried_total")
            || l.starts_with("rvaas_query_latency_us_count")
            || l.starts_with("rvaas_query_latency_us_sum")
    }) {
        println!("  {line}");
    }
    Ok(())
}
