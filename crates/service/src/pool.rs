//! The query path: a query is answered on the thread that carries it.
//!
//! [`VerificationService`] owns no threads and no queues. Whoever calls
//! [`VerificationService::try_query`] — a daemon connection thread, a sync
//! session re-verifying its standing queries, a simulation's event handler —
//! takes the current epoch, opens **one** [`rvaas::QueryEvaluator`] session
//! on it and answers its whole batch there: one sync frame's reverify set,
//! one warm-up slice, or a lone HTTP query (a batch of one). Concurrency is
//! the caller's: any number of threads may answer at once, sharing only the
//! epoch they read, its memo and the result cache.
//!
//! The service owns no model and no traversal either: the evaluator
//! borrows the HSA network function the publisher froze into the epoch and
//! reads and writes its per-host traversals through the
//! [`rvaas::TraversalMemo`] the epoch carries (see
//! [`crate::epoch::SnapshotEpoch`]), so a traversal is walked once per
//! epoch — shared by every batch, thread and client answering on it — and
//! an epoch advance costs a caller only the traversals its change may have
//! altered: the publish carries the rest into the new epoch's memo. There
//! is one evaluation path — answer on the epoch's memo, cache the verdict.
//! Nothing about the query is registered: the verdict keys it reads are a
//! static function of `(client, spec, topology)`, and each publish names
//! the keys its change may have altered (see [`rvaas::AffectedQueries`]).
//!
//! A batch always answers against the epoch that was current when it
//! started; the monitor can keep publishing new epochs concurrently without
//! blocking it. A publish is the store's, which records and counts it; the
//! service times it (`epoch.publish`) and advances its cache (`cache.advance`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rvaas::{LocationMap, LogicalVerifier, NetworkSnapshot, RuleChange, VerifierConfig};
use rvaas_client::{QueryResult, QuerySpec};
use rvaas_telemetry::{Counter, Histogram, Registry, TraceContext, TraceId, TraceStage};
use rvaas_topology::Topology;
use rvaas_types::{ClientId, SimTime};

use crate::cache::ResultCache;
use crate::epoch::{EpochStore, Published, MAX_DELTA_HISTORY};
use crate::error::ServiceError;

/// A completed query, as delivered back to the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The querying client.
    pub client: ClientId,
    /// The query.
    pub spec: QuerySpec,
    /// The verification result.
    pub result: QueryResult,
    /// The epoch serial the result was computed against.
    pub epoch_serial: u64,
    /// Wall-clock time from submission (the call's entry) to completion.
    pub latency: Duration,
    /// Flight-recorder trace id of this query's event chain (minted at
    /// ingress, echoed back so the submitter can fetch the chain).
    pub trace: TraceId,
}

/// Handles into the shared metric [`Registry`], fetched once at service
/// construction so the hot path records through pure atomics and never
/// touches the registry's mutex.
struct ServiceMetrics {
    queries: Arc<Counter>,
    batches: Arc<Counter>,
    memo_hits: Arc<Counter>,
    memo_misses: Arc<Counter>,
    query_latency: Arc<Histogram>,
    stage_eval: Arc<Histogram>,
    stage_publish: Arc<Histogram>,
    stage_cache_advance: Arc<Histogram>,
}

impl ServiceMetrics {
    fn new(registry: &Registry) -> Self {
        ServiceMetrics {
            queries: registry.counter(
                "rvaas_queries_total",
                "Queries answered (cached or computed).",
            ),
            batches: registry.counter(
                "rvaas_batches_total",
                "Query calls answered: each opens one evaluator session on one epoch.",
            ),
            memo_hits: registry.counter(
                "rvaas_traversal_memo_hits_total",
                "Traversal lookups the epoch's traversal memo served.",
            ),
            memo_misses: registry.counter(
                "rvaas_traversal_memo_misses_total",
                "HSA traversals walked because the epoch's memo did not hold them yet; one walk may fill a host's inbound probes for every client.",
            ),
            query_latency: registry.histogram(
                "rvaas_query_latency_us",
                "Wall-clock query latency from submission to completion, in microseconds.",
            ),
            stage_eval: registry.stage_histogram("pool.eval"),
            stage_publish: registry.stage_histogram("epoch.publish"),
            stage_cache_advance: registry.stage_histogram("cache.advance"),
        }
    }
}

/// A point-in-time copy of the service counters — a thin snapshot view over
/// the shared metric registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceStats {
    /// Queries answered (cached or computed).
    pub queries: u64,
    /// Query calls answered (one evaluator session each).
    pub batches: u64,
    /// Epochs published through the service.
    pub epochs_published: u64,
    /// Epochs whose delta the model applied in place.
    pub incremental_applies: u64,
    /// Epochs that bulk-rebuilt the model instead.
    pub model_rebuilds: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache entries carried across epoch advances (unaffected by
    /// the delta).
    pub cache_carried: u64,
    /// Result-cache entries invalidated by epoch advances.
    pub cache_invalidated: u64,
    /// Cache hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Median query latency in microseconds (0 until a query completes).
    pub latency_p50_us: u64,
    /// 95th-percentile query latency in microseconds.
    pub latency_p95_us: u64,
    /// 99th-percentile query latency in microseconds.
    pub latency_p99_us: u64,
}

/// The standalone verification service: epoch store + query path + cache.
pub struct VerificationService {
    /// The trusted verifier every evaluator session is opened from.
    verifier: LogicalVerifier,
    store: Arc<EpochStore>,
    cache: ResultCache,
    registry: Arc<Registry>,
    metrics: ServiceMetrics,
}

impl std::fmt::Debug for VerificationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerificationService")
            .field("current_serial", &self.store.current().serial)
            .finish_non_exhaustive()
    }
}

impl VerificationService {
    /// Starts the service over the trusted `topology`, verifying with the
    /// oracle's configuration: installed rules only (the function each epoch
    /// freezes models exactly those) and switch locations as the topology
    /// discloses them. Every layer records into the service's own metric
    /// registry; whoever serves `/metrics` or adds metrics of their own
    /// takes it from [`Self::registry`]. `cache` switches the
    /// `(serial, client, spec)` result cache on.
    #[must_use]
    pub fn new(topology: Topology, cache: bool) -> Self {
        let registry = Registry::shared();
        let mut store = EpochStore::new(MAX_DELTA_HISTORY);
        store.attach_interest_topology(topology.clone());
        store.attach_telemetry(&registry);
        let cache = ResultCache::with_registry(cache, &registry);
        let metrics = ServiceMetrics::new(&registry);
        let oracle = VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(&topology),
        };
        VerificationService {
            verifier: LogicalVerifier::new(topology, oracle),
            store: Arc::new(store),
            cache,
            registry,
            metrics,
        }
    }

    /// The epoch store (shared with the sync server).
    #[must_use]
    pub fn store(&self) -> Arc<EpochStore> {
        Arc::clone(&self.store)
    }

    /// The metric registry every layer of this service records into; render
    /// it with [`Registry::render_text`] to serve `/metrics`.
    #[must_use]
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The trusted topology the service verifies against.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.verifier.topology()
    }

    /// The current epoch serial.
    #[must_use]
    pub fn current_serial(&self) -> u64 {
        self.store.current().serial
    }

    /// Live result-cache entries (the `/v1/status` health snapshot reports
    /// this).
    #[must_use]
    pub fn cache_entries(&self) -> usize {
        self.cache.len()
    }

    /// Publishes `snapshot` as the next epoch; in-flight queries keep
    /// answering against the epoch they started with. Cached results the
    /// delta cannot affect stay valid; the rest are invalidated.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::PublishRejected`] when the epoch store cannot
    /// accept another epoch.
    pub fn try_publish(
        &self,
        snapshot: &NetworkSnapshot,
        at: SimTime,
    ) -> Result<u64, ServiceError> {
        self.publish_with(|store| store.try_publish(snapshot.clone(), at))
    }

    /// Publishes a rule-level delta as the next epoch — the monitor's
    /// [`drain_changes`] output goes straight here, skipping the full-snapshot
    /// comparison of [`VerificationService::try_publish`].
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::PublishRejected`] when the epoch store cannot
    /// accept another epoch.
    ///
    /// [`drain_changes`]: rvaas::ConfigMonitor::drain_changes
    pub fn try_publish_changes(
        &self,
        changes: &[RuleChange],
        at: SimTime,
    ) -> Result<u64, ServiceError> {
        self.publish_with(|store| store.try_publish_changes(changes, at))
    }

    /// Runs one store publish under the `epoch.publish` stage span (the store
    /// counts it) and, once the store has accepted it, advances the cache by
    /// the verdict keys the publish found altered.
    fn publish_with(
        &self,
        publish: impl FnOnce(&EpochStore) -> Result<Published, ServiceError>,
    ) -> Result<u64, ServiceError> {
        let Published {
            serial,
            affected,
            trace,
        } = {
            let _span = self.metrics.stage_publish.span();
            publish(&self.store)?
        };
        let _span = self.metrics.stage_cache_advance.span_traced(trace);
        // A cached verdict is carried unless a key it reads is affected:
        // a few ordered-set lookups per entry, no header-space test.
        let (carried, invalidated) = self
            .cache
            .advance(serial, |client, spec| affected.is_affected(client, spec));
        TraceContext::from_id(trace.0).event(TraceStage::CacheCarry, carried, invalidated);
        Ok(serial)
    }

    /// Answers one query on the calling thread under a freshly minted trace.
    ///
    /// # Errors
    ///
    /// None: `try_query`, [`Self::try_query_traced`] and
    /// [`Self::try_query_all`] keep their fallible signatures only because
    /// the stand-alone `benchmark/` package compiles against them.
    pub fn try_query(
        &self,
        client: ClientId,
        spec: QuerySpec,
    ) -> Result<QueryResponse, ServiceError> {
        self.try_query_traced(client, spec, TraceContext::mint())
    }

    /// [`Self::try_query`] under an existing trace context — the daemon's
    /// ingress layers mint the trace (so the ingress event leads the chain)
    /// and thread it through here.
    pub fn try_query_traced(
        &self,
        client: ClientId,
        spec: QuerySpec,
        trace: TraceContext,
    ) -> Result<QueryResponse, ServiceError> {
        let mut responses = self.answer([(client, spec, trace)]);
        Ok(responses.pop().expect("one query in, one response out"))
    }

    /// Answers a whole workload as one batch (responses in submission
    /// order): one epoch, one evaluator session, one trace per query.
    pub fn try_query_all(
        &self,
        queries: &[(ClientId, QuerySpec)],
    ) -> Result<Vec<QueryResponse>, ServiceError> {
        Ok(self.answer(
            queries
                .iter()
                .map(|(client, spec)| (*client, spec.clone(), TraceContext::mint())),
        ))
    }

    /// The one evaluation path, run on the calling thread: the whole batch
    /// is answered on the epoch current at entry through one evaluator
    /// session. Latency runs from entry, so a batch keeps "submission →
    /// completion" for each of its queries.
    fn answer(
        &self,
        batch: impl IntoIterator<Item = (ClientId, QuerySpec, TraceContext)>,
    ) -> Vec<QueryResponse> {
        let submitted = Instant::now();
        let mut batch = batch.into_iter().peekable();
        // One span per batch, attributed to its first query.
        let Some(lead) = batch.peek().map(|(_, _, trace)| trace.id) else {
            return Vec::new();
        };
        let epoch = self.store.current();
        let mut evaluator =
            self.verifier
                .evaluator_sharing(&epoch.snapshot, &epoch.function, &epoch.traversals);
        self.metrics.batches.inc();
        let _eval_span = self.metrics.stage_eval.span_traced(lead);
        batch
            .map(|(client, spec, trace)| {
                let result = match self.cache.get(epoch.serial, client, &spec) {
                    Some(result) => {
                        trace.event(TraceStage::CacheHit, epoch.serial, u64::from(client.0));
                        result
                    }
                    None => {
                        trace.event(TraceStage::CacheMiss, epoch.serial, u64::from(client.0));
                        trace.event(TraceStage::Eval, u64::from(client.0), epoch.serial);
                        let (hits, misses) = evaluator.traversal_counts();
                        let result = evaluator.answer(client, &spec);
                        // Counted before the reply: a miss is why this one was slow.
                        let (hits_now, misses_now) = evaluator.traversal_counts();
                        self.metrics.memo_hits.add(hits_now - hits);
                        self.metrics.memo_misses.add(misses_now - misses);
                        self.cache
                            .put(epoch.serial, client, spec.clone(), result.clone());
                        result
                    }
                };
                let latency = submitted.elapsed();
                let latency_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
                trace.event(TraceStage::Verdict, epoch.serial, latency_us);
                self.metrics
                    .query_latency
                    .record_traced(latency_us, trace.id);
                rvaas_telemetry::trace::recorder().capture_if_slow(trace.id, latency_us);
                self.metrics.queries.inc();
                QueryResponse {
                    client,
                    spec,
                    result,
                    epoch_serial: epoch.serial,
                    latency,
                    trace: trace.id,
                }
            })
            .collect()
    }

    /// A point-in-time copy of the activity counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let cache = self.cache.stats();
        let latency = self.metrics.query_latency.snapshot();
        let [epochs_published, incremental_applies, model_rebuilds] = self.store.publish_counts();
        ServiceStats {
            queries: self.metrics.queries.get(),
            batches: self.metrics.batches.get(),
            epochs_published,
            incremental_applies,
            model_rebuilds,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_carried: cache.carried,
            cache_invalidated: cache.invalidated,
            cache_hit_rate: cache.hit_rate(),
            latency_p50_us: latency.p50(),
            latency_p95_us: latency.p95(),
            latency_p99_us: latency.p99(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_controlplane::benign_rules;
    use rvaas_topology::generators;

    /// The reference implementation every service verdict is compared with.
    fn verifier(topology: &Topology) -> LogicalVerifier {
        let config = VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(topology),
        };
        LogicalVerifier::new(topology.clone(), config)
    }

    fn service_over(topology: &Topology, cache: bool) -> (VerificationService, NetworkSnapshot) {
        let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in benign_rules(topology) {
            snapshot.record_installed(switch, entry, SimTime::from_millis(1));
        }
        let service = VerificationService::new(topology.clone(), cache);
        service
            .try_publish(&snapshot, SimTime::from_millis(1))
            .unwrap();
        (service, snapshot)
    }

    fn all_specs(topology: &Topology) -> Vec<QuerySpec> {
        let some_ip = topology.hosts().next().expect("hosts").ip;
        vec![
            QuerySpec::ReachableDestinations,
            QuerySpec::ReachingSources,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
            QuerySpec::PathLength { to_ip: some_ip },
            QuerySpec::Neutrality,
        ]
    }

    #[test]
    fn a_path_longer_than_64_switches_is_in_the_served_verdict() {
        // `line(128, 64)`: client 1 owns host 1 on switch 1 and host 65 on
        // switch 65, 65 switches apart.
        let topology = generators::line(128, 64);
        let (service, _) = service_over(&topology, false);
        let (near, far) = (topology.hosts().next().expect("hosts").ip, 167_772_225);
        let ask = |spec| service.try_query(ClientId(1), spec).unwrap().result;
        let QueryResult::Endpoints { endpoints } = ask(QuerySpec::ReachableDestinations) else {
            panic!("keyed by kind");
        };
        let ips: Vec<u32> = endpoints.iter().map(|e| e.ip).collect();
        assert_eq!(ips, [near, far]);
        assert_eq!(
            ask(QuerySpec::PathLength { to_ip: far }),
            QueryResult::PathLength {
                min_hops: 65,
                max_hops: 65,
                reachable: true
            }
        );
    }

    #[test]
    fn batched_answers_equal_sequential_verifier_answers() {
        let topology = generators::leaf_spine(2, 4, 2, 1);
        let (service, snapshot) = service_over(&topology, false);
        let verifier = verifier(&topology);
        let clients: Vec<ClientId> = (1..=4).map(ClientId).collect();
        let workload: Vec<(ClientId, QuerySpec)> = clients
            .iter()
            .flat_map(|c| all_specs(&topology).into_iter().map(move |s| (*c, s)))
            .collect();
        let responses = service.try_query_all(&workload).unwrap();
        assert_eq!(responses.len(), workload.len());
        for response in &responses {
            let expected = verifier.answer(&snapshot, response.client, &response.spec);
            assert_eq!(
                response.result, expected,
                "service answer diverged for {:?}/{:?}",
                response.client, response.spec
            );
        }
        let stats = service.stats();
        assert_eq!(stats.queries, workload.len() as u64);
        assert!(stats.batches >= 1);
    }

    #[test]
    fn workers_agree_with_the_from_scratch_verifier_under_churn() {
        let topology = generators::line(6, 3);
        let (service, mut snapshot) = service_over(&topology, false);
        let verifier = verifier(&topology);
        let workload: Vec<(ClientId, QuerySpec)> = (1..=3)
            .flat_map(|c| {
                all_specs(&topology)
                    .into_iter()
                    .map(move |s| (ClientId(c), s))
            })
            .collect();
        // Every verdict must be the from-scratch one for the same snapshot.
        let check = |snapshot: &NetworkSnapshot, context: &str| {
            for response in service.try_query_all(&workload).unwrap() {
                assert_eq!(
                    response.result,
                    verifier.answer(snapshot, response.client, &response.spec),
                    "{context}: diverged from the verifier for {:?}/{:?}",
                    response.client,
                    response.spec
                );
            }
        };
        for round in 0..6u64 {
            let at = SimTime::from_millis(10 + round);
            snapshot.record_installed(
                rvaas_types::SwitchId(2),
                rvaas_openflow::FlowEntry::new(
                    400,
                    rvaas_openflow::FlowMatch::to_ip(0x3000 + round as u32),
                    vec![rvaas_openflow::Action::Drop],
                ),
                at,
            );
            service.try_publish(&snapshot, at).unwrap();
            check(&snapshot, &format!("round {round}"));
        }
        // In-place rewrites through the delta path: every benign forwarding
        // rule turned into a drop, one epoch each.
        let drop: std::sync::Arc<[_]> = [rvaas_openflow::Action::Drop].into();
        let forwarding = benign_rules(&topology)
            .into_iter()
            .filter(|(_, entry)| entry.actions != drop);
        for (round, (switch, mut entry)) in forwarding.enumerate() {
            let at = SimTime::from_millis(100 + round as u64);
            entry.actions.clone_from(&drop);
            snapshot.record_installed(switch, entry.clone(), at);
            service
                .try_publish_changes(&[RuleChange::installed(switch, entry)], at)
                .unwrap();
            check(&snapshot, &format!("rewrite {round}"));
        }
        // Every epoch advanced the one model exactly once, and each churn
        // round applied its one-rule delta in place.
        let stats = service.stats();
        assert_eq!(
            stats.incremental_applies + stats.model_rebuilds,
            stats.epochs_published,
            "got {stats:?}"
        );
        assert!(stats.incremental_applies >= 6, "got {stats:?}");
    }

    #[test]
    fn cache_hits_repeat_queries_and_invalidates_on_epoch_advance() {
        let topology = generators::line(4, 2);
        let (service, mut snapshot) = service_over(&topology, true);
        let first = service
            .try_query(ClientId(1), QuerySpec::Isolation)
            .unwrap();
        let again = service
            .try_query(ClientId(1), QuerySpec::Isolation)
            .unwrap();
        assert_eq!(first.result, again.result);
        assert_eq!(first.epoch_serial, again.epoch_serial);
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1, "second identical query must hit");

        // Publishing a new epoch whose delta overlaps the client's emission
        // space invalidates the entry even though the payload is identical.
        snapshot.record_installed(
            rvaas_types::SwitchId(1),
            rvaas_openflow::FlowEntry::new(
                1,
                rvaas_openflow::FlowMatch::to_ip(0xdead),
                vec![rvaas_openflow::Action::Drop],
            ),
            SimTime::from_millis(5),
        );
        let serial = service
            .try_publish(&snapshot, SimTime::from_millis(5))
            .unwrap();
        let after = service
            .try_query(ClientId(1), QuerySpec::Isolation)
            .unwrap();
        assert_eq!(after.epoch_serial, serial);
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1, "post-publish query must recompute");
        assert_eq!(stats.epochs_published, 2);
        assert!(stats.cache_invalidated >= 1);
    }

    #[test]
    fn unaffected_queries_survive_epoch_advance_in_cache() {
        let topology = generators::line(4, 2);
        let (service, mut snapshot) = service_over(&topology, true);
        let h3_ip = topology.hosts().find(|h| h.id.0 == 3).expect("host 3").ip;
        let spec = QuerySpec::PathLength { to_ip: h3_ip };
        let before = service.try_query(ClientId(1), spec.clone()).unwrap();

        // Churn pinned to a tenant pair that cannot intersect the path-length
        // query's (src ∈ client 1, dst = h3) interest: src and dst pinned to
        // addresses outside every relevant space, on a non-access switch...
        // the line generator attaches hosts everywhere, so use a switch and
        // addresses that only miss the header-space interest.
        snapshot.record_installed(
            rvaas_types::SwitchId(2),
            rvaas_openflow::FlowEntry::new(
                400,
                rvaas_openflow::FlowMatch::from_ip(0x7777_7777)
                    .field(rvaas_types::Field::IpDst, 0x8888_8888),
                vec![rvaas_openflow::Action::Drop],
            ),
            SimTime::from_millis(5),
        );
        let serial = service
            .try_publish(&snapshot, SimTime::from_millis(5))
            .unwrap();
        let after = service.try_query(ClientId(1), spec).unwrap();
        assert_eq!(after.epoch_serial, serial);
        assert_eq!(after.result, before.result);
        let stats = service.stats();
        assert_eq!(
            stats.cache_hits, 1,
            "the carried-forward entry must answer at the new serial: {stats:?}"
        );
        assert!(stats.cache_carried >= 1);
    }

    #[test]
    fn queries_answer_against_publish_time_epochs_under_churn() {
        let topology = generators::line(4, 2);
        let (service, mut snapshot) = service_over(&topology, true);
        // Interleave publishes and queries; every response must carry a
        // serial that was current at some point and a well-formed result.
        for round in 0..20u64 {
            snapshot.record_installed(
                rvaas_types::SwitchId(1),
                rvaas_openflow::FlowEntry::new(
                    2,
                    rvaas_openflow::FlowMatch::to_ip(0x1000 + round as u32),
                    vec![rvaas_openflow::Action::Drop],
                ),
                SimTime::from_millis(round),
            );
            let serial = service
                .try_publish(&snapshot, SimTime::from_millis(round))
                .unwrap();
            let response = service
                .try_query(ClientId(1 + (round % 2) as u32), QuerySpec::Isolation)
                .unwrap();
            assert!(response.epoch_serial <= serial);
            assert!(response.epoch_serial >= 1);
        }
        assert_eq!(service.stats().queries, 20);
    }

    /// A publish while a rewrite rule is installed carries nothing (here a
    /// flapping drop beside a rewrite installed throughout): every such
    /// epoch starts an empty memo,
    /// the full mix fills it to one entry per key, a second pass on the
    /// same epoch — other batches, cache off — walks nothing, and whoever
    /// still holds a superseded epoch keeps that epoch's traversals.
    #[test]
    fn each_epoch_starts_an_empty_memo_and_fills_it_to_one_entry_per_key() {
        let topology = generators::line(6, 3);
        let (service, mut snapshot) = service_over(&topology, false);
        let clients = topology.clients();
        let workload: Vec<(ClientId, QuerySpec)> = clients
            .iter()
            .flat_map(|c| all_specs(&topology).into_iter().map(move |s| (*c, s)))
            .collect();
        // One emission traversal per host, one inbound walk per host
        // (probing both clients it does not belong to), one path probe per
        // (client, destination) asked: 6 + 6 + 3 walks. Each inbound walk
        // fills one key per client it probes: 6 + 6 × 2 + 3 keys.
        let hosts = topology.hosts().count();
        let walks = 2 * hosts + clients.len();
        let keys = hosts * clients.len() + clients.len();
        assert_eq!((walks, keys), (15, 21));
        let counts = || {
            let scrape = service.registry().render_text();
            let samples = rvaas_telemetry::parse_text(&scrape).expect("well-formed");
            let read = |name: &str| {
                let sample = samples.iter().find(|s| s.name == name);
                sample.expect("exported").value as usize
            };
            (
                read("rvaas_traversal_memo_hits_total"),
                read("rvaas_traversal_memo_misses_total"),
            )
        };
        let flapper = rvaas_openflow::FlowEntry::new(
            400,
            rvaas_openflow::FlowMatch::to_ip(0x3000),
            vec![rvaas_openflow::Action::Drop],
        );
        let rewrite = rvaas_openflow::FlowEntry::new(
            400,
            rvaas_openflow::FlowMatch::to_ip(0x4000),
            vec![
                rvaas_openflow::Action::SetField(rvaas_types::Field::Vlan, 7),
                rvaas_openflow::Action::Output(rvaas_types::PortId(1)),
            ],
        );
        snapshot.record_installed(rvaas_types::SwitchId(1), rewrite, SimTime::from_millis(9));
        let mut superseded = service.store().current();
        for round in 0..200usize {
            let at = SimTime::from_millis(10 + round as u64);
            if round % 2 == 0 {
                snapshot.record_installed(rvaas_types::SwitchId(2), flapper.clone(), at);
            } else {
                snapshot.record_removed(rvaas_types::SwitchId(2), &flapper, at);
            }
            service.try_publish(&snapshot, at).unwrap();
            let epoch = service.store().current();
            assert_eq!(epoch.traversals.len(), 0, "round {round}: starts empty");
            service.try_query_all(&workload).unwrap();
            assert_eq!(epoch.traversals.len(), keys, "round {round}");
            let (_, walked) = counts();
            assert_eq!(walked, (round + 1) * walks, "every epoch walks its own");
            for (client, spec) in &workload {
                service.try_query(*client, spec.clone()).unwrap();
            }
            assert_eq!(counts().1, walked, "round {round}: second pass walks none");
            assert_eq!(epoch.traversals.len(), keys);
            assert_eq!(
                superseded.traversals.len(),
                if round == 0 { 0 } else { keys }
            );
            superseded = epoch;
        }
        assert!(counts().0 > 200 * walks, "the second passes were served");
    }

    /// Whatever a query races with, its verdict is the from-scratch one for
    /// the epoch it names — on a fabric where the flipping rule sits on a
    /// switch half the traversals never visit, so every publish carries
    /// those past it while queries walk the rest.
    #[test]
    fn racing_queries_answer_for_the_epoch_they_name_while_a_verdict_flips() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let topology = generators::line(4, 2);
        let (service, clean) = service_over(&topology, false);
        // A blackhole for host 1 on its own switch: flips client 1's
        // verdicts; client 2's traversals never arrive at switch 1.
        let victim = topology.hosts_of_client(ClientId(1))[0];
        let switch = victim.attachment.switch;
        let flip = rvaas_openflow::FlowEntry::new(
            400,
            rvaas_openflow::FlowMatch::to_ip(victim.ip),
            vec![rvaas_openflow::Action::Drop],
        );
        let mut attacked = clean.clone();
        attacked.record_installed(switch, flip.clone(), SimTime::from_millis(2));
        // The snapshot of every serial: clean at odd ones, attacked at even.
        let verifier = verifier(&topology);
        assert_ne!(
            verifier.answer(&clean, ClientId(1), &QuerySpec::ReachableDestinations),
            verifier.answer(&attacked, ClientId(1), &QuerySpec::ReachableDestinations),
        );

        // Four callers answering on their own threads — two per client, and
        // one of them a whole mix at a time through `try_query_all`.
        let callers = [ClientId(1), ClientId(2), ClientId(1), ClientId(2)];
        let querying = AtomicUsize::new(callers.len());
        let responses: Vec<QueryResponse> = std::thread::scope(|scope| {
            let queriers: Vec<_> = callers
                .into_iter()
                .enumerate()
                .map(|(caller, client)| {
                    let (service, topology, querying) = (&service, &topology, &querying);
                    scope.spawn(move || {
                        // At least 40 rounds, and until it has answered on
                        // eight epochs (bounded, should the publisher starve).
                        let mut responses = Vec::new();
                        let mut serials = std::collections::BTreeSet::new();
                        for round in 0..5_000 {
                            let mix = all_specs(topology).into_iter().map(|spec| (client, spec));
                            let answered = if caller == 3 {
                                let batch = service.try_query_all(&mix.collect::<Vec<_>>());
                                let batch = batch.unwrap();
                                let serial = batch[0].epoch_serial;
                                assert!(
                                    batch.iter().all(|r| r.epoch_serial == serial),
                                    "a batch answers on one epoch"
                                );
                                batch
                            } else {
                                mix.map(|(client, spec)| service.try_query(client, spec).unwrap())
                                    .collect()
                            };
                            for response in answered {
                                serials.insert(response.epoch_serial);
                                responses.push(response);
                            }
                            if round >= 40 && serials.len() >= 8 {
                                break;
                            }
                        }
                        querying.fetch_sub(1, Ordering::SeqCst);
                        responses
                    })
                })
                .collect();
            // The publisher, at full speed for as long as anyone queries.
            let mut serial = 1;
            while querying.load(Ordering::SeqCst) > 0 {
                serial += 1;
                let change = if serial % 2 == 0 {
                    RuleChange::installed(switch, flip.clone())
                } else {
                    RuleChange::removed(switch, flip.clone())
                };
                let at = SimTime::from_millis(serial);
                assert_eq!(service.try_publish_changes(&[change], at).unwrap(), serial);
            }
            queriers
                .into_iter()
                .flat_map(|q| q.join().expect("querier panicked"))
                .collect()
        });

        // One from-scratch evaluator per snapshot answers for all its serials.
        let mut fresh = [&attacked, &clean].map(|snapshot| verifier.evaluator(snapshot));
        let mut serials = std::collections::BTreeSet::new();
        for response in &responses {
            assert_eq!(
                response.result,
                fresh[(response.epoch_serial % 2) as usize].answer(response.client, &response.spec),
                "{:?}/{:?} at serial {}",
                response.client,
                response.spec,
                response.epoch_serial
            );
            serials.insert(response.epoch_serial);
        }
        assert!(serials.len() >= 8, "queries raced publishes: {serials:?}");
    }

    #[test]
    fn rejected_publish_is_not_counted_as_published() {
        let topology = generators::line(3, 1);
        let (service, snapshot) = service_over(&topology, false);
        service.store.exhaust_serials();
        let at = SimTime::from_millis(2);
        for rejected in [
            service.try_publish(&snapshot, at),
            service.try_publish_changes(&[], at),
        ] {
            assert!(matches!(rejected, Err(ServiceError::PublishRejected(_))));
        }
        assert_eq!(service.stats().epochs_published, 1);
        let scrape = rvaas_telemetry::parse_text(&service.registry().render_text()).unwrap();
        let serial = scrape.iter().find(|s| s.name == "rvaas_epoch_serial");
        assert_eq!(serial.expect("exported").value, 1.0);
    }

    #[test]
    fn query_responses_carry_a_reconstructable_trace_chain() {
        let topology = generators::line(3, 1);
        let (service, _snapshot) = service_over(&topology, true);
        let response = service
            .try_query(ClientId(1), QuerySpec::Isolation)
            .unwrap();
        assert!(!response.trace.is_none(), "default-on tracing mints an id");
        let chain = rvaas_telemetry::trace::recorder().chain(response.trace);
        let stages: Vec<TraceStage> = chain.iter().map(|e| e.stage).collect();
        for expected in [TraceStage::CacheMiss, TraceStage::Eval, TraceStage::Verdict] {
            assert!(
                stages.contains(&expected),
                "missing {expected:?}: {stages:?}"
            );
        }
        let position = |stage| stages.iter().position(|s| *s == stage);
        assert!(
            position(TraceStage::CacheMiss) < position(TraceStage::Eval)
                && position(TraceStage::Eval) < position(TraceStage::Verdict),
            "chain out of causal order: {stages:?}"
        );
        assert!(
            chain.windows(2).all(|w| w[0].at_us <= w[1].at_us),
            "timestamps must be monotone within a chain"
        );

        // The repeat is served from cache, on a fresh trace of its own.
        let again = service
            .try_query(ClientId(1), QuerySpec::Isolation)
            .unwrap();
        assert_ne!(again.trace, response.trace);
        let chain = rvaas_telemetry::trace::recorder().chain(again.trace);
        assert!(chain.iter().any(|e| e.stage == TraceStage::CacheHit));
        assert!(chain.iter().all(|e| e.trace == again.trace));
    }
}
