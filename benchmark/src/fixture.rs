//! Set-up: the daemon under test, started exactly as `rvaas serve` starts
//! it, plus everything the generator derives from the workload's topology
//! (the query keys, their request bytes, the per-tenant churn rules).

use std::time::{Duration, Instant};

use rvaas::{NetworkSnapshot, RuleChange};
use rvaas_client::QuerySpec;
use rvaas_daemon::{Daemon, DaemonConfig};
use rvaas_openflow::FlowEntry;
use rvaas_topology::Topology;
use rvaas_types::{ClientId, SimTime, SwitchId};
use rvaas_workloads::{benign_snapshot, clients_of, query_mix, tenant_churn_round};

use crate::gen::ChurnOrder;
use crate::spec::{Publish, Workload, CHURN_RULES_PER_TENANT};
use crate::wire::{query_request, HttpClient, SyncClient};

/// Pool workers the daemon is configured with (the host has 2 cores).
pub const WORKERS: usize = 2;
/// The client ends of the sockets.
#[derive(Debug)]
pub struct Connections {
    pub http: Vec<HttpClient>,
    pub sync: SyncClient,
}

/// A started daemon and the inputs generated for it.
#[derive(Debug)]
pub struct Fixture {
    pub daemon: Daemon,
    pub topology: Topology,
    pub tenants: Vec<ClientId>,
    /// Every distinct `(client, query)` the workload asks.
    pub keys: Vec<(ClientId, QuerySpec)>,
    /// `POST /v1/query` bytes, one per key.
    pub requests: Vec<Vec<u8>>,
    /// Set-up time: from just before `Daemon::start` until warm-up ended.
    pub setup: Duration,
}

impl Fixture {
    /// Starts the daemon for `workload` with both listeners on
    /// `127.0.0.1:0` and warms it up; the returned connections are open and
    /// past their first exchange.
    pub fn start(workload: &Workload) -> Result<(Fixture, Connections), String> {
        let started = Instant::now();
        let mut fixture = Fixture::start_daemon(workload, true)?;
        let http_addr = fixture.daemon.http_addr().ok_or("no http listener")?;
        let sync_addr = fixture.daemon.sync_addr().ok_or("no sync listener")?;
        let mut http = Vec::with_capacity(workload.http_clients);
        for _ in 0..workload.http_clients {
            // One request over the wire pays the connection's one-off costs
            // (accept, hand-over to a connection worker). It is the only one
            // the daemon answers without its per-response stall, so set-up
            // holds no stall and `setup_s` shows real set-up work; every key
            // was warmed in-process, which the wire could only do at ~44 ms
            // a key.
            let mut client = HttpClient::connect(http_addr).map_err(|e| e.to_string())?;
            match client.round_trip(&fixture.requests[0]) {
                Ok(200) => {}
                Ok(status) => return Err(format!("warm-up query answered {status}")),
                Err(e) => return Err(format!("warm-up query: {e}")),
            }
            http.push(client);
        }
        // Baseline: the Reset carrying epoch 1.
        let mut sync = SyncClient::connect(sync_addr).map_err(|e| e.to_string())?;
        sync.exchange(fixture.tenants[0])?;
        fixture.setup = started.elapsed();
        Ok((fixture, Connections { http, sync }))
    }

    /// The same daemon without listeners, for the in-process ladder rungs.
    pub fn start_offline(workload: &Workload) -> Result<Fixture, String> {
        Fixture::start_daemon(workload, false)
    }

    fn start_daemon(workload: &Workload, listen: bool) -> Result<Fixture, String> {
        let mut config = DaemonConfig::default();
        let mut set = |key: &str, value: &str| config.set(key, value).map_err(|e| e.to_string());
        set("topology", workload.topology)?;
        set("workers", &WORKERS.to_string())?;
        set("cache", if workload.cache { "on" } else { "off" })?;
        if listen {
            set("http_listen", "127.0.0.1:0")?;
            set("sync_listen", "127.0.0.1:0")?;
        }

        let started = Instant::now();
        let daemon = Daemon::start(&config).map_err(|e| e.to_string())?;
        let topology = daemon.service().topology().clone();
        let tenants = clients_of(&topology);
        let mix = query_mix(&topology);
        let keys: Vec<(ClientId, QuerySpec)> = tenants
            .iter()
            .flat_map(|client| mix.iter().map(move |spec| (*client, spec.clone())))
            .collect();
        for (client, spec) in &keys {
            daemon.sync_server().subscribe(*client, spec.clone());
        }
        // Every key once: fills the cache, registers every interest and
        // makes each worker build its model.
        daemon
            .service()
            .try_query_all(&keys)
            .map_err(|e| format!("warm-up queries: {e}"))?;
        let requests = keys
            .iter()
            .map(|(client, spec)| query_request(*client, spec))
            .collect();
        Ok(Fixture {
            daemon,
            topology,
            tenants,
            keys,
            requests,
            setup: started.elapsed(),
        })
    }

    /// Stops the daemon and joins its threads. Connections must already be
    /// dropped, or their workers only notice at their next read timeout.
    pub fn stop(self) {
        self.daemon.shutdown();
    }
}

/// The harness as routing controller: it owns the authoritative snapshot,
/// turns each churn step into rule changes, publishes them into the daemon
/// and remembers every step so the oracle can rebuild any epoch.
#[derive(Debug)]
pub struct Publisher {
    /// The network as of the last published epoch.
    pub snapshot: NetworkSnapshot,
    /// Rule changes of every epoch published so far, oldest first. Epoch
    /// serial `s` is the benign snapshot plus `steps[..s - 1]`.
    pub steps: Vec<Vec<RuleChange>>,
    /// Per tenant, the rules one churn round installs for it.
    windows: Vec<Vec<(SwitchId, FlowEntry)>>,
    order: ChurnOrder,
    installed: Option<usize>,
    mode: Publish,
}

impl Publisher {
    pub fn new(fixture: &Fixture, mode: Publish, seed: u64) -> Self {
        let at = SimTime::from_millis(1);
        let windows = (0..fixture.tenants.len())
            .map(|tenant| {
                // On an empty snapshot a churn round can only install its
                // own tenant's rules, so the tables afterwards are exactly
                // that tenant's window.
                let mut scratch = NetworkSnapshot::new(at);
                tenant_churn_round(
                    &fixture.topology,
                    &mut scratch,
                    tenant as u64,
                    1,
                    CHURN_RULES_PER_TENANT,
                    at,
                );
                scratch
                    .tables()
                    .flat_map(|(switch, entries)| entries.iter().map(move |e| (switch, e.clone())))
                    .collect()
            })
            .collect();
        Publisher {
            snapshot: benign_snapshot(&fixture.topology),
            steps: Vec::new(),
            windows,
            order: ChurnOrder::new(seed, fixture.tenants.len()),
            installed: None,
            mode,
        }
    }

    pub fn mode(&self) -> Publish {
        self.mode
    }

    /// Serial of the last epoch published (1 is the daemon's benign epoch).
    pub fn serial(&self) -> u64 {
        1 + self.steps.len() as u64
    }

    /// Advances the snapshot by one churn step — the previously churned
    /// tenant's rules leave, the next tenant's arrive — and returns that
    /// tenant's index. Call [`Publisher::publish`] next.
    pub fn step(&mut self) -> usize {
        let tenant = self.order.next().expect("the churn order is endless");
        let at = SimTime::from_millis(self.serial() + 1);
        let mut changes = Vec::with_capacity(2 * CHURN_RULES_PER_TENANT);
        if let Some(previous) = self.installed {
            for (switch, entry) in &self.windows[previous] {
                self.snapshot.record_removed(*switch, entry, at);
                changes.push(RuleChange::removed(*switch, entry.clone()));
            }
        }
        for (switch, entry) in &self.windows[tenant] {
            self.snapshot.record_installed(*switch, entry.clone(), at);
            changes.push(RuleChange::installed(*switch, entry.clone()));
        }
        self.installed = Some(tenant);
        self.steps.push(changes);
        tenant
    }

    /// Publishes the step just taken into `fixture`'s daemon, the way the
    /// workload says (`try_publish_changes` or `try_publish`), and checks
    /// the daemon numbered the epoch as expected.
    pub fn publish(&self, fixture: &Fixture) -> Result<(), String> {
        let at = SimTime::from_millis(self.serial());
        let service = fixture.daemon.service();
        let serial = match self.mode {
            Publish::Delta => {
                service.try_publish_changes(self.steps.last().expect("step taken"), at)
            }
            Publish::Full => service.try_publish(&self.snapshot, at),
        }
        .map_err(|e| format!("publish: {e}"))?;
        if serial == self.serial() {
            Ok(())
        } else {
            Err(format!(
                "daemon published serial {serial}, expected {}",
                self.serial()
            ))
        }
    }

    /// The rule changes of the last step (for direct `EpochStore` rungs).
    pub fn last_changes(&self) -> &[RuleChange] {
        self.steps.last().expect("step taken")
    }
}
