//! Causal tracing: per-ingress trace IDs, a sharded ring-buffer **flight
//! recorder** of structured events, and bounded slow-query retention.
//!
//! Aggregate metrics (counters, histograms) answer "how slow is p99?";
//! they cannot answer "why was *this* query slow?" or "which delta flipped
//! *this* verdict?". The flight recorder closes that gap without giving up
//! the hot-path cost profile the registry established:
//!
//! * [`FlightRecorder::append`] is one relaxed `fetch_add` (the shard's
//!   write cursor) plus a handful of atomic stores — the same order of
//!   magnitude as `Counter::inc` — so tracing is **default-on**.
//! * The ring is fixed-capacity and overwrites oldest: recording never
//!   allocates, never blocks, and memory is bounded at construction.
//! * Events are written under a seqlock-style sequence word, so a reader
//!   scanning the ring while writers are active either sees a whole event
//!   or skips the slot — events never tear.
//!
//! When a query's end-to-end latency reaches [`SLOW_THRESHOLD_US`] (or it
//! errors), [`FlightRecorder::capture`] promotes its full event chain
//! out of the ring into a bounded retained set before the ring's churn can
//! overwrite it — the daemon serves that set at `GET /v1/trace/slow`.
//!
//! A process-global recorder ([`recorder`]) keeps instrumentation free of
//! plumbing: ingress points mint a [`TraceContext`] and thread it through
//! the request path explicitly (e.g. inside a pool job). Every emitter holds
//! the context it appends under; layers that hold none (the `rvaas` core)
//! report plain data to a caller that does.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Ring shards; a trace's events all land in `shards[id % SHARDS]`, so a
/// per-trace chain scan touches one shard and per-trace order follows the
/// shard's ticket order.
const SHARDS: usize = 8;

/// Total ring capacity of the process-global recorder (slots across all
/// shards).
pub const RING_CAPACITY: usize = 4096;

/// Slow-query promotion threshold of the process-global recorder, in
/// microseconds.
pub const SLOW_THRESHOLD_US: u64 = 10_000;

/// Retained slow/errored traces (oldest evicted beyond this).
pub const RETAINED_TRACES: usize = 32;

/// Every minted trace id is below `2^53`: the daemon renders ids as bare
/// JSON numbers, and a reader that parses numbers as IEEE doubles reads
/// any integer up to `2^53` exactly, so the id it quotes back at
/// `GET /v1/trace/<id>` is the one that was served.
const TRACE_ID_MASK: u64 = (1 << 53) - 1;

/// A per-ingress trace identifier; `0` means "not traced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The absent trace: events appended under it are dropped.
    pub const NONE: TraceId = TraceId(0);

    /// True for [`TraceId::NONE`].
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The instrumented points of the service plane. Stored in a slot as a
/// `u64` discriminant; unknown discriminants read back from a torn or
/// half-overwritten slot are rejected during chain reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceStage {
    /// HTTP request accepted and parsed. `a` = client id, `b` = body bytes.
    IngressHttp = 1,
    /// Sync frame accepted and decoded. `a` = client id, `b` = have_serial.
    IngressSync = 2,
    // Code 3 (a query's hand-over to a worker pool) is retired and stays
    // unassigned: a query is answered on the thread that carries it.
    /// The publisher's model applied an epoch's delta in place. `a` = rules
    /// applied, `b` = model rules afterwards.
    IncrementalApply = 4,
    /// The publisher's model was rebuilt from the snapshot (bulk or
    /// unresolvable delta). `a` = model rules afterwards, `b` = switches
    /// rebuilt.
    ModelRebuild = 5,
    /// Query evaluated against the model. `a` = client id, `b` = serial.
    Eval = 6,
    /// Result served from cache. `a` = epoch serial, `b` = client id.
    CacheHit = 7,
    /// Cache lookup missed. `a` = epoch serial, `b` = client id.
    CacheMiss = 8,
    /// Epoch advance carried/invalidated entries. `a` = carried, `b` = inv.
    CacheCarry = 9,
    /// Verdict produced. `a` = epoch serial, `b` = latency in µs.
    Verdict = 10,
    /// Query failed. `a` = client id, `b` = HTTP-ish status code.
    QueryError = 11,
    /// Epoch published. `a` = serial, `b` = delta rule count.
    EpochPublish = 12,
    /// Epoch content digest + the publish's selection. `a` = digest,
    /// `b` = verdict keys the memo carry found altered (`u64::MAX` =
    /// conservatively all).
    EpochDigest = 13,
    /// Sync session re-verified standing queries. `a` = serial, `b` = count.
    Reverify = 14,
}

impl TraceStage {
    /// The dotted stage name used in JSON exports and docs.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceStage::IngressHttp => "ingress.http",
            TraceStage::IngressSync => "ingress.sync",
            TraceStage::IncrementalApply => "model.incremental_apply",
            TraceStage::ModelRebuild => "model.rebuild",
            TraceStage::Eval => "pool.eval",
            TraceStage::CacheHit => "cache.hit",
            TraceStage::CacheMiss => "cache.miss",
            TraceStage::CacheCarry => "cache.carry",
            TraceStage::Verdict => "verdict",
            TraceStage::QueryError => "error",
            TraceStage::EpochPublish => "epoch.publish",
            TraceStage::EpochDigest => "epoch.digest",
            TraceStage::Reverify => "sync.reverify",
        }
    }

    /// Names for the two payload words, in JSON-export order.
    #[must_use]
    pub fn arg_names(&self) -> (&'static str, &'static str) {
        match self {
            TraceStage::IngressHttp => ("client", "request_bytes"),
            TraceStage::IngressSync => ("client", "have_serial"),
            TraceStage::IncrementalApply => ("rules_applied", "model_rules"),
            TraceStage::ModelRebuild => ("rule_count", "switches"),
            TraceStage::Eval => ("client", "epoch_serial"),
            TraceStage::CacheHit | TraceStage::CacheMiss => ("epoch_serial", "client"),
            TraceStage::CacheCarry => ("carried", "invalidated"),
            TraceStage::Verdict => ("epoch_serial", "latency_us"),
            TraceStage::QueryError => ("client", "status"),
            TraceStage::EpochPublish => ("serial", "delta_rules"),
            TraceStage::EpochDigest => ("digest", "affected_queries"),
            TraceStage::Reverify => ("serial", "queries"),
        }
    }

    /// Reverses the `u64` discriminant a ring slot stores.
    #[must_use]
    pub fn from_code(code: u64) -> Option<TraceStage> {
        Some(match code {
            1 => TraceStage::IngressHttp,
            2 => TraceStage::IngressSync,
            4 => TraceStage::IncrementalApply,
            5 => TraceStage::ModelRebuild,
            6 => TraceStage::Eval,
            7 => TraceStage::CacheHit,
            8 => TraceStage::CacheMiss,
            9 => TraceStage::CacheCarry,
            10 => TraceStage::Verdict,
            11 => TraceStage::QueryError,
            12 => TraceStage::EpochPublish,
            13 => TraceStage::EpochDigest,
            14 => TraceStage::Reverify,
            _ => return None,
        })
    }
}

/// One reconstructed flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The trace this event belongs to.
    pub trace: TraceId,
    /// Shard-local write ticket: strictly increasing in append order, so
    /// sorting a chain by `seq` recovers causal order.
    pub seq: u64,
    /// Microseconds since the recorder was created (monotone clock).
    pub at_us: u64,
    /// Which instrumented point emitted the event.
    pub stage: TraceStage,
    /// First payload word; meaning per [`TraceStage::arg_names`].
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// Why a trace was promoted into the retained set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureReason {
    /// End-to-end latency exceeded the slow-query threshold.
    Slow {
        /// The offending latency in microseconds.
        latency_us: u64,
    },
    /// The request failed.
    Error,
}

impl CaptureReason {
    /// Short machine-readable tag for JSON exports.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            CaptureReason::Slow { .. } => "slow",
            CaptureReason::Error => "error",
        }
    }
}

/// A trace promoted out of the ring before churn could overwrite it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainedTrace {
    /// The promoted trace.
    pub trace: TraceId,
    /// Why it was promoted.
    pub reason: CaptureReason,
    /// Recorder time of the promotion, µs.
    pub captured_at_us: u64,
    /// The full event chain at promotion time, in causal order.
    pub events: Vec<TraceEvent>,
}

/// One ring slot. All fields are atomics so concurrent overwrite is a data
/// race only in the benign "stale value" sense — `seq` brackets every write
/// (seqlock discipline) and readers discard slots whose bracket moved.
struct Slot {
    /// 0 = write in progress; otherwise `ticket + 1` of the stored event.
    seq: AtomicU64,
    trace: AtomicU64,
    at_us: AtomicU64,
    stage: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            at_us: AtomicU64::new(0),
            stage: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

struct Shard {
    cursor: AtomicU64,
    slots: Vec<Slot>,
}

/// The sharded, fixed-capacity, overwrite-oldest event ring plus the
/// bounded retained set for slow/errored traces.
pub struct FlightRecorder {
    shards: Vec<Shard>,
    started: Instant,
    enabled: AtomicBool,
    slow_threshold_us: u64,
    next_trace: AtomicU64,
    trace_base: u64,
    retained: Mutex<VecDeque<RetainedTrace>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("occupancy", &self.occupancy())
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(RING_CAPACITY, SLOW_THRESHOLD_US)
    }
}

impl FlightRecorder {
    /// A recorder with `capacity` total ring slots (rounded up to at least
    /// one slot per shard) promoting traces slower than `slow_threshold_us`.
    #[must_use]
    pub fn with_capacity(capacity: usize, slow_threshold_us: u64) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        // Derive a per-process base so trace IDs from different processes
        // (or restarts) are distinguishable in logs; uniqueness within the
        // process comes from the counter alone. 21 seed bits above the
        // counter's 32 keep the id below 2^53.
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0)
            ^ u64::from(std::process::id());
        FlightRecorder {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    cursor: AtomicU64::new(0),
                    slots: (0..per_shard).map(|_| Slot::empty()).collect(),
                })
                .collect(),
            started: Instant::now(),
            enabled: AtomicBool::new(true),
            slow_threshold_us,
            next_trace: AtomicU64::new(0),
            trace_base: (seed << 32) & TRACE_ID_MASK,
            retained: Mutex::new(VecDeque::new()),
        }
    }

    /// Total ring slots across all shards.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.slots.len()).sum()
    }

    /// Slots currently holding an event (saturates at capacity once the
    /// ring has wrapped).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.shards
            .iter()
            .map(|s| (s.cursor.load(Ordering::Relaxed) as usize).min(s.slots.len()))
            .sum()
    }

    /// Turns recording on or off process-wide; minting and capture still
    /// work while off, appends become a single relaxed load.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether appends are currently recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The slow-query promotion threshold.
    #[must_use]
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us
    }

    /// Microseconds since the recorder was created (the event clock).
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Mints a fresh process-unique trace id (never [`TraceId::NONE`]).
    #[must_use]
    pub fn mint(&self) -> TraceId {
        let n = self
            .next_trace
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(1);
        let id = self.trace_base.wrapping_add(n) & TRACE_ID_MASK;
        TraceId(if id == 0 { 1 } else { id })
    }

    /// Appends one event to `trace`'s shard. Lock-free: one relaxed RMW on
    /// the shard cursor plus six atomic stores under a seqlock bracket.
    pub fn append(&self, trace: TraceId, stage: TraceStage, a: u64, b: u64) {
        if trace.is_none() || !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let shard = &self.shards[(trace.0 % SHARDS as u64) as usize];
        let ticket = shard.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &shard.slots[(ticket % shard.slots.len() as u64) as usize];
        // Seqlock write bracket: mark in-progress (the AcqRel RMW keeps the
        // field stores from floating above it), fill, then publish the
        // ticket. A reader accepts a slot only when both seq reads agree,
        // are nonzero, and map back to this slot index.
        slot.seq.swap(0, Ordering::AcqRel);
        slot.trace.store(trace.0, Ordering::Relaxed);
        slot.at_us.store(self.now_us(), Ordering::Relaxed);
        slot.stage.store(stage as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(ticket + 1, Ordering::Release);
    }

    /// Reads one slot under the seqlock discipline; `None` when the slot is
    /// empty, mid-write, overwritten during the read, or holds a stage
    /// discriminant that does not decode (a torn remnant).
    fn read_slot(slot: &Slot, index: usize, len: usize) -> Option<TraceEvent> {
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || ((s1 - 1) % len as u64) as usize != index {
            return None;
        }
        let trace = slot.trace.load(Ordering::Relaxed);
        let at_us = slot.at_us.load(Ordering::Relaxed);
        let stage = slot.stage.load(Ordering::Relaxed);
        let a = slot.a.load(Ordering::Relaxed);
        let b = slot.b.load(Ordering::Relaxed);
        // The acquire fence keeps the field loads above from being
        // reordered past the confirming seq re-read below.
        fence(Ordering::Acquire);
        let s2 = slot.seq.load(Ordering::Relaxed);
        if s1 != s2 || trace == 0 {
            return None;
        }
        Some(TraceEvent {
            trace: TraceId(trace),
            seq: s1 - 1,
            at_us,
            stage: TraceStage::from_code(stage)?,
            a,
            b,
        })
    }

    /// Reconstructs `trace`'s event chain from its shard, in causal
    /// (append) order. Empty when the trace is unknown or fully overwritten.
    #[must_use]
    pub fn chain(&self, trace: TraceId) -> Vec<TraceEvent> {
        if trace.is_none() {
            return Vec::new();
        }
        let shard = &self.shards[(trace.0 % SHARDS as u64) as usize];
        let len = shard.slots.len();
        let mut events: Vec<TraceEvent> = shard
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Self::read_slot(slot, i, len))
            .filter(|e| e.trace == trace)
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Promotes `trace`'s current chain into the bounded retained set.
    /// Called off the hot path (a slow or failed request), so the mutex is
    /// fine. Re-capturing a trace replaces its earlier retention.
    pub fn capture(&self, trace: TraceId, reason: CaptureReason) {
        if trace.is_none() {
            return;
        }
        let retained = RetainedTrace {
            trace,
            reason,
            captured_at_us: self.now_us(),
            events: self.chain(trace),
        };
        let mut set = self.retained.lock().expect("retained set poisoned");
        set.retain(|r| r.trace != trace);
        if set.len() >= RETAINED_TRACES {
            set.pop_front();
        }
        set.push_back(retained);
    }

    /// Captures `trace` iff `latency_us` crosses the slow threshold;
    /// returns whether it did.
    pub fn capture_if_slow(&self, trace: TraceId, latency_us: u64) -> bool {
        if latency_us >= self.slow_threshold_us {
            self.capture(trace, CaptureReason::Slow { latency_us });
            true
        } else {
            false
        }
    }

    /// The retained slow/errored traces, oldest first.
    #[must_use]
    pub fn retained(&self) -> Vec<RetainedTrace> {
        self.retained
            .lock()
            .expect("retained set poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-global flight recorder ([`RING_CAPACITY`] slots,
/// [`SLOW_THRESHOLD_US`]), constructed on first use.
pub fn recorder() -> &'static FlightRecorder {
    GLOBAL.get_or_init(FlightRecorder::default)
}

/// The trace context threaded through a request path: the id to append
/// under, carried explicitly across calls and thread handoffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace all events from this request join.
    pub id: TraceId,
}

impl TraceContext {
    /// Mints a fresh id from the global recorder.
    #[must_use]
    pub fn mint() -> TraceContext {
        TraceContext {
            id: recorder().mint(),
        }
    }

    /// Wraps an id received from elsewhere (e.g. echoed over the wire).
    #[must_use]
    pub fn from_id(id: u64) -> TraceContext {
        TraceContext { id: TraceId(id) }
    }

    /// Appends one event under this context to the global recorder.
    pub fn event(&self, stage: TraceStage, a: u64, b: u64) {
        recorder().append(self.id, stage, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let rec = FlightRecorder::with_capacity(64, 1000);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = rec.mint();
            assert!(!id.is_none());
            assert!(seen.insert(id), "duplicate trace id {id}");
        }
    }

    #[test]
    fn minted_ids_stay_exact_as_doubles() {
        let rec = FlightRecorder::with_capacity(64, 1000);
        let exact = |id: TraceId| id.0 < 1 << 53 && id.0 as f64 as u64 == id.0;
        assert!((0..1_000).map(|_| rec.mint()).all(exact));
        // A counter past 32 bits runs into the seed's bits, never above them.
        rec.next_trace.store(u64::MAX - 2, Ordering::Relaxed);
        for _ in 0..4 {
            let id = rec.mint();
            assert!(exact(id) && !id.is_none(), "{id}");
        }
    }

    #[test]
    fn a_chain_reconstructs_in_append_order() {
        let rec = FlightRecorder::with_capacity(256, 1000);
        let t = rec.mint();
        rec.append(t, TraceStage::IngressHttp, 1, 42);
        rec.append(t, TraceStage::CacheMiss, 7, 1);
        rec.append(t, TraceStage::Eval, 1, 7);
        rec.append(t, TraceStage::Verdict, 7, 123);
        let chain = rec.chain(t);
        let stages: Vec<_> = chain.iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            vec![
                TraceStage::IngressHttp,
                TraceStage::CacheMiss,
                TraceStage::Eval,
                TraceStage::Verdict
            ]
        );
        assert!(chain.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert!(chain.iter().all(|e| e.trace == t));
        assert_eq!(chain[3].b, 123);
    }

    #[test]
    fn the_ring_overwrites_oldest_and_occupancy_saturates() {
        let rec = FlightRecorder::with_capacity(SHARDS, 1000); // 1 slot/shard
        let t = rec.mint();
        for i in 0..100 {
            rec.append(t, TraceStage::Eval, i, 0);
        }
        let chain = rec.chain(t);
        assert_eq!(chain.len(), 1, "one slot per shard keeps only the last");
        assert_eq!(chain[0].a, 99);
        assert!(rec.occupancy() <= rec.capacity());
        assert!(rec.occupancy() >= 1);
    }

    #[test]
    fn disabled_recorder_drops_events_but_still_mints() {
        let rec = FlightRecorder::with_capacity(64, 1000);
        rec.set_enabled(false);
        let t = rec.mint();
        rec.append(t, TraceStage::Eval, 1, 1);
        assert!(rec.chain(t).is_empty());
        rec.set_enabled(true);
        rec.append(t, TraceStage::Eval, 1, 1);
        assert_eq!(rec.chain(t).len(), 1);
    }

    #[test]
    fn none_traces_record_nothing() {
        let rec = FlightRecorder::with_capacity(64, 1000);
        rec.append(TraceId::NONE, TraceStage::Eval, 1, 1);
        assert_eq!(rec.occupancy(), 0);
        assert!(rec.chain(TraceId::NONE).is_empty());
    }

    #[test]
    fn slow_capture_promotes_and_is_bounded() {
        let rec = FlightRecorder::with_capacity(4096, 500);
        assert!(!rec.capture_if_slow(rec.mint(), 499));
        assert!(rec.retained().is_empty());
        let mut promoted = Vec::new();
        for i in 0..(RETAINED_TRACES + 5) {
            let t = rec.mint();
            rec.append(t, TraceStage::Verdict, 1, 500 + i as u64);
            assert!(rec.capture_if_slow(t, 500 + i as u64));
            promoted.push(t);
        }
        let retained = rec.retained();
        assert_eq!(retained.len(), RETAINED_TRACES, "retention is bounded");
        // Oldest evicted, newest kept, chains intact.
        assert_eq!(retained.last().unwrap().trace, *promoted.last().unwrap());
        assert!(retained.iter().all(|r| !r.events.is_empty()));
        assert!(matches!(
            retained[0].reason,
            CaptureReason::Slow { latency_us } if latency_us >= 500
        ));
    }

    #[test]
    fn recapturing_a_trace_replaces_the_earlier_retention() {
        let rec = FlightRecorder::with_capacity(64, 0);
        let t = rec.mint();
        rec.append(t, TraceStage::Eval, 1, 1);
        rec.capture(t, CaptureReason::Error);
        rec.append(t, TraceStage::Verdict, 1, 9);
        rec.capture(t, CaptureReason::Slow { latency_us: 9 });
        let retained = rec.retained();
        assert_eq!(retained.iter().filter(|r| r.trace == t).count(), 1);
        assert_eq!(retained[0].events.len(), 2);
    }

    #[test]
    fn the_global_recorder_has_the_fixed_shape() {
        assert_eq!(recorder().capacity(), RING_CAPACITY);
        assert_eq!(recorder().slow_threshold_us(), SLOW_THRESHOLD_US);
    }

    #[test]
    fn every_stage_round_trips_its_discriminant() {
        for code in 0..=32u64 {
            if let Some(stage) = TraceStage::from_code(code) {
                assert_eq!(stage as u64, code);
                assert!(!stage.as_str().is_empty());
                let (a, b) = stage.arg_names();
                assert!(!a.is_empty() && !b.is_empty());
            }
        }
        assert!(TraceStage::from_code(0).is_none());
        assert!(TraceStage::from_code(999).is_none());
    }

    proptest! {
        /// Satellite: concurrent writers never tear events and per-trace
        /// order is preserved. Each writer stamps every event with
        /// `b = a ^ trace`, so any cross-writer field mix is detectable.
        #[test]
        fn concurrent_writers_never_tear_and_order_is_preserved(
            writers in 2usize..5,
            events_per in 1u64..200,
            capacity in 16usize..512,
        ) {
            let rec = std::sync::Arc::new(FlightRecorder::with_capacity(capacity, u64::MAX));
            let traces: Vec<TraceId> = (0..writers).map(|_| rec.mint()).collect();
            let handles: Vec<_> = traces
                .iter()
                .map(|&t| {
                    let rec = std::sync::Arc::clone(&rec);
                    std::thread::spawn(move || {
                        for i in 0..events_per {
                            rec.append(t, TraceStage::Eval, i, i ^ t.0);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("writer panicked");
            }
            for &t in &traces {
                let chain = rec.chain(t);
                // Events may have been overwritten, but every surviving one
                // is whole: the checksum binds (a, b) to this trace.
                for e in &chain {
                    prop_assert_eq!(e.trace, t);
                    prop_assert_eq!(e.b, e.a ^ t.0, "torn event: fields from different writers");
                }
                // Per-trace order: both the ticket order and the payload
                // counter are strictly increasing.
                for w in chain.windows(2) {
                    prop_assert!(w[0].seq < w[1].seq);
                    prop_assert!(w[0].a < w[1].a, "per-trace append order lost");
                    prop_assert!(w[0].at_us <= w[1].at_us, "timestamps not monotone");
                }
            }
        }
    }
}
