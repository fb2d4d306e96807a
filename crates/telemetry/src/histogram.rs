//! Log₂-bucketed latency histogram with lock-free recording, mergeable
//! snapshots, and percentile extraction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::trace::TraceId;

/// Number of buckets: one for value 0, then one per power of two up to
/// `u64::MAX`. Bucket `i > 0` covers the half-open range `[2^(i-1), 2^i)`.
pub const BUCKETS: usize = 65;

/// Upper bound (inclusive) of bucket `i`: 0 for bucket 0, `2^i - 1` above.
#[must_use]
pub fn bucket_bound(i: usize) -> u64 {
    debug_assert!(i < BUCKETS);
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Bucket index a value lands in: 0 for 0, otherwise `64 - leading_zeros`.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// A log₂-bucketed distribution of `u64` observations (typically latency in
/// microseconds).
///
/// [`record`](Histogram::record) is a handful of relaxed atomic operations —
/// no locks, no allocation — so it is safe on the per-query hot path.
/// Exact min and max are tracked alongside the buckets so percentile
/// estimates can be clamped to observed values (a single-sample histogram
/// reports that sample exactly at every quantile).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Exemplar: the worst observation recorded with a trace attached, and
    /// the trace it belongs to — a p99 spike links straight back to a
    /// reconstructable flight-recorder chain.
    exemplar_value: AtomicU64,
    exemplar_trace: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplar_value: AtomicU64::new(0),
            exemplar_trace: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("sum", &snap.sum)
            .field("min", &snap.min)
            .field("max", &snap.max)
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation. Lock-free: five relaxed atomic RMWs.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate the running sum the same way Counter does so a scrape
        // never sees it move backwards.
        let prev = self.sum.fetch_add(value, Ordering::Relaxed);
        if prev.checked_add(value).is_none() {
            self.sum.store(u64::MAX, Ordering::Relaxed);
        }
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records one observation and, when it is the worst traced one seen so
    /// far, remembers `trace` as the family's exemplar. The exemplar update
    /// is two relaxed stores on a path taken only for new maxima; a racing
    /// pair of simultaneous maxima may interleave value and trace, which is
    /// acceptable for a diagnostic pointer.
    pub fn record_traced(&self, value: u64, trace: TraceId) {
        self.record(value);
        if !trace.is_none() && value >= self.exemplar_value.load(Ordering::Relaxed) {
            self.exemplar_value.store(value, Ordering::Relaxed);
            self.exemplar_trace.store(trace.0, Ordering::Relaxed);
        }
    }

    /// Records elapsed microseconds since `start` under `trace`.
    pub fn record_since_traced(&self, start: Instant, trace: TraceId) {
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.record_traced(us, trace);
    }

    /// The worst traced observation and its trace, if any was recorded via
    /// [`record_traced`](Histogram::record_traced).
    #[must_use]
    pub fn exemplar(&self) -> Option<(u64, TraceId)> {
        let trace = self.exemplar_trace.load(Ordering::Relaxed);
        if trace == 0 {
            None
        } else {
            Some((self.exemplar_value.load(Ordering::Relaxed), TraceId(trace)))
        }
    }

    /// An RAII timer that records elapsed microseconds into this histogram
    /// when dropped.
    #[must_use]
    pub fn span(&self) -> Span<'_> {
        Span {
            histogram: self,
            start: Instant::now(),
            trace: TraceId::NONE,
        }
    }

    /// Like [`span`](Histogram::span), but the observation is attributed to
    /// `trace` so it can become the histogram's exemplar.
    #[must_use]
    pub fn span_traced(&self, trace: TraceId) -> Span<'_> {
        Span {
            histogram: self,
            start: Instant::now(),
            trace,
        }
    }

    /// A point-in-time copy of the distribution.
    ///
    /// Individual loads are relaxed, so a snapshot taken while writers are
    /// active may be internally off by in-flight observations; totals are
    /// exact once writers quiesce.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state, supporting merge and
/// quantile extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_bound`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (the identity element for [`merge`](Self::merge)).
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot::default()
    }

    /// True when no observations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self`. Counts saturate, so merging is associative
    /// and commutative even at the top of the `u64` range.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean observation, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, estimated from the bucket the
    /// target rank falls in and clamped to the observed `[min, max]` — so an
    /// empty snapshot reports 0 and a single-sample snapshot reports that
    /// sample exactly at every quantile.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based, rounded up (nearest-rank
        // definition); q = 0 degenerates to the first observation.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen: u64 = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// RAII timer: records elapsed microseconds into its histogram on drop.
///
/// Obtained from [`Histogram::span`]; stages of the query lifecycle time
/// through [`Registry::stage_histogram`](crate::Registry::stage_histogram).
#[derive(Debug)]
pub struct Span<'a> {
    histogram: &'a Histogram,
    start: Instant,
    trace: TraceId,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.histogram.record_since_traced(self.start, self.trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..64 {
            let low = 1u64 << (i - 1);
            let high = (1u64 << i) - 1;
            assert_eq!(bucket_index(low), i, "low edge of bucket {i}");
            assert_eq!(bucket_index(high), i, "high edge of bucket {i}");
        }
    }

    #[test]
    fn bucket_bounds_cover_the_domain() {
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
        for i in 1..BUCKETS {
            assert!(bucket_bound(i) > bucket_bound(i - 1));
        }
        for v in [0u64, 1, 2, 3, 100, 1 << 40, u64::MAX] {
            assert!(v <= bucket_bound(bucket_index(v)));
            if bucket_index(v) > 0 {
                assert!(v > bucket_bound(bucket_index(v) - 1));
            }
        }
    }

    #[test]
    fn empty_snapshot_quantiles_are_zero() {
        let snap = Histogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.quantile(0.0), 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let h = Histogram::new();
        h.record(1234);
        let snap = h.snapshot();
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), 1234, "q={q}");
        }
        assert_eq!(snap.min, 1234);
        assert_eq!(snap.max, 1234);
        assert_eq!(snap.sum, 1234);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        for v in [1u64, 5, 10, 50, 100, 500, 1000, 5000, 10_000, 50_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 10);
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = snap.quantile(q);
            assert!(v >= prev, "quantiles must be monotone");
            assert!(v >= snap.min && v <= snap.max);
            prev = v;
        }
        // p50 of ten log-spread samples must land within a bucket of the
        // 5th/6th observation (50 and 100 live in buckets 6 and 7).
        assert!((50..=127).contains(&snap.p50()), "p50 = {}", snap.p50());
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |values: &[u64]| {
            let h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 2, 3]);
        let b = mk(&[100, 200]);
        let c = mk(&[9999]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);

        assert_eq!(ab_c, a_bc, "merge must be associative");
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab_c.count, 6);
        assert_eq!(ab_c.min, 1);
        assert_eq!(ab_c.max, 9999);
    }

    #[test]
    fn merge_identity_is_empty() {
        let h = Histogram::new();
        h.record(7);
        h.record(70);
        let snap = h.snapshot();
        let mut merged = snap.clone();
        merged.merge(&HistogramSnapshot::empty());
        assert_eq!(merged, snap);
        let mut other = HistogramSnapshot::empty();
        other.merge(&snap);
        assert_eq!(other, snap);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = HistogramSnapshot::empty();
        a.count = u64::MAX - 1;
        a.sum = u64::MAX - 1;
        a.buckets[3] = u64::MAX - 1;
        a.min = 4;
        a.max = 7;
        let b = a.clone();
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count, u64::MAX);
        assert_eq!(merged.sum, u64::MAX);
        assert_eq!(merged.buckets[3], u64::MAX);
        // Quantiles on saturated counts must not panic or overflow.
        let q = merged.quantile(0.99);
        assert!(q >= merged.min && q <= merged.max);
    }

    #[test]
    fn span_records_on_drop() {
        let h = Histogram::new();
        {
            let _span = h.span();
        }
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn exemplar_tracks_the_worst_traced_observation() {
        let h = Histogram::new();
        assert_eq!(h.exemplar(), None);
        h.record(9999); // untraced observations never become exemplars
        assert_eq!(h.exemplar(), None);
        h.record_traced(100, TraceId(7));
        h.record_traced(500, TraceId(8));
        h.record_traced(200, TraceId(9));
        assert_eq!(h.exemplar(), Some((500, TraceId(8))));
        assert_eq!(h.snapshot().count, 4);
    }

    #[test]
    fn sum_saturates() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(100);
        let snap = h.snapshot();
        assert_eq!(snap.sum, u64::MAX);
        assert_eq!(snap.count, 2);
    }
}
