//! The scalar metric types: [`Counter`] and [`Gauge`].

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
///
/// `inc`/`add` are single relaxed atomic read-modify-writes — no locks, no
/// allocation — so counters are safe to bump on the hottest paths. Values
/// saturate at `u64::MAX` instead of wrapping, so a scrape can never observe
/// a counter going backwards.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating at `u64::MAX`).
    pub fn add(&self, n: u64) {
        // A plain fetch_add would wrap at the top of the range; saturate
        // instead so the monotonicity contract survives even absurd totals.
        let prev = self.value.fetch_add(n, Ordering::Relaxed);
        if prev.checked_add(n).is_none() {
            self.value.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (connections being served, epoch serial, thread count).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.sub(1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_counts_and_saturates() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.add(u64::MAX - 10);
        assert_eq!(c.get(), u64::MAX, "must saturate, not wrap");
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(g.get(), -7);
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn counter_is_consistent_under_contention() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }
}
