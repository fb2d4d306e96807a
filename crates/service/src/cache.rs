//! The `(epoch serial, client, query)` result cache with per-affected-query
//! invalidation.
//!
//! The first service-plane revision dropped whole cache generations on every
//! epoch advance, which collapsed the hit rate under any churn even when a
//! delta could not possibly have changed most answers. The cache now keys
//! entries by `(client, query)` with a per-entry validity serial: on epoch
//! advance ([`ResultCache::advance`]) the publisher passes the
//! affected-query predicate derived from the delta's changed header region,
//! unaffected entries are *carried forward* to the new serial (their answer
//! is provably unchanged — see `rvaas::incremental`), and only the affected
//! ones are invalidated.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rvaas_client::{QueryResult, QuerySpec};
use rvaas_telemetry::{Counter, Registry};
use rvaas_types::ClientId;

/// A point-in-time copy of the cache counters — a thin snapshot view over
/// the shared metric registry (`rvaas_cache_*_total`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache hits so far.
    pub hits: u64,
    /// Cache misses so far.
    pub misses: u64,
    /// Entries carried forward across epoch advances (still valid because
    /// the delta could not affect them).
    pub carried: u64,
    /// Entries invalidated by epoch advances.
    pub invalidated: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when nothing was looked up.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits as f64;
        let total = hits + self.misses as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }
}

/// Entries keyed by `(client, query)`, each valid for exactly one serial.
#[derive(Debug, Default)]
struct CacheState {
    /// The latest serial the cache has been advanced to.
    serial: u64,
    entries: HashMap<(ClientId, QuerySpec), (u64, QueryResult)>,
}

/// The shared query-result cache.
#[derive(Debug)]
pub struct ResultCache {
    state: Mutex<CacheState>,
    enabled: bool,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    carried: Arc<Counter>,
    invalidated: Arc<Counter>,
}

impl ResultCache {
    /// [`ResultCache::with_registry`] over a private registry.
    // Survives only because `benchmark/` calls it; drop at the next re-baseline.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        ResultCache::with_registry(enabled, &Registry::new())
    }

    /// An empty cache whose counters live in `registry` (under
    /// `rvaas_cache_hits_total` / `_misses_` / `_carried_` / `_invalidated_`);
    /// `enabled = false` turns every lookup into a miss (used by benchmarks
    /// isolating raw verification throughput).
    #[must_use]
    pub fn with_registry(enabled: bool, registry: &Registry) -> Self {
        ResultCache {
            state: Mutex::new(CacheState::default()),
            enabled,
            hits: registry.counter("rvaas_cache_hits_total", "Result-cache hits."),
            misses: registry.counter("rvaas_cache_misses_total", "Result-cache misses."),
            carried: registry.counter(
                "rvaas_cache_carried_total",
                "Cache entries carried across epoch advances (provably unaffected by the delta).",
            ),
            invalidated: registry.counter(
                "rvaas_cache_invalidated_total",
                "Cache entries invalidated by epoch advances.",
            ),
        }
    }

    /// Looks up a result valid at `serial` for `(client, spec)`.
    #[must_use]
    pub fn get(&self, serial: u64, client: ClientId, spec: &QuerySpec) -> Option<QueryResult> {
        if !self.enabled {
            self.misses.inc();
            return None;
        }
        let guard = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let result = guard
            .entries
            .get(&(client, spec.clone()))
            .filter(|(valid_at, _)| *valid_at == serial)
            .map(|(_, result)| result.clone());
        drop(guard);
        if result.is_some() {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        result
    }

    /// Stores a result computed at `serial`. Results older than the cache's
    /// current generation (computed by a query that raced a publish) are
    /// discarded rather than clobbering a fresher entry.
    pub fn put(&self, serial: u64, client: ClientId, spec: QuerySpec, result: QueryResult) {
        if !self.enabled {
            return;
        }
        let mut guard = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if serial < guard.serial {
            return;
        }
        let entry = guard
            .entries
            .entry((client, spec))
            .or_insert((0, result.clone()));
        if serial >= entry.0 {
            *entry = (serial, result);
        }
    }

    /// Advances the cache to `to_serial`. Entries valid at the *direct
    /// predecessor* epoch (`to_serial - 1`) for which `affected` returns
    /// `false` stay valid and are re-stamped to the new serial; everything
    /// else is dropped. A predicate that is always `true` is the
    /// generation-wide invalidation (an unbounded changed region).
    ///
    /// Requiring the direct predecessor (rather than whatever the cache was
    /// last advanced to) keeps concurrent publishers sound: `affected` is
    /// derived from one epoch's delta, so an entry may only ride across
    /// exactly that epoch boundary. If a racing publisher advanced the cache
    /// out of order, entries from skipped epochs are dropped instead of
    /// being carried past a delta that was never checked against them.
    ///
    /// Returns the `(carried, invalidated)` entry counts of this call —
    /// `(0, 0)` when the cache is disabled or `to_serial` is not ahead of it.
    pub fn advance(
        &self,
        to_serial: u64,
        affected: impl Fn(ClientId, &QuerySpec) -> bool,
    ) -> (u64, u64) {
        if !self.enabled {
            return (0, 0);
        }
        let mut guard = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if to_serial <= guard.serial {
            return (0, 0);
        }
        guard.serial = to_serial;
        let mut carried = 0u64;
        let mut invalidated = 0u64;
        guard.entries.retain(|(client, spec), entry| {
            if entry.0 >= to_serial {
                // A query already answered against the new epoch.
                return true;
            }
            if entry.0 + 1 == to_serial && !affected(*client, spec) {
                entry.0 = to_serial;
                carried += 1;
                true
            } else {
                invalidated += 1;
                false
            }
        });
        drop(guard);
        self.carried.add(carried);
        self.invalidated.add(invalidated);
        (carried, invalidated)
    }

    /// A point-in-time copy of the hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            carried: self.carried.get(),
            invalidated: self.invalidated.get(),
        }
    }

    /// Number of live entries (test/diagnostic aid).
    #[must_use]
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entries
            .len()
    }

    /// True when the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(n: u32) -> QueryResult {
        QueryResult::PathLength {
            min_hops: n,
            max_hops: n,
            reachable: true,
        }
    }

    #[test]
    fn hit_after_put_at_same_serial() {
        let cache = ResultCache::with_registry(true, &Registry::new());
        assert!(cache.get(1, ClientId(1), &QuerySpec::Isolation).is_none());
        cache.put(1, ClientId(1), QuerySpec::Isolation, result(3));
        assert_eq!(
            cache.get(1, ClientId(1), &QuerySpec::Isolation),
            Some(result(3))
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn advance_invalidates_affected_and_carries_the_rest() {
        let cache = ResultCache::with_registry(true, &Registry::new());
        cache.advance(1, |_, _| true);
        cache.put(1, ClientId(1), QuerySpec::Isolation, result(3));
        cache.put(1, ClientId(2), QuerySpec::GeoLocation, result(4));
        // Only client 1 is affected by the (synthetic) delta. The call
        // reports what it did: one carried, one invalidated.
        assert_eq!(cache.advance(2, |client, _| client == ClientId(1)), (1, 1));
        assert!(
            cache.get(2, ClientId(1), &QuerySpec::Isolation).is_none(),
            "affected entry must be recomputed"
        );
        assert_eq!(
            cache.get(2, ClientId(2), &QuerySpec::GeoLocation),
            Some(result(4)),
            "unaffected entry rides along to the new serial"
        );
        assert!(
            cache.get(1, ClientId(2), &QuerySpec::GeoLocation).is_none(),
            "the carried entry answers for the new serial, not the old one"
        );
        assert_eq!(cache.stats().carried, 1);
        assert_eq!(cache.stats().invalidated, 1);
        assert_eq!(cache.len(), 1);
        // A serial the cache is already at, or past, moves nothing and
        // counts nothing, whatever the predicate says.
        for serial in [1, 2] {
            assert_eq!(cache.advance(serial, |_, _| true), (0, 0));
        }
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn generation_wide_invalidation_with_always_affected() {
        let cache = ResultCache::with_registry(true, &Registry::new());
        cache.advance(1, |_, _| true);
        cache.put(1, ClientId(1), QuerySpec::Isolation, result(3));
        assert_eq!(cache.advance(2, |_, _| true), (0, 1));
        assert!(cache.get(2, ClientId(1), &QuerySpec::Isolation).is_none());
        assert!(cache.is_empty());
        // A straggler result from the evicted epoch is discarded.
        cache.put(1, ClientId(3), QuerySpec::Neutrality, result(5));
        assert!(cache.get(1, ClientId(3), &QuerySpec::Neutrality).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn racing_put_at_new_serial_survives_advance() {
        let cache = ResultCache::with_registry(true, &Registry::new());
        cache.advance(1, |_, _| true);
        // A query that grabbed epoch 2 before the publisher advanced the
        // cache writes first...
        cache.put(2, ClientId(1), QuerySpec::Isolation, result(9));
        cache.advance(2, |_, _| true);
        // ...and its (current-epoch) result must not be dropped.
        assert_eq!(
            cache.get(2, ClientId(1), &QuerySpec::Isolation),
            Some(result(9))
        );
    }

    #[test]
    fn disabled_cache_never_hits() {
        let cache = ResultCache::with_registry(false, &Registry::new());
        cache.put(1, ClientId(1), QuerySpec::Isolation, result(3));
        assert!(cache.get(1, ClientId(1), &QuerySpec::Isolation).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.advance(2, |_, _| false), (0, 0));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.carried, stats.invalidated), (0, 0, 0));
    }
}
