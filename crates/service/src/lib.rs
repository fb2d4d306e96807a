//! # rvaas-service — the standalone verification service plane
//!
//! The simulated in-band controller answers each client query from scratch
//! with the paper's [`rvaas::LogicalVerifier`]. This crate turns
//! verification into a *service* — the one the `rvaas` daemon fronts —
//! started by [`VerificationService::new`] from the trusted topology and
//! the one setting it reads, whether the result cache is on; every verdict
//! equals the from-scratch verifier's under the same configuration:
//!
//! * [`epoch`] — the monitor's [`rvaas::NetworkSnapshot`] is frozen into
//!   immutable, serially numbered [`epoch::SnapshotEpoch`]s and swapped
//!   atomically; readers never block the publisher, and monitor churn keeps
//!   publishing while queries run against the previous epoch. The store
//!   owns the one [`rvaas::IncrementalModel`], advances it in place per
//!   epoch (`O(delta)` instead of an `O(network)` rebuild) and freezes its
//!   network function into the epoch, beside the [`rvaas::TraversalMemo`]
//!   a publish carries on from the predecessor's.
//! * [`digest`] — rule identity as sync ships it: each epoch's
//!   [`DigestSet`] and the net digests of its change list.
//! * [`pool`] — a [`pool::VerificationService`] answers a query on the
//!   thread that carries it: the caller's batch goes through one
//!   [`rvaas::QueryEvaluator`] over the epoch's frozen network function and
//!   the epoch's traversal memo — the service owns no thread, no queue, no
//!   model and no traversal — and the `(client, query)` result cache carries
//!   entries a delta provably cannot affect across epoch advances.
//! * [`sync`] — an RTR-style session/serial delta protocol: clients mirror
//!   the published digest set and receive only what changed since their
//!   serial, plus re-verified standing queries — only those reading a
//!   verdict key the delta's memo carry found altered — falling back to a
//!   full reset when the delta history has been evicted.
//! * [`error`] — the unified [`error::ServiceError`]. Every operation has
//!   exactly one form and it is fallible: callers propagate with `?` or
//!   state with `expect` why the failure cannot happen to them.
//!
//! ```
//! use rvaas::NetworkSnapshot;
//! use rvaas_client::QuerySpec;
//! use rvaas_service::{ServiceError, VerificationService};
//! use rvaas_topology::generators;
//! use rvaas_types::{ClientId, SimTime};
//!
//! # fn main() -> Result<(), ServiceError> {
//! let service = VerificationService::new(generators::line(4, 2), true);
//! let serial = service.try_publish(&NetworkSnapshot::default(), SimTime::ZERO)?;
//! let response = service.try_query(ClientId(1), QuerySpec::Isolation)?;
//! assert_eq!(response.epoch_serial, serial);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod digest;
pub mod epoch;
pub mod error;
pub mod pool;
pub mod sync;

pub use cache::{CacheStats, ResultCache};
pub use digest::{content_digest_of, digest_entry, digest_snapshot, DigestSet};
pub use epoch::{
    EpochDelta, EpochProvenance, EpochStore, Published, SnapshotEpoch, MAX_DELTA_HISTORY,
};
pub use error::ServiceError;
pub use pool::{QueryResponse, ServiceStats, VerificationService};
pub use sync::{ReverifyStats, SyncServer};
