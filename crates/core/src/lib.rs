//! # rvaas — Routing-Verification-as-a-Service
//!
//! The verification controller at the heart of the paper: a stand-alone,
//! trusted OpenFlow controller that lets clients verify properties of the
//! routes installed on their behalf even when the provider's management
//! system or control plane is compromised.
//!
//! The controller combines the paper's three mechanisms (Section IV-A):
//!
//! 1. **Configuration monitoring** ([`monitor`]): passive consumption of
//!    flow-monitor / flow-removed notifications over authenticated channels,
//!    plus active polling of switch state at (optionally randomised) times,
//!    maintained in a [`snapshot::NetworkSnapshot`] with a short history to
//!    defeat short-term reconfiguration attacks.
//! 2. **Logical verification** ([`verify`]): Header Space Analysis
//!    reachability over the snapshot, answering isolation, reachability,
//!    geo-location, path-length and neutrality questions. A question is a
//!    [`QuerySpec`](rvaas_client::QuerySpec), and
//!    [`QueryEvaluator::answer`] is the one dispatch that answers it.
//! 3. **In-band testing & client interaction** ([`service`]): interception of
//!    magic-header client queries via Packet-In, active authentication of
//!    candidate endpoints via Packet-Out + signed replies, and signed query
//!    replies back to the client.
//!
//! Attestation of the controller itself (so clients and the provider can
//! check that the *genuine* RVaaS code is answering) is provided by
//! [`attest`] on top of the simulated enclave, and [`federation`] extends
//! queries across multiple providers. The [`incremental`] module keeps a
//! long-lived HSA model in sync with configuration churn by applying
//! rule-level deltas in place and reports the changed header region, from
//! which the traversal memo's carry names the verdicts a delta can affect
//! ([`AffectedQueries`]), so the service plane re-verifies only those.
//!
//! # Example
//!
//! ```
//! use rvaas::{RvaasConfig, RvaasController};
//! use rvaas_crypto::{Keypair, SignatureScheme};
//! use rvaas_topology::generators;
//!
//! let topology = generators::line(3, 1);
//! let keypair = Keypair::generate(SignatureScheme::HmacOracle, 1);
//! let controller = RvaasController::new(RvaasConfig::new(topology), keypair);
//! assert_eq!(controller.stats().queries_answered, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod federation;
pub mod incremental;
pub mod interest;
pub mod memo;
pub mod monitor;
pub mod service;
pub mod snapshot;
pub mod verify;

pub use attest::{AttestedIdentity, RVAAS_IMAGE};
pub use incremental::{query_affected, ChangedRegion, IncrementalModel, RuleChange};
pub use interest::InterestIndex;
pub use memo::{AffectedQueries, Carried, TraversalMemo, VerdictKey};
pub use monitor::{ConfigMonitor, MonitorConfig, MonitorStats, PollStrategy};
pub use service::{RvaasConfig, RvaasController, RvaasStats};
pub use snapshot::{NetworkSnapshot, TableEntries, TableIter};
pub use verify::{LocationMap, LogicalVerifier, QueryEvaluator, QueryFootprint, VerifierConfig};

// The model type `LogicalVerifier::evaluator_with` and `IncrementalModel` trade in, for
// crates that hold one without depending on `rvaas-hsa` themselves.
pub use rvaas_hsa::NetworkFunction;
