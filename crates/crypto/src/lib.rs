//! # rvaas-crypto
//!
//! A self-contained cryptographic substrate for the RVaaS reproduction.
//!
//! The paper assumes client authentication replies that the querying client
//! can verify and an attestable RVaaS server. Both need hashing, MACs and
//! signatures. To keep the workspace free of external cryptography
//! dependencies the primitives are implemented here from scratch:
//!
//! * [`sha256`] — a complete FIPS 180-4 SHA-256 implementation, validated
//!   against the official test vectors.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), validated against RFC 4231 vectors.
//! * [`wots`] + [`merkle`] — a stateful hash-based signature scheme
//!   (Winternitz one-time signatures aggregated under a Merkle tree), i.e. a
//!   simplified XMSS. It is *publicly verifiable* with nothing but hashing.
//! * [`signature`] — the [`Keypair`]/[`PublicKey`] abstraction with two
//!   implementations: the Merkle/WOTS scheme above (real, slower) and a
//!   registry-backed HMAC oracle (fast, used by large-scale experiments;
//!   models an idealised signature).
//!
//! None of this code is intended for production use; it exists so that the
//! protocol logic in the rest of the workspace runs against honest
//! implementations of the primitives it assumes.
//!
//! # Example
//!
//! ```
//! use rvaas_crypto::{sha256, Keypair, SignatureScheme};
//!
//! let digest = sha256::digest(b"hello rvaas");
//! assert_eq!(digest.as_bytes().len(), 32);
//!
//! let mut kp = Keypair::generate(SignatureScheme::MerkleWots { height: 3 }, 42);
//! let sig = kp.sign(b"auth reply").expect("signing capacity left");
//! assert!(kp.public_key().verify(b"auth reply", &sig));
//! assert!(!kp.public_key().verify(b"tampered", &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod signature;
pub mod wots;

pub use hmac::hmac_sha256;
pub use merkle::MerkleKeypair;
pub use sha256::{digest, Digest, Sha256};
pub use signature::{Keypair, PublicKey, Signature, SignatureScheme};
pub use wots::{WotsKeypair, WotsSignature};
