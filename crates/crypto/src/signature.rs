//! The signature abstraction used by the rest of the workspace.
//!
//! Two schemes are offered behind one [`Keypair`]/[`PublicKey`] API:
//!
//! * [`SignatureScheme::MerkleWots`] — the real, publicly-verifiable
//!   hash-based scheme from [`crate::merkle`]. Signing is stateful and
//!   capacity-bounded (`2^height` signatures per key).
//! * [`SignatureScheme::HmacOracle`] — an idealised signature used by
//!   large-scale experiments where generating thousands of Merkle keys would
//!   dominate runtime. A signature is `HMAC(secret, msg)` and verification
//!   recomputes it via a process-global registry mapping public key
//!   fingerprints to secrets. This models a perfect signature scheme (no
//!   forgeries, instant verification) — exactly the abstraction level the
//!   RVaaS paper assumes — while keeping the protocol code identical.
//!
//! Which scheme a component uses is a constructor parameter, so tests can
//! exercise both.

use std::collections::HashMap;
use std::fmt;

use std::sync::RwLock;

use crate::hmac::hmac_sha256;
use crate::merkle::{self, MerkleKeypair, MerkleSignature};
use crate::sha256::{digest, digest_parts, Digest};

/// Global registry backing the [`SignatureScheme::HmacOracle`] scheme.
///
/// Maps a public-key fingerprint to the corresponding secret so that
/// `verify` can recompute tags. This mirrors how an idealised PKI oracle is
/// modelled in protocol analyses.
static ORACLE_REGISTRY: RwLock<Option<HashMap<Digest, Vec<u8>>>> = RwLock::new(None);

fn oracle_register(fingerprint: Digest, secret: Vec<u8>) {
    let mut guard = ORACLE_REGISTRY
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard
        .get_or_insert_with(HashMap::new)
        .insert(fingerprint, secret);
}

fn oracle_lookup(fingerprint: &Digest) -> Option<Vec<u8>> {
    ORACLE_REGISTRY
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .as_ref()
        .and_then(|m| m.get(fingerprint).cloned())
}

/// Selects which signature construction a [`Keypair`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SignatureScheme {
    /// Stateful hash-based signatures (WOTS + Merkle tree) of the given tree
    /// height; supports `2^height` signatures and is publicly verifiable.
    MerkleWots {
        /// Merkle tree height (number of signatures = `2^height`).
        height: u32,
    },
    /// Idealised signatures backed by an HMAC oracle registry; unlimited
    /// signatures, used for large simulations.
    #[default]
    HmacOracle,
}

/// A signature under either scheme.
#[derive(Debug, Clone, PartialEq)]
pub enum Signature {
    /// Hash-based signature.
    Merkle(MerkleSignature),
    /// Oracle (HMAC) tag.
    Oracle(Digest),
}

impl Signature {
    /// Approximate size of the signature on the wire, in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        match self {
            Signature::Merkle(sig) => sig.byte_len(),
            Signature::Oracle(_) => 32,
        }
    }
}

/// A verification key. Cheap to copy around and embed in certificates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    scheme_tag: u8,
    fingerprint: Digest,
}

impl PublicKey {
    const TAG_MERKLE: u8 = 1;
    const TAG_ORACLE: u8 = 2;

    /// Verifies `signature` over `message`.
    #[must_use]
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let md = digest(message);
        match (self.scheme_tag, signature) {
            (Self::TAG_MERKLE, Signature::Merkle(sig)) => {
                merkle::verify(&md, sig, &self.fingerprint)
            }
            (Self::TAG_ORACLE, Signature::Oracle(tag)) => match oracle_lookup(&self.fingerprint) {
                Some(secret) => hmac_sha256(&secret, message) == *tag,
                None => false,
            },
            _ => false,
        }
    }

    /// A stable fingerprint identifying the key (the Merkle root, or the
    /// oracle registration digest).
    #[must_use]
    pub fn fingerprint(&self) -> Digest {
        self.fingerprint
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pk:{}", &self.fingerprint.to_hex()[..12])
    }
}

/// A signing key under one of the supported schemes.
#[derive(Debug, Clone)]
pub struct Keypair {
    public: PublicKey,
    inner: KeypairInner,
}

#[derive(Debug, Clone)]
enum KeypairInner {
    Merkle(MerkleKeypair),
    Oracle { secret: Vec<u8> },
}

impl Keypair {
    /// Generates a keypair using `scheme`, deterministically from `seed`.
    ///
    /// Different seeds yield independent keys; the same `(scheme, seed)` pair
    /// yields the same key, which keeps experiments reproducible.
    #[must_use]
    pub fn generate(scheme: SignatureScheme, seed: u64) -> Self {
        let seed_bytes = digest_parts(&[b"rvaas-keypair-seed", &seed.to_be_bytes()]);
        match scheme {
            SignatureScheme::MerkleWots { height } => {
                let kp = MerkleKeypair::generate(seed_bytes.as_bytes(), height);
                let public = PublicKey {
                    scheme_tag: PublicKey::TAG_MERKLE,
                    fingerprint: kp.root(),
                };
                Keypair {
                    public,
                    inner: KeypairInner::Merkle(kp),
                }
            }
            SignatureScheme::HmacOracle => {
                let secret = seed_bytes.as_bytes().to_vec();
                let fingerprint = digest_parts(&[b"rvaas-oracle-pk", &secret]);
                oracle_register(fingerprint, secret.clone());
                Keypair {
                    public: PublicKey {
                        scheme_tag: PublicKey::TAG_ORACLE,
                        fingerprint,
                    },
                    inner: KeypairInner::Oracle { secret },
                }
            }
        }
    }

    /// Returns the verification key.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Signs `message`.
    ///
    /// Returns `None` if the key's signing capacity is exhausted (only
    /// possible for the Merkle scheme).
    pub fn sign(&mut self, message: &[u8]) -> Option<Signature> {
        match &mut self.inner {
            KeypairInner::Merkle(kp) => kp.sign(&digest(message)).map(Signature::Merkle),
            KeypairInner::Oracle { secret } => {
                Some(Signature::Oracle(hmac_sha256(secret, message)))
            }
        }
    }

    /// Remaining signing capacity (`u32::MAX` for the oracle scheme).
    #[must_use]
    pub fn remaining(&self) -> u32 {
        match &self.inner {
            KeypairInner::Merkle(kp) => kp.remaining(),
            KeypairInner::Oracle { .. } => u32::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_sign_verify() {
        let mut kp = Keypair::generate(SignatureScheme::HmacOracle, 7);
        let sig = kp.sign(b"hello").expect("oracle never exhausts");
        assert!(kp.public_key().verify(b"hello", &sig));
        assert!(!kp.public_key().verify(b"hullo", &sig));
        assert_eq!(sig.byte_len(), 32);
        assert_eq!(kp.remaining(), u32::MAX);
    }

    #[test]
    fn merkle_sign_verify() {
        let mut kp = Keypair::generate(SignatureScheme::MerkleWots { height: 2 }, 7);
        let pk = kp.public_key();
        for i in 0..4 {
            let msg = format!("msg {i}");
            let sig = kp.sign(msg.as_bytes()).expect("capacity");
            assert!(pk.verify(msg.as_bytes(), &sig));
        }
        assert_eq!(kp.remaining(), 0);
        assert!(kp.sign(b"too many").is_none());
    }

    #[test]
    fn cross_scheme_verification_fails() {
        let mut oracle = Keypair::generate(SignatureScheme::HmacOracle, 1);
        let mut merkle = Keypair::generate(SignatureScheme::MerkleWots { height: 1 }, 1);
        let oracle_sig = oracle.sign(b"m").expect("sign");
        let merkle_sig = merkle.sign(b"m").expect("sign");
        assert!(!oracle.public_key().verify(b"m", &merkle_sig));
        assert!(!merkle.public_key().verify(b"m", &oracle_sig));
    }

    #[test]
    fn different_keys_do_not_cross_verify() {
        let mut a = Keypair::generate(SignatureScheme::HmacOracle, 10);
        let b = Keypair::generate(SignatureScheme::HmacOracle, 11);
        let sig = a.sign(b"m").expect("sign");
        assert!(!b.public_key().verify(b"m", &sig));
        assert_ne!(a.public_key(), b.public_key());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Keypair::generate(SignatureScheme::HmacOracle, 99);
        let b = Keypair::generate(SignatureScheme::HmacOracle, 99);
        assert_eq!(a.public_key(), b.public_key());
    }

    #[test]
    fn unregistered_oracle_key_rejects() {
        // A PublicKey forged with a random fingerprint has no registry entry.
        let forged = PublicKey {
            scheme_tag: PublicKey::TAG_ORACLE,
            fingerprint: digest(b"not registered"),
        };
        assert!(!forged.verify(b"m", &Signature::Oracle(digest(b"tag"))));
    }

    #[test]
    fn display_is_compact() {
        let kp = Keypair::generate(SignatureScheme::HmacOracle, 5);
        let s = kp.public_key().to_string();
        assert!(s.starts_with("pk:"));
        assert_eq!(s.len(), 3 + 12);
    }
}
