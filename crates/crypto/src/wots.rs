//! Winternitz one-time signatures (WOTS).
//!
//! WOTS signs a single 256-bit message digest using nothing but a hash
//! function: the secret key is a list of random chain seeds, the public key
//! is each seed hashed `w-1` times, and a signature reveals each chain
//! advanced by the corresponding message digit. A checksum over the digits
//! prevents forgeries by "advancing" digits. Security holds only if each key
//! signs *one* message — the Merkle aggregation in [`crate::merkle`] turns
//! many one-time keys into a reusable (stateful) keypair.
//!
//! Parameters: Winternitz parameter `w = 16` (4 bits per digit), so a 256-bit
//! digest needs 64 message chains plus 3 checksum chains = 67 chains.

use crate::sha256::{digest_parts, Digest};

/// Number of bits encoded per Winternitz digit.
const LOG_W: usize = 4;
/// The Winternitz parameter (chain length).
const W: usize = 1 << LOG_W;
/// Number of digits covering the 256-bit message digest.
const MSG_CHAINS: usize = 256 / LOG_W; // 64
/// Number of digits for the checksum (max checksum = 64*15 = 960 < 16^3).
const CSUM_CHAINS: usize = 3;
/// Total number of hash chains.
pub const CHAINS: usize = MSG_CHAINS + CSUM_CHAINS; // 67

/// A WOTS private/public keypair for signing exactly one message.
#[derive(Debug, Clone)]
pub struct WotsKeypair {
    secret: Vec<Digest>,
    public: Vec<Digest>,
}

/// A WOTS signature: one partially-advanced chain value per digit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WotsSignature {
    chains: Vec<Digest>,
}

impl WotsSignature {
    /// Serialized size in bytes (67 chains x 32 bytes).
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.chains.len() * 32
    }

    /// The per-digit chain values (used by wire codecs).
    #[must_use]
    pub fn chains(&self) -> &[Digest] {
        &self.chains
    }

    /// Reassembles a signature from chain values (used by wire codecs).
    #[must_use]
    pub fn from_chains(chains: Vec<Digest>) -> Self {
        WotsSignature { chains }
    }
}

fn chain_step(value: &Digest, chain_index: usize, step: usize) -> Digest {
    digest_parts(&[
        b"rvaas-wots-chain",
        &(chain_index as u32).to_be_bytes(),
        &(step as u32).to_be_bytes(),
        value.as_bytes(),
    ])
}

/// Advances `value` through the hash chain from position `from` by `steps`.
fn advance(value: &Digest, chain_index: usize, from: usize, steps: usize) -> Digest {
    let mut current = *value;
    for s in 0..steps {
        current = chain_step(&current, chain_index, from + s);
    }
    current
}

/// Splits a digest into `MSG_CHAINS` base-`W` digits plus checksum digits.
fn digits(message_digest: &Digest) -> Vec<usize> {
    let mut out = Vec::with_capacity(CHAINS);
    for byte in message_digest.as_bytes() {
        out.push((byte >> 4) as usize);
        out.push((byte & 0x0f) as usize);
    }
    debug_assert_eq!(out.len(), MSG_CHAINS);
    // Checksum: sum of (w-1 - digit); encoded little-digit-first in base w.
    let checksum: usize = out.iter().map(|d| (W - 1) - d).sum();
    let mut c = checksum;
    for _ in 0..CSUM_CHAINS {
        out.push(c % W);
        c /= W;
    }
    out
}

impl WotsKeypair {
    /// Derives a keypair deterministically from a seed and a leaf index.
    ///
    /// Determinism lets the Merkle layer regenerate one-time keys on demand
    /// instead of storing them all.
    #[must_use]
    pub fn from_seed(seed: &[u8], leaf_index: u32) -> Self {
        let mut secret = Vec::with_capacity(CHAINS);
        let mut public = Vec::with_capacity(CHAINS);
        for chain in 0..CHAINS {
            let sk = digest_parts(&[
                b"rvaas-wots-sk",
                seed,
                &leaf_index.to_be_bytes(),
                &(chain as u32).to_be_bytes(),
            ]);
            let pk = advance(&sk, chain, 0, W - 1);
            secret.push(sk);
            public.push(pk);
        }
        WotsKeypair { secret, public }
    }

    /// Returns the compressed public key (hash of all chain tops).
    #[must_use]
    pub fn public_digest(&self) -> Digest {
        compress_public(&self.public)
    }

    /// Signs a message digest. Each keypair must sign at most one message.
    #[must_use]
    pub fn sign(&self, message_digest: &Digest) -> WotsSignature {
        let digits = digits(message_digest);
        let chains = digits
            .iter()
            .enumerate()
            .map(|(i, &d)| advance(&self.secret[i], i, 0, d))
            .collect();
        WotsSignature { chains }
    }
}

/// Compresses a list of chain-top values into a single public-key digest.
#[must_use]
pub fn compress_public(tops: &[Digest]) -> Digest {
    let mut parts: Vec<&[u8]> = Vec::with_capacity(tops.len() + 1);
    parts.push(b"rvaas-wots-pk");
    for t in tops {
        parts.push(t.as_bytes());
    }
    digest_parts(&parts)
}

/// Recomputes the public-key digest implied by `signature` over
/// `message_digest`. Verification succeeds if this equals the signer's known
/// public digest.
#[must_use]
pub fn recover_public_digest(message_digest: &Digest, signature: &WotsSignature) -> Option<Digest> {
    if signature.chains.len() != CHAINS {
        return None;
    }
    let digits = digits(message_digest);
    let tops: Vec<Digest> = digits
        .iter()
        .enumerate()
        .map(|(i, &d)| advance(&signature.chains[i], i, d, (W - 1) - d))
        .collect();
    Some(compress_public(&tops))
}

/// Verifies a WOTS signature against a known public-key digest.
#[must_use]
pub fn verify(message_digest: &Digest, signature: &WotsSignature, public_digest: &Digest) -> bool {
    recover_public_digest(message_digest, signature).is_some_and(|d| d == *public_digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::digest;
    use proptest::prelude::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = WotsKeypair::from_seed(b"seed", 0);
        let msg = digest(b"auth reply from client 7");
        let sig = kp.sign(&msg);
        assert!(verify(&msg, &sig, &kp.public_digest()));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = WotsKeypair::from_seed(b"seed", 0);
        let sig = kp.sign(&digest(b"message A"));
        assert!(!verify(&digest(b"message B"), &sig, &kp.public_digest()));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = WotsKeypair::from_seed(b"seed", 0);
        let kp2 = WotsKeypair::from_seed(b"seed", 1);
        let msg = digest(b"message");
        let sig = kp1.sign(&msg);
        assert!(!verify(&msg, &sig, &kp2.public_digest()));
    }

    #[test]
    fn verify_rejects_truncated_signature() {
        let kp = WotsKeypair::from_seed(b"seed", 3);
        let msg = digest(b"m");
        let mut sig = kp.sign(&msg);
        sig.chains.pop();
        assert!(!verify(&msg, &sig, &kp.public_digest()));
        assert_eq!(recover_public_digest(&msg, &sig), None);
    }

    #[test]
    fn keygen_is_deterministic() {
        let a = WotsKeypair::from_seed(b"seed", 5);
        let b = WotsKeypair::from_seed(b"seed", 5);
        assert_eq!(a.public_digest(), b.public_digest());
        let c = WotsKeypair::from_seed(b"other", 5);
        assert_ne!(a.public_digest(), c.public_digest());
    }

    #[test]
    fn signature_size_is_67_chains() {
        let kp = WotsKeypair::from_seed(b"seed", 0);
        let sig = kp.sign(&digest(b"x"));
        assert_eq!(sig.byte_len(), CHAINS * 32);
    }

    #[test]
    fn digits_checksum_is_consistent() {
        // All-zero digest => all digits 0 => checksum = 64*15 = 960 = 0x3C0
        // => base-16 little-endian digits [0, 12, 3].
        let d = digits(&Digest([0u8; 32]));
        assert_eq!(d.len(), CHAINS);
        assert_eq!(&d[MSG_CHAINS..], &[0, 12, 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_sign_verify(seed in any::<[u8; 8]>(), msg in proptest::collection::vec(any::<u8>(), 1..64)) {
            let kp = WotsKeypair::from_seed(&seed, 1);
            let md = digest(&msg);
            let sig = kp.sign(&md);
            prop_assert!(verify(&md, &sig, &kp.public_digest()));
        }

        #[test]
        #[ignore = "slow under miri-less CI but useful locally"]
        fn prop_tampered_signature_rejected(flip_chain in 0usize..CHAINS) {
            let kp = WotsKeypair::from_seed(b"seed", 2);
            let md = digest(b"target");
            let mut sig = kp.sign(&md);
            let mut bytes = *sig.chains[flip_chain].as_bytes();
            bytes[0] ^= 0xff;
            sig.chains[flip_chain] = Digest(bytes);
            prop_assert!(!verify(&md, &sig, &kp.public_digest()));
        }
    }
}
