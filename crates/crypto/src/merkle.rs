//! Merkle aggregation of WOTS one-time keys (a simplified, stateful XMSS).
//!
//! A [`MerkleKeypair`] of height `h` contains `2^h` WOTS one-time keypairs;
//! the long-term public key is the root of a Merkle tree over their
//! compressed public digests. Each signature reveals a WOTS signature, the
//! leaf index used, and the authentication path from that leaf to the root.
//! The signer is *stateful*: it must never reuse a leaf, and refuses to sign
//! once all leaves are spent.

use crate::sha256::{digest_parts, Digest};
use crate::wots::{self, WotsKeypair, WotsSignature};

/// Hashes two sibling nodes into their parent.
fn node_hash(left: &Digest, right: &Digest) -> Digest {
    digest_parts(&[b"rvaas-merkle-node", left.as_bytes(), right.as_bytes()])
}

/// A signature produced by a [`MerkleKeypair`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleSignature {
    /// Index of the one-time key used.
    pub leaf_index: u32,
    /// The underlying one-time signature.
    pub wots: WotsSignature,
    /// Sibling digests from the leaf to the root (bottom-up).
    pub auth_path: Vec<Digest>,
}

impl MerkleSignature {
    /// Approximate wire size of the signature in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        4 + self.wots.byte_len() + self.auth_path.len() * 32
    }
}

/// A stateful hash-based signing key aggregating `2^height` one-time keys.
#[derive(Debug, Clone)]
pub struct MerkleKeypair {
    seed: Vec<u8>,
    height: u32,
    /// All tree nodes, level by level: `levels[0]` are the leaves.
    levels: Vec<Vec<Digest>>,
    next_leaf: u32,
}

impl MerkleKeypair {
    /// Generates a keypair of the given tree `height` from `seed`.
    ///
    /// The keypair can produce `2^height` signatures. Key generation cost is
    /// `O(2^height)` WOTS key generations, so heights above ~10 are slow.
    #[must_use]
    pub fn generate(seed: &[u8], height: u32) -> Self {
        let leaves_count = 1usize << height;
        let leaves: Vec<Digest> = (0..leaves_count)
            .map(|i| WotsKeypair::from_seed(seed, i as u32).public_digest())
            .collect();
        let mut levels = vec![leaves];
        while levels.last().expect("at least one level").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let next: Vec<Digest> = prev
                .chunks(2)
                .map(|pair| node_hash(&pair[0], &pair[1]))
                .collect();
            levels.push(next);
        }
        MerkleKeypair {
            seed: seed.to_vec(),
            height,
            levels,
            next_leaf: 0,
        }
    }

    /// The long-term public key (Merkle root).
    #[must_use]
    pub fn root(&self) -> Digest {
        self.levels.last().expect("root level")[0]
    }

    /// Number of signatures still available.
    #[must_use]
    pub fn remaining(&self) -> u32 {
        (1u32 << self.height) - self.next_leaf
    }

    /// Signs a message digest, consuming one leaf. Returns `None` when the
    /// key is exhausted.
    pub fn sign(&mut self, message_digest: &Digest) -> Option<MerkleSignature> {
        if self.remaining() == 0 {
            return None;
        }
        let leaf = self.next_leaf;
        self.next_leaf += 1;

        let one_time = WotsKeypair::from_seed(&self.seed, leaf);
        let wots_sig = one_time.sign(message_digest);

        let mut auth_path = Vec::with_capacity(self.height as usize);
        let mut index = leaf as usize;
        for level in 0..self.height as usize {
            let sibling = index ^ 1;
            auth_path.push(self.levels[level][sibling]);
            index /= 2;
        }

        Some(MerkleSignature {
            leaf_index: leaf,
            wots: wots_sig,
            auth_path,
        })
    }
}

/// Verifies a Merkle/WOTS signature against the long-term `root` public key.
#[must_use]
pub fn verify(message_digest: &Digest, signature: &MerkleSignature, root: &Digest) -> bool {
    let Some(leaf_digest) = wots::recover_public_digest(message_digest, &signature.wots) else {
        return false;
    };
    let mut node = leaf_digest;
    let mut index = signature.leaf_index as usize;
    for sibling in &signature.auth_path {
        node = if index.is_multiple_of(2) {
            node_hash(&node, sibling)
        } else {
            node_hash(sibling, &node)
        };
        index /= 2;
    }
    node == *root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::digest;

    #[test]
    fn sign_verify_multiple_messages() {
        let mut kp = MerkleKeypair::generate(b"merkle-seed", 3);
        let root = kp.root();
        assert_eq!(kp.remaining(), 8);
        for i in 0..8u32 {
            let msg = digest(format!("message {i}").as_bytes());
            let sig = kp.sign(&msg).expect("capacity");
            assert_eq!(sig.leaf_index, i);
            assert!(verify(&msg, &sig, &root), "signature {i} must verify");
        }
        assert_eq!(kp.remaining(), 0);
        assert!(
            kp.sign(&digest(b"extra")).is_none(),
            "exhausted key refuses"
        );
    }

    #[test]
    fn verify_rejects_wrong_message_and_root() {
        let mut kp = MerkleKeypair::generate(b"merkle-seed", 2);
        let other = MerkleKeypair::generate(b"other-seed", 2);
        let msg = digest(b"hello");
        let sig = kp.sign(&msg).expect("capacity");
        assert!(!verify(&digest(b"bye"), &sig, &kp.root()));
        assert!(!verify(&msg, &sig, &other.root()));
    }

    #[test]
    fn verify_rejects_wrong_leaf_index() {
        let mut kp = MerkleKeypair::generate(b"merkle-seed", 2);
        let msg = digest(b"hello");
        let mut sig = kp.sign(&msg).expect("capacity");
        sig.leaf_index = 2;
        assert!(!verify(&msg, &sig, &kp.root()));
    }

    #[test]
    fn auth_path_length_equals_height() {
        let mut kp = MerkleKeypair::generate(b"seed", 4);
        let sig = kp.sign(&digest(b"m")).expect("capacity");
        assert_eq!(sig.auth_path.len(), 4);
        assert!(sig.byte_len() > 67 * 32);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = MerkleKeypair::generate(b"same", 3);
        let b = MerkleKeypair::generate(b"same", 3);
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn height_zero_single_signature() {
        let mut kp = MerkleKeypair::generate(b"tiny", 0);
        let msg = digest(b"only one");
        let sig = kp.sign(&msg).expect("one signature available");
        assert!(verify(&msg, &sig, &kp.root()));
        assert!(kp.sign(&msg).is_none());
    }
}
