//! HMAC-SHA-256 (RFC 2104).
//!
//! Used for the fast "oracle" signature scheme.

use crate::sha256::{Digest, Sha256};

const BLOCK_SIZE: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the SHA-256 block size are hashed first, as required by
/// RFC 2104.
///
/// # Example
///
/// ```
/// let tag = rvaas_crypto::hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     tag.to_hex(),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut key_block = [0u8; BLOCK_SIZE];
    if key.len() > BLOCK_SIZE {
        let hashed = crate::sha256::digest(key);
        key_block[..32].copy_from_slice(hashed.as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut inner_pad = [0u8; BLOCK_SIZE];
    let mut outer_pad = [0u8; BLOCK_SIZE];
    for i in 0..BLOCK_SIZE {
        inner_pad[i] = key_block[i] ^ IPAD;
        outer_pad[i] = key_block[i] ^ OPAD;
    }

    let mut inner = Sha256::new();
    inner.update(&inner_pad);
    inner.update(message);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&outer_pad);
    outer.update(inner_digest.as_bytes());
    outer.finalize()
}

/// Verifies an HMAC tag in constant-ish time (sufficient for a simulator).
#[must_use]
pub fn hmac_verify(key: &[u8], message: &[u8], tag: &Digest) -> bool {
    let expected = hmac_sha256(key, message);
    let mut diff = 0u8;
    for (a, b) in expected.as_bytes().iter().zip(tag.as_bytes()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 6: key larger than the block size.
    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_valid_rejects_tampered() {
        let tag = hmac_sha256(b"k", b"message");
        assert!(hmac_verify(b"k", b"message", &tag));
        assert!(!hmac_verify(b"k", b"message2", &tag));
        assert!(!hmac_verify(b"k2", b"message", &tag));
    }

    proptest! {
        #[test]
        fn prop_tag_depends_on_key_and_message(
            key in proptest::collection::vec(any::<u8>(), 1..64),
            msg in proptest::collection::vec(any::<u8>(), 0..256),
            flip in 0usize..8,
        ) {
            let tag = hmac_sha256(&key, &msg);
            prop_assert!(hmac_verify(&key, &msg, &tag));
            let mut bad_key = key.clone();
            bad_key[0] ^= 1 << flip;
            prop_assert!(!hmac_verify(&bad_key, &msg, &tag));
        }
    }
}
