//! # rvaas-enclave
//!
//! A software simulation of an SGX-like trusted execution environment.
//!
//! The paper notes that while "any secure server is in principle sufficient",
//! the RVaaS architecture "can also benefit from the advent of novel hardware
//! developed in the context of Intel SGX" — the enclave protects the RVaaS
//! code identity and keys from the (compromised) host it runs on, and remote
//! attestation lets both clients and the provider check that the *genuine*
//! RVaaS application is answering queries (paper Section IV-A: "Through
//! attestation, the client can verify that RVaaS is the one that securely
//! responds to its queries. Moreover, the provider makes sure that the
//! correct RVaaS application is operating on the server").
//!
//! Real SGX is hardware-gated; this simulation (a substitution for the
//! hardware the paper, abstract in `PAPER.md`, assumes) reproduces the *interface and failure modes* the protocol
//! logic depends on:
//!
//! * an enclave has a **measurement** (hash of its code identity),
//! * data can be **sealed** to the measurement (only the same enclave can
//!   unseal it),
//! * a **quote** binds a user-supplied report payload (e.g. the RVaaS public
//!   key) to the measurement, signed by a simulated quoting enclave whose
//!   verification key plays the role of the Intel attestation service,
//! * verifiers accept a quote only if the measurement matches the expected
//!   ("golden") measurement and the signature verifies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rvaas_crypto::{
    hmac::derive_key, hmac_sha256, sha256, Digest, Keypair, PublicKey, Signature, SignatureScheme,
};
use rvaas_types::{Error, Result};

/// The measurement (code identity) of an enclave, analogous to MRENCLAVE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement(pub Digest);

impl Measurement {
    /// Computes the measurement of an enclave image (its "code").
    #[must_use]
    pub fn of_image(image: &[u8]) -> Self {
        Measurement(sha256::digest_parts(&[b"rvaas-enclave-measurement", image]))
    }
}

/// A sealed blob: data encrypted-and-authenticated under a key derived from
/// the platform secret and the sealing enclave's measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    ciphertext: Vec<u8>,
    tag: Digest,
    measurement: Measurement,
}

/// An attestation quote: a report payload bound to an enclave measurement and
/// signed by the platform's quoting key.
#[derive(Debug, Clone, PartialEq)]
pub struct Quote {
    /// Measurement of the quoted enclave.
    pub measurement: Measurement,
    /// Caller-supplied report data (typically a key fingerprint or nonce).
    pub report_data: Vec<u8>,
    /// Signature by the quoting enclave.
    pub signature: Signature,
}

/// The simulated platform: holds the platform sealing secret and the quoting
/// key. One `Platform` instance corresponds to one physical machine.
#[derive(Debug)]
pub struct Platform {
    sealing_secret: Digest,
    quoting_key: Keypair,
}

impl Platform {
    /// Creates a platform with secrets derived deterministically from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Platform {
            sealing_secret: sha256::digest_parts(&[b"rvaas-platform-secret", &seed.to_be_bytes()]),
            quoting_key: Keypair::generate(SignatureScheme::HmacOracle, seed ^ 0x51_6e_c1_a0),
        }
    }

    /// The verification key of the platform's quoting enclave. Plays the role
    /// of the attestation service's public key that verifiers trust.
    #[must_use]
    pub fn quoting_public_key(&self) -> PublicKey {
        self.quoting_key.public_key()
    }

    /// Loads an enclave from its image, returning a running [`Enclave`].
    #[must_use]
    pub fn load_enclave(&self, image: &[u8]) -> Enclave<'_> {
        Enclave {
            platform: self,
            measurement: Measurement::of_image(image),
        }
    }

    fn sealing_key_for(&self, measurement: Measurement) -> Digest {
        let label = format!("seal:{}", measurement.0.to_hex());
        derive_key(self.sealing_secret.as_bytes(), &label)
    }

    /// Produces a quote for an enclave running on this platform. Only callable
    /// through [`Enclave::quote`], which guarantees the measurement is real.
    fn issue_quote(&self, measurement: Measurement, report_data: &[u8]) -> Quote {
        let mut body = Vec::new();
        body.extend_from_slice(b"rvaas-quote");
        body.extend_from_slice(measurement.0.as_bytes());
        body.extend_from_slice(report_data);
        // The oracle scheme never exhausts, so cloning the keypair for a
        // one-off signature is fine.
        let mut signer = self.quoting_key.clone();
        let signature = signer.sign(&body).expect("oracle signing never exhausts");
        Quote {
            measurement,
            report_data: report_data.to_vec(),
            signature,
        }
    }
}

/// A running enclave instance on a [`Platform`].
#[derive(Debug)]
pub struct Enclave<'p> {
    platform: &'p Platform,
    measurement: Measurement,
}

impl Enclave<'_> {
    /// The enclave's measurement.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Seals `data` so that only an enclave with the same measurement on the
    /// same platform can recover it.
    #[must_use]
    pub fn seal(&self, data: &[u8]) -> SealedBlob {
        let key = self.platform.sealing_key_for(self.measurement);
        // "Encryption" by XOR with a keystream derived from the key; the
        // point of the simulation is the access-control semantics, not IND-CPA.
        let ciphertext = xor_keystream(key.as_bytes(), data);
        let tag = hmac_sha256(key.as_bytes(), &ciphertext);
        SealedBlob {
            ciphertext,
            tag,
            measurement: self.measurement,
        }
    }

    /// Unseals a blob sealed by an enclave with the same measurement.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AuthenticationFailed`] if the blob was sealed by a
    /// different enclave identity or has been tampered with.
    pub fn unseal(&self, blob: &SealedBlob) -> Result<Vec<u8>> {
        if blob.measurement != self.measurement {
            return Err(Error::AuthenticationFailed(
                "sealed blob belongs to a different enclave measurement".to_string(),
            ));
        }
        let key = self.platform.sealing_key_for(self.measurement);
        let expected_tag = hmac_sha256(key.as_bytes(), &blob.ciphertext);
        if expected_tag != blob.tag {
            return Err(Error::AuthenticationFailed(
                "sealed blob failed integrity check".to_string(),
            ));
        }
        Ok(xor_keystream(key.as_bytes(), &blob.ciphertext))
    }

    /// Produces an attestation quote binding `report_data` to this enclave's
    /// measurement.
    #[must_use]
    pub fn quote(&self, report_data: &[u8]) -> Quote {
        self.platform.issue_quote(self.measurement, report_data)
    }
}

/// Verifies a quote against the platform quoting key and the expected
/// ("golden") enclave measurement.
///
/// # Errors
///
/// Returns [`Error::AttestationFailed`] describing which check failed.
pub fn verify_quote(
    quote: &Quote,
    quoting_key: &PublicKey,
    expected_measurement: Measurement,
) -> Result<()> {
    let mut body = Vec::new();
    body.extend_from_slice(b"rvaas-quote");
    body.extend_from_slice(quote.measurement.0.as_bytes());
    body.extend_from_slice(&quote.report_data);
    if !quoting_key.verify(&body, &quote.signature) {
        return Err(Error::AttestationFailed(
            "quote signature invalid".to_string(),
        ));
    }
    if quote.measurement != expected_measurement {
        return Err(Error::AttestationFailed(format!(
            "measurement mismatch: expected {}, got {}",
            expected_measurement.0, quote.measurement.0
        )));
    }
    Ok(())
}

fn xor_keystream(key: &[u8], data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut counter = 0u64;
    let mut block = hmac_sha256(key, &counter.to_be_bytes());
    for (i, byte) in data.iter().enumerate() {
        let offset = i % 32;
        if i > 0 && offset == 0 {
            counter += 1;
            block = hmac_sha256(key, &counter.to_be_bytes());
        }
        out.push(byte ^ block.as_bytes()[offset]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const RVAAS_IMAGE: &[u8] = b"rvaas-controller-v1.0 code image";
    const TAMPERED_IMAGE: &[u8] = b"rvaas-controller-v1.0 code image with a backdoor";

    #[test]
    fn measurement_is_deterministic_and_image_sensitive() {
        assert_eq!(
            Measurement::of_image(RVAAS_IMAGE),
            Measurement::of_image(RVAAS_IMAGE)
        );
        assert_ne!(
            Measurement::of_image(RVAAS_IMAGE),
            Measurement::of_image(TAMPERED_IMAGE)
        );
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let platform = Platform::new(1);
        let enclave = platform.load_enclave(RVAAS_IMAGE);
        let blob = enclave.seal(b"rvaas signing key material");
        assert_eq!(
            enclave.unseal(&blob).unwrap(),
            b"rvaas signing key material"
        );
        // Long payloads cross the 32-byte keystream block boundary.
        let long = vec![0xabu8; 100];
        assert_eq!(enclave.unseal(&enclave.seal(&long)).unwrap(), long);
    }

    #[test]
    fn unseal_fails_for_different_measurement() {
        let platform = Platform::new(1);
        let enclave = platform.load_enclave(RVAAS_IMAGE);
        let imposter = platform.load_enclave(TAMPERED_IMAGE);
        let blob = enclave.seal(b"secret");
        assert!(matches!(
            imposter.unseal(&blob),
            Err(Error::AuthenticationFailed(_))
        ));
    }

    #[test]
    fn unseal_fails_on_tampered_ciphertext() {
        let platform = Platform::new(1);
        let enclave = platform.load_enclave(RVAAS_IMAGE);
        let mut blob = enclave.seal(b"secret");
        blob.ciphertext[0] ^= 0xff;
        assert!(enclave.unseal(&blob).is_err());
    }

    #[test]
    fn quote_verifies_for_genuine_enclave() {
        let platform = Platform::new(2);
        let enclave = platform.load_enclave(RVAAS_IMAGE);
        let quote = enclave.quote(b"rvaas public key fingerprint");
        let golden = Measurement::of_image(RVAAS_IMAGE);
        assert!(verify_quote(&quote, &platform.quoting_public_key(), golden).is_ok());
    }

    #[test]
    fn quote_rejected_for_tampered_image() {
        // The provider (or an attacker) swaps in a backdoored RVaaS image;
        // clients comparing against the golden measurement detect it.
        let platform = Platform::new(2);
        let evil = platform.load_enclave(TAMPERED_IMAGE);
        let quote = evil.quote(b"fake key");
        let golden = Measurement::of_image(RVAAS_IMAGE);
        let err = verify_quote(&quote, &platform.quoting_public_key(), golden).unwrap_err();
        assert!(matches!(err, Error::AttestationFailed(_)));
    }

    #[test]
    fn quote_rejected_when_report_data_or_signer_forged() {
        let platform = Platform::new(2);
        let other_platform = Platform::new(3);
        let enclave = platform.load_enclave(RVAAS_IMAGE);
        let golden = Measurement::of_image(RVAAS_IMAGE);
        // Report data altered after quoting.
        let mut quote = enclave.quote(b"original");
        quote.report_data = b"altered".to_vec();
        assert!(verify_quote(&quote, &platform.quoting_public_key(), golden).is_err());
        // Quote "signed" by a different platform's quoting key.
        let quote = enclave.quote(b"original");
        assert!(verify_quote(&quote, &other_platform.quoting_public_key(), golden).is_err());
    }

    #[test]
    fn sealing_is_platform_specific() {
        let platform_a = Platform::new(1);
        let platform_b = Platform::new(2);
        let blob = platform_a.load_enclave(RVAAS_IMAGE).seal(b"secret");
        // Same code, different platform: cannot unseal (integrity check fails
        // because the derived key differs).
        assert!(platform_b.load_enclave(RVAAS_IMAGE).unseal(&blob).is_err());
    }
}
