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
//! * a **quote** binds a user-supplied report payload (e.g. the RVaaS public
//!   key) to the measurement, signed by a simulated quoting enclave whose
//!   verification key plays the role of the Intel attestation service,
//! * verifiers accept a quote only if the measurement matches the expected
//!   ("golden") measurement and the signature verifies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rvaas_crypto::{sha256, Digest, Keypair, PublicKey, Signature, SignatureScheme};
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

/// The simulated platform: holds the quoting key. One `Platform` instance
/// corresponds to one physical machine.
#[derive(Debug)]
pub struct Platform {
    quoting_key: Keypair,
}

impl Platform {
    /// Creates a platform whose quoting key is derived deterministically
    /// from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Platform {
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
}
