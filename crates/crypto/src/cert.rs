//! Minimal certificates and a certification authority.
//!
//! The paper assumes (a) switches present "a-priori configured switch
//! certificates" when the RVaaS controller opens its encrypted OpenFlow
//! sessions, and (b) clients know the RVaaS public key. Both are modelled
//! with the same primitive: a [`Certificate`] binds a subject name to a
//! verification key and is signed by a [`CertificateAuthority`] whose public
//! key is distributed out of band (e.g. installed in switches at deployment
//! time and in client agents at enrolment time).

use crate::signature::{Keypair, PublicKey, Signature, SignatureScheme};

/// Role of the certified subject; verifiers check the role to prevent, e.g.,
/// a client certificate being replayed as a switch certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubjectRole {
    /// A data-plane switch.
    Switch,
    /// A client agent / host.
    Client,
    /// The RVaaS verification controller itself.
    RvaasController,
    /// The provider's (untrusted) management controller.
    ProviderController,
}

/// A certificate binding `subject` (with a role) to a verification key.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Human-readable subject name, e.g. `"switch-s3"`.
    pub subject: String,
    /// Role of the subject.
    pub role: SubjectRole,
    /// The subject's verification key.
    pub public_key: PublicKey,
    /// Serial number assigned by the CA.
    pub serial: u64,
    /// CA signature over the canonical encoding of the fields above.
    pub signature: Signature,
}

impl Certificate {
    /// Canonical byte encoding that the CA signs.
    #[must_use]
    pub fn to_signed_bytes(
        subject: &str,
        role: SubjectRole,
        public_key: &PublicKey,
        serial: u64,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"rvaas-cert-v1");
        out.extend_from_slice(&(subject.len() as u32).to_be_bytes());
        out.extend_from_slice(subject.as_bytes());
        out.push(match role {
            SubjectRole::Switch => 1,
            SubjectRole::Client => 2,
            SubjectRole::RvaasController => 3,
            SubjectRole::ProviderController => 4,
        });
        out.extend_from_slice(public_key.fingerprint().as_bytes());
        out.extend_from_slice(&serial.to_be_bytes());
        out
    }

    /// Verifies the certificate against the CA's public key.
    #[must_use]
    pub fn verify(&self, ca_key: &PublicKey) -> bool {
        let bytes = Self::to_signed_bytes(&self.subject, self.role, &self.public_key, self.serial);
        ca_key.verify(&bytes, &self.signature)
    }
}

/// A certification authority issuing [`Certificate`]s.
#[derive(Debug)]
pub struct CertificateAuthority {
    keypair: Keypair,
    next_serial: u64,
}

impl CertificateAuthority {
    /// Creates a CA with a fresh key derived from `seed`.
    #[must_use]
    pub fn new(scheme: SignatureScheme, seed: u64) -> Self {
        CertificateAuthority {
            keypair: Keypair::generate(scheme, seed ^ 0xCA_CA_CA),
            next_serial: 1,
        }
    }

    /// The CA verification key that relying parties must trust.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.keypair.public_key()
    }

    /// Issues a certificate for `subject` with the given role and key.
    ///
    /// Returns `None` if the CA key's signing capacity is exhausted.
    pub fn issue(
        &mut self,
        subject: impl Into<String>,
        role: SubjectRole,
        public_key: PublicKey,
    ) -> Option<Certificate> {
        let subject = subject.into();
        let serial = self.next_serial;
        let bytes = Certificate::to_signed_bytes(&subject, role, &public_key, serial);
        let signature = self.keypair.sign(&bytes)?;
        self.next_serial += 1;
        Some(Certificate {
            subject,
            role,
            public_key,
            serial,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CertificateAuthority, Keypair) {
        let ca = CertificateAuthority::new(SignatureScheme::HmacOracle, 1);
        let subject_kp = Keypair::generate(SignatureScheme::HmacOracle, 2);
        (ca, subject_kp)
    }

    #[test]
    fn issued_certificate_verifies() {
        let (mut ca, kp) = setup();
        let cert = ca
            .issue("switch-s1", SubjectRole::Switch, kp.public_key())
            .expect("issue");
        assert!(cert.verify(&ca.public_key()));
        assert_eq!(cert.serial, 1);
        assert_eq!(cert.role, SubjectRole::Switch);
    }

    #[test]
    fn tampered_subject_fails_verification() {
        let (mut ca, kp) = setup();
        let mut cert = ca
            .issue("switch-s1", SubjectRole::Switch, kp.public_key())
            .expect("issue");
        cert.subject = "switch-s2".to_string();
        assert!(!cert.verify(&ca.public_key()));
    }

    #[test]
    fn tampered_role_fails_verification() {
        let (mut ca, kp) = setup();
        let mut cert = ca
            .issue("client-7", SubjectRole::Client, kp.public_key())
            .expect("issue");
        cert.role = SubjectRole::RvaasController;
        assert!(!cert.verify(&ca.public_key()));
    }

    #[test]
    fn wrong_ca_fails_verification() {
        let (mut ca, kp) = setup();
        let other_ca = CertificateAuthority::new(SignatureScheme::HmacOracle, 99);
        let cert = ca
            .issue("rvaas", SubjectRole::RvaasController, kp.public_key())
            .expect("issue");
        assert!(!cert.verify(&other_ca.public_key()));
    }

    #[test]
    fn serials_increment() {
        let (mut ca, kp) = setup();
        let c1 = ca
            .issue("a", SubjectRole::Client, kp.public_key())
            .expect("issue");
        let c2 = ca
            .issue("b", SubjectRole::Client, kp.public_key())
            .expect("issue");
        assert_eq!(c1.serial + 1, c2.serial);
    }

    #[test]
    fn merkle_backed_ca_works_until_exhausted() {
        let mut ca = CertificateAuthority::new(SignatureScheme::MerkleWots { height: 1 }, 5);
        let kp = Keypair::generate(SignatureScheme::HmacOracle, 6);
        assert!(ca
            .issue("a", SubjectRole::Switch, kp.public_key())
            .is_some());
        assert!(ca
            .issue("b", SubjectRole::Switch, kp.public_key())
            .is_some());
        assert!(ca
            .issue("c", SubjectRole::Switch, kp.public_key())
            .is_none());
    }
}
