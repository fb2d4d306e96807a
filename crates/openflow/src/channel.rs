//! Authenticated controller–switch channels.
//!
//! The paper's threat model requires that "switch to RVaaS controller
//! sessions are secured, using encrypted OpenFlow sessions and a-priori
//! configured switch certificates for authentication" (Section III). This
//! module models exactly the security properties the rest of the system
//! depends on:
//!
//! * channel establishment verifies the switch certificate against the
//!   deployment CA and derives a per-session key;
//! * every message carries an HMAC tag and a sequence number, so injection,
//!   tampering and replay by the (compromised) management plane are detected;
//! * confidentiality is modelled by the fact that only the two channel
//!   endpoints hold the session key — the simulator never lets other
//!   components read sealed payloads.

use rvaas_crypto::{cert::SubjectRole, hmac_sha256, sha256::Digest, Certificate, PublicKey};
use rvaas_types::SwitchId;

use crate::message::Message;

/// Which controller this channel belongs to. The RVaaS controller and the
/// provider's own controller maintain independent channels to every switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerRole {
    /// The provider's network management controller (untrusted in the threat
    /// model).
    Provider,
    /// The stand-alone RVaaS verification controller (trusted).
    Rvaas,
}

/// Errors raised by channel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// The switch certificate did not verify against the CA key.
    BadCertificate,
    /// The certificate does not belong to a switch.
    WrongRole,
    /// The certificate names a different switch than expected.
    SubjectMismatch,
    /// A sealed message failed MAC verification.
    BadTag,
    /// A sealed message arrived out of order (replay or reordering).
    BadSequence {
        /// Sequence number expected next.
        expected: u64,
        /// Sequence number observed.
        got: u64,
    },
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::BadCertificate => write!(f, "switch certificate rejected"),
            ChannelError::WrongRole => write!(f, "certificate subject is not a switch"),
            ChannelError::SubjectMismatch => write!(f, "certificate names a different switch"),
            ChannelError::BadTag => write!(f, "message authentication failed"),
            ChannelError::BadSequence { expected, got } => {
                write!(f, "bad sequence number: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

/// A message sealed for transmission on the channel.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedMessage {
    /// The (conceptually encrypted) message body.
    pub message: Message,
    /// Monotone sequence number.
    pub sequence: u64,
    /// HMAC over the body and sequence number.
    pub tag: Digest,
}

/// One endpoint's view of an established, authenticated channel.
///
/// Both endpoints derive the same session key, so a single struct is used
/// for either side; each side keeps its own send/receive sequence counters.
#[derive(Debug, Clone)]
pub struct SecureChannel {
    switch: SwitchId,
    role: ControllerRole,
    session_key: Digest,
    send_seq: u64,
    recv_seq: u64,
}

impl SecureChannel {
    /// Establishes a channel by verifying the switch certificate against the
    /// deployment CA key.
    ///
    /// `session_nonce` models the fresh randomness contributed by the
    /// handshake; both endpoints must use the same value (the simulator's
    /// connection setup passes it to both sides).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::BadCertificate`], [`ChannelError::WrongRole`]
    /// or [`ChannelError::SubjectMismatch`] when certificate validation fails.
    pub fn establish(
        switch: SwitchId,
        switch_cert: &Certificate,
        ca_key: &PublicKey,
        role: ControllerRole,
        session_nonce: u64,
    ) -> Result<Self, ChannelError> {
        if !switch_cert.verify(ca_key) {
            return Err(ChannelError::BadCertificate);
        }
        if switch_cert.role != SubjectRole::Switch {
            return Err(ChannelError::WrongRole);
        }
        let expected_subject = format!("switch-{switch}");
        if switch_cert.subject != expected_subject {
            return Err(ChannelError::SubjectMismatch);
        }
        // Session key derivation: bind the key to the switch identity, the
        // controller role and the handshake nonce.
        let role_byte = match role {
            ControllerRole::Provider => 0u8,
            ControllerRole::Rvaas => 1u8,
        };
        let mut material = Vec::new();
        material.extend_from_slice(switch_cert.public_key.fingerprint().as_bytes());
        material.push(role_byte);
        material.extend_from_slice(&session_nonce.to_be_bytes());
        let session_key = hmac_sha256(b"rvaas-channel-key", &material);
        Ok(SecureChannel {
            switch,
            role,
            session_key,
            send_seq: 0,
            recv_seq: 0,
        })
    }

    /// The switch this channel talks to.
    #[must_use]
    pub fn switch(&self) -> SwitchId {
        self.switch
    }

    /// The controller role owning this channel.
    #[must_use]
    pub fn role(&self) -> ControllerRole {
        self.role
    }

    fn tag_for(&self, message: &Message, sequence: u64) -> Digest {
        let mut body = message.canonical_bytes();
        body.extend_from_slice(&sequence.to_be_bytes());
        hmac_sha256(self.session_key.as_bytes(), &body)
    }

    /// Seals a message for transmission, consuming one sequence number.
    pub fn seal(&mut self, message: Message) -> SealedMessage {
        let sequence = self.send_seq;
        self.send_seq += 1;
        let tag = self.tag_for(&message, sequence);
        SealedMessage {
            message,
            sequence,
            tag,
        }
    }

    /// Verifies and opens a received message, enforcing sequence order.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::BadTag`] on MAC failure and
    /// [`ChannelError::BadSequence`] on replayed or reordered messages.
    pub fn open(&mut self, sealed: &SealedMessage) -> Result<Message, ChannelError> {
        let expected = self.tag_for(&sealed.message, sealed.sequence);
        if expected != sealed.tag {
            return Err(ChannelError::BadTag);
        }
        if sealed.sequence != self.recv_seq {
            return Err(ChannelError::BadSequence {
                expected: self.recv_seq,
                got: sealed.sequence,
            });
        }
        self.recv_seq += 1;
        Ok(sealed.message.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_crypto::{CertificateAuthority, Keypair, SignatureScheme};

    fn setup_cert(switch: SwitchId) -> (Certificate, PublicKey) {
        let mut ca = CertificateAuthority::new(SignatureScheme::HmacOracle, 1000);
        let switch_kp = Keypair::generate(SignatureScheme::HmacOracle, 2000 + u64::from(switch.0));
        let cert = ca
            .issue(
                format!("switch-{switch}"),
                SubjectRole::Switch,
                switch_kp.public_key(),
            )
            .expect("issue");
        (cert, ca.public_key())
    }

    fn pair(switch: SwitchId, nonce: u64) -> (SecureChannel, SecureChannel) {
        let (cert, ca_key) = setup_cert(switch);
        let a = SecureChannel::establish(switch, &cert, &ca_key, ControllerRole::Rvaas, nonce)
            .expect("controller side");
        let b = SecureChannel::establish(switch, &cert, &ca_key, ControllerRole::Rvaas, nonce)
            .expect("switch side");
        (a, b)
    }

    #[test]
    fn seal_open_roundtrip_in_order() {
        let (mut tx, mut rx) = pair(SwitchId(3), 7);
        for token in 0..5u64 {
            let sealed = tx.seal(Message::EchoRequest { token });
            let opened = rx.open(&sealed).expect("valid message");
            assert_eq!(opened, Message::EchoRequest { token });
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let (mut tx, mut rx) = pair(SwitchId(3), 7);
        let mut sealed = tx.seal(Message::EchoRequest { token: 1 });
        sealed.message = Message::EchoRequest { token: 999 };
        assert_eq!(rx.open(&sealed), Err(ChannelError::BadTag));
    }

    #[test]
    fn replayed_message_rejected() {
        let (mut tx, mut rx) = pair(SwitchId(3), 7);
        let sealed = tx.seal(Message::EchoRequest { token: 1 });
        assert!(rx.open(&sealed).is_ok());
        assert!(matches!(
            rx.open(&sealed),
            Err(ChannelError::BadSequence {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn cross_session_injection_rejected() {
        // A message sealed under a different session nonce (e.g. by an
        // attacker who hijacked an old session) does not verify.
        let (mut old_tx, _) = pair(SwitchId(3), 1);
        let (_, mut rx_new) = pair(SwitchId(3), 2);
        let sealed = old_tx.seal(Message::EchoRequest { token: 1 });
        assert_eq!(rx_new.open(&sealed), Err(ChannelError::BadTag));
    }

    #[test]
    fn establish_rejects_bad_certificates() {
        let (cert, ca_key) = setup_cert(SwitchId(1));
        // Wrong CA.
        let other_ca = CertificateAuthority::new(SignatureScheme::HmacOracle, 5555);
        assert_eq!(
            SecureChannel::establish(
                SwitchId(1),
                &cert,
                &other_ca.public_key(),
                ControllerRole::Rvaas,
                1
            )
            .err(),
            Some(ChannelError::BadCertificate)
        );
        // Wrong subject.
        assert_eq!(
            SecureChannel::establish(SwitchId(2), &cert, &ca_key, ControllerRole::Rvaas, 1).err(),
            Some(ChannelError::SubjectMismatch)
        );
        // Wrong role.
        let mut ca = CertificateAuthority::new(SignatureScheme::HmacOracle, 1000);
        let kp = Keypair::generate(SignatureScheme::HmacOracle, 1);
        let client_cert = ca
            .issue("switch-s1", SubjectRole::Client, kp.public_key())
            .expect("issue");
        assert_eq!(
            SecureChannel::establish(
                SwitchId(1),
                &client_cert,
                &ca.public_key(),
                ControllerRole::Rvaas,
                1
            )
            .err(),
            Some(ChannelError::WrongRole)
        );
    }

    #[test]
    fn provider_and_rvaas_sessions_are_independent() {
        let (cert, ca_key) = setup_cert(SwitchId(4));
        let mut provider =
            SecureChannel::establish(SwitchId(4), &cert, &ca_key, ControllerRole::Provider, 9)
                .expect("establish");
        let mut rvaas =
            SecureChannel::establish(SwitchId(4), &cert, &ca_key, ControllerRole::Rvaas, 9)
                .expect("establish");
        // A message sealed by the provider cannot be opened on the RVaaS
        // session (different derived keys): the compromised provider
        // controller cannot spoof RVaaS's view.
        let sealed = provider.seal(Message::FlowStatsRequest);
        assert_eq!(rvaas.open(&sealed), Err(ChannelError::BadTag));
        assert_eq!(provider.role(), ControllerRole::Provider);
        assert_eq!(rvaas.switch(), SwitchId(4));
    }

    #[test]
    fn error_display_messages() {
        assert_eq!(
            ChannelError::BadTag.to_string(),
            "message authentication failed"
        );
        assert_eq!(
            ChannelError::BadSequence {
                expected: 2,
                got: 5
            }
            .to_string(),
            "bad sequence number: expected 2, got 5"
        );
    }
}
