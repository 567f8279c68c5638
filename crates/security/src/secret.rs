//! Shared secrets and authentication tokens.
//!
//! §7.1: *"Shared secrets provide the basis for authenticating interactions
//! and achieving integrity and confidentiality."* A [`SecretStore`] holds
//! the pairwise secrets a principal shares with its peers; a [`Token`]
//! proves knowledge of the secret over one specific invocation.

use crate::siphash::{siphash24, SipKey};
use odp_types::InterfaceId;
use odp_wire::Value;
use parking_lot::Mutex;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A 128-bit shared secret.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Secret(pub(crate) SipKey);

impl Secret {
    /// Generates a fresh random secret.
    #[must_use]
    pub fn generate<R: rand::Rng>(rng: &mut R) -> Self {
        let mut k0 = [0u8; 8];
        let mut k1 = [0u8; 8];
        rng.fill_bytes(&mut k0);
        rng.fill_bytes(&mut k1);
        Self(SipKey {
            k0: u64::from_le_bytes(k0),
            k1: u64::from_le_bytes(k1),
        })
    }

    /// Generates from a seed (reproducible tests and benches).
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self::generate(&mut rng)
    }
}

impl fmt::Debug for Secret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Secret(…)")
    }
}

/// An authentication token for one invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The claiming principal.
    pub principal: String,
    /// Strictly increasing per principal (replay protection).
    pub nonce: u64,
    /// MAC over `(principal, iface, op, args digest, nonce)`.
    pub tag: u64,
}

/// Annotation key carrying the token.
pub const AUTH_KEY: &str = "__auth";

impl Token {
    /// Encodes the token as an annotation value.
    #[must_use]
    pub fn encode(&self) -> Value {
        Value::record([
            ("principal", Value::str(self.principal.clone())),
            ("nonce", Value::Int(self.nonce as i64)),
            ("tag", Value::Int(self.tag as i64)),
        ])
    }

    /// Decodes a token annotation.
    #[must_use]
    pub fn decode(value: &Value) -> Option<Self> {
        Some(Self {
            principal: value.field("principal")?.as_str()?.to_owned(),
            nonce: value.field("nonce")?.as_int()? as u64,
            tag: value.field("tag")?.as_int()? as u64,
        })
    }
}

/// Computes the MAC for one invocation under a shared secret.
#[must_use]
pub fn mac(
    secret: Secret,
    principal: &str,
    iface: InterfaceId,
    op: &str,
    args: &[Value],
    nonce: u64,
) -> u64 {
    // Bind the tag to the exact marshalled arguments: integrity.
    let args_bytes = odp_wire::marshal(args);
    let mut message = Vec::with_capacity(principal.len() + op.len() + 24 + args_bytes.len());
    message.extend_from_slice(principal.as_bytes());
    message.push(0);
    message.extend_from_slice(&iface.raw().to_le_bytes());
    message.extend_from_slice(op.as_bytes());
    message.push(0);
    message.extend_from_slice(&nonce.to_le_bytes());
    message.extend_from_slice(&args_bytes);
    siphash24(secret.0, &message)
}

/// A principal's secrets: what it shares with each peer, plus its nonce
/// counter for minting tokens.
pub struct SecretStore {
    me: String,
    secrets: Mutex<HashMap<String, Secret>>,
    next_nonce: AtomicU64,
}

impl SecretStore {
    /// Creates a store for principal `me`.
    #[must_use]
    pub fn new<S: Into<String>>(me: S) -> Self {
        Self {
            me: me.into(),
            secrets: Mutex::new(HashMap::new()),
            next_nonce: AtomicU64::new(1),
        }
    }

    /// This store's principal name.
    #[must_use]
    pub fn principal(&self) -> &str {
        &self.me
    }

    /// Records the secret shared with `peer`.
    fn share_with<S: Into<String>>(&self, peer: S, secret: Secret) {
        self.secrets.lock().insert(peer.into(), secret);
    }

    /// The secret shared with `peer`, if any.
    #[must_use]
    fn secret_for(&self, peer: &str) -> Option<Secret> {
        self.secrets.lock().get(peer).copied()
    }

    /// Mints a token authenticating `me` to `peer` for one invocation.
    ///
    /// Returns `None` if no secret is shared with `peer`.
    #[must_use]
    pub fn mint(&self, peer: &str, iface: InterfaceId, op: &str, args: &[Value]) -> Option<Token> {
        let secret = self.secret_for(peer)?;
        let nonce = self.next_nonce.fetch_add(1, Ordering::Relaxed);
        let tag = mac(secret, &self.me, iface, op, args, nonce);
        Some(Token {
            principal: self.me.clone(),
            nonce,
            tag,
        })
    }

    /// Verifies a token presented *to* this principal for an invocation.
    #[must_use]
    pub fn verify(&self, token: &Token, iface: InterfaceId, op: &str, args: &[Value]) -> bool {
        let Some(secret) = self.secret_for(&token.principal) else {
            return false;
        };
        mac(secret, &token.principal, iface, op, args, token.nonce) == token.tag
    }
}

impl fmt::Debug for SecretStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecretStore")
            .field("principal", &self.me)
            .field("peers", &self.secrets.lock().len())
            .finish()
    }
}

/// Establishes a shared secret between two principals (the out-of-band
/// key exchange the paper assumes).
pub fn establish(a: &SecretStore, b: &SecretStore, seed: u64) {
    let secret = Secret::from_seed(seed);
    a.share_with(b.principal(), secret);
    b.share_with(a.principal(), secret);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_and_verify() {
        let alice = SecretStore::new("alice");
        let server = SecretStore::new("server");
        establish(&alice, &server, 7);
        let args = vec![Value::Int(5)];
        let token = alice
            .mint("server", InterfaceId(1), "withdraw", &args)
            .unwrap();
        assert!(server.verify(&token, InterfaceId(1), "withdraw", &args));
    }

    #[test]
    fn tampered_arguments_fail_verification() {
        let alice = SecretStore::new("alice");
        let server = SecretStore::new("server");
        establish(&alice, &server, 7);
        let token = alice
            .mint("server", InterfaceId(1), "withdraw", &[Value::Int(5)])
            .unwrap();
        assert!(!server.verify(&token, InterfaceId(1), "withdraw", &[Value::Int(500)]));
        assert!(!server.verify(&token, InterfaceId(1), "deposit", &[Value::Int(5)]));
        assert!(!server.verify(&token, InterfaceId(2), "withdraw", &[Value::Int(5)]));
    }

    #[test]
    fn unknown_principal_rejected() {
        let server = SecretStore::new("server");
        let token = Token {
            principal: "mallory".into(),
            nonce: 1,
            tag: 42,
        };
        assert!(!server.verify(&token, InterfaceId(1), "op", &[]));
    }

    #[test]
    fn minting_without_secret_fails() {
        let alice = SecretStore::new("alice");
        assert!(alice.mint("server", InterfaceId(1), "op", &[]).is_none());
    }

    #[test]
    fn nonces_increase() {
        let alice = SecretStore::new("alice");
        let server = SecretStore::new("server");
        establish(&alice, &server, 7);
        let t1 = alice.mint("server", InterfaceId(1), "op", &[]).unwrap();
        let t2 = alice.mint("server", InterfaceId(1), "op", &[]).unwrap();
        assert!(t2.nonce > t1.nonce);
    }

    #[test]
    fn token_codec_round_trips() {
        let t = Token {
            principal: "alice".into(),
            nonce: 9,
            tag: 0xdead_beef,
        };
        assert_eq!(Token::decode(&t.encode()), Some(t));
        assert!(Token::decode(&Value::Int(1)).is_none());
    }
}
