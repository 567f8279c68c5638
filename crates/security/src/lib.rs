//! # odp-security — guards and shared-secret authentication (§7.1)
//!
//! *"Security in a distributed system is founded upon trusted encapsulation
//! and the management of shared secrets between objects."* And, crucially
//! for the engineering model: *"an interface reference for accessing an
//! object cannot itself be secure … It is possible for any object to
//! assemble a reference, therefore a secure object must check that any
//! access is from a valid source. … For each interface of the object, a
//! guard can be generated to police use of that interface"* — generated
//! "automatically from a declarative statement of security policy".
//!
//! * [`siphash`] — a from-scratch SipHash-2-4 keyed PRF. The substitution
//!   table in DESIGN.md records why: the paper's claims are about *where*
//!   authentication sits in the access path and what it costs, not about
//!   cipher strength (SipHash-2-4 is a real MAC for short messages, though
//!   not a modern general-purpose one).
//! * [`secret`] — [`Secret`]s and the [`SecretStore`]: pairwise shared
//!   secrets between principals, plus token minting: a token binds
//!   `(principal, interface, operation, argument digest, nonce)` under the
//!   shared secret, giving authentication **and** argument integrity.
//! * [`guard`] — the generated mechanisms: [`AuthLayer`] (client side)
//!   stamps outgoing calls; [`Guard`] (server side, inside the
//!   encapsulation boundary, first in the dispatch chain) verifies the
//!   token, enforces the declarative [`SecurityPolicy`], and refuses
//!   replays via per-principal monotonic nonces. Rejections are the
//!   [`odp_core::Code::Denied`] engineering termination.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod guard;
pub mod secret;
pub mod siphash;

pub use guard::{AuthLayer, Guard, SecurityPolicy};
pub use secret::{Secret, SecretStore, Token};
