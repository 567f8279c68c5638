//! Generated guards and the client-side authentication layer.
//!
//! §7.1: *"For each interface of the object, a guard can be generated to
//! police use of that interface. The guard must be included within the
//! encapsulation boundary of the secure object"* — here, the guard is a
//! [`ServerLayer`] installed first in the export's dispatch chain, so no
//! operation reaches the servant without passing it. Its behaviour is
//! wholly determined by a declarative [`SecurityPolicy`]; applications
//! write no checking code.

use crate::secret::{SecretStore, Token, AUTH_KEY};
use odp_core::{
    CallCtx, CallRequest, ClientLayer, ClientNext, Code, InvokeError, Outcome, ServerLayer,
    ServerNext,
};
use odp_wire::Value;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A declarative statement of which principals may invoke which
/// operations. Default-deny: an unlisted `(principal, op)` is refused.
#[derive(Default, Clone)]
pub struct SecurityPolicy {
    /// `principal → allowed operations`; an empty op list means "all".
    rules: HashMap<String, Vec<String>>,
}

impl SecurityPolicy {
    /// Creates an empty (deny-everything) policy.
    #[must_use]
    pub fn deny_all() -> Self {
        Self::default()
    }

    /// Allows `principal` to invoke every operation.
    #[must_use]
    pub fn allow_all<S: Into<String>>(mut self, principal: S) -> Self {
        self.rules.insert(principal.into(), Vec::new());
        self
    }

    /// Allows `principal` to invoke exactly `ops`.
    #[must_use]
    pub fn allow<S: Into<String>>(mut self, principal: S, ops: &[&str]) -> Self {
        self.rules.insert(
            principal.into(),
            ops.iter().map(|s| (*s).to_owned()).collect(),
        );
        self
    }

    /// Whether the policy permits the invocation.
    #[must_use]
    fn permits(&self, principal: &str, op: &str) -> bool {
        match self.rules.get(principal) {
            Some(ops) => ops.is_empty() || ops.iter().any(|o| o == op),
            None => false,
        }
    }
}

impl fmt::Debug for SecurityPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecurityPolicy")
            .field("principals", &self.rules.len())
            .finish()
    }
}

/// The generated per-interface guard (server side).
pub struct Guard {
    store: Arc<SecretStore>,
    policy: SecurityPolicy,
    /// Highest nonce seen per principal: replays are refused.
    seen: Mutex<HashMap<String, u64>>,
    /// Refused interactions (experiment accounting).
    pub denied: AtomicU64,
    /// Verified interactions.
    pub admitted: AtomicU64,
}

impl Guard {
    /// Generates a guard from the object's secret store and a declarative
    /// policy.
    #[must_use]
    pub fn generate(store: Arc<SecretStore>, policy: SecurityPolicy) -> Arc<Self> {
        Arc::new(Self {
            store,
            policy,
            seen: Mutex::new(HashMap::new()),
            denied: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
        })
    }

    fn deny(&self, why: &str) -> Outcome {
        self.denied.fetch_add(1, Ordering::Relaxed);
        Outcome::engineering(Code::Denied, vec![Value::str(why)])
    }
}

impl ServerLayer for Guard {
    fn dispatch(
        &self,
        ctx: &CallCtx,
        op: &str,
        args: Vec<Value>,
        next: &dyn ServerNext,
    ) -> Outcome {
        let Some(token) = ctx.annotations.get(AUTH_KEY).and_then(Token::decode) else {
            return self.deny("no credentials presented");
        };
        if !self.policy.permits(&token.principal, op) {
            return self.deny("policy forbids this operation");
        }
        if !self.store.verify(&token, ctx.iface, op, &args) {
            return self.deny("invalid authentication tag");
        }
        {
            let mut seen = self.seen.lock();
            let last = seen.entry(token.principal.clone()).or_insert(0);
            if token.nonce <= *last {
                drop(seen);
                return self.deny("replayed credentials");
            }
            *last = token.nonce;
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        next.dispatch(ctx, op, args)
    }

    fn name(&self) -> &'static str {
        "security:guard"
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard")
            .field("policy", &self.policy)
            .field("denied", &self.denied.load(Ordering::Relaxed))
            .finish()
    }
}

/// The client half: stamps outgoing invocations with a token minted from
/// the shared secret ("the client can impose its policy directly by
/// choosing which services to use: by sharing secrets with those
/// services", §7.1).
pub struct AuthLayer {
    store: Arc<SecretStore>,
    server_principal: String,
}

impl AuthLayer {
    /// Creates an authentication layer speaking for `store`'s principal
    /// towards `server_principal`.
    #[must_use]
    pub fn new<S: Into<String>>(store: Arc<SecretStore>, server_principal: S) -> Arc<Self> {
        Arc::new(Self {
            store,
            server_principal: server_principal.into(),
        })
    }
}

impl ClientLayer for AuthLayer {
    fn invoke(&self, mut req: CallRequest, next: &dyn ClientNext) -> Result<Outcome, InvokeError> {
        let token = self
            .store
            .mint(&self.server_principal, req.target.iface, &req.op, &req.args)
            .ok_or_else(|| {
                InvokeError::Denied(format!("no secret shared with `{}`", self.server_principal))
            })?;
        req.annotations.insert(AUTH_KEY.to_owned(), token.encode());
        next.invoke(req)
    }

    fn name(&self) -> &'static str {
        "security:auth"
    }
}

impl fmt::Debug for AuthLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuthLayer")
            .field("server", &self.server_principal)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_semantics() {
        let p = SecurityPolicy::deny_all()
            .allow("alice", &["read"])
            .allow_all("admin");
        assert!(p.permits("alice", "read"));
        assert!(!p.permits("alice", "write"));
        assert!(p.permits("admin", "anything"));
        assert!(!p.permits("mallory", "read"));
    }
}
