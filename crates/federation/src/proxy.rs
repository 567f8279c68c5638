//! Proxy objects: gateway-hosted representatives of foreign objects.
//!
//! §5.6: *"it may be that the interceptor has to set up proxy objects in
//! each domain that stand as representatives of objects on the other side
//! of the boundary."* A [`ProxyServant`] forwards every operation to its
//! principal through the gateway capsule's own (boundary-intercepted)
//! binding, so invocations on the proxy pay exactly the crossing costs the
//! federation's policies impose.

use odp_core::{CallCtx, Capsule, InvokeError, Outcome, Servant, TransparencyPolicy};
use odp_types::InterfaceType;
use odp_wire::{InterfaceRef, Value};
use std::sync::{Arc, Weak};

/// A forwarding servant representing a foreign object.
pub struct ProxyServant {
    principal: InterfaceRef,
    capsule: Weak<Capsule>,
    policy: TransparencyPolicy,
}

impl ProxyServant {
    /// Creates a proxy hosted on `capsule` for `principal`, binding with
    /// `policy` (typically including a boundary layer).
    #[must_use]
    pub fn new(
        principal: InterfaceRef,
        capsule: &Arc<Capsule>,
        policy: TransparencyPolicy,
    ) -> Self {
        Self {
            principal,
            capsule: Arc::downgrade(capsule),
            policy,
        }
    }

    /// The reference this proxy forwards to.
    #[must_use]
    pub fn principal(&self) -> &InterfaceRef {
        &self.principal
    }
}

impl Servant for ProxyServant {
    fn interface_type(&self) -> InterfaceType {
        self.principal.ty.clone()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, ctx: &CallCtx) -> Outcome {
        let Some(capsule) = self.capsule.upgrade() else {
            return Outcome::fail("proxy host has shut down");
        };
        let binding = capsule.bind_with(self.principal.clone(), self.policy.clone());
        let forwarded = if ctx.announcement {
            binding.announce(op, args).map(|()| Outcome::ok(vec![]))
        } else {
            binding.interrogate_annotated(op, args, ctx.annotations.clone())
        };
        forwarded.unwrap_or_else(InvokeError::across_boundary)
    }
}

impl std::fmt::Debug for ProxyServant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxyServant")
            .field("principal", &self.principal)
            .finish()
    }
}
