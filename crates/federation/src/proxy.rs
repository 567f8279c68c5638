//! Proxy objects: gateway-hosted representatives of foreign objects.
//!
//! §5.6: *"it may be that the interceptor has to set up proxy objects in
//! each domain that stand as representatives of objects on the other side
//! of the boundary."* A [`ProxyServant`] forwards every operation to its
//! principal through one binding the gateway capsule makes when the proxy
//! is created (boundary-intercepted), so invocations on the proxy pay
//! exactly the crossing costs the federation's policies impose.

use odp_core::{
    CallCtx, Capsule, ClientBinding, InvokeError, Outcome, Servant, TransparencyPolicy,
};
use odp_types::InterfaceType;
use odp_wire::{InterfaceRef, Value};
use std::sync::Arc;

/// A forwarding servant representing a foreign object.
pub struct ProxyServant {
    principal: InterfaceRef,
    /// The host capsule's binding to `principal`. Its layers hold the
    /// capsule weakly, so the proxy (exported on that capsule) makes no
    /// reference cycle.
    binding: ClientBinding,
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
        let binding = capsule.bind_with(principal.clone(), policy);
        Self { principal, binding }
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
        let forwarded = if ctx.announcement {
            self.binding
                .announce(op, args)
                .map(|()| Outcome::ok(vec![]))
        } else {
            self.binding
                .interrogate_annotated(op, args, ctx.annotations.clone())
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
