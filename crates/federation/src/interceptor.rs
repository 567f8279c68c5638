//! The boundary interceptors: client-side diversion and the gateway.
//!
//! The two halves cooperate:
//!
//! * [`BoundaryLayer`] sits in a client's access path. Invocations whose
//!   target lies in the client's own domain pass through untouched; those
//!   aimed at a foreign domain are rewritten into a relay call on that
//!   domain's [`Gateway`]. Federation transparency: the application sees
//!   neither.
//! * [`Gateway`] is a servant exported on a boundary node. It enforces an
//!   [`AdmissionPolicy`], records [`crate::Accounting`], applies a
//!   [`Translator`], forwards into its domain, and (optionally) replaces
//!   interface references leaving the domain with gateway-hosted proxies.
//!   Its outgoing binding carries a `BoundaryLayer` of its own, so a
//!   target two domains away is reached through a chain of gateways with
//!   no additional machinery — each hop paying its own admission,
//!   accounting and translation. This is the per-crossing cost experiment
//!   E10 measures.

use crate::accounting::Accounting;
use crate::domain::DomainMap;
use crate::proxy::ProxyServant;
use crate::translate::{IdentityTranslator, Translator};
use odp_core::{
    CallCtx, CallRequest, Capsule, ClientLayer, ClientNext, Code, InvokeError, Outcome, Servant,
    TransparencyPolicy,
};
use odp_types::ids::InterfaceIdAllocator;
use odp_types::signature::{InterfaceTypeBuilder, OperationSig, OutcomeSig};
use odp_types::{DomainId, InterfaceId, InterfaceType, TypeSpec};
use odp_wire::{InterfaceRef, Value};
use std::sync::{Arc, Weak};

/// The gateway relay operation.
const RELAY_OP: &str = "__fed_relay";

/// Predicate deciding whether a `(from_domain_name, op)` crossing is
/// admitted at the gateway.
type AdmissionRule = Arc<dyn Fn(&str, &str) -> bool + Send + Sync>;

/// Which foreign domains may invoke which operations.
pub struct AdmissionPolicy {
    rule: AdmissionRule,
}

impl AdmissionPolicy {
    /// Admits everything (pure accounting/translation boundary).
    #[must_use]
    pub fn allow_all() -> Self {
        Self {
            rule: Arc::new(|_, _| true),
        }
    }

    /// Admits per `(from_domain_name, op)` predicate.
    #[must_use]
    pub fn with_rule(rule: AdmissionRule) -> Self {
        Self { rule }
    }

    /// Whether the crossing is admitted.
    #[must_use]
    fn admits(&self, from_domain: &str, op: &str) -> bool {
        (self.rule)(from_domain, op)
    }
}

impl std::fmt::Debug for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPolicy").finish()
    }
}

/// Signature of a gateway.
#[must_use]
fn gateway_interface_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation(
            RELAY_OP,
            vec![
                TypeSpec::Int,   // target interface
                TypeSpec::Str,   // operation
                TypeSpec::Bytes, // marshalled arguments
                TypeSpec::Str,   // source domain name
                TypeSpec::Bool,  // the call is an announcement
            ],
            vec![OutcomeSig::ok(vec![TypeSpec::Any])],
        )
        .build()
}

/// The client-side boundary interceptor.
pub struct BoundaryLayer {
    map: Arc<DomainMap>,
    my_domain: DomainId,
    my_domain_name: String,
}

impl BoundaryLayer {
    /// Creates the layer for a client in `my_domain`.
    #[must_use]
    pub fn new(map: Arc<DomainMap>, my_domain: DomainId) -> Arc<Self> {
        let my_domain_name = map.name_of(my_domain).unwrap_or_else(|| "?".to_owned());
        Arc::new(Self {
            map,
            my_domain,
            my_domain_name,
        })
    }
}

impl ClientLayer for BoundaryLayer {
    fn invoke(&self, req: CallRequest, next: &dyn ClientNext) -> Result<Outcome, InvokeError> {
        let target_domain = self.map.domain_of(req.target.home);
        match target_domain {
            Some(d) if d != self.my_domain => {
                let gateway = self
                    .map
                    .gateway_of(d)
                    .ok_or_else(|| InvokeError::Protocol(format!("no gateway known for {d}")))?;
                odp_telemetry::hub().event(
                    "federation.crossing",
                    gateway.home.raw(),
                    req.trace.trace_id,
                    format!("op={} {} -> {d}", req.op, self.my_domain_name),
                );
                let relay = CallRequest {
                    target: gateway,
                    op: RELAY_OP.to_owned(),
                    args: vec![
                        Value::Int(req.target.iface.raw() as i64),
                        Value::str(req.op.as_str()),
                        Value::Bytes(odp_wire::marshal(&req.args)),
                        Value::str(self.my_domain_name.as_str()),
                        Value::Bool(req.announcement),
                    ],
                    annotations: req.annotations.clone(),
                    qos: req.qos,
                    announcement: false,
                    // The relay inherits the caller's end-to-end budget
                    // and trace context, so the crossing stays on the
                    // caller's span tree.
                    deadline: req.deadline,
                    trace: req.trace,
                };
                next.invoke(relay)
            }
            _ => next.invoke(req),
        }
    }

    fn name(&self) -> &'static str {
        "federation:boundary"
    }
}

impl std::fmt::Debug for BoundaryLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundaryLayer")
            .field("domain", &self.my_domain)
            .finish()
    }
}

/// The gateway servant on a domain boundary.
pub struct Gateway {
    map: Arc<DomainMap>,
    my_domain: DomainId,
    capsule: Weak<Capsule>,
    policy: AdmissionPolicy,
    translator: Arc<dyn Translator>,
    /// Ledger of admitted crossings.
    pub accounting: Accounting,
    /// Substitute outgoing references with gateway-hosted proxies.
    pub proxy_results: bool,
}

impl Gateway {
    /// Creates a gateway for `my_domain` hosted on `capsule`.
    #[must_use]
    pub fn new(
        map: Arc<DomainMap>,
        my_domain: DomainId,
        capsule: &Arc<Capsule>,
        policy: AdmissionPolicy,
    ) -> Self {
        Self {
            map,
            my_domain,
            capsule: Arc::downgrade(capsule),
            policy,
            translator: Arc::new(IdentityTranslator),
            accounting: Accounting::new(),
            proxy_results: false,
        }
    }

    /// Installs a technology translator.
    #[must_use]
    pub fn with_translator(mut self, translator: Arc<dyn Translator>) -> Self {
        self.translator = translator;
        self
    }

    /// Enables proxy substitution for references leaving the domain.
    #[must_use]
    pub fn with_proxies(mut self) -> Self {
        self.proxy_results = true;
        self
    }

    /// Exports the gateway on its capsule and registers it in the domain
    /// map. Returns the gateway reference.
    ///
    /// # Panics
    ///
    /// Panics if the capsule has been dropped.
    pub fn install(self) -> InterfaceRef {
        let capsule = self.capsule.upgrade().expect("capsule alive at install");
        let map = Arc::clone(&self.map);
        let domain = self.my_domain;
        let r = capsule.export(Arc::new(self) as Arc<dyn Servant>);
        map.set_gateway(domain, r.clone());
        r
    }

    /// The policy binding used for inward forwarding: location transparent
    /// and — crucially — boundary-intercepted itself, so chains compose.
    fn forwarding_policy(&self) -> TransparencyPolicy {
        TransparencyPolicy::default()
            .with_layer(BoundaryLayer::new(Arc::clone(&self.map), self.my_domain))
    }

    fn relay(&self, args: Vec<Value>, ctx: &CallCtx) -> Outcome {
        let (Some(iface), Some(op), Some(payload), Some(from_domain), Some(announcement)) = (
            args.first().and_then(Value::as_int),
            args.get(1).and_then(Value::as_str),
            args.get(2).and_then(Value::as_bytes),
            args.get(3).and_then(Value::as_str),
            args.get(4).and_then(Value::as_bool),
        ) else {
            return Outcome::fail("relay requires (iface, op, args, from_domain, announcement)");
        };
        if !self.policy.admits(from_domain, op) {
            let why = format!("domain `{from_domain}` may not invoke `{op}` here");
            return Outcome::engineering(Code::Denied, vec![Value::str(why)]);
        }
        let iface = InterfaceId(iface as u64);
        self.accounting.record(from_domain, iface, payload.len());
        let Ok(raw_args) = odp_wire::unmarshal(payload) else {
            return Outcome::fail("relay arguments corrupt");
        };
        let app_args = self.translator.translate_args(op, raw_args);
        let Some(capsule) = self.capsule.upgrade() else {
            return Outcome::fail("gateway host has shut down");
        };
        // Reconstruct a target reference: identity gives the home node, a
        // synthetic single-operation signature of the call's own kind
        // satisfies client checks (the real check happens at the target's
        // own dispatcher).
        let home = InterfaceIdAllocator::home_of(iface);
        let params = vec![TypeSpec::Any; app_args.len()];
        let sig = if announcement {
            OperationSig::announcement(op, params)
        } else {
            OperationSig::interrogation(op, params, vec![])
        };
        let mut target = InterfaceRef::new(iface, home, InterfaceType::new(vec![sig]));
        target.relocator = capsule.relocator_ref().map(|r| r.home);
        let binding = capsule.bind_with(target, self.forwarding_policy());
        let forwarded = if announcement {
            binding.announce(op, app_args).map(|()| Outcome::ok(vec![]))
        } else {
            binding.interrogate_annotated(op, app_args, ctx.annotations.clone())
        };
        let mut outcome = match forwarded {
            Ok(outcome) => self.translator.translate_outcome(op, outcome),
            Err(e) => return e.across_boundary(),
        };
        if self.proxy_results {
            self.substitute_proxies(&capsule, &mut outcome);
        }
        outcome
    }

    fn substitute_proxies(&self, capsule: &Arc<Capsule>, outcome: &mut Outcome) {
        let policy = self.forwarding_policy();
        for value in &mut outcome.results {
            value.map_refs(&mut |r| {
                // Only objects inside this domain need representatives.
                if self.map.domain_of(r.home) == Some(self.my_domain) {
                    let proxy = ProxyServant::new(r.clone(), capsule, policy.clone());
                    *r = capsule.export(Arc::new(proxy) as Arc<dyn Servant>);
                }
            });
        }
    }
}

impl Servant for Gateway {
    fn interface_type(&self) -> InterfaceType {
        gateway_interface_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, ctx: &CallCtx) -> Outcome {
        match op {
            RELAY_OP => self.relay(args, ctx),
            _ => Outcome::fail("unknown operation"),
        }
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("domain", &self.my_domain)
            .field("proxy_results", &self.proxy_results)
            .finish()
    }
}
