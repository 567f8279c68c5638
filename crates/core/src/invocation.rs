//! Client-side invocation: bindings, layer stacks and the access layer.
//!
//! §4.5 of the paper: *"Transparency is achieved by linking transparency
//! mechanisms into the access path to an interface so that effects due to
//! distribution are filtered."* A [`ClientBinding`] is exactly that linked
//! access path: an ordered stack of [`ClientLayer`]s chosen declaratively by
//! a [`crate::TransparencyPolicy`], terminating in the [`AccessLayer`] which
//! performs marshalling and the REX exchange — or, when client and server
//! share a capsule, **direct dispatch** ("direct local access can be used
//! for co-located data — trading off flexibility and portability against
//! performance", §4.5).
//!
//! Below the stub every layer sees one contract: a call that the
//! infrastructure could not complete is an `Err`, never an `Ok` outcome.
//! The access layer maps each engineering [`Code`] to its typed
//! [`InvokeError`] once, in one exhaustive match, so the retry, breaker,
//! location and group layers react to `Rejected`, `Stale` or `Redirect`
//! without comparing strings. [`InvokeError::across_boundary`] is the
//! inverse, for relays that answer another domain. Every request carries
//! one absolute deadline, stamped by the stub.
//!
//! Server-side interception mirrors the client stack: [`ServerLayer`]s
//! installed at export time wrap the servant (security guards, concurrency
//! control managers — both are "generated" from declarative statements in
//! their crates and linked here).

use crate::capsule::Capsule;
use crate::object::{self, CallCtx, Code, Outcome, Termination};
use odp_net::{CallQos, RexError};
use odp_telemetry::{LayerMetrics, SpanRecord, TraceContext};
use odp_types::{conformance, ConformanceError, InterfaceId, InterfaceType, NodeId, OperationKind};
use odp_wire::{InterfaceRef, TypeCheckError, Value};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// One in-flight invocation as seen by the layer stack.
#[derive(Debug, Clone)]
pub struct CallRequest {
    /// Where the call is currently aimed (layers may retarget it).
    pub target: InterfaceRef,
    /// Operation name.
    pub op: String,
    /// Argument values.
    pub args: Vec<Value>,
    /// Engineering annotations (transactions, credentials…).
    pub annotations: BTreeMap<String, Value>,
    /// Communications QoS for this call.
    pub qos: CallQos,
    /// True for announcements.
    pub announcement: bool,
    /// Absolute end-to-end deadline for the *whole* invocation, stamped at
    /// the stub. Layers that sleep or re-issue attempts (retry, location,
    /// replication fan-out) must respect it, and the access layer clamps
    /// each attempt's QoS to the remaining budget, so stacked retries can
    /// never exceed the caller's total deadline.
    pub deadline: Instant,
    /// Trace context for this request. The stub stamps a fresh (or
    /// inherited) context when telemetry is recording; each instrumented
    /// layer rewrites it to its own child span before delegating, so the
    /// context the access layer puts on the wire names the innermost
    /// client-side span — the server's dispatch span parents to it.
    pub trace: TraceContext,
}

impl CallRequest {
    /// The time left before [`CallRequest::deadline`]; `ZERO` means the
    /// budget is spent.
    #[must_use]
    pub fn remaining_budget(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now())
    }
}

/// Why an invocation failed at the engineering level.
///
/// Application-level outcomes (including application failures) are *not*
/// errors: they arrive as [`Outcome`]s. An `InvokeError` always means the
/// infrastructure could not complete the interaction.
#[derive(Debug, Clone, PartialEq)]
pub enum InvokeError {
    /// The REX exchange failed (timeout, unreachable, transport).
    Rex(RexError),
    /// An argument failed type checking against the signature.
    TypeCheck(TypeCheckError),
    /// The operation is not in the target's signature.
    NoSuchOperation(String),
    /// Interrogation invoked on an announcement operation or vice versa.
    KindMismatch {
        /// The operation at fault.
        op: String,
        /// Its declared kind.
        declared: OperationKind,
    },
    /// The reached node does not export the interface.
    NoSuchInterface(InterfaceId),
    /// The interface was explicitly closed (§7.3).
    Closed(InterfaceId),
    /// The interface moved and location transparency was not selected; the
    /// hint carries the new location if the old node provided one.
    Stale {
        /// The interface that moved.
        iface: InterfaceId,
        /// `(new_home, epoch)` if known.
        hint: Option<(NodeId, u64)>,
    },
    /// A circuit breaker in the access path is open and shed the call
    /// without touching the network (failure transparency, load-shedding
    /// half).
    CircuitOpen,
    /// The *server's* admission control shed the call before dispatch.
    /// Distinct from failure: the server is healthy but saturated, the
    /// call was never executed, and retrying immediately only amplifies
    /// the overload — honor `retry_after` instead.
    Rejected {
        /// Server's back-off hint before re-offering the call.
        retry_after: Duration,
    },
    /// A security guard refused the interaction (§7.1).
    Denied(String),
    /// A concurrency-control layer aborted the interaction (§5.2).
    Aborted(String),
    /// The server reported a dynamic type error.
    RemoteTypeError(String),
    /// Signatures failed to conform at bind time.
    NotConformant(ConformanceError),
    /// Reply or request bytes did not decode.
    Protocol(String),
    /// The interface is passivated and must be activated before use (§5.5).
    Passive(String),
    /// Another node serves the call (a replica group's sequencer).
    Redirect(NodeId),
    /// The caller acted on state the receiver has passed; the number it expects.
    Fenced(u64),
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::Rex(e) => write!(f, "communication failed: {e}"),
            InvokeError::TypeCheck(e) => write!(f, "argument type error: {e}"),
            InvokeError::NoSuchOperation(op) => write!(f, "no such operation `{op}`"),
            InvokeError::KindMismatch { op, declared } => {
                write!(f, "operation `{op}` is declared as {declared:?}")
            }
            InvokeError::NoSuchInterface(i) => write!(f, "interface {i} not exported"),
            InvokeError::Closed(i) => write!(f, "interface {i} has been closed"),
            InvokeError::Stale { iface, hint } => {
                write!(f, "reference to {iface} is stale (hint: {hint:?})")
            }
            InvokeError::CircuitOpen => write!(f, "circuit breaker open: call shed"),
            InvokeError::Rejected { retry_after } => {
                write!(
                    f,
                    "server shed the call (overloaded); retry after {retry_after:?}"
                )
            }
            InvokeError::Denied(why) => write!(f, "access denied: {why}"),
            InvokeError::Aborted(why) => write!(f, "aborted by concurrency control: {why}"),
            InvokeError::RemoteTypeError(why) => write!(f, "server rejected arguments: {why}"),
            InvokeError::NotConformant(e) => write!(f, "signature mismatch: {e}"),
            InvokeError::Protocol(why) => write!(f, "protocol error: {why}"),
            InvokeError::Passive(why) => write!(f, "interface is passive: {why}"),
            InvokeError::Redirect(node) => write!(f, "redirected to {node}"),
            InvokeError::Fenced(next) => write!(f, "fenced: receiver expects {next}"),
        }
    }
}

impl InvokeError {
    /// What a relay (federation gateway or proxy) answers when the call it
    /// forwarded failed with `self`: the inverse of `interpret` for the codes
    /// that cross a domain boundary, `Denied` and `Aborted`, which mean the
    /// same on either side. Codes naming the far domain's nodes (`Moved`,
    /// `NoSuchInterface`, `Closed`…) and local failures become a `fail`.
    #[must_use]
    pub fn across_boundary(self) -> Outcome {
        match self {
            InvokeError::Denied(why) => Outcome::engineering(Code::Denied, vec![Value::str(why)]),
            InvokeError::Aborted(why) => Outcome::engineering(Code::Aborted, vec![Value::str(why)]),
            e => Outcome::fail(format!("forwarding failed: {e}")),
        }
    }
}

impl std::error::Error for InvokeError {}

impl From<RexError> for InvokeError {
    fn from(e: RexError) -> Self {
        InvokeError::Rex(e)
    }
}

impl From<TypeCheckError> for InvokeError {
    fn from(e: TypeCheckError) -> Self {
        InvokeError::TypeCheck(e)
    }
}

/// Continuation handed to a [`ClientLayer`]: invokes the rest of the stack.
pub trait ClientNext: Sync {
    /// Runs the remaining layers and the access layer.
    fn invoke(&self, req: CallRequest) -> Result<Outcome, InvokeError>;
}

/// One mechanism in the client-side access path.
pub trait ClientLayer: Send + Sync {
    /// Handles the request, typically delegating to `next` once (or more,
    /// for retry/fan-out layers).
    fn invoke(&self, req: CallRequest, next: &dyn ClientNext) -> Result<Outcome, InvokeError>;

    /// Diagnostic name shown in binding debug output.
    fn name(&self) -> &'static str;
}

/// Continuation for server layers: the remaining chain plus the servant.
pub trait ServerNext: Sync {
    /// Runs the remaining server layers and finally the servant.
    fn dispatch(&self, ctx: &CallCtx, op: &str, args: Vec<Value>) -> Outcome;
}

/// One mechanism in the server-side dispatch path (guards, lock managers).
pub trait ServerLayer: Send + Sync {
    /// Handles the dispatch, typically delegating to `next`.
    fn dispatch(&self, ctx: &CallCtx, op: &str, args: Vec<Value>, next: &dyn ServerNext)
        -> Outcome;

    /// Diagnostic name.
    fn name(&self) -> &'static str;
}

/// The bottom of every client stack: type checking, marshalling and the
/// REX exchange — or direct dispatch for co-located interfaces.
pub struct AccessLayer {
    capsule: Weak<Capsule>,
    /// When true, co-located calls still go through marshalling and the
    /// loopback network. Exists so experiments can measure exactly what
    /// the co-location optimization saves (E1).
    pub force_remote: bool,
}

impl AccessLayer {
    /// Creates the access layer for a capsule.
    #[must_use]
    pub fn new(capsule: &Arc<Capsule>, force_remote: bool) -> Self {
        Self {
            capsule: Arc::downgrade(capsule),
            force_remote,
        }
    }

    fn capsule(&self) -> Result<Arc<Capsule>, InvokeError> {
        self.capsule
            .upgrade()
            .ok_or_else(|| InvokeError::Protocol("capsule has been dropped".to_owned()))
    }

    /// Performs the base invocation (no further layers below).
    ///
    /// # Errors
    ///
    /// Every engineering failure, including an engineering code the
    /// server answered with, which is mapped here and nowhere else: an
    /// `Ok` outcome from here is never an engineering one.
    fn invoke_base(&self, req: CallRequest) -> Result<Outcome, InvokeError> {
        let capsule = self.capsule()?;
        // Deadline propagation: clamp this attempt's QoS to what is left of
        // the caller's end-to-end budget (and fail fast if it is spent).
        let remaining = req.remaining_budget();
        if remaining.is_zero() {
            return Err(InvokeError::Rex(RexError::Timeout));
        }
        let qos = req.qos.clamp_to(remaining);
        check_call(&req.target.ty, &req.op, req.announcement, &req.args)?;

        let iface = req.target.iface;
        let local = req.target.home == capsule.node() && capsule.has_export(iface);
        if local && !self.force_remote {
            capsule.count_local_fast_path();
            if req.announcement {
                // A new activity, as §5.1 requires: the announcement runs on
                // the capsule's REX workers, where remote ones run too. The
                // job holds the capsule weakly, so a queued announcement
                // never keeps a dropped capsule alive.
                let weak = Arc::downgrade(&capsule);
                let queued = capsule.rex().try_execute(Box::new(move || {
                    if let Some(capsule) = weak.upgrade() {
                        // odp-lint: allow(l6, reason = "announcements are fire-and-forget by contract; the outcome has no addressee")
                        let _ = capsule.dispatch_entry_owned(req, true);
                    }
                }));
                if let Err(job) = queued {
                    // Queue full or endpoint shut down: run it here. The
                    // caller loses only the asynchrony, never the
                    // announcement.
                    job();
                }
                return Ok(Outcome::ok(vec![]));
            }
            return interpret(iface, capsule.dispatch_entry_owned(req, false));
        }

        // Remote (or forced-remote loopback) path: marshal into a pooled
        // buffer (zero allocations at steady state) and exchange.
        let body = object::encode_request_pooled(&req.annotations, &req.args);
        if req.announcement {
            capsule
                .rex()
                .announce(req.target.home, req.target.iface, &req.op, &body, req.trace)?;
            return Ok(Outcome::ok(vec![]));
        }
        let reply = capsule.rex().call(
            req.target.home,
            req.target.iface,
            &req.op,
            &body,
            qos,
            req.trace,
        )?;
        interpret(
            iface,
            object::decode_outcome_frame(&reply).map_err(InvokeError::Protocol)?,
        )
    }
}

/// The one signature check of a call, run by the access layer against the
/// caller's reference and by the dispatcher against the export (which the
/// reference may misdescribe): §5.1 requires "prior agreement that the
/// client activity is requesting an operation provided by the server
/// interface" — its name, its kind and its argument types.
pub(crate) fn check_call(
    ty: &InterfaceType,
    op: &str,
    announcement: bool,
    args: &[Value],
) -> Result<(), InvokeError> {
    let sig = ty
        .operation(op)
        .ok_or_else(|| InvokeError::NoSuchOperation(op.to_owned()))?;
    let kind = if announcement {
        OperationKind::Announcement
    } else {
        OperationKind::Interrogation
    };
    if sig.kind != kind {
        return Err(InvokeError::KindMismatch {
            op: op.to_owned(),
            declared: sig.kind,
        });
    }
    if args.len() != sig.params.len() {
        return Err(InvokeError::TypeCheck(TypeCheckError::ArityMismatch {
            expected: sig.params.len(),
            actual: args.len(),
        }));
    }
    for (i, (arg, spec)) in args.iter().zip(&sig.params).enumerate() {
        odp_wire::check_value(arg, spec).map_err(|e| InvokeError::TypeCheck(e.at_position(i)))?;
    }
    Ok(())
}

/// Decodes a `[Int(node), Int(epoch)]` location, as a [`Code::Moved`]
/// tombstone and the relocator's lookup answer carry it.
pub(crate) fn location_of(results: &[Value]) -> Option<(NodeId, u64)> {
    match results {
        [Value::Int(node), Value::Int(epoch), ..] => Some((NodeId(*node as u64), *epoch as u64)),
        _ => None,
    }
}

/// Maps an engineering [`Code`] to its [`InvokeError`]; an `ok` or
/// application outcome passes through.
pub(crate) fn interpret(iface: InterfaceId, outcome: Outcome) -> Result<Outcome, InvokeError> {
    let Termination::Engineering(code) = outcome.termination else {
        return Ok(outcome);
    };
    let results = &outcome.results;
    let why = results.first().and_then(Value::as_str).unwrap_or("");
    let int = results.first().and_then(Value::as_int);
    let malformed = || InvokeError::Protocol(format!("{code:?} without its number"));
    Err(match code {
        Code::NoSuchInterface => InvokeError::NoSuchInterface(iface),
        Code::NoSuchOperation => InvokeError::NoSuchOperation(why.to_owned()),
        Code::Closed => InvokeError::Closed(iface),
        Code::Moved => InvokeError::Stale {
            iface,
            hint: location_of(results),
        },
        Code::TypeError => InvokeError::RemoteTypeError(why.to_owned()),
        Code::Denied => InvokeError::Denied(why.to_owned()),
        Code::Aborted => InvokeError::Aborted(why.to_owned()),
        Code::Passive => InvokeError::Passive(why.to_owned()),
        Code::Rejected => InvokeError::Rejected {
            retry_after: Duration::from_micros(int.unwrap_or(0).max(0) as u64),
        },
        Code::Redirect => int.map_or_else(malformed, |n| InvokeError::Redirect(NodeId(n as u64))),
        Code::Fenced => int.map_or_else(malformed, |n| InvokeError::Fenced(n as u64)),
    })
}

impl fmt::Debug for AccessLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccessLayer")
            .field("force_remote", &self.force_remote)
            .finish()
    }
}

/// How a telemetry scope joins its trace.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Join {
    /// The stub: begins a trace, or continues the thread's current one.
    Root,
    /// A client layer: a child span of the request's trace.
    Layer,
    /// A dispatch: a child span of the caller's trace.
    Dispatch,
}

/// What a scope instruments: a call carrying a trace context and an op.
pub(crate) trait Traced {
    fn trace(&mut self) -> &mut TraceContext;
    fn op(&self) -> &str;
}

impl Traced for CallRequest {
    fn trace(&mut self) -> &mut TraceContext {
        &mut self.trace
    }
    fn op(&self) -> &str {
        &self.op
    }
}

/// A dispatch: the server-side call context, operation and arguments.
impl Traced for (&mut CallCtx, &str, Vec<Value>) {
    fn trace(&mut self) -> &mut TraceContext {
        &mut self.0.trace
    }
    fn op(&self) -> &str {
        self.1
    }
}

/// How a scope reads the end of the call it instrumented.
pub(crate) trait Finished {
    fn failed(&self) -> bool;
    fn termination(&self) -> String;
}

impl Finished for Result<Outcome, InvokeError> {
    fn failed(&self) -> bool {
        self.is_err()
    }
    fn termination(&self) -> String {
        match self {
            Ok(outcome) => outcome.termination.to_string(),
            Err(e) => format!("error: {e}"),
        }
    }
}

impl Finished for Outcome {
    fn failed(&self) -> bool {
        self.is_engineering()
    }
    fn termination(&self) -> String {
        self.termination.to_string()
    }
}

/// One instrumented point of the access path — the stub, a client layer,
/// the access layer or a capsule's dispatcher — with its span name, node
/// and metric cell, resolved once when the binding or capsule is built.
pub(crate) struct Site {
    layer: &'static str,
    node: u64,
    metric: Arc<LayerMetrics>,
}

impl Site {
    pub(crate) fn new(node: u64, layer: &'static str) -> Site {
        Site {
            layer,
            node,
            metric: odp_telemetry::hub().metrics().register(node, layer),
        }
    }

    /// Runs `body` on `call` with the telemetry treatment the current
    /// mode calls for: nothing when recording is off, a counter increment
    /// when the trace is unsampled, and a timed span (with the call's
    /// trace context rewritten to a fresh child) when it is sampled.
    ///
    /// The stub and a dispatch install their trace as the thread's
    /// current one even when it is unsampled, so nested invocations join
    /// it rather than draw their own sampling decision: a whole tree is
    /// recorded or none of it is.
    pub(crate) fn scope<C: Traced, R: Finished>(
        &self,
        join: Join,
        mut call: C,
        body: impl FnOnce(C) -> R,
    ) -> R {
        let hub = odp_telemetry::hub();
        if !hub.recording() {
            return body(call);
        }
        let parent = *call.trace();
        let ctx = match join {
            Join::Root => hub.begin_trace(odp_telemetry::current()),
            Join::Layer | Join::Dispatch if parent.is_sampled() => hub.child_of(parent),
            Join::Layer | Join::Dispatch => parent,
        };
        *call.trace() = ctx;
        // Nested invocations issued inside the body (relocator lookups,
        // group member calls, servant code) parent to this scope.
        let _current =
            (ctx.is_sampled() || join != Join::Layer).then(|| odp_telemetry::set_current(ctx));
        if !ctx.is_sampled() {
            let result = body(call);
            self.metric.count(result.failed());
            return result;
        }
        let op = call.op().to_owned();
        let start = hub.now_ns();
        let result = body(call);
        let end = hub.now_ns();
        self.metric.record_call_exemplar(
            end.saturating_sub(start),
            result.failed(),
            ctx.trace_id,
            self.node,
        );
        hub.record_span(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span: ctx.parent_span,
            node: self.node,
            layer: self.layer,
            op: Some(op),
            start_ns: start,
            end_ns: end,
            termination: result.termination(),
        });
        result
    }
}

/// The rest of a binding's stack: the layers still to run, then access.
struct StackNext<'a> {
    layers: &'a [(Site, Arc<dyn ClientLayer>)],
    binding: &'a ClientBinding,
}

impl ClientNext for StackNext<'_> {
    fn invoke(&self, req: CallRequest) -> Result<Outcome, InvokeError> {
        match self.layers.split_first() {
            Some(((site, layer), rest)) => {
                let next = StackNext {
                    layers: rest,
                    binding: self.binding,
                };
                site.scope(Join::Layer, req, |req| layer.invoke(req, &next))
            }
            None => {
                let (site, access) = &self.binding.access;
                site.scope(Join::Layer, req, |req| access.invoke_base(req))
            }
        }
    }
}

/// A client binding: an interface reference plus its assembled access path.
///
/// Bindings are produced by [`Capsule::bind`](crate::Capsule::bind) and
/// friends. The carried reference is shared and updated in place by the
/// location layer when the target moves — holders of the binding
/// transparently follow.
pub struct ClientBinding {
    target: Arc<RwLock<InterfaceRef>>,
    /// The layers, then the access layer, each paired with its telemetry
    /// site at assemble time.
    layers: Vec<(Site, Arc<dyn ClientLayer>)>,
    access: (Site, AccessLayer),
    stub_site: Site,
    default_qos: CallQos,
}

impl ClientBinding {
    /// Assembles a binding from parts (used by `Capsule::bind*`).
    #[must_use]
    pub fn assemble(
        target: Arc<RwLock<InterfaceRef>>,
        layers: Vec<Arc<dyn ClientLayer>>,
        access: AccessLayer,
        default_qos: CallQos,
    ) -> Self {
        let node = access
            .capsule
            .upgrade()
            .map(|c| c.node().raw())
            .unwrap_or(0);
        Self {
            target,
            layers: layers
                .into_iter()
                .map(|l| (Site::new(node, l.name()), l))
                .collect(),
            access: (Site::new(node, "access"), access),
            stub_site: Site::new(node, "client"),
            default_qos,
        }
    }

    /// Runs one stub-level invocation inside the root `"client"` scope:
    /// the trace current on this thread (if any) is continued, so nested
    /// invocations stay connected.
    fn invoke_traced(&self, req: CallRequest) -> Result<Outcome, InvokeError> {
        let stack = StackNext {
            layers: &self.layers,
            binding: self,
        };
        self.stub_site
            .scope(Join::Root, req, |req| stack.invoke(req))
    }

    /// The current (possibly relocated) target reference.
    #[must_use]
    pub fn target(&self) -> InterfaceRef {
        self.target.read().clone()
    }

    /// Shared handle to the target reference (used by location layers).
    #[must_use]
    pub fn target_cell(&self) -> Arc<RwLock<InterfaceRef>> {
        Arc::clone(&self.target)
    }

    /// Performs an interrogation and returns its outcome.
    ///
    /// An engineering termination no selected transparency layer absorbed
    /// arrives as the [`InvokeError`] the access layer mapped it to.
    ///
    /// # Errors
    ///
    /// Any [`InvokeError`].
    pub fn interrogate(&self, op: &str, args: Vec<Value>) -> Result<Outcome, InvokeError> {
        self.interrogate_annotated(op, args, BTreeMap::new())
    }

    /// Interrogation with engineering annotations (transactions, tokens).
    ///
    /// # Errors
    ///
    /// Any [`InvokeError`].
    pub fn interrogate_annotated(
        &self,
        op: &str,
        args: Vec<Value>,
        annotations: BTreeMap<String, Value>,
    ) -> Result<Outcome, InvokeError> {
        let req = CallRequest {
            target: self.target(),
            op: op.to_owned(),
            args,
            annotations,
            qos: self.default_qos,
            announcement: false,
            // The binding's QoS deadline is the caller's end-to-end budget:
            // stamp it once here so every layer below shares the same clock.
            deadline: Instant::now() + self.default_qos.deadline,
            trace: TraceContext::NONE,
        };
        self.invoke_traced(req)
    }

    /// Sends an announcement.
    ///
    /// # Errors
    ///
    /// Only local engineering errors; remote failure is invisible (§5.1).
    pub fn announce(&self, op: &str, args: Vec<Value>) -> Result<(), InvokeError> {
        let req = CallRequest {
            target: self.target(),
            op: op.to_owned(),
            args,
            annotations: BTreeMap::new(),
            qos: self.default_qos,
            announcement: true,
            deadline: Instant::now() + self.default_qos.deadline,
            trace: TraceContext::NONE,
        };
        self.invoke_traced(req)?;
        Ok(())
    }
}

impl fmt::Debug for ClientBinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<_> = self.layers.iter().map(|(_, l)| l.name()).collect();
        f.debug_struct("ClientBinding")
            .field("target", &*self.target.read())
            .field("layers", &names)
            .finish()
    }
}

/// Checks at bind time that `provided` (the reference's signature) can
/// serve a client written against `required`.
///
/// # Errors
///
/// [`InvokeError::NotConformant`] with the precise mismatch.
pub fn check_bind(
    provided: &odp_types::InterfaceType,
    required: &odp_types::InterfaceType,
) -> Result<(), InvokeError> {
    conformance::conforms(provided, required).map_err(InvokeError::NotConformant)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The access layer reads each code into its error, refuses a code
    /// whose number is missing, and `across_boundary` inverts it for the
    /// codes that cross and flattens the rest.
    #[test]
    fn codes_map_to_errors_and_back() {
        let iface = InterfaceId(7);
        let read = |code, results| interpret(iface, Outcome::engineering(code, results));
        assert_eq!(
            read(Code::Redirect, vec![Value::Int(3)]),
            Err(InvokeError::Redirect(NodeId(3)))
        );
        assert_eq!(
            read(Code::Fenced, vec![Value::Int(9)]),
            Err(InvokeError::Fenced(9))
        );
        assert_eq!(
            read(Code::Passive, vec![Value::str("cold")]),
            Err(InvokeError::Passive("cold".to_owned()))
        );
        for code in [Code::Redirect, Code::Fenced] {
            assert!(matches!(read(code, vec![]), Err(InvokeError::Protocol(_))));
        }
        let app = Outcome::new("Moved", vec![Value::Int(99)]);
        assert_eq!(interpret(iface, app.clone()), Ok(app));

        for e in [
            InvokeError::Denied("no".to_owned()),
            InvokeError::Aborted("busy".to_owned()),
        ] {
            assert_eq!(interpret(iface, e.clone().across_boundary()), Err(e));
        }
        let moved = InvokeError::Stale { iface, hint: None }.across_boundary();
        assert_eq!(moved.termination, "fail");
    }
}
