//! Objects, outcomes and call contexts — the computational model.
//!
//! §4.1: *"the client is effectively referencing a `<procedure, data>`
//! combination … Often there are several procedures that can be applied to
//! the same body of data; together these procedures define a self-consistent
//! set of operations providing a consistent service. The point of access to
//! those operations is termed an interface."* A [`Servant`] is one such body
//! of data behind an interface.
//!
//! §5.1: *"Each operation should be permitted to have a range of possible
//! outcomes, each one of which carries its own package of results."* An
//! [`Outcome`] is one element of that range. Its [`Termination`] is `ok`,
//! an application name or an engineering [`Code`], so no application
//! outcome, however spelled, is taken for an infrastructure failure.

use odp_types::{InterfaceType, NodeId, TxnId};
use odp_wire::encode::{encode_str_value, put_record_header, put_str, put_varint};
use odp_wire::{encode_value, ByteCount, EncodeBuf, PooledBuf, Value};
use std::collections::BTreeMap;
use std::fmt;

/// The closed table of engineering terminations, each with the results it
/// carries; the access layer maps each to its [`crate::InvokeError`]. On the
/// wire a code is its discriminant, like JSON-RPC's reserved error codes:
/// `0` is `ok`, positive numbers are unassigned, an application name is a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// The interface is not exported at the reached node; `[Int(iface)]`.
    NoSuchInterface = -1,
    /// The operation is not in the interface's signature; `[Str(op)]`.
    NoSuchOperation = -2,
    /// The interface was explicitly closed (§7.3); `[Int(iface)]`.
    Closed = -3,
    /// The interface has migrated (§5.5); `[Int(new_home), Int(epoch)]`.
    Moved = -4,
    /// The arguments failed type checking at the server; `[Str(why)]`.
    TypeError = -5,
    /// A security guard refused the interaction (§7.1); `[Str(why)]`.
    Denied = -6,
    /// Concurrency control aborted the interaction (§5.2); `[Str(why)]`.
    Aborted = -7,
    /// The interface is passive and must be activated (§5.5); `[Str(why)]`.
    Passive = -8,
    /// Admission control shed the call unrun; `[Int(retry_after_µs)]`.
    Rejected = -9,
    /// Another node serves the call (a group's sequencer); `[Int(node)]`.
    Redirect = -10,
    /// The caller acted on state the receiver has passed; `[Int(next)]`.
    Fenced = -11,
}

impl Code {
    /// Every code, in table order.
    const ALL: [Code; 11] = [
        Code::NoSuchInterface,
        Code::NoSuchOperation,
        Code::Closed,
        Code::Moved,
        Code::TypeError,
        Code::Denied,
        Code::Aborted,
        Code::Passive,
        Code::Rejected,
        Code::Redirect,
        Code::Fenced,
    ];

    /// The code with wire number `n`, if the table has one.
    fn from_wire(n: i64) -> Option<Code> {
        Code::ALL.into_iter().find(|c| *c as i64 == n)
    }
}

/// How an invocation ended: `ok`, an application name, or an engineering
/// [`Code`]. No string equals a code, so `outcome.termination ==
/// "overdrawn"` reads as it should; a code prints as its variant name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Termination {
    /// The conventional success termination, `"ok"`.
    Ok,
    /// An application-defined termination.
    App(String),
    /// An engineering termination raised by the infrastructure.
    Engineering(Code),
}

impl PartialEq<&str> for Termination {
    fn eq(&self, other: &&str) -> bool {
        match self {
            Termination::Ok => *other == "ok",
            Termination::App(name) => name == other,
            Termination::Engineering(_) => false,
        }
    }
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Termination::Ok => f.write_str("ok"),
            Termination::App(name) => f.write_str(name),
            Termination::Engineering(code) => write!(f, "{code:?}"),
        }
    }
}

/// One termination of an invocation plus its results.
#[derive(Clone, PartialEq, Eq)]
pub struct Outcome {
    /// How the invocation ended.
    pub termination: Termination,
    /// The package of results carried by this termination.
    pub results: Vec<Value>,
}

impl Outcome {
    /// The conventional success termination.
    #[must_use]
    pub fn ok(results: Vec<Value>) -> Self {
        Self {
            termination: Termination::Ok,
            results,
        }
    }

    /// An application-defined termination (`"ok"` is [`Termination::Ok`]).
    #[must_use]
    pub fn new<S: Into<String>>(termination: S, results: Vec<Value>) -> Self {
        match termination.into() {
            ok if ok == "ok" => Self::ok(results),
            name => Self {
                termination: Termination::App(name),
                results,
            },
        }
    }

    /// The conventional failure termination with a message.
    #[must_use]
    pub fn fail<S: Into<String>>(message: S) -> Self {
        Self::new("fail", vec![Value::str(message.into())])
    }

    /// An engineering termination, with `results` as [`Code`] lists them.
    #[must_use]
    pub fn engineering(code: Code, results: Vec<Value>) -> Self {
        Self {
            termination: Termination::Engineering(code),
            results,
        }
    }

    /// True if the termination is `"ok"`.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.termination == "ok"
    }

    /// True if the termination is an engineering code.
    #[must_use]
    pub fn is_engineering(&self) -> bool {
        matches!(self.termination, Termination::Engineering(_))
    }

    /// First result, if any.
    #[must_use]
    pub fn result(&self) -> Option<&Value> {
        self.results.first()
    }

    /// First result as an integer (common case in tests and examples).
    #[must_use]
    pub fn int(&self) -> Option<i64> {
        self.result().and_then(Value::as_int)
    }
}

impl fmt::Debug for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({:?})", self.termination, self.results)
    }
}

/// Context delivered with every dispatch.
///
/// The `annotations` map is the extension point by which other platform
/// crates thread engineering state through an invocation without the
/// application seeing it: transaction identifiers (`odp-tx`), security
/// credentials (`odp-security`), accounting records (`odp-federation`).
#[derive(Debug, Clone, Default)]
pub struct CallCtx {
    /// The calling node (as authenticated by the transport; `odp-security`
    /// guards add cryptographic verification on top).
    pub caller: NodeId,
    /// The interface the call arrived at.
    pub iface: odp_types::InterfaceId,
    /// True if the invocation is an announcement.
    pub announcement: bool,
    /// Engineering annotations carried with the call.
    pub annotations: BTreeMap<String, Value>,
    /// Trace context the invocation arrived with (from the request
    /// envelope, or directly from the caller on the co-located fast
    /// path); [`odp_telemetry::TraceContext::NONE`] when untraced.
    pub trace: odp_telemetry::TraceContext,
    /// Scheduling class the call arrived with (from the request envelope;
    /// `Normal` on the co-located fast path unless the policy says
    /// otherwise). Admission control dequeues strictly highest-first.
    pub priority: odp_wire::CallPriority,
    /// Absolute deadline reconstructed from the envelope's relative
    /// budget, anchored at the frame's *arrival* instant so time spent in
    /// admission queues counts against it. `None` for announcements and
    /// calls sent without a deadline.
    pub deadline: Option<std::time::Instant>,
}

impl CallCtx {
    /// Annotation key used by `odp-tx` for transaction identifiers.
    pub const TXN_KEY: &'static str = "__txn";

    /// Returns the transaction this call runs under, if any.
    #[must_use]
    pub fn txn(&self) -> Option<TxnId> {
        self.annotations
            .get(Self::TXN_KEY)
            .and_then(Value::as_int)
            .map(|i| TxnId(i as u64))
    }
}

/// An ADT implementation: the data plus its operations.
///
/// Dispatch receives the operation name, the (already unmarshalled and
/// type-checked) arguments, and the call context, and returns one of the
/// interface's declared outcomes. Servants must be `Send + Sync`: §4.1 warns
/// that "concurrency is the norm in a distributed system and program
/// executions are truly overlapped" — a servant is responsible for its own
/// internal locking unless exported with a serialized dispatch discipline.
pub trait Servant: Send + Sync {
    /// The structural signature of this ADT's interface.
    fn interface_type(&self) -> InterfaceType;

    /// Executes one operation.
    fn dispatch(&self, op: &str, args: Vec<Value>, ctx: &CallCtx) -> Outcome;

    /// Serializes the servant's state for migration, passivation or
    /// checkpointing (§5.5). The paper makes the *object* responsible for
    /// its own snapshot: "an object has to take the responsibility for
    /// moving itself … since this provides for the opportunity to represent
    /// its state in a more compact or resilient form". Returns `None` if
    /// the object does not support transparency mechanisms that need
    /// snapshots.
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Reinstates state produced by [`Servant::snapshot`].
    ///
    /// # Errors
    ///
    /// A human-readable reason if the snapshot cannot be applied.
    fn restore(&self, _snapshot: &[u8]) -> Result<(), String> {
        Err("object does not support restore".to_owned())
    }
}

/// Adapts a closure into a [`Servant`] — convenient for small services and
/// tests. The closure receives `(op, args, ctx)`.
pub struct FnServant<F>
where
    F: Fn(&str, Vec<Value>, &CallCtx) -> Outcome + Send + Sync,
{
    ty: InterfaceType,
    f: F,
}

impl<F> FnServant<F>
where
    F: Fn(&str, Vec<Value>, &CallCtx) -> Outcome + Send + Sync,
{
    /// Wraps `f` as a servant with signature `ty`.
    pub fn new(ty: InterfaceType, f: F) -> Self {
        Self { ty, f }
    }
}

impl<F> Servant for FnServant<F>
where
    F: Fn(&str, Vec<Value>, &CallCtx) -> Outcome + Send + Sync,
{
    fn interface_type(&self) -> InterfaceType {
        self.ty.clone()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, ctx: &CallCtx) -> Outcome {
        (self.f)(op, args, ctx)
    }
}

impl<F> fmt::Debug for FnServant<F>
where
    F: Fn(&str, Vec<Value>, &CallCtx) -> Outcome + Send + Sync,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnServant").field("ty", &self.ty).finish()
    }
}

/// Writes an outcome as a REX reply body, `[Int(0) | Int(code) | Str(name),
/// results…]`, streaming the results without cloning them into an
/// intermediate `Vec<Value>`.
fn put_outcome<B: EncodeBuf>(buf: &mut B, outcome: &Outcome) {
    buf.push_u8(odp_wire::WIRE_VERSION);
    put_varint(buf, 1 + outcome.results.len() as u64);
    match &outcome.termination {
        Termination::Ok => encode_value(buf, &Value::Int(0)),
        Termination::App(name) => encode_str_value(buf, name),
        Termination::Engineering(code) => encode_value(buf, &Value::Int(*code as i64)),
    }
    for v in &outcome.results {
        encode_value(buf, v);
    }
}

/// Encodes an outcome as a REX reply body into a recycled pool buffer of
/// exactly the body's size. The steady-state server reply path costs zero
/// heap allocations.
#[must_use]
pub fn encode_outcome_pooled(outcome: &Outcome) -> PooledBuf {
    let mut buf = PooledBuf::acquire(ByteCount::measure(|count| put_outcome(count, outcome)));
    put_outcome(&mut buf, outcome);
    buf
}

/// Decodes a REX reply body zero-copy: string and blob results are
/// refcounted slices of `body` rather than copies. Callers that retain
/// results past the frame's lifetime should [`Value::into_owned`] them.
///
/// # Errors
///
/// Returns a description if the body is not a valid outcome encoding.
pub fn decode_outcome_frame(body: &bytes::Bytes) -> Result<Outcome, String> {
    let mut values = odp_wire::unmarshal_frame(body).map_err(|e| e.to_string())?;
    if values.is_empty() {
        return Err("empty outcome payload".to_owned());
    }
    let termination = match values.remove(0) {
        Value::Int(0) => Termination::Ok,
        Value::Int(n) => Termination::Engineering(
            Code::from_wire(n).ok_or_else(|| format!("unknown termination code {n}"))?,
        ),
        Value::Str(s) => return Ok(Outcome::new(s.into_string(), values)),
        other => {
            return Err(format!(
                "termination must be a code or a name, got {other:?}"
            ))
        }
    };
    Ok(Outcome {
        termination,
        results: values,
    })
}

/// Writes a request body, `[Record(annotations), args…]`, streaming the
/// annotations map field by field so it is never cloned into a
/// `Value::Record` and the args are never copied.
fn put_request<B: EncodeBuf>(buf: &mut B, annotations: &BTreeMap<String, Value>, args: &[Value]) {
    buf.push_u8(odp_wire::WIRE_VERSION);
    put_varint(buf, 1 + args.len() as u64);
    put_record_header(buf, annotations.len());
    for (k, v) in annotations {
        put_str(buf, k);
        encode_value(buf, v);
    }
    for v in args {
        encode_value(buf, v);
    }
}

/// Encodes a request body into a recycled pool buffer of exactly the
/// body's size.
#[must_use]
pub fn encode_request_pooled(annotations: &BTreeMap<String, Value>, args: &[Value]) -> PooledBuf {
    let mut buf = PooledBuf::acquire(ByteCount::measure(|count| {
        put_request(count, annotations, args)
    }));
    put_request(&mut buf, annotations, args);
    buf
}

/// Decodes a request body zero-copy into `(annotations, args)`: string
/// and blob args are refcounted slices of `body`. Servants that retain
/// argument values must [`Value::into_owned`] them.
///
/// # Errors
///
/// Returns a description if the body is malformed.
pub fn decode_request_frame(
    body: &bytes::Bytes,
) -> Result<(BTreeMap<String, Value>, Vec<Value>), String> {
    let mut values = odp_wire::unmarshal_frame(body).map_err(|e| e.to_string())?;
    if values.is_empty() {
        return Err("empty request payload".to_owned());
    }
    let annotations = match values.remove(0) {
        Value::Record(fields) => fields.into_iter().collect(),
        other => return Err(format!("annotations must be a record, got {other:?}")),
    };
    Ok((annotations, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
    use odp_types::TypeSpec;

    #[test]
    fn outcome_constructors() {
        let ok = Outcome::ok(vec![Value::Int(5)]);
        assert!(ok.is_ok());
        assert_eq!(ok.int(), Some(5));
        let fail = Outcome::fail("boom");
        assert!(!fail.is_ok());
        assert!(!fail.is_engineering());
        let eng = Outcome::engineering(Code::Closed, vec![]);
        assert!(eng.is_engineering());
        assert_eq!(Outcome::new("ok", vec![]).termination, Termination::Ok);
    }

    /// The pooled outcome encoder writes exactly the generic marshaller's
    /// bytes for `[Str(termination), results…]`, and decodes back.
    #[test]
    fn outcome_round_trips_through_wire() {
        let out = Outcome::new("overdrawn", vec![Value::Int(-3), Value::str("sorry")]);
        let body = encode_outcome_pooled(&out);
        let generic =
            odp_wire::marshal(&[Value::str("overdrawn"), Value::Int(-3), Value::str("sorry")]);
        assert_eq!(&body[..], &generic[..]);
        let rt = decode_outcome_frame(&generic).unwrap();
        assert_eq!(rt.termination, "overdrawn");
        assert_eq!(rt.results, out.results);
    }

    /// Likewise the pooled request encoder against
    /// `marshal(&[Record(annotations), args…])`.
    #[test]
    fn request_round_trips_with_annotations() {
        let mut ann = BTreeMap::new();
        ann.insert("__txn".to_owned(), Value::Int(42));
        ann.insert("who".to_owned(), Value::str("alice"));
        let args = vec![Value::str("arg"), Value::Int(1)];
        let body = encode_request_pooled(&ann, &args);
        let generic = odp_wire::marshal(&[
            Value::record([("__txn", Value::Int(42)), ("who", Value::str("alice"))]),
            Value::str("arg"),
            Value::Int(1),
        ]);
        assert_eq!(&body[..], &generic[..]);
        let (ann2, args2) = decode_request_frame(&generic).unwrap();
        assert_eq!(ann2, ann);
        assert_eq!(args2, args);
    }

    #[test]
    fn malformed_bodies_rejected() {
        let junk = bytes::Bytes::from_static(b"junk");
        assert!(decode_outcome_frame(&junk).is_err());
        assert!(decode_request_frame(&junk).is_err());
        // A valid payload whose first value is not a record, nor a code
        // in the table.
        let bytes = odp_wire::marshal(&[Value::Int(1)]);
        assert!(decode_outcome_frame(&bytes).is_err());
        assert!(decode_request_frame(&bytes).is_err());
        let unknown_code = odp_wire::marshal(&[Value::Int(-12)]);
        assert!(decode_outcome_frame(&unknown_code).is_err());
        let neither = odp_wire::marshal(&[Value::Bool(true)]);
        assert!(decode_outcome_frame(&neither).is_err());
        let empty = odp_wire::marshal(&[]);
        assert!(decode_outcome_frame(&empty).is_err());
        assert!(decode_request_frame(&empty).is_err());
    }

    #[test]
    fn call_ctx_txn_annotation() {
        let mut ctx = CallCtx::default();
        assert_eq!(ctx.txn(), None);
        ctx.annotations
            .insert(CallCtx::TXN_KEY.to_owned(), Value::Int(9));
        assert_eq!(ctx.txn(), Some(TxnId(9)));
    }

    #[test]
    fn fn_servant_dispatches() {
        let ty = InterfaceTypeBuilder::new()
            .interrogation(
                "double",
                vec![TypeSpec::Int],
                vec![OutcomeSig::ok(vec![TypeSpec::Int])],
            )
            .build();
        let servant = FnServant::new(ty.clone(), |op, args, _ctx| match op {
            "double" => Outcome::ok(vec![Value::Int(args[0].as_int().unwrap() * 2)]),
            _ => Outcome::fail("no such op"),
        });
        assert_eq!(servant.interface_type(), ty);
        let out = servant.dispatch("double", vec![Value::Int(21)], &CallCtx::default());
        assert_eq!(out.int(), Some(42));
        // Default snapshot support is absent.
        assert!(servant.snapshot().is_none());
        assert!(servant.restore(&[]).is_err());
    }

    /// Every code, and `ok`, crosses the wire as a small integer and comes
    /// back as itself; an application name spelled like a code stays an
    /// application name.
    #[test]
    fn every_code_round_trips_through_wire() {
        for code in Code::ALL {
            let out = Outcome::engineering(code, vec![Value::Int(7)]);
            let body = encode_outcome_pooled(&out);
            assert_eq!(
                &body[..],
                &odp_wire::marshal(&[Value::Int(code as i64), Value::Int(7)])[..]
            );
            assert_eq!(decode_outcome_frame(&body.freeze()).unwrap(), out);
            assert_ne!(out.termination, format!("{code:?}").as_str());
        }
        let ok = encode_outcome_pooled(&Outcome::ok(vec![]));
        assert_eq!(&ok[..], &odp_wire::marshal(&[Value::Int(0)])[..]);
        let forged = Outcome::new("Moved", vec![]);
        assert!(!forged.is_engineering());
        let body = encode_outcome_pooled(&forged).freeze();
        assert_eq!(decode_outcome_frame(&body).unwrap(), forged);
    }
}
