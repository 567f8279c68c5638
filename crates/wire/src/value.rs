//! The dynamic value model of the ODP computational language.
//!
//! §4.4 of the paper: *"'state' is represented by references … primitive
//! data types such as integers and strings can be modelled as ADTs as well
//! as complex types such as bank accounts and databases"* and *"all
//! arguments and results are passed by copying references to ADT
//! interfaces"*. The engineering optimization of §4.5 lets constant-state
//! ADTs travel by copy instead; [`Value`] realizes exactly that split:
//! every variant except [`Value::Interface`] is a constant-state ADT carried
//! by copy, and `Interface` carries an [`InterfaceRef`].

use crate::ifref::InterfaceRef;
use odp_types::InterfaceType;
use std::fmt;

/// A UTF-8 string that is either owned or a zero-copy slice of an
/// arrival frame.
///
/// The borrowed decode path (§4.5: marshalled access must be cheap)
/// produces `Shared` strings that alias the frame's refcounted buffer
/// instead of copying; locally constructed values are `Owned`. The two
/// representations are indistinguishable by content: equality, ordering
/// and hashing all go through [`WireStr::as_str`], so an owned and a
/// shared string with the same text are the same value.
///
/// Shared contents are validated as UTF-8 **at construction**
/// ([`WireStr::from_utf8_shared`]) — the only constructor from raw
/// bytes — which keeps every accessor infallible without `unsafe`.
#[derive(Clone)]
pub struct WireStr(StrRepr);

#[derive(Clone)]
enum StrRepr {
    Owned(String),
    Shared(bytes::Bytes),
}

impl WireStr {
    /// Wrap refcounted frame bytes, validating UTF-8 once.
    ///
    /// # Errors
    ///
    /// Returns the bytes back if they are not valid UTF-8.
    pub fn from_utf8_shared(bytes: bytes::Bytes) -> Result<WireStr, bytes::Bytes> {
        if std::str::from_utf8(&bytes).is_err() {
            return Err(bytes);
        }
        Ok(WireStr(StrRepr::Shared(bytes)))
    }

    /// View as `&str`.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            StrRepr::Owned(s) => s,
            // Validated at construction; an empty fallback keeps the
            // accessor total without `unsafe` re-validation tricks.
            StrRepr::Shared(b) => std::str::from_utf8(b).unwrap_or(""),
        }
    }

    /// Convert into an owned `String`, copying only if shared.
    #[must_use]
    pub fn into_string(self) -> String {
        match self.0 {
            StrRepr::Owned(s) => s,
            StrRepr::Shared(b) => {
                odp_telemetry::wire_stats().decode_copied(b.len() as u64);
                self_to_string(&b)
            }
        }
    }

    /// True when this string aliases an arrival frame rather than owning
    /// its storage.
    #[must_use]
    pub fn is_shared(&self) -> bool {
        matches!(self.0, StrRepr::Shared(_))
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_str().len()
    }

    /// True for the empty string.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_str().is_empty()
    }
}

fn self_to_string(b: &bytes::Bytes) -> String {
    String::from_utf8_lossy(b).into_owned()
}

impl Default for WireStr {
    fn default() -> Self {
        WireStr(StrRepr::Owned(String::new()))
    }
}

impl std::ops::Deref for WireStr {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for WireStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<String> for WireStr {
    fn from(s: String) -> Self {
        WireStr(StrRepr::Owned(s))
    }
}

impl From<&str> for WireStr {
    fn from(s: &str) -> Self {
        WireStr(StrRepr::Owned(s.to_owned()))
    }
}

impl From<WireStr> for String {
    fn from(s: WireStr) -> Self {
        s.into_string()
    }
}

impl PartialEq for WireStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}
impl Eq for WireStr {}

impl PartialEq<str> for WireStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}
impl PartialEq<&str> for WireStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}
impl PartialEq<String> for WireStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialOrd for WireStr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WireStr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for WireStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for WireStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for WireStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A runtime value: one argument or result position of an invocation.
#[derive(Clone, PartialEq)]
pub enum Value {
    /// The empty value.
    Unit,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float. Equality is bit-pattern equality so values can be
    /// used as map keys after canonicalization.
    Float(f64),
    /// UTF-8 string.
    Str(WireStr),
    /// Opaque bytes.
    Bytes(bytes::Bytes),
    /// Homogeneous-by-convention sequence (heterogeneity is representable
    /// but will fail type checking against a `Seq` spec).
    Seq(Vec<Value>),
    /// Record with named fields in declaration order. Field names must be
    /// unique; a record with duplicate names is ill-formed (accessors
    /// resolve to the first occurrence, and type checking may reject it).
    Record(Vec<(String, Value)>),
    /// A reference to a (possibly remote) ADT interface: the only way
    /// mutable state travels.
    Interface(InterfaceRef),
}

impl Value {
    /// Builds a record value.
    #[must_use]
    pub fn record<I, S>(fields: I) -> Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Value::Record(fields.into_iter().map(|(n, v)| (n.into(), v)).collect())
    }

    /// Builds a string value.
    #[must_use]
    pub fn str<S: Into<WireStr>>(s: S) -> Self {
        Value::Str(s.into())
    }

    /// Recursively convert any frame-borrowed payloads (strings decoded
    /// zero-copy from an arrival frame) into owned storage, releasing the
    /// frame's refcounted buffer. Servants that *retain* decoded values
    /// past the invocation should call this; values consumed within the
    /// invocation can stay borrowed for free.
    #[must_use]
    pub fn into_owned(self) -> Value {
        match self {
            Value::Str(s) if s.is_shared() => Value::Str(WireStr::from(s.into_string())),
            Value::Bytes(b) => Value::Bytes(b),
            Value::Seq(items) => Value::Seq(items.into_iter().map(Value::into_owned).collect()),
            Value::Record(fields) => Value::Record(
                fields
                    .into_iter()
                    .map(|(n, v)| (n, v.into_owned()))
                    .collect(),
            ),
            other => other,
        }
    }

    /// Builds a bytes value from any byte source.
    #[must_use]
    pub fn bytes<B: Into<bytes::Bytes>>(b: B) -> Self {
        Value::Bytes(b.into())
    }

    /// True if this value contains no interface references anywhere, i.e.
    /// it is a pure constant-state ADT copy (§4.5).
    #[must_use]
    pub fn is_constant_state(&self) -> bool {
        match self {
            Value::Interface(_) => false,
            Value::Seq(items) => items.iter().all(Value::is_constant_state),
            Value::Record(fields) => fields.iter().all(|(_, v)| v.is_constant_state()),
            _ => true,
        }
    }

    /// Collects every interface reference reachable from this value, in
    /// encounter order. The garbage collector and federation interceptors
    /// scan payloads with this ("the engineering mechanisms … need to be
    /// able to read and modify references", §7.1).
    pub fn collect_refs<'a>(&'a self, out: &mut Vec<&'a InterfaceRef>) {
        match self {
            Value::Interface(r) => out.push(r),
            Value::Seq(items) => items.iter().for_each(|v| v.collect_refs(out)),
            Value::Record(fields) => fields.iter().for_each(|(_, v)| v.collect_refs(out)),
            _ => {}
        }
    }

    /// Rewrites every interface reference in place. Federation interceptors
    /// use this to substitute proxy references when a payload crosses a
    /// domain boundary (§5.6).
    pub fn map_refs(&mut self, f: &mut dyn FnMut(&mut InterfaceRef)) {
        match self {
            Value::Interface(r) => f(r),
            Value::Seq(items) => items.iter_mut().for_each(|v| v.map_refs(f)),
            Value::Record(fields) => fields.iter_mut().for_each(|(_, v)| v.map_refs(f)),
            _ => {}
        }
    }

    /// Accessor: integer payload.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Accessor: boolean payload.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Accessor: string payload.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Accessor: bytes payload.
    #[must_use]
    pub fn as_bytes(&self) -> Option<&bytes::Bytes> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Accessor: sequence payload.
    #[must_use]
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// Accessor: record field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Record(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Accessor: interface reference payload.
    #[must_use]
    pub fn as_interface(&self) -> Option<&InterfaceRef> {
        match self {
            Value::Interface(r) => Some(r),
            _ => None,
        }
    }

    /// The signature of the referenced interface, if this is a reference.
    #[must_use]
    pub fn interface_type(&self) -> Option<&InterfaceType> {
        self.as_interface().map(|r| &r.ty)
    }
}

impl Eq for Value {}

// Float equality above is IEEE (`==` on f64) for PartialEq ergonomics in
// tests; Eq is implemented via bit patterns to keep the reflexivity law.
// NaN payloads round-trip bit-exactly through the wire format.
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Unit => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.as_str().hash(state),
            Value::Bytes(b) => b.hash(state),
            Value::Seq(items) => items.hash(state),
            Value::Record(fields) => fields.hash(state),
            Value::Interface(r) => r.iface.hash(state),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "unit"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::Seq(items) => f.debug_list().entries(items).finish(),
            Value::Record(fields) => {
                let mut m = f.debug_map();
                for (n, v) in fields {
                    m.entry(n, v);
                }
                m.finish()
            }
            Value::Interface(r) => write!(f, "ref({})", r.iface),
        }
    }
}

impl From<()> for Value {
    fn from((): ()) -> Self {
        Value::Unit
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(WireStr::from(s))
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(WireStr::from(s))
    }
}
impl From<bytes::Bytes> for Value {
    fn from(b: bytes::Bytes) -> Self {
        Value::Bytes(b)
    }
}
impl From<InterfaceRef> for Value {
    fn from(r: InterfaceRef) -> Self {
        Value::Interface(r)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Seq(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_types::{InterfaceId, NodeId};

    fn some_ref() -> InterfaceRef {
        InterfaceRef::new(InterfaceId(7), NodeId(1), InterfaceType::empty())
    }

    #[test]
    fn constant_state_propagates() {
        assert!(Value::record([("x", Value::Int(1))]).is_constant_state());
        let v = Value::record([("r", Value::Interface(some_ref()))]);
        assert!(!v.is_constant_state());
        assert!(!Value::Seq(vec![Value::Interface(some_ref())]).is_constant_state());
    }

    #[test]
    fn collect_and_map_refs() {
        let mut v = Value::record([
            ("a", Value::Interface(some_ref())),
            (
                "b",
                Value::Seq(vec![Value::Interface(some_ref()), Value::Int(3)]),
            ),
        ]);
        let mut refs = Vec::new();
        v.collect_refs(&mut refs);
        assert_eq!(refs.len(), 2);
        v.map_refs(&mut |r| r.home = NodeId(9));
        let mut refs = Vec::new();
        v.collect_refs(&mut refs);
        assert!(refs.iter().all(|r| r.home == NodeId(9)));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_int(), Some(4));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert!(Value::Int(4).as_str().is_none());
        let rec = Value::record([("k", Value::Int(1))]);
        assert_eq!(rec.field("k"), Some(&Value::Int(1)));
        assert_eq!(rec.field("missing"), None);
        assert!(Value::Interface(some_ref()).as_interface().is_some());
    }

    #[test]
    fn debug_is_compact() {
        let v = Value::record([("n", Value::Int(3))]);
        assert_eq!(format!("{v:?}"), "{\"n\": 3}");
        assert_eq!(format!("{:?}", Value::bytes(vec![1u8, 2, 3])), "bytes[3]");
    }

    #[test]
    fn wire_str_shared_and_owned_are_the_same_value() {
        let shared = WireStr::from_utf8_shared(bytes::Bytes::from_static(b"hello")).unwrap();
        let owned = WireStr::from("hello");
        assert!(shared.is_shared());
        assert!(!owned.is_shared());
        assert_eq!(shared, owned);
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Str(shared.clone()));
        assert!(set.contains(&Value::Str(owned)), "hash must follow content");
        assert_eq!(shared.into_string(), "hello");
        assert!(WireStr::from_utf8_shared(bytes::Bytes::from_static(&[0xff, 0xfe])).is_err());
    }

    #[test]
    fn into_owned_disowns_borrowed_strings() {
        let shared = WireStr::from_utf8_shared(bytes::Bytes::from_static(b"payload")).unwrap();
        let v = Value::record([("s", Value::Str(shared))]);
        let owned = v.clone().into_owned();
        assert_eq!(owned, v, "ownership conversion must not change the value");
        match owned.field("s") {
            Some(Value::Str(s)) => assert!(!s.is_shared()),
            other => panic!("expected Str, got {other:?}"),
        }
    }

    #[test]
    fn hash_distinguishes_discriminants() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(0));
        set.insert(Value::Bool(false));
        set.insert(Value::Unit);
        set.insert(Value::Float(0.0));
        assert_eq!(set.len(), 4);
    }
}
