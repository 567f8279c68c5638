//! Interface and operation signatures.
//!
//! The computational language of the paper models every service as an
//! *abstract data type*: "a set of operations which encapsulate data"
//! (§4.1). The signature of an interface is the complete, self-describing
//! record of what a client may do with it:
//!
//! * each **operation** is either an *interrogation* (request/reply — the
//!   paper's "procedural interaction where activity is temporarily
//!   transferred to the invoked interface") or an *announcement*
//!   (asynchronous request-only, "spawning a new activity");
//! * each interrogation has a **range of outcomes** ("terminations"), each
//!   carrying "its own package of results" — this is how "different kinds of
//!   failure" are signalled without exceptions or in-band error codes, and
//!   how multiple results are returned in one round trip "to minimize
//!   latency" (§5.1);
//! * parameters and results are typed by [`TypeSpec`], which distinguishes
//!   *constant-state* primitive shapes (copyable across the network, §4.5)
//!   from interface references (shared, location-transparent).

use std::fmt;
use std::sync::Arc;

/// The type of a parameter or result position.
///
/// Primitive specs describe ADTs "which have constant state" and therefore
/// "can be copied without breaking computational semantics" (§4.5): the copy
/// behaves identically to the original. `Interface` positions are passed as
/// references, giving client and server "shared access to the interface"
/// (§4.4).
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum TypeSpec {
    /// The empty value; an operation with no results still has a termination.
    Unit,
    /// Boolean constant ADT.
    Bool,
    /// 64-bit signed integer constant ADT.
    Int,
    /// 64-bit IEEE float constant ADT (bit-pattern equality).
    Float,
    /// UTF-8 string constant ADT.
    Str,
    /// Opaque byte sequence constant ADT.
    Bytes,
    /// Homogeneous sequence of the element spec.
    Seq(Box<TypeSpec>),
    /// Record with named, ordered fields.
    Record(Vec<(String, TypeSpec)>),
    /// A reference to an ADT interface with the given signature. The value
    /// passed at runtime is an interface reference, never the data itself.
    Interface(Box<InterfaceType>),
    /// Matches any value. `Any` positions trade static safety for
    /// evolution: a federation gateway translating between technology
    /// domains uses them where a full signature cannot be known.
    Any,
}

impl TypeSpec {
    /// Convenience constructor for a sequence spec.
    #[must_use]
    pub fn seq(elem: TypeSpec) -> Self {
        TypeSpec::Seq(Box::new(elem))
    }

    /// Convenience constructor for a record spec.
    #[must_use]
    pub fn record<I, S>(fields: I) -> Self
    where
        I: IntoIterator<Item = (S, TypeSpec)>,
        S: Into<String>,
    {
        TypeSpec::Record(fields.into_iter().map(|(n, t)| (n.into(), t)).collect())
    }

    /// Convenience constructor for an interface spec.
    #[must_use]
    pub fn interface(ty: InterfaceType) -> Self {
        TypeSpec::Interface(Box::new(ty))
    }

    /// True if values of this spec have constant state and may be copied
    /// across the network "in place of interface references" (§4.5).
    #[must_use]
    pub fn is_constant_state(&self) -> bool {
        match self {
            TypeSpec::Unit
            | TypeSpec::Bool
            | TypeSpec::Int
            | TypeSpec::Float
            | TypeSpec::Str
            | TypeSpec::Bytes => true,
            TypeSpec::Seq(elem) => elem.is_constant_state(),
            TypeSpec::Record(fields) => fields.iter().all(|(_, t)| t.is_constant_state()),
            TypeSpec::Interface(_) | TypeSpec::Any => false,
        }
    }

    /// Structural depth of the spec; used to bound recursion in decoding.
    #[must_use]
    pub fn depth(&self) -> usize {
        match self {
            TypeSpec::Seq(elem) => 1 + elem.depth(),
            TypeSpec::Record(fields) => {
                1 + fields.iter().map(|(_, t)| t.depth()).max().unwrap_or(0)
            }
            TypeSpec::Interface(ty) => 1 + ty.depth(),
            _ => 1,
        }
    }
}

impl fmt::Debug for TypeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeSpec::Unit => write!(f, "unit"),
            TypeSpec::Bool => write!(f, "bool"),
            TypeSpec::Int => write!(f, "int"),
            TypeSpec::Float => write!(f, "float"),
            TypeSpec::Str => write!(f, "str"),
            TypeSpec::Bytes => write!(f, "bytes"),
            TypeSpec::Seq(e) => write!(f, "seq<{e:?}>"),
            TypeSpec::Record(fs) => {
                write!(f, "{{")?;
                for (i, (n, t)) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {t:?}")?;
                }
                write!(f, "}}")
            }
            TypeSpec::Interface(ty) => write!(f, "interface{ty:?}"),
            TypeSpec::Any => write!(f, "any"),
        }
    }
}

/// One possible termination of an operation: a name plus the package of
/// result types it carries.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct OutcomeSig {
    /// Termination name, e.g. `"ok"`, `"overdrawn"`, `"not_found"`.
    pub name: String,
    /// Types of the results carried by this termination.
    pub results: Vec<TypeSpec>,
}

impl OutcomeSig {
    /// Creates an outcome signature.
    #[must_use]
    pub fn new<S: Into<String>>(name: S, results: Vec<TypeSpec>) -> Self {
        Self {
            name: name.into(),
            results,
        }
    }

    /// The conventional success termination with the given results.
    #[must_use]
    pub fn ok(results: Vec<TypeSpec>) -> Self {
        Self::new(Self::OK, results)
    }

    /// Name of the conventional success termination.
    const OK: &'static str = "ok";
}

impl fmt::Debug for OutcomeSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({:?})", self.name, self.results)
    }
}

/// Whether an operation transfers activity (interrogation) or spawns one
/// (announcement). See §5.1 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OperationKind {
    /// Request/reply: the caller blocks for one of the declared outcomes.
    Interrogation,
    /// Request-only: no reply; "failure to meet the constraint" cannot be
    /// reported to the invoker.
    Announcement,
}

/// Signature of one operation in an interface.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct OperationSig {
    /// Operation name, unique within its interface.
    pub name: String,
    /// Interrogation or announcement.
    pub kind: OperationKind,
    /// Parameter types, in call order.
    pub params: Vec<TypeSpec>,
    /// Possible terminations. Announcements have none.
    pub outcomes: Vec<OutcomeSig>,
}

impl OperationSig {
    /// Creates an interrogation signature.
    #[must_use]
    pub fn interrogation<S: Into<String>>(
        name: S,
        params: Vec<TypeSpec>,
        outcomes: Vec<OutcomeSig>,
    ) -> Self {
        Self {
            name: name.into(),
            kind: OperationKind::Interrogation,
            params,
            outcomes,
        }
    }

    /// Creates an announcement signature (no outcomes).
    #[must_use]
    pub fn announcement<S: Into<String>>(name: S, params: Vec<TypeSpec>) -> Self {
        Self {
            name: name.into(),
            kind: OperationKind::Announcement,
            params,
            outcomes: Vec::new(),
        }
    }

    /// Looks up an outcome by name.
    #[must_use]
    pub fn outcome(&self, name: &str) -> Option<&OutcomeSig> {
        self.outcomes.iter().find(|o| o.name == name)
    }
}

impl fmt::Debug for OperationSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            OperationKind::Interrogation => "op",
            OperationKind::Announcement => "ann",
        };
        write!(
            f,
            "{kind} {}({:?}) -> {:?}",
            self.name, self.params, self.outcomes
        )
    }
}

/// The signature of an ADT interface: a set of operations.
///
/// Interface types are *structural*: two interfaces with the same operations
/// are the same type regardless of where or by whom they were declared. The
/// paper requires this because named hierarchies "fail to meet the
/// requirements for federation and evolution" (§5.1).
///
/// The operation table is immutable once built, so clones share it: copying
/// an `InterfaceType` (and with it every `InterfaceRef` or call request that
/// carries one) costs one reference-count bump, not a deep copy.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct InterfaceType {
    operations: Arc<[OperationSig]>,
}

impl InterfaceType {
    /// Creates an interface type from its operations.
    ///
    /// Operations are kept sorted by name so that structurally equal
    /// interfaces compare and hash equal whatever the declaration order.
    ///
    /// # Panics
    ///
    /// Panics if two operations share a name: the dispatcher routes by
    /// operation name, so duplicates would be ambiguous.
    #[must_use]
    pub fn new(mut operations: Vec<OperationSig>) -> Self {
        operations.sort_by(|a, b| a.name.cmp(&b.name));
        for w in operations.windows(2) {
            assert!(
                w[0].name != w[1].name,
                "duplicate operation name `{}` in interface",
                w[0].name
            );
        }
        Self {
            operations: operations.into(),
        }
    }

    /// The empty interface: top of the conformance order (every interface
    /// conforms to it).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Operations, sorted by name.
    #[must_use]
    pub fn operations(&self) -> &[OperationSig] {
        &self.operations
    }

    /// Looks up an operation by name (binary search — signatures are
    /// consulted on every type-checked invocation).
    #[must_use]
    pub fn operation(&self, name: &str) -> Option<&OperationSig> {
        self.operations
            .binary_search_by(|op| op.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.operations[i])
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.operations.len()
    }

    /// True if the interface has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.operations.is_empty()
    }

    /// Structural depth, used to bound decoding recursion.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.operations
            .iter()
            .flat_map(|op| {
                op.params
                    .iter()
                    .chain(op.outcomes.iter().flat_map(|o| o.results.iter()))
            })
            .map(TypeSpec::depth)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Debug for InterfaceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.operations.iter()).finish()
    }
}

/// Builder for [`InterfaceType`] used by application code and the examples.
///
/// ```
/// use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig, TypeSpec};
///
/// let account = InterfaceTypeBuilder::new()
///     .interrogation("balance", vec![], vec![OutcomeSig::ok(vec![TypeSpec::Int])])
///     .interrogation(
///         "withdraw",
///         vec![TypeSpec::Int],
///         vec![
///             OutcomeSig::ok(vec![TypeSpec::Int]),
///             OutcomeSig::new("overdrawn", vec![TypeSpec::Int]),
///         ],
///     )
///     .announcement("audit", vec![TypeSpec::Str])
///     .build();
/// assert_eq!(account.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct InterfaceTypeBuilder {
    operations: Vec<OperationSig>,
}

impl InterfaceTypeBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an interrogation.
    #[must_use]
    pub fn interrogation<S: Into<String>>(
        mut self,
        name: S,
        params: Vec<TypeSpec>,
        outcomes: Vec<OutcomeSig>,
    ) -> Self {
        self.operations
            .push(OperationSig::interrogation(name, params, outcomes));
        self
    }

    /// Adds an announcement.
    #[must_use]
    pub fn announcement<S: Into<String>>(mut self, name: S, params: Vec<TypeSpec>) -> Self {
        self.operations
            .push(OperationSig::announcement(name, params));
        self
    }

    /// Finishes the interface type.
    ///
    /// # Panics
    ///
    /// Panics if two operations share a name.
    #[must_use]
    pub fn build(self) -> InterfaceType {
        InterfaceType::new(self.operations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> InterfaceType {
        InterfaceTypeBuilder::new()
            .interrogation("read", vec![], vec![OutcomeSig::ok(vec![TypeSpec::Int])])
            .interrogation("incr", vec![TypeSpec::Int], vec![OutcomeSig::ok(vec![])])
            .build()
    }

    #[test]
    fn operations_sorted_and_found() {
        let ty = counter();
        assert_eq!(ty.operations()[0].name, "incr");
        assert!(ty.operation("read").is_some());
        assert!(ty.operation("reset").is_none());
    }

    #[test]
    fn structural_equality_ignores_declaration_order() {
        let a = InterfaceType::new(vec![
            OperationSig::interrogation("a", vec![], vec![OutcomeSig::ok(vec![])]),
            OperationSig::interrogation("b", vec![], vec![OutcomeSig::ok(vec![])]),
        ]);
        let b = InterfaceType::new(vec![
            OperationSig::interrogation("b", vec![], vec![OutcomeSig::ok(vec![])]),
            OperationSig::interrogation("a", vec![], vec![OutcomeSig::ok(vec![])]),
        ]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    #[should_panic(expected = "duplicate operation")]
    fn duplicate_operations_rejected() {
        let _ = InterfaceType::new(vec![
            OperationSig::interrogation("a", vec![], vec![]),
            OperationSig::interrogation("a", vec![TypeSpec::Int], vec![]),
        ]);
    }

    #[test]
    fn constant_state_classification() {
        assert!(TypeSpec::Int.is_constant_state());
        assert!(TypeSpec::seq(TypeSpec::Str).is_constant_state());
        assert!(TypeSpec::record([("x", TypeSpec::Int)]).is_constant_state());
        assert!(!TypeSpec::interface(counter()).is_constant_state());
        assert!(!TypeSpec::record([("c", TypeSpec::interface(counter()))]).is_constant_state());
        assert!(!TypeSpec::Any.is_constant_state());
    }

    #[test]
    fn depth_counts_nesting() {
        assert_eq!(TypeSpec::Int.depth(), 1);
        assert_eq!(TypeSpec::seq(TypeSpec::seq(TypeSpec::Int)).depth(), 3);
        let ty = counter();
        assert_eq!(ty.depth(), 1);
        assert_eq!(TypeSpec::interface(ty).depth(), 2);
    }

    #[test]
    fn outcome_lookup() {
        let ty = counter();
        let read = ty.operation("read").unwrap();
        assert!(read.outcome("ok").is_some());
        assert!(read.outcome("fail").is_none());
    }

    #[test]
    fn debug_formats_are_readable() {
        let ty = counter();
        let s = format!("{ty:?}");
        assert!(s.contains("op read"), "{s}");
        let ann = OperationSig::announcement("log", vec![TypeSpec::Str]);
        assert!(format!("{ann:?}").starts_with("ann log"));
    }
}
