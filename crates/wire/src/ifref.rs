//! Interface references — distribution-transparent pointers.
//!
//! §4.4: *"'state' is represented by references (distribution transparent
//! 'pointers') to ADT interfaces"*. §5.4 requires that everything needed to
//! find an interface travel inside the reference, so that "the location
//! transparency mechanism in the client does not have to know the server's
//! migration, passivation or checkpointing structure":
//!
//! * the interface **identity** (stable across moves),
//! * the **last known home** plus a monotonically increasing **epoch** —
//!   a reference holder with a smaller epoch than the binder's record is
//!   simply stale, never wrong;
//! * the structural **signature** (self-description for type checking at
//!   bind time and in traders);
//! * the **protocols** the interface can be reached by (§5.4: "there may be
//!   several protocols by which an interface can be accessed");
//! * an optional **relocator** to consult when the home is stale, and an
//!   optional **group** when the reference actually denotes a replica group
//!   behaving "as if it were a singleton" (§5.3).
//!
//! §7.1 notes that "an interface reference for accessing an object cannot
//! itself be secure — the engineering mechanisms for relocation, migration,
//! replication and so on need to be able to read and modify references. It
//! is possible for any object to assemble a reference, therefore a secure
//! object must check that any access is from a valid source." Accordingly
//! every field here is public and mutable; authentication lives in
//! `odp-security` guards, not in reference secrecy.

use odp_types::{ids::protocols, GroupId, InterfaceId, InterfaceType, NodeId, ProtocolId};
use std::fmt;

/// A reference to a (possibly remote) ADT interface.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct InterfaceRef {
    /// Stable identity of the interface.
    pub iface: InterfaceId,
    /// Last known location. May be stale; see [`InterfaceRef::epoch`].
    pub home: NodeId,
    /// Location epoch: bumped each time the interface moves or is
    /// re-activated elsewhere. Binders compare epochs to decide whether a
    /// reference or a relocation record is fresher.
    pub epoch: u64,
    /// Structural signature of the interface.
    pub ty: InterfaceType,
    /// Protocols by which the interface can be reached, in preference order.
    pub protocols: Vec<ProtocolId>,
    /// Relocation service to consult when `home` no longer answers for
    /// `iface` (§5.4: "relocation mechanisms should only require the
    /// registration of changes in location").
    pub relocator: Option<NodeId>,
    /// Set when this reference denotes a replica group rather than a
    /// singleton interface (§5.3).
    pub group: Option<GroupId>,
}

impl InterfaceRef {
    /// Creates a reference to a singleton interface speaking the default
    /// (simulated-REX) protocol, with no relocator.
    #[must_use]
    pub fn new(iface: InterfaceId, home: NodeId, ty: InterfaceType) -> Self {
        Self {
            iface,
            home,
            epoch: 0,
            ty,
            protocols: vec![protocols::REX_SIM],
            relocator: None,
            group: None,
        }
    }

    /// Returns a copy marked as denoting a replica group.
    #[must_use]
    pub fn with_group(mut self, group: GroupId) -> Self {
        self.group = Some(group);
        self
    }

    /// Returns a copy with the epoch advanced and a new home, as produced
    /// by a migration (§5.5).
    #[must_use]
    pub fn moved_to(mut self, new_home: NodeId) -> Self {
        self.home = new_home;
        self.epoch += 1;
        self
    }
}

impl fmt::Debug for InterfaceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InterfaceRef({} @ {} e{}",
            self.iface, self.home, self.epoch
        )?;
        if let Some(g) = self.group {
            write!(f, " {g}")?;
        }
        if let Some(r) = self.relocator {
            write!(f, " reloc={r}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_bumps_epoch_keeps_identity() {
        let r = InterfaceRef::new(InterfaceId(1), NodeId(2), InterfaceType::empty());
        let moved = r.clone().moved_to(NodeId(3));
        assert_eq!(moved.home, NodeId(3));
        assert_eq!(moved.epoch, 1);
        assert_eq!(r.iface, moved.iface);
        assert_ne!(r, moved);
    }

    #[test]
    fn debug_mentions_location_and_epoch() {
        let r = InterfaceRef::new(InterfaceId(1), NodeId(2), InterfaceType::empty());
        let s = format!("{r:?}");
        assert!(s.contains("iface:1"), "{s}");
        assert!(s.contains("node:2"), "{s}");
        assert!(s.contains("e0"), "{s}");
    }
}
