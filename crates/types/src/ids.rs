//! Opaque identifiers used across the platform.
//!
//! The engineering model of the paper names several kinds of entity that
//! must be identified system-wide: nodes (capsules), interfaces, security /
//! administrative domains, replica groups, transport protocols, streams and
//! transactions. All of them are small copyable newtypes over `u64` so they
//! can be marshalled cheaply and compared without allocation.
//!
//! Identifiers carry no location semantics by themselves: per §5.4 of the
//! paper, location is a property recorded *alongside* an identifier in an
//! interface reference, so that "the location transparency mechanism in the
//! client does not have to know the server's migration, passivation or
//! checkpointing structure".

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// Returns the raw numeric value of the identifier.
            #[must_use]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

id_type!(
    /// Identifies a node — in engineering terms a *capsule*: one address
    /// space with its own nucleus, binder and transport endpoint.
    NodeId,
    "node:"
);

id_type!(
    /// Identifies an exported interface. Interface identifiers are unique
    /// system-wide (allocated from a per-node namespace, see
    /// [`InterfaceIdAllocator`]) and survive migration of the object that
    /// implements them.
    InterfaceId,
    "iface:"
);

id_type!(
    /// Identifies an administrative or technology domain (§5.6 of the
    /// paper). Interactions crossing a domain boundary are interecepted by a
    /// federation gateway.
    DomainId,
    "domain:"
);

id_type!(
    /// Identifies a replica group (§5.3). A group of interfaces behaves
    /// "as if it were a singleton, but with increased reliability or
    /// availability".
    GroupId,
    "group:"
);

id_type!(
    /// Identifies a transport protocol by which an interface can be
    /// reached. The paper notes "there may be several protocols by which an
    /// interface can be accessed" (§5.4).
    ProtocolId,
    "proto:"
);

id_type!(
    /// Identifies a stream interface binding (§7.2).
    StreamId,
    "stream:"
);

id_type!(
    /// Identifies a transaction (§5.2).
    TxnId,
    "txn:"
);

/// Well-known protocol identifiers used by the engineering model.
pub mod protocols {
    use super::ProtocolId;

    /// The in-process / simulated-network REX execution protocol.
    pub const REX_SIM: ProtocolId = ProtocolId(1);
}

/// Allocates interface identifiers unique across a whole system.
///
/// Each node owns a disjoint slice of the 64-bit identifier space: the top
/// 24 bits carry the node number, the bottom 40 bits a per-node counter.
/// This mirrors the paper's requirement that configuration be possible with
/// no "central design or management authority" (§2): nodes never coordinate
/// to allocate identifiers.
#[derive(Debug)]
pub struct InterfaceIdAllocator {
    node: NodeId,
    next: AtomicU64,
}

impl InterfaceIdAllocator {
    /// Number of low bits reserved for the per-node counter.
    const LOCAL_BITS: u32 = 40;

    /// Creates an allocator for `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node number does not fit in the 24 high bits.
    #[must_use]
    pub fn new(node: NodeId) -> Self {
        assert!(
            node.raw() < (1 << (64 - Self::LOCAL_BITS)),
            "node id {} too large for interface id space",
            node
        );
        Self {
            node,
            next: AtomicU64::new(1),
        }
    }

    /// Returns the node this allocator belongs to.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Allocates a fresh, system-wide unique interface identifier.
    pub fn allocate(&self) -> InterfaceId {
        let local = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(
            local < (1 << Self::LOCAL_BITS),
            "interface id space exhausted"
        );
        InterfaceId((self.node.raw() << Self::LOCAL_BITS) | local)
    }

    /// Recovers the allocating node from an interface identifier.
    #[must_use]
    pub fn home_of(id: InterfaceId) -> NodeId {
        NodeId(id.raw() >> Self::LOCAL_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(format!("{}", NodeId(7)), "node:7");
        assert_eq!(format!("{:?}", InterfaceId(9)), "iface:9");
        assert_eq!(format!("{}", DomainId(3)), "domain:3");
    }

    #[test]
    fn allocator_is_unique_and_traceable() {
        let alloc = InterfaceIdAllocator::new(NodeId(5));
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let id = alloc.allocate();
            assert!(seen.insert(id), "duplicate id {id}");
            assert_eq!(InterfaceIdAllocator::home_of(id), NodeId(5));
        }
    }

    #[test]
    fn allocators_on_distinct_nodes_never_collide() {
        let a = InterfaceIdAllocator::new(NodeId(1));
        let b = InterfaceIdAllocator::new(NodeId(2));
        let ids_a: HashSet<_> = (0..100).map(|_| a.allocate()).collect();
        let ids_b: HashSet<_> = (0..100).map(|_| b.allocate()).collect();
        assert!(ids_a.is_disjoint(&ids_b));
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_node_rejected() {
        let _ = InterfaceIdAllocator::new(NodeId(1 << 30));
    }

    #[test]
    fn raw_round_trips() {
        let id = InterfaceId::from(42u64);
        assert_eq!(id.raw(), 42);
    }
}
