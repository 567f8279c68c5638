//! Administrative domains and the domain map.

use odp_types::{DomainId, NodeId};
use odp_wire::InterfaceRef;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Shared engineering configuration: node → domain membership and each
/// domain's gateway. The paper's federations have no central authority;
/// in engineering terms each party holds its own copy of (its view of)
/// this map — tests share one for convenience.
#[derive(Default)]
pub struct DomainMap {
    inner: RwLock<Inner>,
}

#[derive(Default)]
struct Inner {
    membership: HashMap<NodeId, DomainId>,
    gateways: HashMap<DomainId, InterfaceRef>,
    names: HashMap<DomainId, String>,
}

impl DomainMap {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Declares a domain.
    pub fn declare<S: Into<String>>(&self, domain: DomainId, name: S) {
        self.inner.write().names.insert(domain, name.into());
    }

    /// A domain's declared name.
    #[must_use]
    pub fn name_of(&self, domain: DomainId) -> Option<String> {
        self.inner.read().names.get(&domain).cloned()
    }

    /// Assigns a node to a domain.
    pub fn assign(&self, node: NodeId, domain: DomainId) {
        self.inner.write().membership.insert(node, domain);
    }

    /// The domain a node belongs to.
    #[must_use]
    pub fn domain_of(&self, node: NodeId) -> Option<DomainId> {
        self.inner.read().membership.get(&node).copied()
    }

    /// Registers a domain's gateway interface.
    pub fn set_gateway(&self, domain: DomainId, gateway: InterfaceRef) {
        self.inner.write().gateways.insert(domain, gateway);
    }

    /// A domain's gateway interface.
    #[must_use]
    pub fn gateway_of(&self, domain: DomainId) -> Option<InterfaceRef> {
        self.inner.read().gateways.get(&domain).cloned()
    }
}

impl std::fmt::Debug for DomainMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("DomainMap")
            .field("domains", &inner.names.len())
            .field("nodes", &inner.membership.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_types::{InterfaceId, InterfaceType};

    #[test]
    fn membership_and_gateways() {
        let map = DomainMap::new();
        map.declare(DomainId(1), "acme");
        map.assign(NodeId(10), DomainId(1));
        assert_eq!(map.domain_of(NodeId(10)), Some(DomainId(1)));
        assert_eq!(map.domain_of(NodeId(11)), None);
        assert_eq!(map.name_of(DomainId(1)).as_deref(), Some("acme"));
        let gw = InterfaceRef::new(InterfaceId(1), NodeId(10), InterfaceType::empty());
        map.set_gateway(DomainId(1), gw.clone());
        assert_eq!(map.gateway_of(DomainId(1)), Some(gw));
        assert_eq!(map.inner.read().names.len(), 1);
    }
}
