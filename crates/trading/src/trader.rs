//! The trader: type-safe service matching.
//!
//! §6 requirements implemented here:
//!
//! * offers are qualified with properties;
//! * "a client is only told of service offers which provide **at least the
//!   operations it requires** (otherwise the trading would breach the type
//!   safety guarantees implicit in the computational model)" — every match
//!   passes structural conformance, optionally tightened by a
//!   [`TypeManager`];
//! * matching stays fast as offer sets grow: an operation-name inverted
//!   index prunes candidates before the (comparatively expensive)
//!   conformance check. [`Trader::import_naive`] keeps the unindexed scan
//!   alive as the experiment E7 baseline;
//! * offers can be linked to a **resource manager**: "it may be useful to
//!   activate a passive object if one of its interfaces has been imported
//!   by a client … it must be possible to link offers to a resource manager
//!   which can take whatever actions are required when the offer is
//!   selected" ([`ResourceLink`]).
//!
//! The trader is exported as an ordinary ODP object; its ADT interface is
//! given by `trader_interface_type`. Interface *types* travel inside
//! template references (a reference with a null identity whose signature is
//! the required type) — self-description again.

use crate::federation;
use crate::offer::{OfferId, PropertyConstraint, ServiceOffer};
use odp_core::{CallCtx, Outcome, Servant};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceType, TypeManager, TypeSpec};
use odp_wire::{InterfaceRef, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Errors from trader operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraderError {
    /// The offer id is not present.
    NotFound(OfferId),
    /// A federation path used an unknown link name.
    UnknownLink(String),
    /// The federation hop limit was exhausted.
    HopLimit,
    /// Forwarding to a linked trader failed.
    Forward(String),
}

impl fmt::Display for TraderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraderError::NotFound(id) => write!(f, "{id} not found"),
            TraderError::UnknownLink(name) => write!(f, "no trader link named `{name}`"),
            TraderError::HopLimit => write!(f, "federation hop limit exhausted"),
            TraderError::Forward(why) => write!(f, "forwarding failed: {why}"),
        }
    }
}

impl std::error::Error for TraderError {}

/// Hook called when an offer is selected by an import: may substitute an
/// activated reference for a passive one (§6, resource management link).
pub trait ResourceLink: Send + Sync {
    /// Returns a replacement reference for the selected offer, or `None`
    /// to hand out the offer's stored reference unchanged.
    fn activate(&self, offer: &ServiceOffer) -> Option<InterfaceRef>;
}

/// The ADT signature of a trader.
#[must_use]
fn trader_interface_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation(
            "export_offer",
            vec![TypeSpec::Any, TypeSpec::Any],
            vec![OutcomeSig::ok(vec![TypeSpec::Int])],
        )
        .interrogation(
            "withdraw",
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![]), OutcomeSig::new("not_found", vec![])],
        )
        .interrogation(
            "import",
            vec![TypeSpec::Any, TypeSpec::Any, TypeSpec::Int],
            vec![
                OutcomeSig::ok(vec![TypeSpec::seq(TypeSpec::Any)]),
                OutcomeSig::new("none", vec![]),
            ],
        )
        .interrogation(
            "import_path",
            vec![
                TypeSpec::Str,
                TypeSpec::Any,
                TypeSpec::Any,
                TypeSpec::Int,
                TypeSpec::Int,
            ],
            vec![
                OutcomeSig::ok(vec![TypeSpec::seq(TypeSpec::Any)]),
                OutcomeSig::new("none", vec![]),
                OutcomeSig::new("unknown_link", vec![TypeSpec::Str]),
                OutcomeSig::new("hop_limit", vec![]),
            ],
        )
        .interrogation(
            "link",
            vec![TypeSpec::Str, TypeSpec::Any],
            vec![OutcomeSig::ok(vec![])],
        )
        .interrogation(
            "list_links",
            vec![],
            vec![OutcomeSig::ok(vec![TypeSpec::seq(TypeSpec::Str)])],
        )
        .build()
}

/// Builds a *template reference*: a null reference whose only content is
/// the required signature, used to carry a type through `Any` parameters.
#[must_use]
pub fn template(required: InterfaceType) -> Value {
    Value::Interface(InterfaceRef::new(
        odp_types::InterfaceId(0),
        odp_types::NodeId(0),
        required,
    ))
}

/// The trader.
pub struct Trader {
    next_offer: AtomicU64,
    offers: RwLock<HashMap<OfferId, ServiceOffer>>,
    /// Inverted index: operation name → offers whose signature contains it.
    op_index: RwLock<HashMap<String, HashSet<OfferId>>>,
    links: RwLock<BTreeMap<String, InterfaceRef>>,
    type_manager: Mutex<TypeManager>,
    resource_link: Mutex<Option<Arc<dyn ResourceLink>>>,
    capsule: Mutex<Option<Weak<odp_core::Capsule>>>,
    /// Conformance checks performed (experiment accounting).
    pub conformance_checks: AtomicU64,
}

impl Default for Trader {
    fn default() -> Self {
        Self::new()
    }
}

impl Trader {
    /// Creates an empty trader.
    #[must_use]
    pub fn new() -> Self {
        Self {
            next_offer: AtomicU64::new(1),
            offers: RwLock::new(HashMap::new()),
            op_index: RwLock::new(HashMap::new()),
            links: RwLock::new(BTreeMap::new()),
            type_manager: Mutex::new(TypeManager::new()),
            resource_link: Mutex::new(None),
            capsule: Mutex::new(None),
            conformance_checks: AtomicU64::new(0),
        }
    }

    /// Attaches the hosting capsule: required before federation paths can
    /// be forwarded to linked traders.
    pub fn attach_capsule(&self, capsule: &Arc<odp_core::Capsule>) {
        *self.capsule.lock() = Some(Arc::downgrade(capsule));
    }

    /// Installs the resource-manager hook.
    // odp-lint: allow(l8, reason = "DESIGN §1: the only way to install the trader's `ResourceLink` (paper §6)")
    pub fn set_resource_link(&self, link: Arc<dyn ResourceLink>) {
        *self.resource_link.lock() = Some(link);
    }

    /// Access to the trader's type manager for installing match
    /// constraints.
    // odp-lint: allow(l8, reason = "DESIGN §1: the only way to install type-manager match constraints on a trader (paper §6)")
    pub fn with_type_manager<R>(&self, f: impl FnOnce(&mut TypeManager) -> R) -> R {
        f(&mut self.type_manager.lock())
    }

    /// Records a service offer; returns its id.
    pub fn export_offer(
        &self,
        service: InterfaceRef,
        properties: BTreeMap<String, Value>,
    ) -> OfferId {
        let id = OfferId(self.next_offer.fetch_add(1, Ordering::Relaxed));
        {
            let mut index = self.op_index.write();
            for op in service.ty.operations() {
                index.entry(op.name.clone()).or_default().insert(id);
            }
        }
        self.offers.write().insert(
            id,
            ServiceOffer {
                id,
                service,
                properties,
            },
        );
        id
    }

    /// Withdraws an offer.
    ///
    /// # Errors
    ///
    /// [`TraderError::NotFound`] if the id is unknown.
    fn withdraw(&self, id: OfferId) -> Result<(), TraderError> {
        let offer = self
            .offers
            .write()
            .remove(&id)
            .ok_or(TraderError::NotFound(id))?;
        let mut index = self.op_index.write();
        for op in offer.service.ty.operations() {
            if let Some(set) = index.get_mut(&op.name) {
                set.remove(&id);
                if set.is_empty() {
                    index.remove(&op.name);
                }
            }
        }
        Ok(())
    }

    /// Number of live offers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offers.read().len()
    }

    /// True if the trader holds no offers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offers.read().is_empty()
    }

    fn matches(
        &self,
        offer: &ServiceOffer,
        required: &InterfaceType,
        constraints: &[PropertyConstraint],
    ) -> bool {
        if !constraints.iter().all(|c| c.matches(offer)) {
            return false;
        }
        self.conformance_checks.fetch_add(1, Ordering::Relaxed);
        self.type_manager
            .lock()
            .check_match(&offer.service.ty, required)
            .is_ok()
    }

    fn finish(&self, mut offers: Vec<ServiceOffer>) -> Vec<ServiceOffer> {
        if let Some(link) = self.resource_link.lock().clone() {
            for offer in &mut offers {
                if let Some(activated) = link.activate(offer) {
                    offer.service = activated;
                }
            }
        }
        offers
    }

    /// Type-safe import using the operation-name index.
    #[must_use]
    pub fn import(
        &self,
        required: &InterfaceType,
        constraints: &[PropertyConstraint],
        max_results: usize,
    ) -> Vec<ServiceOffer> {
        let offers = self.offers.read();
        let mut results = Vec::new();
        if required.is_empty() {
            // Everything conforms to the empty signature: scan.
            for offer in offers.values() {
                if results.len() >= max_results {
                    break;
                }
                if self.matches(offer, required, constraints) {
                    results.push(offer.clone());
                }
            }
            drop(offers);
            return self.finish(results);
        }
        // Intersect posting lists, smallest first.
        let index = self.op_index.read();
        let mut postings: Vec<&HashSet<OfferId>> = Vec::new();
        for op in required.operations() {
            match index.get(&op.name) {
                Some(set) => postings.push(set),
                None => return Vec::new(),
            }
        }
        postings.sort_by_key(|s| s.len());
        let (first, rest) = postings.split_first().expect("non-empty required");
        let mut candidates: Vec<OfferId> = first
            .iter()
            .filter(|id| rest.iter().all(|s| s.contains(id)))
            .copied()
            .collect();
        candidates.sort_unstable();
        for id in candidates {
            if results.len() >= max_results {
                break;
            }
            if let Some(offer) = offers.get(&id) {
                if self.matches(offer, required, constraints) {
                    results.push(offer.clone());
                }
            }
        }
        drop(offers);
        drop(index);
        self.finish(results)
    }

    /// Unindexed import: full scan with a conformance check per offer.
    /// Kept as the baseline for experiment E7.
    #[must_use]
    pub fn import_naive(
        &self,
        required: &InterfaceType,
        constraints: &[PropertyConstraint],
        max_results: usize,
    ) -> Vec<ServiceOffer> {
        let offers = self.offers.read();
        let mut results = Vec::new();
        let mut ids: Vec<_> = offers.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            if results.len() >= max_results {
                break;
            }
            let offer = &offers[&id];
            if self.matches(offer, required, constraints) {
                results.push(offer.clone());
            }
        }
        drop(offers);
        self.finish(results)
    }

    /// Links another trader under `name` ("cross linking of autonomous
    /// traders", §6).
    pub fn link<S: Into<String>>(&self, name: S, trader: InterfaceRef) {
        self.links.write().insert(name.into(), trader);
    }

    /// Names of all links.
    #[must_use]
    pub fn links(&self) -> Vec<String> {
        self.links.read().keys().cloned().collect()
    }

    /// Resolves a link.
    #[must_use]
    pub fn link_ref(&self, name: &str) -> Option<InterfaceRef> {
        self.links.read().get(name).cloned()
    }
}

impl Servant for Trader {
    fn interface_type(&self) -> InterfaceType {
        trader_interface_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        match op {
            "export_offer" => {
                let Some(service) = args.first().and_then(Value::as_interface) else {
                    return Outcome::fail("export_offer requires a service reference");
                };
                let properties = match args.get(1) {
                    Some(Value::Record(fields)) => fields.iter().cloned().collect(),
                    _ => BTreeMap::new(),
                };
                let id = self.export_offer(service.clone(), properties);
                Outcome::ok(vec![Value::Int(id.0 as i64)])
            }
            "withdraw" => {
                let Some(id) = args.first().and_then(Value::as_int) else {
                    return Outcome::fail("withdraw requires an offer id");
                };
                match self.withdraw(OfferId(id as u64)) {
                    Ok(()) => Outcome::ok(vec![]),
                    Err(_) => Outcome::new("not_found", vec![]),
                }
            }
            "import" => {
                let Some(required) = args.first().and_then(Value::as_interface) else {
                    return Outcome::fail("import requires a template reference");
                };
                let constraints = args
                    .get(1)
                    .map(PropertyConstraint::decode_all)
                    .unwrap_or_default();
                let max = args
                    .get(2)
                    .and_then(Value::as_int)
                    .map_or(16, |n| n.max(0) as usize);
                let found = self.import(&required.ty, &constraints, max);
                if found.is_empty() {
                    Outcome::new("none", vec![])
                } else {
                    Outcome::ok(vec![Value::Seq(
                        found
                            .into_iter()
                            .map(|o| Value::Interface(o.service))
                            .collect(),
                    )])
                }
            }
            "import_path" => federation::dispatch_import_path(self, &args),
            "link" => {
                let (Some(name), Some(trader)) = (
                    args.first().and_then(Value::as_str),
                    args.get(1).and_then(Value::as_interface),
                ) else {
                    return Outcome::fail("link requires (name, trader reference)");
                };
                self.link(name, trader.clone());
                Outcome::ok(vec![])
            }
            "list_links" => Outcome::ok(vec![Value::Seq(
                self.links().into_iter().map(Value::str).collect(),
            )]),
            _ => Outcome::fail("unknown operation"),
        }
    }
}

impl fmt::Debug for Trader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trader")
            .field("offers", &self.len())
            .field("links", &self.links.read().len())
            .finish()
    }
}

pub(crate) fn capsule_of(trader: &Trader) -> Option<Arc<odp_core::Capsule>> {
    trader.capsule.lock().as_ref().and_then(Weak::upgrade)
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_types::{InterfaceId, NodeId};

    fn iface(ops: &[&str]) -> InterfaceType {
        let mut b = InterfaceTypeBuilder::new();
        for op in ops {
            b = b.interrogation(*op, vec![], vec![OutcomeSig::ok(vec![])]);
        }
        b.build()
    }

    fn service(id: u64, ops: &[&str]) -> InterfaceRef {
        InterfaceRef::new(InterfaceId(id), NodeId(1), iface(ops))
    }

    fn props(list: &[(&str, Value)]) -> BTreeMap<String, Value> {
        list.iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect()
    }

    #[test]
    fn export_import_withdraw() {
        let trader = Trader::new();
        let id = trader.export_offer(service(1, &["print", "status"]), props(&[]));
        assert_eq!(trader.len(), 1);
        let found = trader.import(&iface(&["print"]), &[], 10);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].service.iface, InterfaceId(1));
        trader.withdraw(id).unwrap();
        assert!(trader.import(&iface(&["print"]), &[], 10).is_empty());
        assert!(matches!(trader.withdraw(id), Err(TraderError::NotFound(_))));
    }

    #[test]
    fn type_safety_offers_missing_ops_not_returned() {
        let trader = Trader::new();
        trader.export_offer(service(1, &["print"]), props(&[]));
        trader.export_offer(service(2, &["print", "status"]), props(&[]));
        let found = trader.import(&iface(&["print", "status"]), &[], 10);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].service.iface, InterfaceId(2));
    }

    #[test]
    fn property_constraints_filter() {
        let trader = Trader::new();
        trader.export_offer(
            service(1, &["print"]),
            props(&[("colour", Value::Bool(true)), ("ppm", Value::Int(20))]),
        );
        trader.export_offer(
            service(2, &["print"]),
            props(&[("colour", Value::Bool(false)), ("ppm", Value::Int(40))]),
        );
        let fast = trader.import(
            &iface(&["print"]),
            &[PropertyConstraint::AtLeast("ppm".into(), 30)],
            10,
        );
        assert_eq!(fast.len(), 1);
        assert_eq!(fast[0].service.iface, InterfaceId(2));
        let colour = trader.import(
            &iface(&["print"]),
            &[PropertyConstraint::Equals(
                "colour".into(),
                Value::Bool(true),
            )],
            10,
        );
        assert_eq!(colour.len(), 1);
        assert_eq!(colour[0].service.iface, InterfaceId(1));
    }

    #[test]
    fn indexed_and_naive_agree() {
        let trader = Trader::new();
        for i in 0..50 {
            let ops: Vec<&str> = match i % 3 {
                0 => vec!["a"],
                1 => vec!["a", "b"],
                _ => vec!["b", "c"],
            };
            trader.export_offer(service(i, &ops), props(&[]));
        }
        for required in [
            iface(&["a"]),
            iface(&["a", "b"]),
            iface(&["c"]),
            iface(&["z"]),
        ] {
            let mut indexed: Vec<_> = trader
                .import(&required, &[], usize::MAX)
                .into_iter()
                .map(|o| o.id)
                .collect();
            let mut naive: Vec<_> = trader
                .import_naive(&required, &[], usize::MAX)
                .into_iter()
                .map(|o| o.id)
                .collect();
            indexed.sort();
            naive.sort();
            assert_eq!(indexed, naive);
        }
    }

    #[test]
    fn index_prunes_conformance_checks() {
        let trader = Trader::new();
        for i in 0..100 {
            let ops: Vec<&str> = if i == 7 { vec!["rare"] } else { vec!["common"] };
            trader.export_offer(service(i, &ops), props(&[]));
        }
        trader.conformance_checks.store(0, Ordering::Relaxed);
        let found = trader.import(&iface(&["rare"]), &[], 10);
        assert_eq!(found.len(), 1);
        // Only the single candidate from the posting list was checked.
        assert_eq!(trader.conformance_checks.load(Ordering::Relaxed), 1);
        trader.conformance_checks.store(0, Ordering::Relaxed);
        let _ = trader.import_naive(&iface(&["rare"]), &[], 10);
        assert_eq!(trader.conformance_checks.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_required_type_matches_everything() {
        let trader = Trader::new();
        trader.export_offer(service(1, &["x"]), props(&[]));
        trader.export_offer(service(2, &["y"]), props(&[]));
        assert_eq!(trader.import(&InterfaceType::empty(), &[], 10).len(), 2);
    }

    #[test]
    fn max_results_respected() {
        let trader = Trader::new();
        for i in 0..20 {
            trader.export_offer(service(i, &["op"]), props(&[]));
        }
        assert_eq!(trader.import(&iface(&["op"]), &[], 5).len(), 5);
    }

    #[test]
    fn type_manager_constraints_narrow() {
        let trader = Trader::new();
        trader.export_offer(service(1, &["print"]), props(&[]));
        trader.with_type_manager(|tm| {
            tm.add_constraint("must-have-status", |provided, _| {
                provided.operation("status").is_some()
            });
        });
        assert!(trader.import(&iface(&["print"]), &[], 10).is_empty());
    }

    #[test]
    fn resource_link_substitutes_reference() {
        struct Activator;
        impl ResourceLink for Activator {
            fn activate(&self, offer: &ServiceOffer) -> Option<InterfaceRef> {
                Some(offer.service.clone().moved_to(NodeId(42)))
            }
        }
        let trader = Trader::new();
        trader.export_offer(service(1, &["op"]), props(&[]));
        trader.set_resource_link(Arc::new(Activator));
        let found = trader.import(&iface(&["op"]), &[], 10);
        assert_eq!(found[0].service.home, NodeId(42));
    }

    #[test]
    fn servant_interface_round_trip() {
        let trader = Trader::new();
        let ctx = CallCtx::default();
        let out = trader.dispatch(
            "export_offer",
            vec![
                Value::Interface(service(1, &["print"])),
                Value::record([("ppm", Value::Int(10))]),
            ],
            &ctx,
        );
        assert!(out.is_ok());
        let out = trader.dispatch(
            "import",
            vec![
                template(iface(&["print"])),
                PropertyConstraint::encode_all(&[PropertyConstraint::AtLeast("ppm".into(), 5)]),
                Value::Int(10),
            ],
            &ctx,
        );
        assert_eq!(out.termination, "ok");
        let refs = out.result().unwrap().as_seq().unwrap();
        assert_eq!(refs.len(), 1);
        let out = trader.dispatch(
            "import",
            vec![
                template(iface(&["scan"])),
                Value::record::<[_; 0], String>([]),
                Value::Int(10),
            ],
            &ctx,
        );
        assert_eq!(out.termination, "none");
    }
}
