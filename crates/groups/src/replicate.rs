//! Group assembly: building a replicated service over a set of capsules.

use crate::client::GroupLayer;
use crate::member::GroupServant;
use crate::view::GroupView;
use odp_core::{Capsule, ClientBinding, ExportConfig, Servant, TransparencyPolicy};
use odp_types::GroupId;
use odp_wire::InterfaceRef;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Replication scheme (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupPolicy {
    /// All members execute every operation; the sequencer replies after
    /// every reachable member has accepted it. No fail-over gap; latency
    /// grows with group size.
    Active,
    /// The primary executes and replies immediately; relays propagate
    /// asynchronously. Singleton-like latency; a fail-over can lose the
    /// relay tail (counted by `gaps_skipped`).
    HotStandby,
}

static NEXT_GROUP: AtomicU64 = AtomicU64::new(1);

/// A handle over a created group: shared view, member servants, and
/// convenience constructors for client bindings.
pub struct GroupHandle {
    policy: GroupPolicy,
    view: Arc<RwLock<GroupView>>,
    servants: Vec<Arc<GroupServant>>,
}

/// Builds a replica group: one [`GroupServant`]-wrapped replica per
/// capsule, a shared initial view, and a handle for clients and membership
/// management.
///
/// # Panics
///
/// Panics if `capsules` is empty.
#[must_use]
pub fn replicate(
    capsules: &[Arc<Capsule>],
    factory: &dyn Fn() -> Arc<dyn Servant>,
    policy: GroupPolicy,
) -> GroupHandle {
    assert!(!capsules.is_empty(), "a group needs at least one member");
    let group = GroupId(NEXT_GROUP.fetch_add(1, Ordering::Relaxed));
    let mut servants = Vec::with_capacity(capsules.len());
    let mut refs = Vec::with_capacity(capsules.len());
    for capsule in capsules {
        let servant = GroupServant::new(factory(), policy);
        servant.attach_capsule(capsule);
        let r = capsule.export_with(
            Arc::clone(&servant) as Arc<dyn Servant>,
            ExportConfig::default(),
        );
        servant.set_identity(r.iface);
        refs.push(r.with_group(group));
        servants.push(servant);
    }
    let view = GroupView::initial(group, refs);
    for servant in &servants {
        servant.set_view(view.clone());
    }
    GroupHandle {
        policy,
        view: Arc::new(RwLock::new(view)),
        servants,
    }
}

impl GroupHandle {
    /// The replication scheme in force.
    #[must_use]
    pub fn policy(&self) -> GroupPolicy {
        self.policy
    }

    /// Snapshot of the current view.
    #[must_use]
    pub fn view(&self) -> GroupView {
        self.view.read().clone()
    }

    /// The member servants (tests and experiments inspect replica state
    /// through these).
    #[must_use]
    pub fn members(&self) -> &[Arc<GroupServant>] {
        &self.servants
    }

    /// A reference denoting the whole group (the sequencer's reference
    /// with the group mark and the application signature).
    ///
    /// # Panics
    ///
    /// Panics if the group has no members.
    #[must_use]
    pub fn group_ref(&self) -> InterfaceRef {
        let view = self.view.read();
        // odp-lint: allow(l1, reason = "documented panic: group_ref on an empty group is a caller bug")
        let seq = view.sequencer().expect("non-empty group");
        let mut r = seq.clone();
        // odp-lint: allow(l1, reason = "the constructor rejects empty groups, servants is never empty")
        r.ty = self.servants[0].app().interface_type();
        r
    }

    /// A fresh client-side replication layer sharing this handle's view.
    #[must_use]
    pub fn layer(&self) -> Arc<GroupLayer> {
        Arc::new(GroupLayer::new(Arc::clone(&self.view)))
    }

    /// Binds `capsule` to the group: a minimal policy with the replication
    /// layer installed ("the client sees the replicated group as if it
    /// were a singleton", §5.3).
    #[must_use]
    pub fn bind_via(&self, capsule: &Arc<Capsule>) -> ClientBinding {
        let policy = TransparencyPolicy::minimal().with_layer(self.layer());
        capsule.bind_with(self.group_ref(), policy)
    }

    /// Adds a member hosted on `capsule`, transferring state from the
    /// first existing member (snapshot + ordering position) before it
    /// joins the view. Returns the new member's servant.
    pub fn add_member(
        &mut self,
        capsule: &Arc<Capsule>,
        factory: &dyn Fn() -> Arc<dyn Servant>,
    ) -> Arc<GroupServant> {
        let servant = GroupServant::new(factory(), self.policy);
        servant.attach_capsule(capsule);
        // State transfer from the *current view's* sequencer (a crashed or
        // removed ex-member may linger in `servants` but must never donate
        // stale state).
        let donor = {
            let view = self.view.read();
            view.members
                .iter()
                .find_map(|m| self.servants.iter().find(|s| s.identity() == Some(m.iface)))
        };
        if let Some(donor) = donor {
            if let Some(snapshot) = donor.app().snapshot() {
                let _ = servant.app().restore(&snapshot);
            }
            servant.prime(donor.next_apply(), donor.next_apply());
        }
        let r = capsule.export_with(
            Arc::clone(&servant) as Arc<dyn Servant>,
            ExportConfig::default(),
        );
        servant.set_identity(r.iface);
        let new_view = {
            let mut view = self.view.write();
            *view = view.with_member(r.with_group(view.group));
            view.clone()
        };
        servant.set_view(new_view.clone());
        self.servants.push(Arc::clone(&servant));
        self.push_view(&new_view);
        servant
    }

    /// Removes the member at `index` from the view (it stops receiving
    /// relays; its export remains until unexported by its owner).
    pub fn remove_member(&self, index: usize) {
        let new_view = {
            let mut view = self.view.write();
            let Some(member) = view.members.get(index).cloned() else {
                return;
            };
            *view = view.without_member(member.iface);
            view.clone()
        };
        self.push_view(&new_view);
    }

    fn push_view(&self, view: &GroupView) {
        for servant in &self.servants {
            servant.set_view(view.clone());
        }
    }
}

impl std::fmt::Debug for GroupHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupHandle")
            .field("policy", &self.policy)
            .field("view", &self.view.read().version)
            .field("members", &self.view.read().members.len())
            .finish()
    }
}
