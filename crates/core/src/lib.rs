//! # odp-core — the ODP computational and engineering models
//!
//! This crate is the primary contribution of the reproduction: a runtime
//! realizing the computational language (ADT interfaces invoked through
//! references) and the engineering language (capsules, binders, dispatchers
//! and *selective transparency* assembled into the access path) of
//! *The Challenge of ODP*.
//!
//! ## Computational model
//!
//! * [`object`] — [`Servant`]: an ADT implementation ("a set of operations
//!   which encapsulate data", §4.1); [`Outcome`]: one termination plus its
//!   "package of results" (§5.1).
//! * Invocations are **interrogations** (request/reply) or **announcements**
//!   (request-only), always through an [`odp_wire::InterfaceRef`].
//!
//! ## Engineering model
//!
//! * [`capsule`] — [`Capsule`]: one node's runtime (nucleus): a REX
//!   endpoint, a binder (export table), and a dispatcher with optional
//!   per-interface synchronization disciplines ("impose a synchronization
//!   discipline over the dispatching of the operations in an interface",
//!   §4.5).
//! * [`invocation`] — the client-side [`ClientBinding`]: a stack of
//!   [`ClientLayer`]s assembled *declaratively* from a
//!   [`TransparencyPolicy`] — "transparency must be declarative, selective
//!   and modular" (§3). The bottom [`layers::AccessLayer`] performs
//!   marshalling + REX, or **direct co-located dispatch** when client and
//!   server share a capsule — the optimization §4.5 singles out.
//! * [`transparency`] — the policy type and the built-in location and
//!   failure layers. Replication, security and federation layers plug into
//!   the same stacks from their own crates: transparency mechanisms are
//!   "linked … into the access path to an interface" (§4.5).
//! * [`relocator`] — the relocation service (itself an ODP object): moves
//!   are *registered once* and found on demand, because "relocation
//!   mechanisms should only require the registration of changes in
//!   location" (§5.4).
//! * [`node_manager`] — the per-node management service of §6: creates
//!   default servants after restart and can start/stop servants remotely.
//! * [`management`] — capsule introspection plus the telemetry plane
//!   ([`management::TelemetryServant`]): per-layer metrics, the merged
//!   span/event timeline and causally-linked trace trees, all served as
//!   ordinary ODP interrogations.
//! * [`world`] — a harness that assembles transports, capsules and a
//!   relocator into a running system for tests, examples and benches.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod capsule;
pub mod invocation;
pub mod management;
pub mod node_manager;
pub mod object;
pub mod relocator;
pub mod transparency;
pub mod world;

pub use admission::{AdmissionLayer, AdmissionPolicy};
pub use capsule::{Capsule, ExportConfig, SyncDiscipline};
pub use invocation::{
    CallRequest, ClientBinding, ClientLayer, ClientNext, InvokeError, ServerLayer, ServerNext,
};
pub use management::{
    management_interface_type, telemetry_interface_type, ManagementServant, TelemetryServant,
};
pub use object::{CallCtx, Code, FnServant, Outcome, Servant, Termination};
pub use relocator::{RelocationServant, RELOCATOR_OP_LOOKUP, RELOCATOR_OP_REGISTER};
pub use transparency::{
    BreakerState, CircuitBreakerPolicy, RetryBudget, RetryPolicy, TransparencyPolicy,
};
pub use world::World;

/// Module grouping the built-in client layers so downstream crates can
/// compose them explicitly.
pub mod layers {
    pub use crate::invocation::AccessLayer;
    pub use crate::transparency::{CircuitBreakerLayer, LocationLayer, RetryLayer};
}
