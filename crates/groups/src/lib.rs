//! # odp-groups — replication transparency and object groups (§5.3)
//!
//! *"All of these forms of redundancy place a requirement for a client to be
//! able to transparently invoke a group of replicas of a service — in other
//! words the client sees the replicated group as if it were a singleton, but
//! with increased reliability or availability."*
//!
//! The crate implements the paper's "basic group execution mechanism":
//!
//! * [`view`] — [`GroupView`]: the versioned, ordered member list. The
//!   first member is the **sequencer**; view changes bump the version and
//!   are pushed to every member ("this ordering protocol should be tolerant
//!   of failures in members of the group and of changes of membership").
//! * [`member`] — [`GroupServant`]: wraps one application replica. The
//!   sequencer assigns a total-order sequence number to each client
//!   invocation and relays it to the other members; every member applies
//!   invocations strictly in sequence order through a hold-back queue
//!   ("the members do not have to run in exact lock-step, but they must all
//!   do things in the same order"). A backup contacted directly probes its
//!   predecessors and **promotes itself** when they are dead — fail-over
//!   without central coordination.
//! * [`client`] — [`GroupLayer`]: the client-side replication transparency
//!   layer: retargets invocations at the current sequencer, fails over down
//!   the member list, and follows [`odp_core::Code::Redirect`] answers. Plugged
//!   into a [`odp_core::TransparencyPolicy`] like every other transparency.
//! * [`replicate`](mod@replicate) — assembly: [`replicate()`](replicate::replicate) builds a
//!   group over a set of capsules from a replica factory, under a
//!   [`GroupPolicy`]:
//!   - **Active** replication: the sequencer waits for every member to
//!     acknowledge application before replying — "all the members are in
//!     service so that there is no fail-over period";
//!   - **Hot-standby**: the primary replies immediately and propagates
//!     asynchronously — "one member provides the service, with other
//!     members waiting to switch in if the active one fails".
//!
//! The known limitation of sequencer promotion (two backups can promote
//! simultaneously if a partition hides them from each other — a split
//! brain) is inherent to the paper's pre-consensus design space and is
//! documented in DESIGN.md; the tests exercise crash-stop failures, the
//! paper's stated fault model.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod member;
pub mod replicate;
pub mod view;
pub mod voting;

pub use client::GroupLayer;
pub use member::GroupServant;
pub use replicate::{replicate, GroupHandle, GroupPolicy};
pub use view::GroupView;
pub use voting::VotingLayer;
