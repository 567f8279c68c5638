//! N-version programming (§5.3).
//!
//! *"All of these forms of redundancy place a requirement for a client to
//! be able to transparently invoke a group of replicas of a service"* —
//! including *"using N-version programming to provide a defence against
//! programming errors in addition to hardware errors"*.
//!
//! Unlike state-machine replication ([`crate::member`]), N-version members
//! are **independent implementations** of the same signature, each invoked
//! on every call; the [`VotingLayer`] compares their outcomes and returns
//! the one a quorum agrees on. A version whose implementation is wrong (or
//! whose host is compromised) is simply outvoted — the failure model the
//! ordering protocol cannot cover.
//!
//! The scheme suits operations whose results are comparable values
//! (queries, pure computations); for stateful mutation the state-machine
//! group is the right tool, and the two compose (each "version" may itself
//! be a replica group).

use odp_core::{CallRequest, ClientLayer, ClientNext, InvokeError, Outcome};
use odp_wire::InterfaceRef;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Client-side majority voting over independent versions.
pub struct VotingLayer {
    versions: Vec<InterfaceRef>,
    quorum: usize,
    /// Calls on which at least one version dissented from the majority.
    pub dissents: AtomicU64,
}

impl VotingLayer {
    /// Creates a voting layer over `versions`, requiring `quorum` matching
    /// outcomes (a majority is the usual choice:
    /// `versions.len() / 2 + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `quorum` is 0 or exceeds the version count.
    #[must_use]
    pub fn new(versions: Vec<InterfaceRef>, quorum: usize) -> Arc<Self> {
        assert!(
            quorum >= 1 && quorum <= versions.len(),
            "quorum {quorum} impossible with {} versions",
            versions.len()
        );
        Arc::new(Self {
            versions,
            quorum,
            dissents: AtomicU64::new(0),
        })
    }

    /// Majority voting over all versions.
    #[must_use]
    pub fn majority(versions: Vec<InterfaceRef>) -> Arc<Self> {
        let quorum = versions.len() / 2 + 1;
        Self::new(versions, quorum)
    }
}

impl ClientLayer for VotingLayer {
    fn invoke(&self, req: CallRequest, next: &dyn ClientNext) -> Result<Outcome, InvokeError> {
        // Invoke every version; collect comparable answers. An engineering
        // termination a version answered with (`Denied`, `RemoteTypeError`…)
        // is a vote like any outcome, so a version failing where the others
        // answer counts as dissent; only a version that gave no answer at
        // all stays out of the vote.
        let mut outcomes: Vec<Result<Outcome, InvokeError>> =
            Vec::with_capacity(self.versions.len());
        let mut last_err = None;
        for version in &self.versions {
            let mut attempt = req.clone();
            attempt.target = version.clone();
            match next.invoke(attempt) {
                Err(
                    e @ (InvokeError::Rex(_) | InvokeError::CircuitOpen | InvokeError::Protocol(_)),
                ) => {
                    last_err = Some(e);
                }
                answer => outcomes.push(answer),
            }
        }
        if outcomes.is_empty() {
            return Err(last_err
                .unwrap_or_else(|| InvokeError::Protocol("no version reachable".to_owned())));
        }
        // Tally identical answers (termination + results, or the same error).
        let mut best: Option<(usize, &Result<Outcome, InvokeError>)> = None;
        for candidate in &outcomes {
            let votes = outcomes.iter().filter(|o| *o == candidate).count();
            if best.is_none_or(|(b, _)| votes > b) {
                best = Some((votes, candidate));
            }
        }
        // odp-lint: allow(l1, reason = "the caller returns early when outcomes is empty; best is always set by the loop")
        let (votes, winner) = best.expect("non-empty outcomes");
        if votes < outcomes.len() {
            self.dissents.fetch_add(1, Ordering::Relaxed);
            // A dissenting version is the event N-version programming
            // exists to surface — make it visible in the trace timeline.
            odp_telemetry::hub().event(
                "group.nversion.dissent",
                req.target.home.raw(),
                req.trace.trace_id,
                format!(
                    "op={} agreement {votes} of {} (quorum {})",
                    req.op,
                    outcomes.len(),
                    self.quorum
                ),
            );
        }
        if votes >= self.quorum {
            winner.clone()
        } else {
            Err(InvokeError::Protocol(format!(
                "n-version quorum not reached: best agreement {votes} of {} (need {})",
                outcomes.len(),
                self.quorum
            )))
        }
    }

    fn name(&self) -> &'static str {
        "replication:n-version"
    }
}

impl std::fmt::Debug for VotingLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VotingLayer")
            .field("versions", &self.versions.len())
            .field("quorum", &self.quorum)
            .finish()
    }
}
