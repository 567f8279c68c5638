//! The client-side replication transparency layer.
//!
//! §5.3: the client must "transparently invoke a group of replicas of a
//! service". [`GroupLayer`] plugs into the standard client stack (it is an
//! ordinary [`ClientLayer`]) and:
//!
//! * retargets each invocation at the preferred member (initially the
//!   sequencer);
//! * on communication failure (or a tripped circuit breaker), fails over
//!   down the member list — but never past the caller's end-to-end
//!   deadline: once the budget is spent the layer stops probing and
//!   reports the last failure;
//! * on a [`InvokeError::Redirect`] (a member that is not the sequencer
//!   answered [`odp_core::Code::Redirect`]), follows the indicated node;
//! * remembers the member that last answered so steady-state traffic pays
//!   no discovery cost — and, symmetrically, advances past a member that
//!   just failed, so a silently partitioned sequencer cannot soak up the
//!   whole deadline budget of every subsequent call.

use crate::view::GroupView;
use odp_core::{CallRequest, ClientLayer, ClientNext, InvokeError, Outcome};
use odp_net::RexError;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Client-side replication layer. Shares its view with the
/// [`crate::GroupHandle`] that created it, so membership changes propagate
/// to live bindings.
pub struct GroupLayer {
    view: Arc<RwLock<GroupView>>,
    preferred: AtomicUsize,
    /// Fail-overs performed (experiment accounting).
    pub failovers: AtomicUsize,
}

impl GroupLayer {
    /// Creates a layer over a shared view.
    #[must_use]
    pub fn new(view: Arc<RwLock<GroupView>>) -> Self {
        Self {
            view,
            preferred: AtomicUsize::new(0),
            failovers: AtomicUsize::new(0),
        }
    }
}

impl ClientLayer for GroupLayer {
    fn invoke(&self, req: CallRequest, next: &dyn ClientNext) -> Result<Outcome, InvokeError> {
        let members = Arc::clone(&self.view.read().members);
        if members.is_empty() {
            return Err(InvokeError::Protocol("group has no members".to_owned()));
        }
        let start = self.preferred.load(Ordering::Relaxed) % members.len();
        let mut last_err: Option<InvokeError> = None;
        for attempt in 0..members.len() {
            // Failover is bounded by the caller's absolute deadline: probing
            // further members after the budget is gone only adds latency to
            // an answer that can no longer arrive in time.
            if req.remaining_budget().is_zero() {
                return Err(last_err.unwrap_or(InvokeError::Rex(RexError::Timeout)));
            }
            let idx = (start + attempt) % members.len();
            // odp-lint: allow(l1, reason = "idx is reduced modulo members.len() on the line above")
            let member = &members[idx];
            let mut attempt_req = req.clone();
            attempt_req.target = member.clone();
            match next.invoke(attempt_req) {
                Err(InvokeError::Redirect(node)) => {
                    // Redirect: prefer the member on the indicated node.
                    if let Some(pos) = members.iter().position(|m| m.home == node) {
                        let mut redirect_req = req.clone();
                        // odp-lint: allow(l1, reason = "pos comes from position() over the same members slice")
                        redirect_req.target = members[pos].clone();
                        // Only a second redirect or a lost sequencer falls through.
                        match next.invoke(redirect_req) {
                            Err(
                                InvokeError::Redirect(_)
                                | InvokeError::Rex(_)
                                | InvokeError::CircuitOpen,
                            ) => {}
                            done => {
                                self.preferred.store(pos, Ordering::Relaxed);
                                return done;
                            }
                        }
                        last_err =
                            Some(InvokeError::Protocol("sequencer redirect loop".to_owned()));
                    }
                    // Redirect unusable: fall through to the next member.
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                    odp_telemetry::hub().event(
                        "group.failover",
                        member.home.raw(),
                        req.trace.trace_id,
                        format!("op={} unusable redirect from member {idx}", req.op),
                    );
                }
                Err(
                    e @ (InvokeError::Rex(RexError::Unreachable(_) | RexError::Timeout)
                    | InvokeError::CircuitOpen),
                ) => {
                    // A shed call (breaker open for this member) is as good
                    // a reason to try the next replica as a timeout. Start
                    // the *next* call at the following member too: when the
                    // first attempt burns the whole deadline budget (a
                    // silent partition, not a fast unreachable), re-probing
                    // the dead member first would starve every later call.
                    self.preferred
                        .store((idx + 1) % members.len(), Ordering::Relaxed);
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                    odp_telemetry::hub().event(
                        "group.failover",
                        member.home.raw(),
                        req.trace.trace_id,
                        format!("op={} member {idx} failed: {e}", req.op),
                    );
                    last_err = Some(e);
                }
                Ok(outcome) => {
                    self.preferred.store(idx, Ordering::Relaxed);
                    return Ok(outcome);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err
            .unwrap_or_else(|| InvokeError::Protocol("no group member reachable".to_owned())))
    }

    fn name(&self) -> &'static str {
        "replication:group"
    }
}

impl std::fmt::Debug for GroupLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupLayer")
            .field("members", &self.view.read().members.len())
            .field("preferred", &self.preferred.load(Ordering::Relaxed))
            .finish()
    }
}
