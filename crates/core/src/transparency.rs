//! Declarative, selective transparency policies and the built-in layers.
//!
//! §3 of the paper: *"Sometimes applications will want to exercise control
//! over distribution or participate directly in its provision. Transparency
//! must therefore be declarative, selective and modular."* A
//! [`TransparencyPolicy`] is the declarative statement; at bind time it is
//! compiled into a stack of [`ClientLayer`]s — the runtime analogue of the
//! paper's "automated tools \[that\] transform this abstract form into an
//! engineering implementation" (§4.5).
//!
//! Built-in layers:
//!
//! * [`LocationLayer`] — location transparency (§5.4): follows the hint of
//!   an [`InvokeError::Stale`] (a forwarding tombstone), and on
//!   `NoSuchInterface`, unreachable or timeout failures consults the
//!   relocation service, updating the shared reference **in place** (every
//!   holder of the binding learns the new location), and retrying.
//! * [`RetryLayer`] — the client half of failure transparency (§5.5):
//!   bounded retries with decorrelated-jitter backoff, metered by a
//!   per-binding [`RetryBudget`] and clamped to the caller's end-to-end
//!   deadline. (The server half — checkpoints and recovery — lives in
//!   `odp-storage`.)
//! * [`CircuitBreakerLayer`] — the load-shedding half of failure
//!   transparency: after a run of consecutive communication failures or
//!   server sheds ([`InvokeError::Rejected`]) the breaker opens and sheds
//!   calls locally; after a cooldown one half-open probe is admitted, and a
//!   probe success closes the breaker again.
//!
//! Each layer reacts to typed [`InvokeError`]s only: the access layer has
//! already turned every reserved engineering termination into one.
//!
//! Crates higher in the platform contribute further layers (replication
//! fan-out in `odp-groups`, guards in `odp-security`, boundary interception
//! in `odp-federation`) through [`TransparencyPolicy::custom_layers`].

use crate::capsule::Capsule;
use crate::invocation::{self, CallRequest, ClientLayer, ClientNext, InvokeError};
use crate::object::Outcome;
use crate::relocator::RELOCATOR_OP_LOOKUP;
use odp_net::{CallQos, RexError};
use odp_wire::{InterfaceRef, Value};
use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side retry policy (failure transparency, §5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt.
    pub max_retries: u32,
    /// Base backoff: the minimum sleep before any retry, and the floor of
    /// the decorrelated-jitter distribution.
    pub backoff: Duration,
    /// Ceiling for any single backoff sleep.
    pub max_backoff: Duration,
    /// Token capacity of the per-binding [`RetryBudget`].
    pub budget: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(500),
            budget: 32,
        }
    }
}

/// A token-bucket retry budget shared by every call on one binding.
///
/// Each retry withdraws one token; each *successful* call deposits a tenth
/// of a token back (up to the cap). Under a persistent outage the bucket
/// drains and retries stop — the binding fails fast instead of multiplying
/// load against a dead or struggling server — while under occasional
/// failures the steady trickle of successes keeps the bucket full.
#[derive(Debug)]
pub struct RetryBudget {
    /// Balance in milli-tokens (so deposits can be fractional).
    balance_milli: AtomicU64,
    cap_milli: u64,
}

/// Milli-tokens one retry costs.
const RETRY_COST_MILLI: u64 = 1000;
/// Milli-tokens one success deposits (a tenth of a token).
const SUCCESS_DEPOSIT_MILLI: u64 = 100;

impl RetryBudget {
    /// A full bucket holding `cap` tokens.
    #[must_use]
    pub fn new(cap: u32) -> Arc<Self> {
        let cap_milli = u64::from(cap) * RETRY_COST_MILLI;
        Arc::new(Self {
            balance_milli: AtomicU64::new(cap_milli),
            cap_milli,
        })
    }

    /// Withdraws one retry token. Returns `false` (and withdraws nothing)
    /// if the budget is exhausted.
    fn try_withdraw(&self) -> bool {
        self.balance_milli
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                b.checked_sub(RETRY_COST_MILLI)
            })
            .is_ok()
    }

    /// Deposits the per-success trickle, saturating at the cap.
    fn deposit(&self) {
        // odp-lint: allow(l6, reason = "fetch_update closure always returns Some; the Err arm is unreachable")
        let _ = self
            .balance_milli
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                Some((b + SUCCESS_DEPOSIT_MILLI).min(self.cap_milli))
            });
    }

    /// Whole retry tokens currently available.
    #[must_use]
    pub fn balance(&self) -> u32 {
        (self.balance_milli.load(Ordering::SeqCst) / RETRY_COST_MILLI) as u32
    }
}

/// Circuit-breaker policy: the declarative half of load-shedding failure
/// transparency. Selectable per binding via
/// [`TransparencyPolicy::with_breaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitBreakerPolicy {
    /// Consecutive communication failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Time the breaker stays open before admitting a half-open probe.
    pub cooldown: Duration,
}

impl Default for CircuitBreakerPolicy {
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// Observable state of a [`CircuitBreakerLayer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally; consecutive failures are counted.
    Closed,
    /// Calls are shed locally without touching the network.
    Open,
    /// One probe call is in flight; its outcome decides open vs closed.
    HalfOpen,
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    /// True while a half-open probe is in flight (only one is admitted).
    probing: bool,
}

/// A declarative selection of transparencies for one binding.
///
/// The paper's full set is: access (always on — it *is* the binding),
/// concurrency (`odp-tx`, server side), replication (`odp-groups` layer),
/// location, failure, resource (`odp-storage`, server side), migration
/// (capsule + relocator) and federation (`odp-federation` layer).
#[derive(Clone)]
pub struct TransparencyPolicy {
    /// Mask co-location: route even local calls through marshalling and
    /// the loopback transport. Off by default (the §4.5 optimization).
    pub force_remote: bool,
    /// Location transparency: follow moved interfaces via tombstone hints
    /// and the relocation service.
    pub location: bool,
    /// Failure transparency (client half): bounded retry with backoff.
    pub failure: Option<RetryPolicy>,
    /// Load shedding: a circuit breaker between the retry layer and the
    /// network, so a persistent outage trips it open and sheds further
    /// attempts locally instead of burning deadlines.
    pub breaker: Option<CircuitBreakerPolicy>,
    /// Additional layers supplied by other platform crates, outermost
    /// first; they run before the built-in layers.
    pub custom_layers: Vec<Arc<dyn ClientLayer>>,
    /// Communications QoS for calls on this binding.
    pub qos: CallQos,
}

impl Default for TransparencyPolicy {
    fn default() -> Self {
        Self {
            force_remote: false,
            location: true,
            failure: Some(RetryPolicy::default()),
            breaker: None,
            custom_layers: Vec::new(),
            qos: CallQos::default(),
        }
    }
}

impl fmt::Debug for TransparencyPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransparencyPolicy")
            .field("force_remote", &self.force_remote)
            .field("location", &self.location)
            .field("failure", &self.failure)
            .field("breaker", &self.breaker)
            .field("custom_layers", &self.custom_layers.len())
            .field("qos", &self.qos)
            .finish()
    }
}

impl TransparencyPolicy {
    /// No optional transparencies at all: the rawest possible binding.
    /// Used internally for calls to the relocation service itself (to
    /// avoid recursion) and by experiments measuring mechanism cost.
    #[must_use]
    pub fn minimal() -> Self {
        Self {
            force_remote: false,
            location: false,
            failure: None,
            breaker: None,
            custom_layers: Vec::new(),
            qos: CallQos::default(),
        }
    }

    /// Builder-style: set the QoS.
    #[must_use]
    pub fn with_qos(mut self, qos: CallQos) -> Self {
        self.qos = qos;
        self
    }

    /// Builder-style: set or clear failure retry.
    #[must_use]
    pub fn with_failure(mut self, retry: Option<RetryPolicy>) -> Self {
        self.failure = retry;
        self
    }

    /// Builder-style: set or clear the circuit breaker.
    #[must_use]
    pub fn with_breaker(mut self, breaker: Option<CircuitBreakerPolicy>) -> Self {
        self.breaker = breaker;
        self
    }

    /// Builder-style: force the remote path even when co-located.
    #[must_use]
    pub fn with_force_remote(mut self, force: bool) -> Self {
        self.force_remote = force;
        self
    }

    /// Builder-style: prepend a custom layer.
    #[must_use]
    pub fn with_layer(mut self, layer: Arc<dyn ClientLayer>) -> Self {
        self.custom_layers.push(layer);
        self
    }

    /// Compiles the policy into an ordered layer stack for a binding whose
    /// shared target cell is `cell`.
    #[must_use]
    pub fn build_layers(
        &self,
        capsule: &Arc<Capsule>,
        cell: &Arc<RwLock<InterfaceRef>>,
    ) -> Vec<Arc<dyn ClientLayer>> {
        // Order matters: custom → retry → breaker → location → access.
        // The breaker sits *below* retry so every retry attempt counts
        // toward (and is shed by) the breaker, and *above* location so a
        // half-open probe still benefits from retargeting.
        let mut layers: Vec<Arc<dyn ClientLayer>> = self.custom_layers.clone();
        if let Some(retry) = self.failure {
            layers.push(Arc::new(RetryLayer::new(retry)));
        }
        if let Some(breaker) = self.breaker {
            layers.push(CircuitBreakerLayer::new(breaker));
        }
        if self.location {
            layers.push(Arc::new(LocationLayer {
                capsule: Arc::downgrade(capsule),
                cell: Arc::clone(cell),
            }));
        }
        layers
    }
}

/// Bounded retry with decorrelated-jitter backoff on communication
/// failures, metered by a per-binding [`RetryBudget`] and clamped to the
/// caller's end-to-end deadline.
pub struct RetryLayer {
    /// The declarative policy this layer enforces.
    pub policy: RetryPolicy,
    /// Per-binding token bucket.
    budget: Arc<RetryBudget>,
    /// SplitMix64 state for jitter. Seeded with a fixed constant so a
    /// binding's sleep sequence is deterministic — chaos runs must replay
    /// identically for the same seed.
    jitter: AtomicU64,
    /// Retries suppressed because the budget was exhausted (accounting).
    pub budget_exhausted: AtomicU64,
}

impl RetryLayer {
    /// Creates the layer, allocating its per-binding budget.
    #[must_use]
    pub fn new(policy: RetryPolicy) -> Self {
        Self {
            policy,
            budget: RetryBudget::new(policy.budget),
            jitter: AtomicU64::new(0x0D9_1991),
            budget_exhausted: AtomicU64::new(0),
        }
    }

    /// The layer's retry budget.
    #[must_use]
    pub fn budget(&self) -> &Arc<RetryBudget> {
        &self.budget
    }

    fn next_rand(&self) -> u64 {
        // SplitMix64: tiny, seedable, and dependency-free.
        let mut x = self
            .jitter
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Decorrelated jitter (`sleep = min(cap, rand[base, prev * 3])`):
    /// spreads synchronized retry storms apart instead of letting doubled
    /// backoffs collide in lockstep.
    fn next_backoff(&self, prev: Duration) -> Duration {
        let base = self.policy.backoff.as_nanos() as u64;
        let hi = (prev.as_nanos() as u64).saturating_mul(3).max(base + 1);
        let sleep = base + self.next_rand() % (hi - base);
        Duration::from_nanos(sleep).min(self.policy.max_backoff)
    }
}

impl ClientLayer for RetryLayer {
    fn invoke(&self, req: CallRequest, next: &dyn ClientNext) -> Result<Outcome, InvokeError> {
        let mut prev_backoff = self.policy.backoff;
        let mut last_err = None;
        for attempt in 0..=self.policy.max_retries {
            if attempt > 0 {
                if !self.budget.try_withdraw() {
                    // Budget exhausted: fail fast with the last
                    // communication error rather than multiply load.
                    self.budget_exhausted.fetch_add(1, Ordering::Relaxed);
                    odp_telemetry::hub().event(
                        "retry.budget_exhausted",
                        0,
                        req.trace.trace_id,
                        format!("op={} attempt={attempt}", req.op),
                    );
                    return Err(last_err.unwrap_or(InvokeError::Rex(RexError::Timeout)));
                }
                let sleep = self.next_backoff(prev_backoff);
                prev_backoff = sleep;
                let remaining = req.remaining_budget();
                if remaining.is_zero() {
                    // Deadline already spent: a retry could not finish.
                    return Err(last_err.unwrap_or(InvokeError::Rex(RexError::Timeout)));
                }
                // Never sleep past the caller's deadline.
                std::thread::sleep(sleep.min(remaining));
            }
            match next.invoke(req.clone()) {
                // Only communication failures are retried: engineering
                // terminations, application outcomes and shed calls
                // (`CircuitOpen`, `Rejected`) pass straight through.
                Err(e @ InvokeError::Rex(RexError::Timeout | RexError::Unreachable(_)))
                    if attempt < self.policy.max_retries =>
                {
                    odp_telemetry::hub().event(
                        "retry.attempt",
                        0,
                        req.trace.trace_id,
                        format!("op={} attempt={} after {e}", req.op, attempt + 1),
                    );
                    last_err = Some(e);
                }
                other => {
                    // Only a completed call deposits budget: a server-shed
                    // one (`Rejected`) did no work, and a saturated server
                    // must not look like a healthy one refilling the bucket
                    // that amplifies its overload.
                    if other.is_ok() {
                        self.budget.deposit();
                    }
                    return other;
                }
            }
        }
        Err(last_err.unwrap_or(InvokeError::Rex(RexError::Timeout)))
    }

    fn name(&self) -> &'static str {
        "failure:retry"
    }
}

/// Sheds calls against a target that keeps failing (§5.5's failure
/// transparency, load-shedding half).
///
/// State machine: `Closed` —(threshold consecutive comm failures)→ `Open`
/// —(cooldown elapses, one probe admitted)→ `HalfOpen` —(probe succeeds)→
/// `Closed`, or —(probe fails)→ `Open` again. While open, calls fail
/// immediately with [`InvokeError::CircuitOpen`] without touching the
/// network.
pub struct CircuitBreakerLayer {
    /// The declarative policy this breaker enforces.
    pub policy: CircuitBreakerPolicy,
    inner: Mutex<BreakerInner>,
    /// Calls shed while open (accounting for E15).
    pub shed: AtomicU64,
}

impl CircuitBreakerLayer {
    /// A closed breaker enforcing `policy`. Attach via
    /// [`TransparencyPolicy::with_breaker`] (fresh breaker per binding) or
    /// [`TransparencyPolicy::with_layer`] (shared / observable instance).
    #[must_use]
    pub fn new(policy: CircuitBreakerPolicy) -> Arc<Self> {
        Arc::new(Self {
            policy,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                probing: false,
            }),
            shed: AtomicU64::new(0),
        })
    }

    /// The breaker's current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }
}

impl ClientLayer for CircuitBreakerLayer {
    fn invoke(&self, req: CallRequest, next: &dyn ClientNext) -> Result<Outcome, InvokeError> {
        // Admission: decide whether this call may pass, and whether it is
        // the half-open probe.
        let is_probe = {
            let mut inner = self.inner.lock();
            match inner.state {
                BreakerState::Closed => false,
                BreakerState::Open => {
                    let cooled = inner
                        .opened_at
                        .is_some_and(|t| t.elapsed() >= self.policy.cooldown);
                    if cooled && !inner.probing {
                        inner.state = BreakerState::HalfOpen;
                        inner.probing = true;
                        odp_telemetry::hub().event(
                            "breaker.probe",
                            0,
                            req.trace.trace_id,
                            format!("half-open probe op={}", req.op),
                        );
                        true
                    } else {
                        self.shed.fetch_add(1, Ordering::Relaxed);
                        return Err(InvokeError::CircuitOpen);
                    }
                }
                BreakerState::HalfOpen => {
                    if inner.probing {
                        // A probe is already in flight; shed everyone else.
                        self.shed.fetch_add(1, Ordering::Relaxed);
                        return Err(InvokeError::CircuitOpen);
                    }
                    inner.probing = true;
                    true
                }
            }
        };
        let trace_id = req.trace.trace_id;
        let result = next.invoke(req);
        // A server-shed call (`Rejected`) means the target is saturated:
        // it counts toward opening exactly like a communication failure, so
        // sustained shedding trips the breaker and the client stops
        // offering load the server will only throw away.
        let comm_failure = matches!(
            result,
            Err(InvokeError::Rex(
                RexError::Timeout | RexError::Unreachable(_) | RexError::Transport(_)
            ) | InvokeError::Rejected { .. })
        );
        let mut inner = self.inner.lock();
        if is_probe {
            inner.probing = false;
        }
        if comm_failure {
            inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
            if is_probe || inner.consecutive_failures >= self.policy.failure_threshold {
                let was_open = inner.state == BreakerState::Open;
                inner.state = BreakerState::Open;
                inner.opened_at = Some(Instant::now());
                if !was_open {
                    let hub = odp_telemetry::hub();
                    hub.event(
                        "breaker.open",
                        0,
                        trace_id,
                        format!("consecutive_failures={}", inner.consecutive_failures),
                    );
                    // A breaker opening is an incident: dump the flight
                    // recorder so the lead-up survives for the post-mortem.
                    hub.recorder().trigger("breaker.open", hub.now_ns());
                }
            }
        } else {
            // Any other completed exchange — application outcome, engineering
            // termination, even a type error — proves the path is up.
            inner.consecutive_failures = 0;
            if inner.state != BreakerState::Closed {
                odp_telemetry::hub().event(
                    "breaker.close",
                    0,
                    trace_id,
                    "path recovered".to_string(),
                );
            }
            inner.state = BreakerState::Closed;
            inner.opened_at = None;
        }
        result
    }

    fn name(&self) -> &'static str {
        "failure:breaker"
    }
}

impl fmt::Debug for CircuitBreakerLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CircuitBreakerLayer")
            .field("policy", &self.policy)
            .field("state", &self.state())
            .field("shed", &self.shed.load(Ordering::Relaxed))
            .finish()
    }
}

/// Follows interface movement (§5.4).
///
/// Two information sources, in order of preference:
///
/// 1. **Forwarding tombstones**: the old home answers `Code::Moved(new, epoch)`,
///    which arrives as [`InvokeError::Stale`] with a hint — cheap and
///    precise.
/// 2. **The relocation service**: consulted once when the old home is gone
///    entirely or has forgotten the interface. Only *changes* were
///    registered there, honouring the §5.4 scaling rule.
pub struct LocationLayer {
    pub(crate) capsule: std::sync::Weak<Capsule>,
    pub(crate) cell: Arc<RwLock<InterfaceRef>>,
}

impl LocationLayer {
    /// Maximum chase length: a chain of moves longer than this is reported
    /// stale rather than followed (defence against tombstone cycles).
    const MAX_CHASE: usize = 8;

    /// Points `req` at `home`/`epoch` and publishes the move to every
    /// holder of the binding.
    fn retarget(&self, req: &mut CallRequest, home: odp_types::NodeId, epoch: u64) {
        odp_telemetry::hub().event(
            "location.retarget",
            home.raw(),
            req.trace.trace_id,
            format!(
                "iface={} {} -> {home} epoch={epoch}",
                req.target.iface, req.target.home
            ),
        );
        req.target.home = home;
        req.target.epoch = epoch;
        // Publish to every holder of the binding, but never go backwards.
        let mut cell = self.cell.write();
        if cell.epoch <= epoch {
            cell.home = home;
            cell.epoch = epoch;
        }
    }

    /// Asks the relocation service where the target lives now, inside what
    /// is left of the caller's budget: with the budget spent, it does not
    /// ask.
    fn consult_relocator(&self, req: &CallRequest) -> Option<(odp_types::NodeId, u64)> {
        let left = req.remaining_budget();
        if left.is_zero() {
            return None;
        }
        let qos = CallQos::default().clamp_to(left);
        let capsule = self.capsule.upgrade()?;
        let reloc_home = req.target.relocator?;
        let reloc_ref = capsule
            .relocator_ref()
            .filter(|r| r.home == reloc_home)
            .or_else(|| capsule.relocator_ref())?;
        let binding = capsule.bind_with(reloc_ref, TransparencyPolicy::minimal().with_qos(qos));
        let outcome = binding
            .interrogate(
                RELOCATOR_OP_LOOKUP,
                vec![Value::Int(req.target.iface.raw() as i64)],
            )
            .ok()
            .filter(Outcome::is_ok)?;
        invocation::location_of(&outcome.results)
    }
}

impl ClientLayer for LocationLayer {
    fn invoke(&self, req: CallRequest, next: &dyn ClientNext) -> Result<Outcome, InvokeError> {
        // Start from the freshest location any holder has learned.
        let mut req = {
            let cell = self.cell.read();
            let mut r = req;
            if cell.epoch > r.target.epoch {
                r.target.home = cell.home;
                r.target.epoch = cell.epoch;
            }
            r
        };
        let mut consulted = false;
        for _chase in 0..Self::MAX_CHASE {
            // A chase must not outlive the caller's end-to-end budget.
            if req.remaining_budget().is_zero() {
                return Err(InvokeError::Rex(RexError::Timeout));
            }
            match next.invoke(req.clone()) {
                Err(InvokeError::Stale {
                    hint: Some((node, epoch)),
                    ..
                }) => {
                    // Tombstone: follow the forwarding pointer.
                    self.retarget(&mut req, node, epoch);
                    // Fresh movement evidence re-arms the one-shot
                    // relocator consultation: the chain may end at a node
                    // that has itself restarted since.
                    consulted = false;
                }
                // The reached node has forgotten the interface (restart
                // without tombstones), or the node is gone: ask the
                // relocation service once.
                Err(
                    e @ (InvokeError::NoSuchInterface(_)
                    | InvokeError::Rex(RexError::Unreachable(_) | RexError::Timeout)),
                ) => {
                    if consulted {
                        return Err(e);
                    }
                    consulted = true;
                    match self.consult_relocator(&req) {
                        Some((node, epoch))
                            if node != req.target.home || epoch > req.target.epoch =>
                        {
                            self.retarget(&mut req, node, epoch);
                        }
                        _ => return Err(e),
                    }
                }
                other => return other,
            }
        }
        Err(InvokeError::Stale {
            iface: req.target.iface,
            hint: None,
        })
    }

    fn name(&self) -> &'static str {
        "location"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_selects_location_and_failure() {
        let p = TransparencyPolicy::default();
        assert!(p.location);
        assert!(p.failure.is_some());
        assert!(!p.force_remote);
    }

    #[test]
    fn minimal_policy_is_bare() {
        let p = TransparencyPolicy::minimal();
        assert!(!p.location);
        assert!(p.failure.is_none());
        assert!(p.custom_layers.is_empty());
    }

    #[test]
    fn builder_methods_compose() {
        let mut p = TransparencyPolicy::default()
            .with_failure(None)
            .with_force_remote(true)
            .with_qos(CallQos::with_deadline(Duration::from_millis(300)));
        p.location = false;
        assert!(!p.location);
        assert!(p.failure.is_none());
        assert!(p.force_remote);
        assert_eq!(p.qos.deadline, Duration::from_millis(300));
    }

    #[test]
    fn retry_policy_defaults() {
        let r = RetryPolicy::default();
        assert_eq!(r.max_retries, 3);
        assert!(r.backoff > Duration::ZERO);
        assert!(r.max_backoff >= r.backoff);
        assert!(r.budget > 0);
    }

    #[test]
    fn retry_budget_drains_then_trickles_back() {
        let b = RetryBudget::new(2);
        assert_eq!(b.balance(), 2);
        assert!(b.try_withdraw());
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw(), "empty bucket must refuse");
        // Ten successes deposit one whole token.
        for _ in 0..10 {
            b.deposit();
        }
        assert_eq!(b.balance(), 1);
        assert!(b.try_withdraw());
        // Deposits saturate at the cap.
        for _ in 0..100 {
            b.deposit();
        }
        assert_eq!(b.balance(), 2);
    }

    #[test]
    fn decorrelated_jitter_stays_in_bounds_and_is_deterministic() {
        let policy = RetryPolicy {
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        let a = RetryLayer::new(policy);
        let b = RetryLayer::new(policy);
        let mut prev = policy.backoff;
        for _ in 0..64 {
            let sa = a.next_backoff(prev);
            let sb = b.next_backoff(prev);
            assert_eq!(sa, sb, "two identically-seeded layers must agree");
            assert!(sa >= policy.backoff || sa == policy.max_backoff);
            assert!(sa <= policy.max_backoff);
            prev = sa;
        }
    }

    /// Scripted continuation: fails the first `fails` invocations with a
    /// Timeout, then succeeds.
    struct ScriptedNext {
        fails: std::sync::atomic::AtomicU64,
        calls: std::sync::atomic::AtomicU64,
    }

    impl ScriptedNext {
        fn failing(n: u64) -> Self {
            Self {
                fails: std::sync::atomic::AtomicU64::new(n),
                calls: std::sync::atomic::AtomicU64::new(0),
            }
        }
    }

    impl crate::invocation::ClientNext for ScriptedNext {
        fn invoke(&self, _req: CallRequest) -> Result<Outcome, InvokeError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if self
                .fails
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |f| f.checked_sub(1))
                .is_ok()
            {
                Err(InvokeError::Rex(RexError::Timeout))
            } else {
                Ok(Outcome::ok(vec![]))
            }
        }
    }

    fn dummy_request() -> CallRequest {
        let ty = odp_types::InterfaceType::new(vec![]);
        CallRequest {
            target: odp_wire::InterfaceRef::new(
                odp_types::InterfaceId(7),
                odp_types::NodeId(1),
                ty,
            ),
            op: "noop".to_owned(),
            args: vec![],
            annotations: std::collections::BTreeMap::new(),
            qos: CallQos::default(),
            announcement: false,
            deadline: Instant::now() + CallQos::default().deadline,
            trace: odp_telemetry::TraceContext::NONE,
        }
    }

    #[test]
    fn breaker_opens_after_threshold_probes_and_recloses() {
        let policy = CircuitBreakerPolicy {
            failure_threshold: 3,
            cooldown: Duration::from_millis(20),
        };
        let breaker = CircuitBreakerLayer::new(policy);
        // Trip it: three consecutive failures.
        let always_down = ScriptedNext::failing(u64::MAX);
        for _ in 0..3 {
            let err = breaker.invoke(dummy_request(), &always_down).unwrap_err();
            assert_eq!(err, InvokeError::Rex(RexError::Timeout));
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        // While open (cooldown not yet elapsed) calls are shed locally.
        let err = breaker.invoke(dummy_request(), &always_down).unwrap_err();
        assert_eq!(err, InvokeError::CircuitOpen);
        assert_eq!(always_down.calls.load(Ordering::SeqCst), 3);
        assert!(breaker.shed.load(Ordering::SeqCst) >= 1);
        // After the cooldown one probe is admitted; a failing probe
        // re-opens the breaker immediately.
        std::thread::sleep(policy.cooldown + Duration::from_millis(5));
        let err = breaker.invoke(dummy_request(), &always_down).unwrap_err();
        assert_eq!(err, InvokeError::Rex(RexError::Timeout));
        assert_eq!(breaker.state(), BreakerState::Open);
        // Server "restarts": the next probe succeeds and closes the
        // breaker for good.
        std::thread::sleep(policy.cooldown + Duration::from_millis(5));
        let healthy = ScriptedNext::failing(0);
        breaker.invoke(dummy_request(), &healthy).unwrap();
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.invoke(dummy_request(), &healthy).unwrap();
    }

    #[test]
    fn retry_layer_stops_when_budget_exhausted() {
        let layer = RetryLayer::new(RetryPolicy {
            max_retries: 10,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            budget: 2,
        });
        let next = ScriptedNext::failing(u64::MAX);
        let err = layer.invoke(dummy_request(), &next).unwrap_err();
        assert_eq!(err, InvokeError::Rex(RexError::Timeout));
        // 1 initial attempt + 2 budgeted retries, not 11 attempts.
        assert_eq!(next.calls.load(Ordering::SeqCst), 3);
        assert_eq!(layer.budget_exhausted.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn retry_layer_respects_absolute_deadline() {
        let layer = RetryLayer::new(RetryPolicy {
            max_retries: 100,
            backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(40),
            budget: 1000,
        });
        let next = ScriptedNext::failing(u64::MAX);
        let mut req = dummy_request();
        let budget = Duration::from_millis(80);
        req.deadline = Instant::now() + budget;
        let start = Instant::now();
        let err = layer.invoke(req, &next).unwrap_err();
        assert_eq!(err, InvokeError::Rex(RexError::Timeout));
        // Bounded by deadline + one retry interval, not 100 × backoff.
        assert!(
            start.elapsed() < budget + layer.policy.max_backoff + Duration::from_millis(30),
            "took {:?}",
            start.elapsed()
        );
        assert!(next.calls.load(Ordering::SeqCst) < 100);
    }

    /// A next whose every call the server sheds.
    struct SheddingNext {
        calls: std::sync::atomic::AtomicU64,
    }

    impl SheddingNext {
        fn new() -> Self {
            Self {
                calls: std::sync::atomic::AtomicU64::new(0),
            }
        }
    }

    impl crate::invocation::ClientNext for SheddingNext {
        fn invoke(&self, _req: CallRequest) -> Result<Outcome, InvokeError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            Err(InvokeError::Rejected {
                retry_after: Duration::from_millis(2),
            })
        }
    }

    #[test]
    fn retry_layer_passes_shed_calls_through_without_amplifying() {
        let layer = RetryLayer::new(RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            budget: 2,
        });
        // Spend one budget token on a genuine transient failure so the
        // bucket sits below its cap (deposits would be visible).
        let flaky = ScriptedNext::failing(1);
        layer.invoke(dummy_request(), &flaky).unwrap();
        assert_eq!(layer.budget().balance(), 1);
        // Shed responses: exactly one attempt each (no retry), and no
        // budget deposits — ten of them must not refill the bucket the
        // way ten successes would.
        let shedding = SheddingNext::new();
        for _ in 0..10 {
            let err = layer.invoke(dummy_request(), &shedding).unwrap_err();
            assert!(matches!(err, InvokeError::Rejected { .. }), "{err:?}");
        }
        assert_eq!(
            shedding.calls.load(Ordering::SeqCst),
            10,
            "a shed call must never be retried"
        );
        assert_eq!(
            layer.budget().balance(),
            1,
            "shed calls must not deposit retry budget"
        );
    }

    #[test]
    fn sustained_shedding_opens_the_breaker() {
        let policy = CircuitBreakerPolicy {
            failure_threshold: 2,
            cooldown: Duration::from_secs(30),
        };
        let breaker = CircuitBreakerLayer::new(policy);
        let shedding = SheddingNext::new();
        // Shed responses complete the exchange but count as failures.
        for _ in 0..2 {
            let err = breaker.invoke(dummy_request(), &shedding).unwrap_err();
            assert!(matches!(err, InvokeError::Rejected { .. }), "{err:?}");
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        // Open: the overloaded server no longer sees this client at all.
        let err = breaker.invoke(dummy_request(), &shedding).unwrap_err();
        assert_eq!(err, InvokeError::CircuitOpen);
        assert_eq!(shedding.calls.load(Ordering::SeqCst), 2);
    }
}
