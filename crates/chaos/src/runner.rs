//! The chaos runner: replays a fault schedule against a live world while a
//! client load hammers the workload through the hardened access path.
//!
//! Architecture (one run):
//!
//! ```text
//!  node 1  system capsule — relocation service (never faulted)
//!  node 2  host    — LedgerServant behind a write-ahead LoggingLayer
//!  node 3  peer    — relocation target / spare
//!  node 4  peer    — relocation target / spare
//!  node 9  client  — N client threads, each with its own binding:
//!                    retry budget + decorrelated jitter + circuit breaker
//!                    + location chasing + deadline propagation
//! ```
//!
//! The main thread plays the schedule: network faults go straight to
//! [`SimNet::apply`](odp_net::SimNet); crashes call
//! [`Capsule::crash`]; restarts spawn a fresh capsule under the same node
//! id and, when the dead node hosted the ledger, recover it from the
//! write-ahead log ([`odp_storage::recover`]) and re-export it at a bumped
//! epoch; relocations use [`Capsule::migrate_to`]. The write-ahead log and
//! the checkpoint repository live *outside* the capsule — they stand in
//! for stable storage, which survives a process crash.
//!
//! Everything that constitutes the *fault timeline* — the action sequence
//! and the network fault log — is a pure function of the schedule, so two
//! runs of the same seed produce identical timelines (asserted by the soak
//! tests). Client progress (which calls commit) is timing-dependent and is
//! judged only through the safety invariants.

use crate::invariants::{verify_run, InvariantReport};
use crate::schedule::{ChaosAction, ChaosProfile, FaultSchedule, Topology};
use crate::workload::{
    expected_value, ledger_is_mutating, parse_entries, LedgerServant, LEDGER_OP_ENTRIES,
    LEDGER_OP_RECORD,
};
use odp_core::{
    Capsule, CircuitBreakerPolicy, ExportConfig, InvokeError, Servant, ServerLayer,
    TransparencyPolicy, World,
};
use odp_net::{CallQos, NetFault};
use odp_storage::{recover, CheckpointPolicy, LoggingLayer, StableRepository, WriteAheadLog};
use odp_telemetry::Sampling;
use odp_types::NodeId;
use odp_wire::{InterfaceRef, Value};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Configuration for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The fault timeline to replay.
    pub schedule: FaultSchedule,
    /// Concurrent client threads (each gets its own binding and id).
    pub clients: u64,
    /// Per-call deadline stamped by the client stub and propagated down
    /// the layer stack.
    pub call_deadline: Duration,
    /// Checkpoint interval for the ledger's write-ahead logging layer.
    pub checkpoint_every: u64,
    /// Circuit-breaker policy for client bindings (`None` disables).
    pub breaker: Option<CircuitBreakerPolicy>,
    /// Dispatcher threads per capsule.
    pub workers: usize,
}

impl ChaosConfig {
    /// Sensible defaults around a schedule: 3 clients, 300 ms deadlines,
    /// checkpoint every 8 mutations, breaker enabled.
    #[must_use]
    pub fn new(schedule: FaultSchedule) -> Self {
        Self {
            schedule,
            clients: 3,
            call_deadline: Duration::from_millis(300),
            checkpoint_every: 8,
            breaker: Some(CircuitBreakerPolicy::default()),
            workers: 2,
        }
    }
}

/// The deterministic part of a run: actions applied plus the network's
/// own fault log. Two runs of the same seed must compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Fault actions in application order.
    pub actions: Vec<ChaosAction>,
    /// [`odp_net::SimNet::fault_log`] after the run (schedule-driven
    /// entries only; the epilogue heal is not logged).
    pub net: Vec<NetFault>,
}

/// Everything a chaos run produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Seed the schedule was generated from.
    pub seed: u64,
    /// Profile that was replayed.
    pub profile: ChaosProfile,
    /// The deterministic fault timeline.
    pub timeline: Timeline,
    /// Client calls attempted.
    pub attempted: u64,
    /// Keys whose `record` interrogation returned `ok` (the commit log).
    pub committed: BTreeSet<(u64, u64)>,
    /// Client calls that failed (timeouts, unreachable, shed, …).
    pub failed_calls: u64,
    /// Client calls shed by an open circuit breaker.
    pub shed_calls: u64,
    /// Capsule restarts performed.
    pub restarts: u64,
    /// Write-ahead log records replayed across all recoveries.
    pub replayed: usize,
    /// Relocations performed.
    pub relocations: u64,
    /// Duplicate deliveries the ledger suppressed, summed across
    /// incarnations (recovery replay counts here too).
    pub dup_deliveries: u64,
    /// Whether the post-heal probe reached the (possibly relocated,
    /// possibly recovered) interface.
    pub probe_ok: bool,
    /// The survivor ledger read back by the probe.
    pub final_ledger: BTreeMap<(u64, u64), i64>,
    /// Invariant sweep over the run.
    pub invariants: InvariantReport,
    /// Tail of the merged telemetry timeline (chaos events + sampled
    /// invocation spans, causally ordered) captured after the probe.
    pub event_timeline: Vec<String>,
    /// Flight-recorder incident dump, captured by triggering the recorder
    /// when the invariant sweep fails (empty on a clean run). Unlike
    /// `event_timeline`, this survives even when recording was off and
    /// includes the newest entries the always-on ring held at the moment
    /// of the violation.
    pub recorder_dump: Vec<String>,
}

/// Chaos runs in flight, and the (recording, sampling) the first one found.
static HELD: Mutex<(usize, bool, Sampling)> = Mutex::new((0, false, Sampling::Off));

/// Holds process-wide recording on for one run. Chaos runs always record:
/// schedule events land in the same timeline as invocation spans, so an
/// invariant violation can be diagnosed from one causally-ordered trace.
/// Sampling one call in eight keeps span volume bounded under the client
/// hammering. When the last run in flight drops its hold — on any exit
/// path — both switches go back to what the first run found.
struct RecordingHold;

impl RecordingHold {
    fn take() -> RecordingHold {
        let hub = odp_telemetry::hub();
        let mut held = HELD.lock();
        if held.0 == 0 {
            *held = (0, hub.recording(), hub.sampling());
        }
        held.0 += 1;
        hub.set_recording(true);
        hub.set_sampling(Sampling::OneIn(8));
        RecordingHold
    }
}

impl Drop for RecordingHold {
    fn drop(&mut self) {
        let mut held = HELD.lock();
        held.0 -= 1;
        if held.0 == 0 {
            odp_telemetry::hub().set_recording(held.1);
            odp_telemetry::hub().set_sampling(held.2);
        }
    }
}

/// One restartable node: the slot survives the capsule.
struct Slot {
    node: NodeId,
    capsule: Arc<Capsule>,
}

/// Mutable harness state threaded through schedule playback.
struct Harness {
    world: World,
    slots: Vec<Slot>,
    /// Index into `slots` of the node currently hosting the ledger.
    host_idx: usize,
    client: Arc<Capsule>,
    ledger_ref: InterfaceRef,
    current_ledger: Arc<LedgerServant>,
    wal: Arc<WriteAheadLog>,
    repo: Arc<StableRepository>,
    checkpoint_every: u64,
    actions: Vec<ChaosAction>,
    restarts: u64,
    replayed: usize,
    relocations: u64,
    dup_accumulated: u64,
}

impl Harness {
    fn new(config: &ChaosConfig) -> Result<Self, String> {
        let topo = Topology::standard();
        let world = World::builder()
            .capsules(0)
            .seed(config.schedule.seed)
            .workers(config.workers)
            .build();
        let mut slots = Vec::new();
        for node in std::iter::once(topo.host).chain(topo.peers.iter().copied()) {
            let capsule = world
                .spawn_capsule_at(node)
                .map_err(|e| format!("spawn {node}: {e}"))?;
            slots.push(Slot { node, capsule });
        }
        let client = world
            .spawn_capsule_at(topo.client)
            .map_err(|e| format!("spawn client {}: {e}", topo.client))?;
        let wal = Arc::new(WriteAheadLog::new());
        let repo = Arc::new(StableRepository::new(Duration::ZERO));
        let ledger = Arc::new(LedgerServant::new());
        let servant: Arc<dyn Servant> = Arc::clone(&ledger) as Arc<dyn Servant>;
        let logging = LoggingLayer::new(
            &servant,
            Arc::clone(&wal),
            Arc::clone(&repo),
            CheckpointPolicy {
                every_n_ops: config.checkpoint_every,
            },
            Arc::new(ledger_is_mutating),
        );
        let export_config = ExportConfig {
            layers: vec![logging as Arc<dyn ServerLayer>],
            ..ExportConfig::default()
        };
        let ledger_ref = slots[0].capsule.export_with(servant, export_config);
        Ok(Self {
            world,
            slots,
            host_idx: 0,
            client,
            ledger_ref,
            current_ledger: ledger,
            wal,
            repo,
            checkpoint_every: config.checkpoint_every,
            actions: Vec::new(),
            restarts: 0,
            replayed: 0,
            relocations: 0,
            dup_accumulated: 0,
        })
    }

    fn slot_index(&self, node: NodeId) -> Result<usize, String> {
        self.slots
            .iter()
            .position(|s| s.node == node)
            .ok_or_else(|| format!("{node} is not a fault-injectable slot"))
    }

    fn apply(&mut self, action: &ChaosAction) -> Result<(), String> {
        match action {
            ChaosAction::Net(fault) => {
                odp_telemetry::hub().event("chaos.net", 0, 0, format!("{fault:?}"));
                self.world.net().apply(fault);
            }
            ChaosAction::Crash(node) => {
                let i = self.slot_index(*node)?;
                odp_telemetry::hub().event("chaos.crash", node.raw(), 0, format!("{node}"));
                self.slots[i].capsule.crash();
            }
            ChaosAction::Restart(node) => {
                odp_telemetry::hub().event("chaos.restart", node.raw(), 0, format!("{node}"));
                self.restart(*node)?;
            }
            ChaosAction::Relocate { to } => {
                let ti = self.slot_index(*to)?;
                if ti != self.host_idx {
                    let iface = self.ledger_ref.iface;
                    odp_telemetry::hub().event(
                        "chaos.relocate",
                        to.raw(),
                        0,
                        format!("iface={iface} -> {to}"),
                    );
                    let source = Arc::clone(&self.slots[self.host_idx].capsule);
                    source
                        .migrate_to(iface, &self.slots[ti].capsule)
                        .map_err(|e| format!("relocate to {to}: {e}"))?;
                    self.host_idx = ti;
                    self.relocations += 1;
                }
            }
        }
        self.actions.push(action.clone());
        Ok(())
    }

    /// Restarts `node` under the same identity. If the corpse hosted the
    /// ledger, recovers it from stable storage (checkpoint + log tail)
    /// and re-exports it — behind a fresh logging layer — at an epoch past
    /// every epoch the system has seen for it.
    fn restart(&mut self, node: NodeId) -> Result<(), String> {
        let i = self.slot_index(node)?;
        let corpse = Arc::clone(&self.slots[i].capsule);
        let fresh = self
            .world
            .spawn_capsule_at(node)
            .map_err(|e| format!("restart {node}: {e}"))?;
        self.restarts += 1;
        let iface = self.ledger_ref.iface;
        if i == self.host_idx && corpse.epoch_of(iface).is_some() {
            // The dead incarnation's duplicate accounting would be lost
            // with it; fold it into the running total first.
            self.dup_accumulated += self.current_ledger.dup_deliveries.load(Ordering::Relaxed);
            let corpse_epoch = corpse.epoch_of(iface).unwrap_or(0);
            let known_epoch = self
                .world
                .relocator_servant()
                .lookup_direct(iface)
                .map_or(0, |(_, e)| e);
            let replica = Arc::new(LedgerServant::new());
            let servant: Arc<dyn Servant> = Arc::clone(&replica) as Arc<dyn Servant>;
            let logging = LoggingLayer::new(
                &servant,
                Arc::clone(&self.wal),
                Arc::clone(&self.repo),
                CheckpointPolicy {
                    every_n_ops: self.checkpoint_every,
                },
                Arc::new(ledger_is_mutating),
            );
            let export_config = ExportConfig {
                layers: vec![logging as Arc<dyn ServerLayer>],
                ..ExportConfig::default()
            };
            let factory_replica = Arc::clone(&replica);
            let factory = move || Arc::clone(&factory_replica) as Arc<dyn Servant>;
            let (_new_ref, replayed) = recover(
                &fresh,
                iface,
                &factory,
                &self.repo,
                &self.wal,
                export_config,
                corpse_epoch.max(known_epoch),
            )?;
            self.replayed += replayed;
            self.current_ledger = replica;
        }
        self.slots[i].capsule = fresh;
        Ok(())
    }

    /// Heals the network and restarts any node still down, so invariants
    /// are checked against a fully recovered system.
    fn epilogue(&mut self) -> Result<(), String> {
        odp_telemetry::hub().event(
            "chaos.heal",
            0,
            0,
            "heal_all + restart survivors".to_owned(),
        );
        self.world.net().heal_all();
        let down: Vec<NodeId> = self
            .slots
            .iter()
            .filter(|s| s.capsule.is_crashed())
            .map(|s| s.node)
            .collect();
        for node in down {
            self.restart(node)?;
        }
        Ok(())
    }
}

/// Replays `config.schedule` while `config.clients` client threads hammer
/// the ledger, then heals everything, probes the survivor and sweeps the
/// invariants. Telemetry records for the run (one call in eight sampled);
/// both switches are restored afterwards, also when the run fails.
///
/// # Errors
///
/// A description if the harness cannot be assembled or an action cannot be
/// applied (both indicate a bug in the harness, not an invariant
/// violation — violations are reported in [`ChaosReport::invariants`]).
pub fn run(config: &ChaosConfig) -> Result<ChaosReport, String> {
    let _recording = RecordingHold::take();
    let mut harness = Harness::new(config)?;
    let client_capsule = Arc::clone(&harness.client);
    let target = harness.ledger_ref.clone();

    let committed = Mutex::new(BTreeSet::new());
    let attempted = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    let playback: Result<(), String> = thread::scope(|s| {
        let committed = &committed;
        let attempted = &attempted;
        let failed = &failed;
        let shed = &shed;
        let stop = &stop;
        for c in 0..config.clients {
            let capsule = Arc::clone(&client_capsule);
            let target = target.clone();
            let deadline = config.call_deadline;
            let breaker = config.breaker;
            s.spawn(move || {
                let policy = TransparencyPolicy::default()
                    .with_qos(CallQos::with_deadline(deadline))
                    .with_breaker(breaker);
                let binding = capsule.bind_with(target, policy);
                let mut seq = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    attempted.fetch_add(1, Ordering::Relaxed);
                    let args = vec![
                        Value::Int(c as i64),
                        Value::Int(seq as i64),
                        Value::Int(expected_value(c, seq)),
                    ];
                    match binding.interrogate(LEDGER_OP_RECORD, args) {
                        Ok(out) if out.is_ok() => {
                            committed.lock().insert((c, seq));
                        }
                        Ok(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(InvokeError::CircuitOpen) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    seq += 1;
                    thread::sleep(Duration::from_millis(2));
                }
            });
        }

        let result = (|| {
            let start = Instant::now();
            for event in &config.schedule.events {
                if let Some(wait) = event.at.checked_sub(start.elapsed()) {
                    thread::sleep(wait);
                }
                harness.apply(&event.action)?;
            }
            if let Some(tail) = config.schedule.duration.checked_sub(start.elapsed()) {
                thread::sleep(tail);
            }
            Ok(())
        })();
        stop.store(true, Ordering::SeqCst);
        result
    });
    playback?;
    harness.epilogue()?;
    // Give in-flight retransmissions a moment to drain before the probe.
    thread::sleep(Duration::from_millis(50));

    let probe_policy =
        TransparencyPolicy::default().with_qos(CallQos::with_deadline(Duration::from_secs(2)));
    let probe_binding = client_capsule.bind_with(harness.ledger_ref.clone(), probe_policy);
    let (probe_ok, final_ledger) = match probe_binding.interrogate(LEDGER_OP_ENTRIES, vec![]) {
        Ok(out) if out.is_ok() => match parse_entries(&out) {
            Ok(table) => (true, table),
            Err(_) => (false, BTreeMap::new()),
        },
        _ => (false, BTreeMap::new()),
    };

    let committed = committed.into_inner();
    let invariants = verify_run(&committed, &final_ledger, probe_ok);
    // An invariant violation is the incident the flight recorder exists
    // for: dump it *now*, before anything else perturbs the ring, and
    // carry the dump in the report for the soak harness to print.
    let recorder_dump = if invariants.ok() {
        Vec::new()
    } else {
        let hub = odp_telemetry::hub();
        hub.recorder().trigger("chaos.invariant", hub.now_ns())
    };
    let dup_deliveries = harness.dup_accumulated
        + harness
            .current_ledger
            .dup_deliveries
            .load(Ordering::Relaxed);
    Ok(ChaosReport {
        seed: config.schedule.seed,
        profile: config.schedule.profile,
        timeline: Timeline {
            actions: harness.actions,
            net: harness.world.net().fault_log(),
        },
        attempted: attempted.into_inner(),
        committed,
        failed_calls: failed.into_inner(),
        shed_calls: shed.into_inner(),
        restarts: harness.restarts,
        replayed: harness.replayed,
        relocations: harness.relocations,
        dup_deliveries,
        probe_ok,
        final_ledger,
        invariants,
        event_timeline: odp_telemetry::hub().render_timeline(200),
        recorder_dump,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_restart_smoke_run_holds_invariants() {
        let schedule =
            FaultSchedule::generate(ChaosProfile::CrashRestart, 0xC0FFEE, &Topology::standard());
        let mut config = ChaosConfig::new(schedule);
        config.clients = 2;
        let report = run(&config).expect("run completes");
        assert!(report.restarts >= 1, "schedule restarts the host");
        assert!(report.probe_ok, "survivor must answer after restart");
        assert!(
            report.invariants.ok(),
            "invariants violated: {}",
            report.invariants
        );
        assert!(!report.committed.is_empty(), "some calls must commit");
        // The merged timeline must interleave schedule events with the
        // run's telemetry — at minimum the crash and restart are there.
        assert!(
            report
                .event_timeline
                .iter()
                .any(|l| l.contains("chaos.crash")),
            "timeline records the crash: {:?}",
            report.event_timeline
        );
        assert!(
            report
                .event_timeline
                .iter()
                .any(|l| l.contains("chaos.restart")),
            "timeline records the restart"
        );
    }
}
