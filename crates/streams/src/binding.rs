//! Explicit stream binding.
//!
//! §7.2: *"Explicit binding is parameterized by a template specifying which
//! information flows are enabled between the various interfaces being tied
//! together … the binding process produces an interface containing control
//! and management functions."*
//!
//! [`StreamBinding::establish`] takes a [`BindingTemplate`] (the flows, a
//! frame source per flow, and the two endpoints), starts one pacing thread
//! per flow, installs a [`QosMonitor`]-wrapped sink per flow, and exports a
//! **control servant** on the producer capsule: `start`, `stop`,
//! `set_rate(flow, fps)` and `stats(flow)` are ordinary ODP interrogations.

use crate::endpoint::{Frame, Sink, StreamEndpoint};
use crate::qos::{QosMonitor, QosReport};
use crate::stream::FlowSpec;
use bytes::Bytes;
use odp_core::{CallCtx, Capsule, Outcome, Servant};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceType, NodeId, StreamId, TypeSpec};
use odp_wire::{InterfaceRef, Value};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A synthetic or application frame source: returns the payload for frame
/// `seq`, or `None` when the flow is exhausted.
type FrameSource = Arc<dyn Fn(u64) -> Option<Bytes> + Send + Sync>;

/// One flow in a binding template.
pub struct TemplateFlow {
    /// The flow's type and QoS.
    pub spec: FlowSpec,
    /// Produces the media.
    pub source: FrameSource,
    /// Optional consumer-side tap, called after QoS accounting.
    pub sink: Option<Sink>,
}

/// The explicit-binding template: which flows tie the producer interface
/// to the consumer interface.
pub struct BindingTemplate {
    /// Flows, indexed by position.
    pub flows: Vec<TemplateFlow>,
}

struct FlowRuntime {
    monitor: Arc<QosMonitor>,
    rate_fps: Arc<AtomicU32>,
    produced: Arc<AtomicU64>,
}

static NEXT_STREAM: AtomicU64 = AtomicU64::new(1);

/// A live stream binding plus its control interface.
pub struct StreamBinding {
    id: StreamId,
    flows: Vec<FlowRuntime>,
    running: Arc<AtomicBool>,
    stopped: Arc<AtomicBool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    control_ref: RwLock<Option<InterfaceRef>>,
}

impl StreamBinding {
    /// Establishes the binding: sinks installed, pacing threads created
    /// (idle until `start`), control interface exported on
    /// `producer_capsule`.
    ///
    /// # Panics
    ///
    /// Panics if the template has no flows.
    #[must_use]
    pub fn establish(
        template: BindingTemplate,
        producer: &Arc<StreamEndpoint>,
        consumer: &Arc<StreamEndpoint>,
        producer_capsule: &Arc<Capsule>,
    ) -> Arc<Self> {
        assert!(!template.flows.is_empty(), "a binding needs flows");
        let id = StreamId(NEXT_STREAM.fetch_add(1, Ordering::Relaxed));
        let running = Arc::new(AtomicBool::new(false));
        let stopped = Arc::new(AtomicBool::new(false));
        let mut flows = Vec::new();
        let mut threads = Vec::new();
        for (index, tf) in template.flows.into_iter().enumerate() {
            let monitor = Arc::new(QosMonitor::new(tf.spec.qos));
            let rate = Arc::new(AtomicU32::new(tf.spec.qos.rate_fps));
            let produced = Arc::new(AtomicU64::new(0));
            // Consumer side: QoS accounting, then the application tap.
            let tap = tf.sink.clone();
            let mon = Arc::clone(&monitor);
            consumer.set_sink(
                id,
                index as u32,
                Arc::new(move |frame: Frame| {
                    mon.record(frame.seq, frame.timestamp_us);
                    if let Some(tap) = &tap {
                        tap(frame);
                    }
                }),
            );
            // Producer side: paced sender thread.
            let producer = Arc::clone(producer);
            let to = consumer.node();
            let source = Arc::clone(&tf.source);
            let running = Arc::clone(&running);
            let stopped = Arc::clone(&stopped);
            let rate_t = Arc::clone(&rate);
            let produced_t = Arc::clone(&produced);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("flow-{id}-{index}"))
                    .spawn(move || {
                        pace_flow(
                            &producer,
                            to,
                            id,
                            index as u32,
                            &source,
                            &running,
                            &stopped,
                            &rate_t,
                            &produced_t,
                        );
                    })
                    .expect("spawn flow pacer"),
            );
            flows.push(FlowRuntime {
                monitor,
                rate_fps: rate,
                produced,
            });
        }
        let binding = Arc::new(Self {
            id,
            flows,
            running,
            stopped,
            threads: Mutex::new(threads),
            control_ref: RwLock::new(None),
        });
        let control = ControlServant {
            binding: Arc::clone(&binding),
        };
        let r = producer_capsule.export(Arc::new(control) as Arc<dyn Servant>);
        *binding.control_ref.write() = Some(r);
        binding
    }

    /// The binding's stream identity.
    #[must_use]
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// The control interface produced by the binding process.
    ///
    /// # Panics
    ///
    /// Panics if called before `establish` completed (impossible through
    /// the public API).
    #[must_use]
    pub fn control_ref(&self) -> InterfaceRef {
        self.control_ref.read().clone().expect("control exported")
    }

    /// Starts (or resumes) all flows.
    pub fn start(&self) {
        self.running.store(true, Ordering::SeqCst);
    }

    /// Pauses all flows.
    fn pause(&self) {
        self.running.store(false, Ordering::SeqCst);
    }

    /// Stops the binding permanently and joins the pacing threads.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.running.store(false, Ordering::SeqCst);
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }

    /// Changes a flow's rate (frames per second).
    pub fn set_rate(&self, flow: usize, fps: u32) {
        if let Some(f) = self.flows.get(flow) {
            f.rate_fps.store(fps.max(1), Ordering::SeqCst);
        }
    }

    /// Frames produced on a flow so far.
    #[must_use]
    pub fn produced(&self, flow: usize) -> u64 {
        self.flows
            .get(flow)
            .map_or(0, |f| f.produced.load(Ordering::SeqCst))
    }

    /// The consumer-side QoS report for a flow.
    #[must_use]
    pub fn qos_report(&self, flow: usize) -> Option<QosReport> {
        self.flows.get(flow).map(|f| f.monitor.report())
    }
}

impl Drop for StreamBinding {
    fn drop(&mut self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.running.store(false, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for StreamBinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamBinding")
            .field("id", &self.id)
            .field("flows", &self.flows.len())
            .finish()
    }
}

#[allow(clippy::too_many_arguments)]
fn pace_flow(
    producer: &Arc<StreamEndpoint>,
    to: NodeId,
    stream: StreamId,
    flow: u32,
    source: &FrameSource,
    running: &AtomicBool,
    stopped: &AtomicBool,
    rate_fps: &AtomicU32,
    produced: &AtomicU64,
) {
    let start = Instant::now();
    let mut seq: u64 = 0;
    while !stopped.load(Ordering::SeqCst) {
        if !running.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        let Some(payload) = source(seq) else { return };
        let frame = Frame {
            stream,
            flow,
            seq,
            timestamp_us: start.elapsed().as_micros() as u64,
            payload,
        };
        let _ = producer.send(to, &frame);
        produced.fetch_add(1, Ordering::SeqCst);
        seq += 1;
        let interval = Duration::from_secs(1) / rate_fps.load(Ordering::SeqCst).max(1);
        std::thread::sleep(interval);
    }
}

/// The control-and-management ADT interface of a binding (§7.2).
#[must_use]
pub fn control_interface_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation("start", vec![], vec![OutcomeSig::ok(vec![])])
        .interrogation("pause", vec![], vec![OutcomeSig::ok(vec![])])
        .interrogation(
            "set_rate",
            vec![TypeSpec::Int, TypeSpec::Int],
            vec![OutcomeSig::ok(vec![])],
        )
        .interrogation(
            "stats",
            vec![TypeSpec::Int],
            vec![
                OutcomeSig::ok(vec![TypeSpec::record([
                    ("received", TypeSpec::Int),
                    ("lost", TypeSpec::Int),
                    ("jitter_us", TypeSpec::Int),
                    ("within_qos", TypeSpec::Bool),
                ])]),
                OutcomeSig::new("no_such_flow", vec![]),
            ],
        )
        .build()
}

struct ControlServant {
    binding: Arc<StreamBinding>,
}

impl Servant for ControlServant {
    fn interface_type(&self) -> InterfaceType {
        control_interface_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        match op {
            "start" => {
                self.binding.start();
                Outcome::ok(vec![])
            }
            "pause" => {
                self.binding.pause();
                Outcome::ok(vec![])
            }
            "set_rate" => {
                let (Some(flow), Some(fps)) = (
                    args.first().and_then(Value::as_int),
                    args.get(1).and_then(Value::as_int),
                ) else {
                    return Outcome::fail("set_rate requires (flow, fps)");
                };
                self.binding.set_rate(flow as usize, fps as u32);
                Outcome::ok(vec![])
            }
            "stats" => {
                let Some(flow) = args.first().and_then(Value::as_int) else {
                    return Outcome::fail("stats requires a flow index");
                };
                match self.binding.qos_report(flow as usize) {
                    Some(r) => Outcome::ok(vec![Value::record([
                        ("received", Value::Int(r.received as i64)),
                        ("lost", Value::Int(r.lost as i64)),
                        ("jitter_us", Value::Int(r.jitter.as_micros() as i64)),
                        ("within_qos", Value::Bool(r.within_qos)),
                    ])]),
                    None => Outcome::new("no_such_flow", vec![]),
                }
            }
            _ => Outcome::fail("unknown operation"),
        }
    }
}

impl std::fmt::Debug for ControlServant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlServant").finish()
    }
}

/// A seeded synthetic source producing `count` frames of `size` bytes.
#[must_use]
pub fn synthetic_source(size: usize, count: u64) -> FrameSource {
    Arc::new(move |seq| {
        if seq >= count {
            None
        } else {
            Some(Bytes::from(vec![(seq % 251) as u8; size]))
        }
    })
}
