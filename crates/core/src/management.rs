//! Management interfaces (§7.4).
//!
//! *"The links to management required for ODP include: identification of
//! points where network and system management information can contribute to
//! the provision of transparency; identification of management interfaces
//! for monitoring transparency mechanisms and changing transparency
//! parameters…"*
//!
//! [`ManagementServant`] exposes a capsule's engineering state — dispatch
//! counters, fast-path usage, the export table, relocator configuration —
//! as an ordinary ADT interface, so management tooling is just another ODP
//! client. Being an ordinary servant, it composes with the rest of the
//! platform: guard it with `odp-security`, trade it with `odp-trading`,
//! reach it across domains with `odp-federation`.

use crate::capsule::Capsule;
use crate::object::{CallCtx, Outcome, Servant};
use odp_types::signature::{InterfaceTypeBuilder, OutcomeSig};
use odp_types::{InterfaceType, TypeSpec};
use odp_wire::Value;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

/// The signature of the capsule management service.
#[must_use]
pub fn management_interface_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation(
            "stats",
            vec![],
            vec![OutcomeSig::ok(vec![TypeSpec::record([
                ("node", TypeSpec::Int),
                ("served", TypeSpec::Int),
                ("local_fast_path", TypeSpec::Int),
                ("exports", TypeSpec::Int),
            ])])],
        )
        .interrogation(
            "exports",
            vec![],
            vec![OutcomeSig::ok(vec![TypeSpec::seq(TypeSpec::Int)])],
        )
        .interrogation(
            "relocator",
            vec![],
            vec![
                OutcomeSig::ok(vec![TypeSpec::Int]),
                OutcomeSig::new("none", vec![]),
            ],
        )
        .interrogation(
            "close",
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![]), OutcomeSig::new("not_here", vec![])],
        )
        .build()
}

/// The signature of the node telemetry service.
#[must_use]
pub fn telemetry_interface_type() -> InterfaceType {
    InterfaceTypeBuilder::new()
        .interrogation(
            "metrics",
            vec![],
            vec![OutcomeSig::ok(vec![TypeSpec::seq(TypeSpec::record([
                ("node", TypeSpec::Int),
                ("layer", TypeSpec::Str),
                ("calls", TypeSpec::Int),
                ("failures", TypeSpec::Int),
                ("samples", TypeSpec::Int),
                ("p50_ns", TypeSpec::Int),
                ("p95_ns", TypeSpec::Int),
                ("p99_ns", TypeSpec::Int),
            ]))])],
        )
        .interrogation(
            "timeline",
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![TypeSpec::seq(TypeSpec::Str)])],
        )
        .interrogation(
            "trace",
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![TypeSpec::seq(TypeSpec::Str)])],
        )
        .interrogation(
            "recording",
            vec![TypeSpec::Int],
            vec![OutcomeSig::ok(vec![])],
        )
        .interrogation(
            "export_text",
            vec![],
            vec![OutcomeSig::ok(vec![TypeSpec::Str])],
        )
        .interrogation(
            "recorder_dump",
            vec![],
            vec![
                OutcomeSig::ok(vec![TypeSpec::Str, TypeSpec::seq(TypeSpec::Str)]),
                OutcomeSig::new("none", vec![]),
            ],
        )
        .build()
}

/// Exposes the node-wide telemetry plane — per-layer metric snapshots, the
/// merged span/event timeline, and individual trace trees — as an ordinary
/// ODP interface, so observability tooling is just another client.
///
/// One servant serves the whole process (the [`odp_telemetry::hub`] is
/// global); it is exported per capsule so every node's management plane can
/// answer interrogations locally.
pub struct TelemetryServant {
    capsule: Weak<Capsule>,
}

impl TelemetryServant {
    /// Creates the telemetry servant for `capsule`.
    #[must_use]
    pub fn new(capsule: &Arc<Capsule>) -> Self {
        Self::from_weak(Arc::downgrade(capsule))
    }

    /// Creates the servant from an already-downgraded capsule handle
    /// (used by the node manager's default factory, which must not keep
    /// the capsule alive).
    #[must_use]
    pub fn from_weak(capsule: Weak<Capsule>) -> Self {
        Self { capsule }
    }
}

impl Servant for TelemetryServant {
    fn interface_type(&self) -> InterfaceType {
        telemetry_interface_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        if self.capsule.upgrade().is_none() {
            return Outcome::fail("capsule has shut down");
        }
        let hub = odp_telemetry::hub();
        match op {
            "metrics" => Outcome::ok(vec![Value::Seq(
                hub.metrics_snapshot()
                    .into_iter()
                    .map(|m| {
                        Value::record([
                            ("node", Value::Int(m.node as i64)),
                            ("layer", Value::str(m.layer)),
                            ("calls", Value::Int(m.calls as i64)),
                            ("failures", Value::Int(m.failures as i64)),
                            ("samples", Value::Int(m.samples as i64)),
                            ("p50_ns", Value::Int(m.p50_ns as i64)),
                            ("p95_ns", Value::Int(m.p95_ns as i64)),
                            ("p99_ns", Value::Int(m.p99_ns as i64)),
                        ])
                    })
                    .collect(),
            )]),
            // The timeline is the flight recorder's ring.
            "timeline" => {
                let limit = args
                    .first()
                    .and_then(Value::as_int)
                    .map_or(100, |n| n.max(0) as usize);
                Outcome::ok(vec![Value::Seq(
                    hub.render_timeline(limit)
                        .into_iter()
                        .map(Value::str)
                        .collect(),
                )])
            }
            "trace" => {
                let Some(id) = args.first().and_then(Value::as_int) else {
                    return Outcome::fail("trace requires a trace id");
                };
                Outcome::ok(vec![Value::Seq(
                    hub.render_trace(id as u64)
                        .into_iter()
                        .map(Value::str)
                        .collect(),
                )])
            }
            "recording" => {
                let Some(on) = args.first().and_then(Value::as_int) else {
                    return Outcome::fail("recording requires 0 or 1");
                };
                hub.set_recording(on != 0);
                Outcome::ok(vec![])
            }
            "export_text" => {
                let data = odp_telemetry::ExpositionData::gather();
                Outcome::ok(vec![Value::str(odp_telemetry::render_prometheus(&data))])
            }
            "recorder_dump" => match hub.recorder().last_dump() {
                Some(dump) => Outcome::ok(vec![
                    Value::str(dump.reason),
                    Value::Seq(dump.lines.into_iter().map(Value::str).collect()),
                ]),
                None => Outcome::new("none", vec![]),
            },
            _ => Outcome::fail("unknown operation"),
        }
    }
}

impl std::fmt::Debug for TelemetryServant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServant").finish()
    }
}

/// Exposes a capsule's engineering state for monitoring and control.
pub struct ManagementServant {
    capsule: Weak<Capsule>,
}

impl ManagementServant {
    /// Creates the management servant for `capsule`.
    #[must_use]
    pub fn new(capsule: &Arc<Capsule>) -> Self {
        Self {
            capsule: Arc::downgrade(capsule),
        }
    }
}

impl Servant for ManagementServant {
    fn interface_type(&self) -> InterfaceType {
        management_interface_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, _ctx: &CallCtx) -> Outcome {
        let Some(capsule) = self.capsule.upgrade() else {
            return Outcome::fail("capsule has shut down");
        };
        match op {
            "stats" => Outcome::ok(vec![Value::record([
                ("node", Value::Int(capsule.node().raw() as i64)),
                (
                    "served",
                    Value::Int(capsule.stats.served.load(Ordering::Relaxed) as i64),
                ),
                (
                    "local_fast_path",
                    Value::Int(capsule.stats.local_fast_path.load(Ordering::Relaxed) as i64),
                ),
                (
                    "exports",
                    Value::Int(capsule.exported_interfaces().len() as i64),
                ),
            ])]),
            "exports" => Outcome::ok(vec![Value::Seq(
                capsule
                    .exported_interfaces()
                    .into_iter()
                    .map(|i| Value::Int(i.raw() as i64))
                    .collect(),
            )]),
            "relocator" => match capsule.relocator_ref() {
                Some(r) => Outcome::ok(vec![Value::Int(r.home.raw() as i64)]),
                None => Outcome::new("none", vec![]),
            },
            "close" => {
                let Some(iface) = args.first().and_then(Value::as_int) else {
                    return Outcome::fail("close requires an interface id");
                };
                match capsule.close(odp_types::InterfaceId(iface as u64)) {
                    Some(_) => Outcome::ok(vec![]),
                    None => Outcome::new("not_here", vec![]),
                }
            }
            _ => Outcome::fail("unknown operation"),
        }
    }
}

impl std::fmt::Debug for ManagementServant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagementServant").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn stats_and_exports_visible_remotely() {
        let world = World::quick();
        let capsule = world.capsule(0);
        let mgmt_ref = capsule.export(Arc::new(ManagementServant::new(capsule)));
        let some_obj = capsule.export(Arc::new(crate::relocator::RelocationServant::new()));
        let binding = world.capsule(1).bind(mgmt_ref);

        let out = binding.interrogate("stats", vec![]).unwrap();
        let rec = out.result().unwrap();
        assert_eq!(
            rec.field("node").and_then(Value::as_int),
            Some(capsule.node().raw() as i64)
        );
        assert!(rec.field("exports").and_then(Value::as_int).unwrap() >= 2);

        let out = binding.interrogate("exports", vec![]).unwrap();
        let ids = out.result().unwrap().as_seq().unwrap();
        assert!(ids
            .iter()
            .any(|v| v.as_int() == Some(some_obj.iface.raw() as i64)));

        // Management can close an interface remotely.
        let out = binding
            .interrogate("close", vec![Value::Int(some_obj.iface.raw() as i64)])
            .unwrap();
        assert!(out.is_ok());
        let out = binding
            .interrogate("close", vec![Value::Int(some_obj.iface.raw() as i64)])
            .unwrap();
        assert_eq!(out.termination, "not_here");

        let out = binding.interrogate("relocator", vec![]).unwrap();
        assert_eq!(out.termination, "ok");
    }

    #[test]
    fn telemetry_metrics_and_timeline_visible_remotely() {
        let world = World::quick();
        let capsule = world.capsule(0);
        let tel_ref = capsule.export(Arc::new(TelemetryServant::new(capsule)));
        let binding = world.capsule(1).bind(tel_ref);

        let hub = odp_telemetry::hub();
        hub.set_recording(true);
        hub.set_sampling(odp_telemetry::Sampling::All);

        // Generate some instrumented traffic, then interrogate the plane
        // about itself: the "metrics" call below is itself recorded.
        let _ = binding.interrogate("metrics", vec![]).unwrap();
        let out = binding.interrogate("metrics", vec![]).unwrap();
        let rows = out.result().unwrap().as_seq().unwrap().to_vec();
        assert!(
            rows.iter().any(|r| {
                r.field("layer").and_then(Value::as_str) == Some("client")
                    && r.field("calls").and_then(Value::as_int).unwrap_or(0) >= 1
            }),
            "expected a client-layer metric row, got {rows:?}"
        );

        let out = binding
            .interrogate("timeline", vec![Value::Int(50)])
            .unwrap();
        let lines = out.result().unwrap().as_seq().unwrap().to_vec();
        assert!(
            lines.iter().any(|l| l
                .as_str()
                .is_some_and(|s| s.contains("span") && s.contains("client"))),
            "expected a client span in the timeline, got {lines:?}"
        );

        // The switch is reachable through the same interface.
        let out = binding
            .interrogate("recording", vec![Value::Int(0)])
            .unwrap();
        assert!(out.is_ok());
        assert!(!hub.recording());
        hub.set_sampling(odp_telemetry::Sampling::Off);
    }

    #[test]
    fn observatory_ops_serve_exposition_and_recorder() {
        let world = World::quick();
        let capsule = world.capsule(0);
        let tel_ref = capsule.export(Arc::new(TelemetryServant::new(capsule)));
        let binding = world.capsule(1).bind(tel_ref);

        // Seed a registry cell directly so the histogram families render
        // regardless of the global recording flag (which other tests in
        // this binary toggle concurrently).
        let hub = odp_telemetry::hub();
        let cell = hub.metrics().register(424_242, "observatory.test");
        cell.record_call_exemplar(1_000, false, 7, 424_242);

        let out = binding.interrogate("export_text", vec![]).unwrap();
        let text = out.result().unwrap().as_str().unwrap().to_string();
        assert!(text.contains("# TYPE odp_layer_calls_total counter"));
        assert!(
            text.contains("odp_layer_latency_ns_bucket{node=\"424242\",layer=\"observatory.test\"")
        );

        // Text is the one exposition format, and the flight recorder's
        // tail is `timeline`: neither has a second name.
        for gone in ["export_json", "recorder"] {
            let err = binding.interrogate(gone, vec![]).unwrap_err();
            assert!(
                matches!(err, crate::InvokeError::NoSuchOperation(_)),
                "{gone}: {err:?}"
            );
        }

        // The flight recorder is reachable: its live tail renders, and a
        // trigger's dump is served. Other tests in this binary trigger the
        // process-global recorder too, so re-trigger until the served
        // dump is this test's own.
        let out = binding
            .interrogate("timeline", vec![Value::Int(10)])
            .unwrap();
        assert!(out.is_ok());

        let served_own_dump = (0..100).any(|_| {
            hub.recorder().trigger("test.management", hub.now_ns());
            let out = binding.interrogate("recorder_dump", vec![]).unwrap();
            assert!(out.is_ok());
            out.results.first().and_then(Value::as_str) == Some("test.management")
        });
        assert!(
            served_own_dump,
            "recorder_dump never served this test's dump"
        );
    }
}
