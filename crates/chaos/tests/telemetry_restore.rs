//! A chaos run switches process-wide telemetry recording on for its own
//! duration and hands both switches — recording and sampling — back as it
//! found them, whether the run succeeds or fails.
//!
//! Its own test binary: it sets and reads the process-global switches,
//! which a concurrently running test could otherwise change under it.

use odp_chaos::{run, ChaosAction, ChaosConfig, ChaosEvent, ChaosProfile, FaultSchedule, Topology};
use odp_telemetry::{hub, Sampling};
use odp_types::NodeId;
use std::time::Duration;

#[test]
fn a_run_restores_the_telemetry_switches_it_found() {
    let topo = Topology::standard();
    for found in [(false, Sampling::Off), (true, Sampling::All)] {
        hub().set_recording(found.0);
        hub().set_sampling(found.1);

        let schedule = FaultSchedule::generate(ChaosProfile::CrashRestart, 0xC0FFEE, &topo);
        let mut config = ChaosConfig::new(schedule);
        config.clients = 2;
        let report = run(&config).expect("run completes");
        assert!(report.invariants.ok(), "{}", report.invariants);
        assert_eq!(
            (hub().recording(), hub().sampling()),
            found,
            "switches after a completed run"
        );

        // An action the harness cannot apply ends the run with an error.
        let broken = FaultSchedule {
            seed: 0,
            profile: ChaosProfile::CrashRestart,
            events: vec![ChaosEvent {
                at: Duration::ZERO,
                action: ChaosAction::Crash(NodeId(999)),
            }],
            duration: Duration::from_millis(20),
        };
        assert!(run(&ChaosConfig::new(broken)).is_err());
        assert_eq!(
            (hub().recording(), hub().sampling()),
            found,
            "switches after a failed run"
        );
    }
}
