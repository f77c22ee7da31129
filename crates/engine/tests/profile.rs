//! Profiler integration: an attached profiler must attribute sampled
//! worker time to engine frames, and must never perturb results — the
//! same contract the Metrics/Trace facades are held to.

use whart_engine::{Engine, Scenario};
use whart_model::sweeps::section_v_model;
use whart_net::ReportingInterval;
use whart_prof::{Profiler, DEFAULT_HZ};

fn fleet() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for (i, pi) in [0.83, 0.903, 0.948, 0.83].iter().enumerate() {
        let model = section_v_model(*pi, ReportingInterval::REGULAR).unwrap();
        scenarios.push(Scenario::paths(format!("s-{i}"), vec![model]));
    }
    scenarios
}

#[test]
fn results_are_bit_identical_with_profiler_enabled() {
    let mut plain = Engine::new(2);
    let mut profiled = Engine::new(2);
    profiled.set_profiler(Profiler::new());
    let capture = profiled
        .profiler()
        .start_capture(DEFAULT_HZ)
        .expect("enabled profiler captures");
    for scenario in fleet() {
        plain.submit(scenario.clone());
        profiled.submit(scenario);
    }
    let a = plain.drain().unwrap();
    let b = profiled.drain().unwrap();
    drop(capture);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.label, y.label);
        assert_eq!(x.path_evaluations(), y.path_evaluations());
    }
}

#[test]
fn sampled_drains_attribute_time_to_engine_frames() {
    // Cold-drain fresh engines, each under its own fast capture, until
    // a capture has observed the execute stage; that capture is the one
    // asserted on below. Every drain plans real solves, so a handful of
    // attempts is enough at 20 kHz even on slow machines.
    let profiler = Profiler::new();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let profile = loop {
        let capture = profiler.start_capture(20_000).unwrap();
        let mut engine = Engine::new(4);
        engine.set_profiler(profiler.clone());
        for scenario in fleet() {
            engine.submit(scenario);
        }
        engine.drain().unwrap();
        let profile = capture.stop();
        if profile.frame_total("engine.execute") > 0 || std::time::Instant::now() >= deadline {
            break profile;
        }
    };
    assert!(profile.total_samples() > 0, "no samples at 20 kHz");
    assert!(
        profile.frame_total("engine.execute") > 0,
        "execute stage never sampled: {}",
        profile.to_folded()
    );
    // Worker ticks always sit under the execute frame: any sample on a
    // pool worker thread must carry it (the ≥90% attribution contract;
    // here it is structural, so it holds exactly).
    for thread in &profile.threads {
        if !thread.name.starts_with("whart-worker-") {
            continue;
        }
        for (stack, _) in &thread.stacks {
            assert_eq!(
                stack.first().map(String::as_str),
                Some("engine.execute"),
                "worker sample outside engine.execute: {stack:?}"
            );
        }
    }
    // Solver frames nest under execute in the folded rendering.
    let folded = profile.to_folded();
    if profile.frame_total("solver.fast") > 0 {
        assert!(folded.contains("engine.execute;solver.fast"));
    }
}

#[test]
fn disabled_profiler_is_the_default_and_free() {
    let engine = Engine::new(1);
    assert!(!engine.profiler().is_enabled());
    assert!(engine.profiler().start_capture(DEFAULT_HZ).is_none());
}
