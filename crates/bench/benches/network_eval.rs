//! Benchmarks of whole-network evaluation (Section VI): the ten-path
//! typical network under both schedules, measure extraction, and the
//! failure / composition machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use whart_bench::{typical_model, typical_network};
use whart_channel::LinkModel;
use whart_model::compose::{peer_cycle_probabilities, predict_composition};
use whart_model::failure::reachability_with_lost_cycles;
use whart_model::{DelayConvention, NetworkModel, UtilizationConvention};
use whart_net::ReportingInterval;

fn bench_network_evaluate(c: &mut Criterion) {
    let mut group = c.benchmark_group("network/evaluate");
    for pi in [0.693, 0.83, 0.948] {
        let model = typical_model(pi);
        group.bench_with_input(BenchmarkId::from_parameter(pi), &model, |b, m| {
            b.iter(|| black_box(m).evaluate().expect("valid"))
        });
    }
    group.finish();
}

fn bench_schedules(c: &mut Criterion) {
    let net = typical_network(0.83);
    let mut group = c.benchmark_group("network/schedule-build");
    group.bench_function("eta_a", |b| b.iter(|| black_box(&net).schedule_eta_a()));
    group.bench_function("eta_b", |b| b.iter(|| black_box(&net).schedule_eta_b()));
    group.finish();
}

fn bench_measures(c: &mut Criterion) {
    let evaluation = typical_model(0.83).evaluate().expect("valid");
    let mut group = c.benchmark_group("network/measures");
    group.bench_function("overall delay distribution", |b| {
        b.iter(|| black_box(&evaluation).overall_delay_distribution(DelayConvention::Absolute))
    });
    group.bench_function("mean delay", |b| {
        b.iter(|| black_box(&evaluation).mean_delay_ms(DelayConvention::Absolute))
    });
    group.bench_function("utilization", |b| {
        b.iter(|| black_box(&evaluation).utilization(UtilizationConvention::AsEvaluated))
    });
    group.finish();
}

fn bench_failure_and_composition(c: &mut Criterion) {
    let model = typical_model(0.83);
    let path10 = model.path_problem(9).expect("valid");
    let mut group = c.benchmark_group("network/what-if");
    group.bench_function("lost-cycle reachability", |b| {
        b.iter(|| reachability_with_lost_cycles(black_box(&path10), 1).expect("valid"))
    });
    let peer = peer_cycle_probabilities(
        LinkModel::from_availability(0.91, 0.9).expect("valid"),
        ReportingInterval::REGULAR,
    );
    let existing = model.path_problem(3).expect("valid").evaluate();
    group.bench_function("composition prediction", |b| {
        b.iter(|| predict_composition(black_box(&peer), 1, black_box(&existing)).expect("valid"))
    });
    group.finish();
}

fn bench_model_construction(c: &mut Criterion) {
    let net = typical_network(0.83);
    c.bench_function("network/model-construction", |b| {
        b.iter(|| {
            NetworkModel::from_typical(
                black_box(&net),
                net.schedule_eta_a(),
                ReportingInterval::REGULAR,
            )
            .expect("valid")
        })
    });
}

criterion_group!(
    benches,
    bench_network_evaluate,
    bench_schedules,
    bench_measures,
    bench_failure_and_composition,
    bench_model_construction
);
criterion_main!(benches);
