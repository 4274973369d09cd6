//! Criterion bench: extension kernels — local-search improvement,
//! growth-function diagnostics and the full end-to-end covering schedule.

use criterion::{criterion_group, criterion_main, Criterion};
use rfid_core::{
    covering_schedule_with, improve_schedule, make_scheduler, AlgorithmKind, McsOptions,
    OneShotInput,
};
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, RadiusModel, Scenario, ScenarioKind, TagSet};
use std::hint::black_box;

fn paper_deployment(seed: u64) -> rfid_model::Deployment {
    Scenario {
        kind: ScenarioKind::UniformRandom,
        n_readers: 50,
        n_tags: 1200,
        region_side: 100.0,
        radius_model: RadiusModel::PoissonPair {
            lambda_interference: 14.0,
            lambda_interrogation: 6.0,
        },
    }
    .generate(seed)
}

fn bench_local_search(c: &mut Criterion) {
    let d = paper_deployment(2);
    let cov = Coverage::build(&d);
    let g = interference_graph(&d);
    let unread = TagSet::all_unread(d.n_tags());
    let input = OneShotInput::new(&d, &cov, &g, &unread);
    let start = make_scheduler(AlgorithmKind::Colorwave, 0).schedule(&input);
    c.bench_function("local_search_from_colorwave", |b| {
        b.iter(|| {
            let input = OneShotInput::new(&d, &cov, &g, &unread);
            black_box(improve_schedule(black_box(&input), &start))
        })
    });
}

fn bench_growth_diagnostics(c: &mut Criterion) {
    let d = paper_deployment(4);
    let g = interference_graph(&d);
    c.bench_function("growth_function_r3", |b| {
        b.iter(|| black_box(rfid_graph::growth_function(black_box(&g), 3)))
    });
}

fn bench_full_mcs(c: &mut Criterion) {
    let d = paper_deployment(5);
    let cov = Coverage::build(&d);
    let g = interference_graph(&d);
    let mut group = c.benchmark_group("covering_schedule");
    group.sample_size(10);
    for kind in [AlgorithmKind::LocalGreedy, AlgorithmKind::HillClimbing] {
        group.bench_function(kind.label(), |b| {
            b.iter(|| {
                let mut s = make_scheduler(kind, 0);
                black_box(
                    covering_schedule_with(
                        &d,
                        &cov,
                        &g,
                        s.as_mut(),
                        &McsOptions::new().max_slots(100_000),
                    )
                    .expect("strict covering schedule diverged")
                    .schedule,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_local_search,
    bench_growth_diagnostics,
    bench_full_mcs
);
criterion_main!(benches);
