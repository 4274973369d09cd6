//! Criterion bench: the substrate kernels every scheduler call sits on —
//! the grid spatial index, interference-graph construction, coverage tables,
//! weight evaluation, hop balls and the exact MWFS enumeration primitive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_core::exact::exact_mwfs_restricted;
use rfid_core::OneShotInput;
use rfid_geometry::sampling::uniform_points;
use rfid_geometry::{GridIndex, Point, Rect};
use rfid_graph::k_hop_ball;
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, RadiusModel, Scenario, ScenarioKind, TagSet, WeightEvaluator};
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

fn bench_spatial_indices(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let points = uniform_points(&mut rng, 1200, Rect::square(100.0));
    let mut group = c.benchmark_group("spatial_index");
    group.bench_function("grid_build_1200", |b| {
        b.iter(|| black_box(GridIndex::build(black_box(&points), 6.0)))
    });
    let grid = GridIndex::build(&points, 6.0);
    let center = Point::new(50.0, 50.0);
    group.bench_function("grid_query_r6", |b| {
        b.iter(|| black_box(grid.query_within(black_box(center), 6.0)))
    });
    group.finish();
}

fn bench_model_construction(c: &mut Criterion) {
    let d = paper_deployment(1);
    let mut group = c.benchmark_group("model");
    group.bench_function("interference_graph_50", |b| {
        b.iter(|| black_box(interference_graph(black_box(&d))))
    });
    group.bench_function("coverage_50x1200", |b| {
        b.iter(|| black_box(Coverage::build(black_box(&d))))
    });
    let cov = Coverage::build(&d);
    let unread = TagSet::all_unread(d.n_tags());
    let set: Vec<usize> = (0..50).step_by(3).collect();
    group.bench_function("weight_eval_17set", |b| {
        let mut w = WeightEvaluator::new(&cov);
        b.iter(|| black_box(w.weight(black_box(&set), &unread)))
    });
    let g = interference_graph(&d);
    group.bench_function("k_hop_ball_r3", |b| {
        b.iter(|| black_box(k_hop_ball(black_box(&g), 0, 3)))
    });
    group.finish();
}

fn bench_exact_mwfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_mwfs");
    group.sample_size(10);
    for &n in &[10usize, 15, 20] {
        let d = Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: n,
            n_tags: n * 24,
            region_side: 100.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 14.0,
                lambda_interrogation: 6.0,
            },
        }
        .generate(2);
        let cov = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &cov, &g, &unread);
        let all: Vec<usize> = (0..n).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(exact_mwfs_restricted(&input, black_box(&all), &[])))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_spatial_indices,
    bench_model_construction,
    bench_exact_mwfs
);
criterion_main!(benches);
