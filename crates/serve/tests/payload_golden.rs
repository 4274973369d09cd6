//! Served payload bytes that must never drift.
//!
//! A payload is a pure function of its canonical job, so its FNV-1a 64
//! digest is a constant. The jobs below run the whole cold path —
//! generation, coverage table, interference graph, covering schedule and
//! render — so a change anywhere in the model build that moves one
//! coverage row or graph edge moves a digest. The lattice deployment puts
//! many tags exactly on interrogation circles and grid-cell edges, where
//! an inexact spatial query would drop or gain a point.

use rfid_geometry::{Point, Rect};
use rfid_model::{Deployment, RadiusModel, Scenario, ScenarioKind};
use rfid_serve::{fnv1a64, JobSpec, ServeConfig, Service, Workload};

/// The paper's density at 1 000 readers: 24 tags per reader, region side
/// growing with √n from the 50-reader, 100-unit setup, λ_R = 14, λ_r = 6.
fn paper_density_1k() -> Scenario {
    let n_readers = 1000;
    Scenario {
        kind: ScenarioKind::UniformRandom,
        n_readers,
        n_tags: 24 * n_readers,
        region_side: 100.0 * (n_readers as f64 / 50.0).sqrt(),
        radius_model: RadiusModel::PoissonPair {
            lambda_interference: 14.0,
            lambda_interrogation: 6.0,
        },
    }
}

/// 64 readers on a spacing-5 lattice with integer radii, and a tag on
/// every integer point of the 41 × 41 square around them.
fn lattice_deployment() -> Deployment {
    let mut readers = Vec::new();
    let mut big = Vec::new();
    let mut small = Vec::new();
    for j in 0..8 {
        for i in 0..8 {
            readers.push(Point::new(5.0 * i as f64, 5.0 * j as f64));
            big.push(5.0 + ((i + 2 * j) % 4) as f64);
            small.push(2.0 + ((3 * i + j) % 3) as f64);
        }
    }
    let tags = (0..41)
        .flat_map(|y| (0..41).map(move |x| Point::new(x as f64, y as f64)))
        .collect();
    Deployment::new(Rect::square(40.0), readers, big, small, tags)
}

fn digest(service: &Service, spec: &JobSpec) -> String {
    let reply = service.schedule(spec, None).expect("job solves");
    format!("{:016x}", fnv1a64(reply.payload.as_bytes()))
}

#[test]
fn served_payload_digests_are_golden() {
    let service = Service::start(ServeConfig {
        workers: 1,
        cache_cap: 0,
        ..ServeConfig::default()
    })
    .expect("start service");
    let mut got = Vec::new();
    for algorithm in ["alg2-central", "ghc"] {
        for seed in [1, 2] {
            let mut spec = JobSpec::new(Workload::Generated {
                scenario: paper_density_1k(),
                seed,
            });
            spec.algorithm = algorithm.to_string();
            got.push((format!("{algorithm} seed {seed}"), digest(&service, &spec)));
        }
    }
    let lattice = JobSpec::new(Workload::Explicit {
        deployment: lattice_deployment(),
    });
    got.push(("lattice".to_string(), digest(&service, &lattice)));
    service.shutdown(true);

    let got: Vec<(&str, &str)> = got.iter().map(|(l, h)| (l.as_str(), h.as_str())).collect();
    assert_eq!(
        got,
        [
            ("alg2-central seed 1", "66ca42d037da8715"),
            ("alg2-central seed 2", "9fc3cbe6cc1c7617"),
            ("ghc seed 1", "f07409b367904a0c"),
            ("ghc seed 2", "b4d0ef09fc685736"),
            ("lattice", "572d9363b67fd6d7"),
        ]
    );
}
