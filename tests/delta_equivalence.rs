//! Differential properties of the served delta path.
//!
//! A served delta is `apply_ops` on the base scenario the daemon already
//! holds, followed by an ordinary cold solve of the patched scenario.
//! These tests hold a `Target::Delta` request to that: chains of seeded
//! random op streams (arrivals, departures, reader moves, failures,
//! retunes) and the simulators' mobility and arrival streams go through
//! the delta path hop by hop, and every reply must be byte-identical to
//! a full `Service::schedule` of the patched scenario on a service that
//! never saw the chain. Every reply's schedule is also checked from
//! first principles with `verify_covering_schedule` against the
//! canonical (tag-sorted) patched deployment the daemon solved.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rfid_core::{verify_covering_schedule, SchedulerRegistry};
use rfid_delta::{apply_ops, derived_key, key_hex, parse_key_hex, ScenarioDelta};
use rfid_integration_tests::scenario;
use rfid_model::Deployment;
use rfid_serve::{CanonicalJob, JobSpec, ServeConfig, Service, Target, Workload};
use std::sync::Arc;

fn base_job(seed: u64, algorithm: &str) -> JobSpec {
    JobSpec {
        algorithm: algorithm.to_string(),
        ..JobSpec::new(Workload::Generated {
            scenario: scenario(15, 220, 12.0, 6.0),
            seed,
        })
    }
}

fn service() -> Service {
    Service::start(ServeConfig {
        workers: 1,
        queue_cap: 16,
        cache_cap: 64,
        ..ServeConfig::default()
    })
    .expect("start service")
}

/// A seeded op stream covering every delta kind, with indices kept in
/// range against the *evolving* tag population (RemoveTag shifts later
/// indices down, so validity depends on op order).
fn op_stream(d: &Deployment, seed: u64, len: usize) -> Vec<ScenarioDelta> {
    let region = d.region();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut m = d.n_tags() as u32;
    let n = d.n_readers() as u32;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let kind = rng.random_range(0..5u8);
        let x = region.min_x + rng.random::<f64>() * region.width();
        let y = region.min_y + rng.random::<f64>() * region.height();
        ops.push(match kind {
            1 if m > 0 => {
                m -= 1;
                ScenarioDelta::RemoveTag {
                    tag: rng.random_range(0..m + 1),
                }
            }
            2 => ScenarioDelta::MoveReader {
                reader: rng.random_range(0..n),
                x,
                y,
            },
            3 => ScenarioDelta::SetReaderAlive {
                reader: rng.random_range(0..n),
                alive: rng.random::<bool>(),
            },
            4 => {
                let interference = 4.0 + rng.random::<f64>() * 12.0;
                ScenarioDelta::Retune {
                    reader: rng.random_range(0..n),
                    interference,
                    interrogation: rng.random::<f64>() * interference,
                }
            }
            _ => {
                m += 1;
                ScenarioDelta::AddTag { x, y }
            }
        });
    }
    ops
}

/// Sends `base` in full, then `hops` deltas, each chained off the
/// previous reply's key. `next_ops(d, hop)` builds a hop's ops against
/// `d`, the canonical deployment of the previous hop. Each delta reply
/// must carry the derived key, be byte-identical to a full request for
/// `apply_ops(d, ops)` on a fresh service, and verify against the
/// canonical patched deployment. Returns the delta replies' payloads.
fn chain_through_serve(
    base: &JobSpec,
    hops: usize,
    mut next_ops: impl FnMut(&Deployment, usize) -> Vec<ScenarioDelta>,
) -> Vec<Arc<str>> {
    let registry = SchedulerRegistry::global();
    let served = service();
    let cold = service();
    let mut key = served.schedule(base, None).expect("base solves").key;
    let mut d = CanonicalJob::new(base, &registry)
        .expect("valid base")
        .spec
        .deployment()
        .into_owned();
    let mut payloads = Vec::with_capacity(hops);
    for hop in 0..hops {
        let ops = next_ops(&d, hop);
        let reply = served
            .request(
                Target::Delta {
                    base: &key,
                    ops: &ops,
                },
                None,
                None,
            )
            .expect("delta solves");
        let base_key = parse_key_hex(&key).expect("replies carry hex keys");
        assert_eq!(reply.key, key_hex(derived_key(base_key, &ops)), "hop {hop}");

        let patched = JobSpec {
            workload: Workload::Explicit {
                deployment: apply_ops(&d, &ops).expect("ops in range").deployment,
            },
            ..base.clone()
        };
        let full = cold.schedule(&patched, None).expect("patched solves");
        assert_eq!(
            reply.payload.as_bytes(),
            full.payload.as_bytes(),
            "hop {hop}: delta reply differs from the full request"
        );

        let canonical = CanonicalJob::new(&patched, &registry)
            .unwrap()
            .spec
            .deployment()
            .into_owned();
        let outcome = reply.outcome().expect("payload parses");
        assert_eq!(
            verify_covering_schedule(&canonical, &outcome.schedule),
            Ok(()),
            "hop {hop}"
        );
        key = reply.key;
        payloads.push(reply.payload);
        d = canonical;
    }
    served.shutdown(true);
    cold.shutdown(true);
    payloads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One to three hops of random ops through the served delta path,
    /// under Algorithm 2 or GHC: each reply is the cold solve of the
    /// patched scenario, byte for byte, and a valid covering schedule.
    #[test]
    fn served_delta_chain_matches_the_cold_solve(
        scen_seed in 0u64..12,
        op_seed in 0u64..1_000_000_000,
        hops in 1usize..4,
        n_ops in 1usize..16,
        ghc in proptest::bool::ANY,
    ) {
        let base = base_job(scen_seed, if ghc { "ghc" } else { "alg2-central" });
        chain_through_serve(&base, hops, |d, hop| {
            op_stream(d, op_seed.wrapping_add(hop as u64), n_ops)
        });
    }
}

/// An empty delta against an explicit base names the base scenario
/// itself (the daemon holds it in canonical form): the reply is the
/// base's cache entry, byte for byte, with no solve.
#[test]
fn empty_delta_replays_the_base_schedule_exactly() {
    let registry = SchedulerRegistry::global();
    for seed in 0..4u64 {
        let generated = base_job(seed, "alg2-central");
        let base = JobSpec::new(Workload::Explicit {
            deployment: generated.deployment().into_owned(),
        });
        let served = service();
        let reply = served.schedule(&base, None).unwrap();
        let delta = served
            .request(
                Target::Delta {
                    base: &reply.key,
                    ops: &[],
                },
                None,
                None,
            )
            .unwrap();
        assert!(delta.cached, "seed {seed}: the base entry answers");
        assert_eq!(
            delta.payload.as_bytes(),
            reply.payload.as_bytes(),
            "seed {seed}"
        );
        let canonical = CanonicalJob::new(&base, &registry)
            .unwrap()
            .spec
            .deployment()
            .into_owned();
        let outcome = delta.outcome().unwrap();
        assert_eq!(
            verify_covering_schedule(&canonical, &outcome.schedule),
            Ok(())
        );
        served.shutdown(true);
    }
}

/// A mobile deployment followed with one `MoveReader` delta per epoch:
/// every epoch's reply is the cold solve of that epoch's deployment.
/// The walk is wide enough (σ = 8) that the schedule changes between
/// epochs, so a hop that mislaid a move would show in the bytes.
#[test]
fn mobility_delta_stream_chains_through_serve() {
    let base = JobSpec::new(Workload::Generated {
        scenario: scenario(12, 150, 12.0, 6.0),
        seed: 9,
    });
    let sim = rfid_sim::MobilitySim {
        initial: base.deployment().into_owned(),
        model: rfid_sim::MobilityModel::RandomWalk { sigma: 8.0 },
        slots_per_epoch: 2,
        max_epochs: 4,
        seed: 9,
    };
    let stream = sim.delta_stream(4);
    assert!(
        stream.iter().all(|ops| !ops.is_empty()),
        "every epoch moves readers"
    );
    let payloads = chain_through_serve(&base, stream.len(), |_, hop| stream[hop].clone());
    assert!(
        payloads.windows(2).any(|w| w[0] != w[1]),
        "the walk must change the schedule"
    );
}

/// A dynamic-arrival run followed with one `AddTag` delta per slot from
/// a tag-free base: every slot's reply is the cold solve of the
/// population that has arrived so far.
#[test]
fn dynamic_delta_stream_chains_through_serve() {
    let base = JobSpec::new(Workload::Generated {
        scenario: scenario(12, 0, 12.0, 6.0),
        seed: 4,
    });
    let config = rfid_sim::DynamicConfig {
        arrival_rate: 8.0,
        slots: 5,
        warmup: 0,
        seed: 4,
    };
    let stream = rfid_sim::dynamic_delta_stream(&base.deployment(), config);
    assert!(
        stream.iter().flatten().count() > 0,
        "rate 8 over 5 slots arrives"
    );
    chain_through_serve(&base, stream.len(), |_, hop| stream[hop].clone());
}
