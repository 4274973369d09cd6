//! Property-based tests for the scenario codec.
//!
//! The codec's contract is what makes content-addressed caching sound:
//!
//! * **Round trip** — `encode(decode(encode(spec)))` is a fixed point:
//!   decoding a canonical encoding and re-canonicalising yields the same
//!   bytes and the same 64-bit key.
//! * **Permutation invariance** — explicit workloads whose tag lists are
//!   permutations of each other are the *same* job, so they must hash to
//!   the same key (readers are order-significant: their index is their
//!   identity in the schedule).
//! * **Key discrimination** — changing the algorithm seed changes the
//!   key (no accidental cache aliasing between distinct jobs).
//! * **Scanner agreement** — every key frame the shallow scanner accepts,
//!   serde decodes to the same key, version, request id and
//!   ops-emptiness, so the fast path and the router never act on a frame
//!   the slow path would read differently.

use proptest::prelude::*;
use rfid_core::SchedulerRegistry;
use rfid_geometry::{Point, Rect};
use rfid_model::{Deployment, RadiusModel, Scenario, ScenarioKind};
use rfid_serve::protocol::decode_frame;
use rfid_serve::{decode_job, scan_key_frame, CanonicalJob, JobSpec, Request, Workload};

const ALGORITHMS: [&str; 8] = [
    "alg1",
    "alg1-ptas",
    "alg2",
    "ALG2-CENTRAL",
    "alg3",
    "colorwave",
    "ghc",
    "exact",
];

fn arb_radius_model() -> impl Strategy<Value = RadiusModel> {
    (0usize..3, 0.5..30.0f64, 0.05..0.95f64).prop_map(|(variant, big, frac)| match variant {
        0 => RadiusModel::PoissonPair {
            lambda_interference: big,
            lambda_interrogation: big * frac,
        },
        1 => RadiusModel::Fixed {
            interference: big,
            interrogation: big * frac,
        },
        _ => RadiusModel::Scaled {
            lambda_interference: big,
            beta: frac,
        },
    })
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let kind =
        (0usize..3, 1usize..5, 0.5..10.0f64).prop_map(|(variant, clusters, sigma)| match variant {
            0 => ScenarioKind::UniformRandom,
            1 => ScenarioKind::ClusteredTags { clusters, sigma },
            _ => ScenarioKind::LatticeReaders,
        });
    (
        kind,
        1usize..40,
        0usize..150,
        10.0..200.0f64,
        arb_radius_model(),
    )
        .prop_map(
            |(kind, n_readers, n_tags, region_side, radius_model)| Scenario {
                kind,
                n_readers,
                n_tags,
                region_side,
                radius_model,
            },
        )
}

fn arb_explicit() -> impl Strategy<Value = Deployment> {
    let reader = (0.0..100.0f64, 0.0..100.0f64, 0.5..40.0f64, 0.05..1.0f64);
    let tag = (0.0..100.0f64, 0.0..100.0f64);
    (
        proptest::collection::vec(reader, 1..12),
        proptest::collection::vec(tag, 0..40),
    )
        .prop_map(|(readers, tags)| {
            let mut pos = Vec::new();
            let mut big = Vec::new();
            let mut small = Vec::new();
            for (x, y, interference, frac) in readers {
                pos.push(Point::new(x, y));
                big.push(interference);
                small.push(interference * frac);
            }
            Deployment::new(
                Rect::square(100.0),
                pos,
                big,
                small,
                tags.into_iter().map(|(x, y)| Point::new(x, y)).collect(),
            )
        })
}

fn arb_job() -> impl Strategy<Value = JobSpec> {
    (
        proptest::bool::ANY,
        (arb_scenario(), proptest::num::u64::ANY),
        arb_explicit(),
        0usize..ALGORITHMS.len(),
        proptest::num::u64::ANY,
        proptest::bool::ANY,
    )
        .prop_map(
            |(generated, (scenario, seed), deployment, algo, algo_seed, resilient)| {
                let workload = if generated {
                    Workload::Generated { scenario, seed }
                } else {
                    Workload::Explicit { deployment }
                };
                let mut spec = JobSpec::new(workload);
                spec.algorithm = ALGORITHMS[algo].to_string();
                spec.algo_seed = algo_seed;
                spec.resilient = resilient;
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode(encode(spec)) re-canonicalises to the identical encoding
    /// and key — the canonical form is a fixed point.
    #[test]
    fn canonical_encoding_is_a_fixed_point(spec in arb_job()) {
        let registry = SchedulerRegistry::global();
        let first = CanonicalJob::new(&spec, &registry).expect("valid job");
        let decoded = decode_job(&first.encoded).expect("decode own encoding");
        let second = CanonicalJob::new(&decoded, &registry).expect("re-canonicalise");
        prop_assert_eq!(&first.encoded, &second.encoded);
        prop_assert_eq!(first.key, second.key);
        prop_assert_eq!(first.key_hex().len(), 16);
    }

    /// Permuting an explicit workload's tag list never changes the key.
    #[test]
    fn reordered_tag_lists_hash_identically(
        d in arb_explicit(),
        rotation in 0usize..17,
        algo_seed in proptest::num::u64::ANY,
    ) {
        let registry = SchedulerRegistry::global();
        let mut spec = JobSpec::new(Workload::Explicit { deployment: d.clone() });
        spec.algo_seed = algo_seed;
        let baseline = CanonicalJob::new(&spec, &registry).expect("baseline");

        let mut tags: Vec<Point> = d.tag_positions().to_vec();
        if !tags.is_empty() {
            let mid = rotation % tags.len();
            tags.rotate_left(mid);
        }
        tags.reverse();
        let permuted = Deployment::new(
            d.region(),
            d.reader_positions().to_vec(),
            d.interference_radii().to_vec(),
            d.interrogation_radii().to_vec(),
            tags,
        );
        let mut permuted_spec = JobSpec::new(Workload::Explicit { deployment: permuted });
        permuted_spec.algo_seed = algo_seed;
        let other = CanonicalJob::new(&permuted_spec, &registry).expect("permuted");
        prop_assert_eq!(baseline.key, other.key);
        prop_assert_eq!(baseline.encoded, other.encoded);
    }

    /// Distinct seeds are distinct jobs: the key must change.
    #[test]
    fn distinct_seeds_get_distinct_keys(spec in arb_job(), bump in 1u64..1000) {
        let registry = SchedulerRegistry::global();
        let a = CanonicalJob::new(&spec, &registry).expect("a");
        let mut other = spec.clone();
        other.algo_seed = other.algo_seed.wrapping_add(bump);
        let b = CanonicalJob::new(&other, &registry).expect("b");
        prop_assert!(a.key != b.key, "seed change must change the key");
    }
}

/// Field fragments a `Key` frame body is assembled from: repeats of every
/// field, null, empty, mismatched and non-empty ops, escaped ids and
/// zero-padded versions.
const KEY_FIELDS: [&str; 20] = [
    r#""key":"00000000000000aa""#,
    r#""key":"00000000000000bb""#,
    r#""v":4"#,
    r#""v":5"#,
    r#""v":007"#,
    r#""v":null"#,
    r#""request_id":"c1-1""#,
    r#""request_id":"c2-2""#,
    r#""request_id":null"#,
    r#""request_id":"x\"y""#,
    r#""request_id":"\u0041""#,
    r#""ops":null"#,
    r#""ops":[]"#,
    r#""ops":[ ]"#,
    r#""ops":[}"#,
    r#""ops":[{]}"#,
    r#""ops":[{"AddTag":{"x":1.0,"y":2.0}}]"#,
    r#""ops":[{"AddTag":{"x":1.0,"y":2.0]]"#,
    r#""ops":[1]"#,
    r#""ops":["]"]"#,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A scanned key frame decodes, through serde, to the same fields.
    /// The one allowed difference: a frame the scanner flags as holding
    /// ops may fail to decode (its caller decodes it anyway).
    #[test]
    fn scanned_key_frames_agree_with_serde(
        fields in proptest::collection::vec(0..KEY_FIELDS.len(), 0..6),
    ) {
        let body: Vec<&str> = fields.iter().map(|&f| KEY_FIELDS[f]).collect();
        let line = format!(r#"{{"Key":{{{}}}}}"#, body.join(","));
        if let Some(scan) = scan_key_frame(&line) {
            match decode_frame::<Request>(&line) {
                Ok(Request::Key { key, ops, request_id, v }) => {
                    prop_assert_eq!(scan.key, key.as_str(), "{}", line);
                    prop_assert_eq!(scan.v, v, "{}", line);
                    prop_assert_eq!(scan.request_id, request_id.as_deref(), "{}", line);
                    prop_assert_eq!(
                        scan.has_ops,
                        ops.is_some_and(|ops| !ops.is_empty()),
                        "{}",
                        line
                    );
                }
                Ok(other) => prop_assert!(false, "{line} scanned as Key, decoded as {other:?}"),
                Err(e) => prop_assert!(scan.has_ops, "{line} scanned, serde rejects it: {e}"),
            }
        }
    }
}
