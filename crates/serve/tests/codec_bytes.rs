//! Bytes that must never drift: golden content keys, and large payloads
//! through the wire codec and the journal.
//!
//! Journals persist content keys and clients memoise them, so the keys
//! below are constants: a change to the canonical renderer, the spec's
//! field layout or the key derivation that moves any of them breaks
//! every warm cache and journal in the field.

use rfid_core::SchedulerRegistry;
use rfid_delta::{canonical_json, derived_key, key_hex, ScenarioDelta};
use rfid_geometry::{Point, Rect};
use rfid_model::{Deployment, Scenario};
use rfid_serve::protocol::{decode_frame, encode_frame};
use rfid_serve::{CanonicalJob, DiskStorage, DurableStore, JobSpec, Response, Workload};
use std::sync::Arc;

fn generated_spec() -> JobSpec {
    JobSpec {
        workload: Workload::Generated {
            scenario: Scenario::paper_evaluation(14.0, 6.0),
            seed: 42,
        },
        algorithm: "ghc".to_string(),
        algo_seed: 7,
        resilient: true,
        max_slots: Some(500),
    }
}

fn explicit_spec() -> JobSpec {
    let deployment = Deployment::new(
        Rect::square(20.0),
        vec![Point::new(5.0, 5.0), Point::new(15.25, 14.5)],
        vec![6.0, 7.5],
        vec![3.0, 2.125],
        vec![
            Point::new(16.0, 2.0),
            Point::new(4.0, 4.0),
            Point::new(6.5, 5.0),
            Point::new(-0.0, 19.999),
        ],
    );
    JobSpec::new(Workload::Explicit { deployment })
}

fn fixed_ops() -> Vec<ScenarioDelta> {
    vec![
        ScenarioDelta::AddTag { x: 11.5, y: -3.0 },
        ScenarioDelta::RemoveTag { tag: 2 },
        ScenarioDelta::MoveReader {
            reader: 1,
            x: 14.0,
            y: 6.0625,
        },
        ScenarioDelta::SetReaderAlive {
            reader: 0,
            alive: false,
        },
        ScenarioDelta::Retune {
            reader: 1,
            interference: 9.0,
            interrogation: 0.1,
        },
    ]
}

#[test]
fn content_keys_are_golden() {
    let registry = SchedulerRegistry::global();
    let generated = CanonicalJob::new(&generated_spec(), &registry).unwrap();
    assert_eq!(generated.key_hex(), "ec4b12f7ff96eb11");
    let explicit = CanonicalJob::new(&explicit_spec(), &registry).unwrap();
    assert_eq!(
        explicit.encoded,
        concat!(
            r#"{"algo_seed":0,"algorithm":"alg2-central","max_slots":null,"resilient":false,"#,
            r#""workload":{"Explicit":{"deployment":{"interference_r":[6.0,7.5],"#,
            r#""interrogation_r":[3.0,2.125],"reader_pos":[{"x":5.0,"y":5.0},{"x":15.25,"y":14.5}],"#,
            r#""region":{"max_x":20.0,"max_y":20.0,"min_x":0.0,"min_y":0.0},"#,
            r#""tag_pos":[{"x":-0.0,"y":19.999},{"x":4.0,"y":4.0},{"x":6.5,"y":5.0},{"x":16.0,"y":2.0}]}}}}"#,
        )
    );
    assert_eq!(explicit.key_hex(), "603177198e298293");
    assert_eq!(
        canonical_json(&fixed_ops()),
        concat!(
            r#"[{"AddTag":{"x":11.5,"y":-3.0}},{"RemoveTag":{"tag":2}},"#,
            r#"{"MoveReader":{"reader":1,"x":14.0,"y":6.0625}},"#,
            r#"{"SetReaderAlive":{"alive":false,"reader":0}},"#,
            r#"{"Retune":{"interference":9.0,"interrogation":0.1,"reader":1}}]"#,
        )
    );
    assert_eq!(
        key_hex(derived_key(0x0123_4567_89ab_cdef, &fixed_ops())),
        "6a42e89b3d0cc46e"
    );
}

/// A payload of at least `min_bytes` shaped like a served one: canonical
/// JSON with many floats and strings, some needing escapes or holding
/// non-ASCII text.
fn large_payload(min_bytes: usize) -> String {
    let mut rows = Vec::new();
    let mut payload = String::new();
    while payload.len() < min_bytes {
        for i in rows.len()..rows.len() + 1024 {
            let label = match i % 5 {
                0 => format!("slot {i}"),
                1 => format!("tag \"{i}\" \\ served"),
                2 => format!("zone-é{i}\tline\nnext"),
                3 => format!("ctl\u{1}{i}"),
                _ => format!("日本{i}"),
            };
            rows.push((i as u64, i as f64 * 0.37 - 100.0, label));
        }
        payload = canonical_json(&rows);
    }
    payload
}

#[test]
fn large_schedule_frames_round_trip() {
    let payload = large_payload(256 * 1024);
    assert!(payload.len() >= 256 * 1024);
    let frame = Response::Schedule {
        key: "0123456789abcdef".to_string(),
        cached: false,
        payload: payload.clone(),
    };
    let line = encode_frame(&frame);
    assert!(line.ends_with('\n'));
    let back: Response = decode_frame(&line).unwrap();
    assert_eq!(back, frame);
    assert_eq!(encode_frame(&back), line, "re-encoding is byte-identical");
}

#[test]
fn large_journal_records_replay() {
    let dir = std::env::temp_dir().join(format!("rfid_codec_bytes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DurableStore::new(Arc::new(DiskStorage::open(&dir).unwrap()), 0);
    let payloads = [large_payload(256 * 1024), large_payload(300 * 1024)];
    for (key, payload) in (1u64..).zip(&payloads) {
        assert!(store.persist(key, payload, &Vec::new));
    }
    let report = store.recover();
    assert_eq!(report.errors, Vec::<String>::new());
    assert_eq!(report.dropped_bytes, 0);
    assert_eq!(
        report.entries,
        vec![(1, payloads[0].clone()), (2, payloads[1].clone())]
    );
    let _ = std::fs::remove_dir_all(&dir);
}
