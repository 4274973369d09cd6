//! Canonical scenario codec: deterministic JSON and content-addressed keys.
//!
//! The service layer caches solved schedules by the *content* of the
//! request, so two syntactically different requests that describe the same
//! scheduling problem must map to the same key. Canonicalisation happens
//! at two levels:
//!
//! * **Value level** ([`JobSpec::canonicalize`]): algorithm aliases
//!   resolve to the registry's canonical label, and explicit deployments
//!   get their tag list sorted into a fixed spatial order (tag order is a
//!   labelling choice, not a scheduling input — the feasible sets a solver
//!   may return depend only on the multiset of tag positions).
//! * **Encoding level** ([`canonical_json`]): the serde content tree is
//!   rendered with every object's keys sorted, so field order can never
//!   leak into the hash.
//!
//! The cache key is a hand-rolled 64-bit FNV-1a ([`fnv1a64`]) over the
//! canonical encoding — stable across platforms and processes, with no
//! dependency on `std::hash`'s randomised state.

use rfid_core::SchedulerRegistry;
use rfid_model::{Deployment, Scenario};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

// The canonical renderer and content hash moved to `rfid-delta` (the
// delta key derivation needs them without a serve dependency); they are
// re-exported here so existing `rfid_serve::codec::{canonical_json,
// fnv1a64}` callers keep working.
pub use rfid_delta::{canonical_json, fnv1a64};

/// Upper bounds on untrusted workload sizes, so a single request cannot
/// ask the daemon to materialise an absurd deployment.
pub const MAX_READERS: usize = 100_000;
/// See [`MAX_READERS`].
pub const MAX_TAGS: usize = 2_000_000;

/// Where the deployment to schedule comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Generate the deployment server-side from a parametric scenario and
    /// a seed (the cheap, cache-friendly path — a few dozen bytes name
    /// millions of tags).
    Generated {
        /// The parametric scenario.
        scenario: Scenario,
        /// Deployment seed fed to [`Scenario::generate`].
        seed: u64,
    },
    /// Ship the full deployment in the request. Canonicalisation sorts
    /// the tag list by position, so permuted-but-equal tag lists share a
    /// cache entry (and receive identical schedules over the canonical
    /// tag labelling).
    Explicit {
        /// The deployment to schedule.
        deployment: Deployment,
    },
}

/// A complete, self-contained scheduling job: the workload plus every
/// solver option that can change the answer. This is the unit the cache
/// keys on — nothing outside a `JobSpec` may influence the payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The deployment source.
    pub workload: Workload,
    /// Algorithm label or alias (resolved through [`SchedulerRegistry`];
    /// canonicalisation rewrites aliases to the canonical label).
    pub algorithm: String,
    /// Seed for randomised algorithms (Colorwave's colour draws).
    pub algo_seed: u64,
    /// Run under the resilient fault policy instead of strict.
    pub resilient: bool,
    /// Optional slot budget (`None` = the driver's one-million default).
    pub max_slots: Option<usize>,
}

/// Why a request could not be canonicalised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The algorithm label matched no registry row. The message lists
    /// every accepted spelling.
    UnknownAlgorithm(String),
    /// The workload fails validation (sizes, radii, finiteness).
    InvalidWorkload(String),
    /// The wire text is not a valid `JobSpec`.
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnknownAlgorithm(m) => write!(f, "unknown algorithm: {m}"),
            CodecError::InvalidWorkload(m) => write!(f, "invalid workload: {m}"),
            CodecError::Malformed(m) => write!(f, "malformed job: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl JobSpec {
    /// A job with the default solver options (Algorithm 2 by canonical
    /// label, seed 0, strict policy, default budget).
    pub fn new(workload: Workload) -> Self {
        JobSpec {
            workload,
            algorithm: "alg2-central".to_string(),
            algo_seed: 0,
            resilient: false,
            max_slots: None,
        }
    }

    /// The deployment this job schedules: generated from its scenario, or
    /// borrowed from an explicit workload without a copy.
    pub fn deployment(&self) -> Cow<'_, Deployment> {
        match &self.workload {
            Workload::Generated { scenario, seed } => Cow::Owned(scenario.generate(*seed)),
            Workload::Explicit { deployment } => Cow::Borrowed(deployment),
        }
    }

    /// Validates the job and rewrites it into canonical form: the
    /// algorithm becomes the registry's canonical label and explicit tag
    /// lists are sorted by position. Canonicalisation is idempotent.
    pub fn canonicalize(&self, registry: &SchedulerRegistry) -> Result<JobSpec, CodecError> {
        let kind = registry
            .parse(&self.algorithm)
            .map_err(CodecError::UnknownAlgorithm)?;
        let workload = match &self.workload {
            Workload::Generated { scenario, seed } => {
                validate_scenario(scenario)?;
                Workload::Generated {
                    scenario: *scenario,
                    seed: *seed,
                }
            }
            Workload::Explicit { deployment } => Workload::Explicit {
                deployment: canonical_deployment(deployment)?,
            },
        };
        Ok(JobSpec {
            workload,
            algorithm: kind.label().to_string(),
            algo_seed: self.algo_seed,
            resilient: self.resilient,
            max_slots: self.max_slots,
        })
    }
}

fn validate_scenario(s: &Scenario) -> Result<(), CodecError> {
    if !(s.region_side.is_finite() && s.region_side > 0.0) {
        return Err(CodecError::InvalidWorkload(format!(
            "region_side must be finite and positive, got {}",
            s.region_side
        )));
    }
    if s.n_readers > MAX_READERS {
        return Err(CodecError::InvalidWorkload(format!(
            "n_readers {} exceeds the service cap {MAX_READERS}",
            s.n_readers
        )));
    }
    if s.n_tags > MAX_TAGS {
        return Err(CodecError::InvalidWorkload(format!(
            "n_tags {} exceeds the service cap {MAX_TAGS}",
            s.n_tags
        )));
    }
    use rfid_model::RadiusModel::*;
    let radii_ok = match s.radius_model {
        PoissonPair {
            lambda_interference,
            lambda_interrogation,
        } => {
            lambda_interference.is_finite()
                && lambda_interference > 0.0
                && lambda_interrogation.is_finite()
                && lambda_interrogation > 0.0
        }
        Fixed {
            interference,
            interrogation,
        } => interference.is_finite() && interrogation > 0.0 && interrogation <= interference,
        Scaled {
            lambda_interference,
            beta,
        } => {
            lambda_interference.is_finite() && lambda_interference > 0.0 && beta > 0.0 && beta < 1.0
        }
    };
    if !radii_ok {
        return Err(CodecError::InvalidWorkload(format!(
            "radius model parameters out of range: {:?}",
            s.radius_model
        )));
    }
    match s.kind {
        rfid_model::ScenarioKind::ClusteredTags { sigma, .. }
            if !(sigma.is_finite() && sigma > 0.0) =>
        {
            Err(CodecError::InvalidWorkload(format!(
                "cluster sigma must be finite and positive, got {sigma}"
            )))
        }
        // Generation allocates one centre per cluster up front. A failed
        // allocation that large aborts the process, which no worker's
        // `catch_unwind` can stop.
        rfid_model::ScenarioKind::ClusteredTags { clusters, .. } if clusters > MAX_TAGS => {
            Err(CodecError::InvalidWorkload(format!(
                "clusters {clusters} exceeds the service cap {MAX_TAGS}"
            )))
        }
        _ => Ok(()),
    }
}

/// Validates an untrusted deployment (derived `Deserialize` bypasses
/// [`Deployment::new`]'s asserts) and rebuilds it with the tag list in
/// canonical order: ascending `(x, y)` under IEEE total order.
fn canonical_deployment(d: &Deployment) -> Result<Deployment, CodecError> {
    if d.n_readers() > MAX_READERS {
        return Err(CodecError::InvalidWorkload(format!(
            "{} readers exceeds the service cap {MAX_READERS}",
            d.n_readers()
        )));
    }
    if d.n_tags() > MAX_TAGS {
        return Err(CodecError::InvalidWorkload(format!(
            "{} tags exceeds the service cap {MAX_TAGS}",
            d.n_tags()
        )));
    }
    let n = d.n_readers();
    if d.reader_positions().len() != n
        || d.interference_radii().len() != n
        || d.interrogation_radii().len() != n
    {
        return Err(CodecError::InvalidWorkload(
            "reader position/radius array lengths disagree".to_string(),
        ));
    }
    for (i, p) in d.reader_positions().iter().enumerate() {
        if !p.is_finite() {
            return Err(CodecError::InvalidWorkload(format!(
                "reader {i} has a non-finite position"
            )));
        }
    }
    for (i, p) in d.tag_positions().iter().enumerate() {
        if !p.is_finite() {
            return Err(CodecError::InvalidWorkload(format!(
                "tag {i} has a non-finite position"
            )));
        }
    }
    for i in 0..n {
        let big = d.interference_radii()[i];
        let small = d.interrogation_radii()[i];
        // A fully dead reader (both radii zero — how the delta op
        // `SetReaderAlive(false)` is materialised) is valid; otherwise
        // the interrogation radius must be positive and bounded by the
        // interference radius.
        let dead = big == 0.0 && small == 0.0;
        let alive_ok = big.is_finite() && small.is_finite() && small > 0.0 && small <= big;
        if !(dead || alive_ok) {
            return Err(CodecError::InvalidWorkload(format!(
                "reader {i} radii out of range: interference {big}, interrogation {small}"
            )));
        }
    }
    let mut tags = d.tag_positions().to_vec();
    tags.sort_by(|a, b| a.x.total_cmp(&b.x).then_with(|| a.y.total_cmp(&b.y)));
    Ok(Deployment::new(
        d.region(),
        d.reader_positions().to_vec(),
        d.interference_radii().to_vec(),
        d.interrogation_radii().to_vec(),
        tags,
    ))
}

/// A canonicalised job together with its canonical encoding and content
/// key — everything the cache and the solver need.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalJob {
    /// The canonical job (aliases resolved, tags sorted).
    pub spec: JobSpec,
    /// Canonical JSON encoding of `spec`.
    pub encoded: String,
    /// `fnv1a64(encoded)` — the cache key.
    pub key: u64,
}

impl CanonicalJob {
    /// Canonicalises and encodes a job in one step.
    pub fn new(spec: &JobSpec, registry: &SchedulerRegistry) -> Result<CanonicalJob, CodecError> {
        let spec = spec.canonicalize(registry)?;
        let encoded = canonical_json(&spec);
        let key = fnv1a64(encoded.as_bytes());
        Ok(CanonicalJob { spec, encoded, key })
    }

    /// The key as the fixed-width hex string used on the wire.
    pub fn key_hex(&self) -> String {
        format!("{:016x}", self.key)
    }
}

/// Decodes a job from its JSON encoding (canonical or not — callers
/// re-canonicalise via [`CanonicalJob::new`]).
pub fn decode_job(text: &str) -> Result<JobSpec, CodecError> {
    serde_json::from_str(text).map_err(|e| CodecError::Malformed(e.to_string()))
}

/// What the shallow scan of a request-by-key frame extracted — borrowed
/// slices of the wire line, no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyFrameScan<'a> {
    /// The `key` field, exactly as it appears on the wire (validated
    /// downstream via [`rfid_delta::parse_key_hex`]).
    pub key: &'a str,
    /// The declared protocol version, `None` when absent or `null`.
    pub v: Option<u32>,
    /// The `request_id` field when present and escape-free.
    pub request_id: Option<&'a str>,
    /// Whether a non-empty `ops` array is present — the caller must run
    /// the full parse to materialise the ops.
    pub has_ops: bool,
}

/// Shallowly scans one wire line for a `{"Key":{...}}` frame, extracting
/// the frame type, `key`, `v` and `request_id` without a `serde_json`
/// parse (no allocation, no number/string materialisation). This is the
/// admission path for the protocol-v4 request-by-key fast path: key
/// frames are tiny and their hot fields are flat strings, so a full
/// recursive parse is pure overhead.
///
/// The scanner is deliberately conservative: anything it cannot prove
/// unambiguous — escapes in a field it needs, unknown or repeated
/// fields, trailing bytes, malformed structure — returns `None` and the
/// caller falls back to the ordinary `serde_json` decode. It never
/// mis-extracts: string values are skipped with full escape handling,
/// so a hostile `request_id` containing `"key":"…"` cannot spoof the
/// key, and every frame it accepts, serde decodes to the same fields
/// (or, when it holds ops, may reject — the caller decodes those anyway).
pub fn scan_key_frame(line: &str) -> Option<KeyFrameScan<'_>> {
    let mut s = Scanner::new(line.as_bytes());
    s.skip_ws();
    s.eat(b'{')?;
    s.skip_ws();
    let (tag, escaped) = s.string(line)?;
    if escaped || tag != "Key" {
        return None;
    }
    s.skip_ws();
    s.eat(b':')?;
    s.skip_ws();
    s.eat(b'{')?;
    let mut key = None;
    let mut v = None;
    let mut request_id = None;
    let mut has_ops = false;
    // Fields seen so far, one bit each: serde keeps a repeated field's
    // first value, so rather than track which one wins, bail.
    let mut seen = 0u8;
    s.skip_ws();
    if !s.try_eat(b'}') {
        loop {
            s.skip_ws();
            let (name, escaped) = s.string(line)?;
            if escaped {
                return None;
            }
            s.skip_ws();
            s.eat(b':')?;
            s.skip_ws();
            let bit = match name {
                "key" => {
                    let (val, escaped) = s.string(line)?;
                    if escaped {
                        return None; // content keys are plain hex
                    }
                    key = Some(val);
                    1
                }
                "v" => {
                    v = s.opt_u32()?;
                    2
                }
                "request_id" => {
                    if s.try_literal(b"null") {
                        request_id = None;
                    } else {
                        let (val, escaped) = s.string(line)?;
                        if escaped {
                            return None; // exotic id: let serde handle it
                        }
                        request_id = Some(val);
                    }
                    4
                }
                "ops" => {
                    if !s.try_literal(b"null") {
                        has_ops = s.skip_array()?;
                    }
                    8
                }
                _ => return None, // unknown field: full parse decides
            };
            if seen & bit != 0 {
                return None;
            }
            seen |= bit;
            s.skip_ws();
            if s.try_eat(b',') {
                continue;
            }
            s.eat(b'}')?;
            break;
        }
    }
    s.skip_ws();
    s.eat(b'}')?;
    s.skip_ws();
    if !s.at_end() {
        return None; // trailing bytes: not one clean frame
    }
    Some(KeyFrameScan {
        key: key?,
        v,
        request_id,
        has_ops,
    })
}

/// Byte cursor for [`scan_key_frame`]. Every method returns `None` on
/// the first byte that does not match the expected shape.
struct Scanner<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Scanner<'a> {
    fn new(b: &'a [u8]) -> Self {
        Scanner { b, i: 0 }
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if matches!(c, b' ' | b'\t' | b'\r' | b'\n') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn at_end(&self) -> bool {
        self.i >= self.b.len()
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    fn try_eat(&mut self, c: u8) -> bool {
        self.eat(c).is_some()
    }

    fn try_literal(&mut self, lit: &[u8]) -> bool {
        if self.b[self.i..].starts_with(lit) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    /// Consumes a JSON string, returning the raw slice between the
    /// quotes and whether it contained any escape sequences. The slice
    /// indexes back into `line` (the `&str` the bytes came from), so the
    /// result is guaranteed valid UTF-8 on char boundaries whenever
    /// `escaped` is false.
    fn string(&mut self, line: &'a str) -> Option<(&'a str, bool)> {
        self.eat(b'"')?;
        let start = self.i;
        let mut escaped = false;
        loop {
            match self.b.get(self.i)? {
                b'"' => {
                    let raw = line.get(start..self.i)?;
                    self.i += 1;
                    return Some((raw, escaped));
                }
                b'\\' => {
                    escaped = true;
                    self.i += 2; // skip the escape; \uXXXX digits are plain bytes
                }
                _ => self.i += 1,
            }
        }
    }

    /// Consumes `null` or a plain unsigned integer (the only shapes a
    /// protocol version takes). Fractions, exponents and signs bail.
    fn opt_u32(&mut self) -> Option<Option<u32>> {
        if self.try_literal(b"null") {
            return Some(None);
        }
        let start = self.i;
        while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        if self.i == start || matches!(self.b.get(self.i), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).ok()?;
        Some(Some(text.parse().ok()?))
    }

    /// Skips a complete JSON array with bracket matching (strings are
    /// skipped escape-aware so brackets inside them don't count). A
    /// closer that does not match its opener, or nesting deeper than 64,
    /// bails. Returns whether the array held anything but whitespace.
    fn skip_array(&mut self) -> Option<bool> {
        self.eat(b'[')?;
        // The open brackets as a bit stack, innermost in the low bit:
        // 1 for `{`, 0 for `[`.
        let mut open = 0u64;
        let mut depth = 1u32;
        let mut nonempty = false;
        while depth > 0 {
            match self.b.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    loop {
                        match self.b.get(self.i)? {
                            b'"' => {
                                self.i += 1;
                                break;
                            }
                            b'\\' => self.i += 2,
                            _ => self.i += 1,
                        }
                    }
                    nonempty = true;
                }
                &c @ (b'[' | b'{') => {
                    if depth == u64::BITS {
                        return None;
                    }
                    open = open << 1 | u64::from(c == b'{');
                    depth += 1;
                    self.i += 1;
                    nonempty = true;
                }
                &c @ (b']' | b'}') => {
                    if (open & 1 == 1) != (c == b'}') {
                        return None;
                    }
                    open >>= 1;
                    depth -= 1;
                    self.i += 1;
                }
                c => {
                    if !matches!(c, b' ' | b'\t' | b'\r' | b'\n') {
                        nonempty = true;
                    }
                    self.i += 1;
                }
            }
        }
        Some(nonempty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geometry::{Point, Rect};
    use rfid_model::{RadiusModel, ScenarioKind};

    fn registry() -> SchedulerRegistry {
        SchedulerRegistry::global()
    }

    fn generated_spec(alias: &str) -> JobSpec {
        JobSpec {
            workload: Workload::Generated {
                scenario: Scenario {
                    kind: ScenarioKind::UniformRandom,
                    n_readers: 10,
                    n_tags: 60,
                    region_side: 50.0,
                    radius_model: RadiusModel::paper_default(),
                },
                seed: 7,
            },
            algorithm: alias.to_string(),
            algo_seed: 3,
            resilient: false,
            max_slots: None,
        }
    }

    fn explicit_spec(tags: Vec<Point>) -> JobSpec {
        let d = Deployment::new(
            Rect::square(20.0),
            vec![Point::new(5.0, 5.0), Point::new(15.0, 15.0)],
            vec![6.0, 6.0],
            vec![3.0, 3.0],
            tags,
        );
        JobSpec::new(Workload::Explicit { deployment: d })
    }

    #[test]
    fn encode_decode_round_trips() {
        let job = CanonicalJob::new(&generated_spec("alg2"), &registry()).unwrap();
        let back = decode_job(&job.encoded).unwrap();
        assert_eq!(back, job.spec);
        // Re-canonicalising the round-tripped spec is a fixed point.
        let again = CanonicalJob::new(&back, &registry()).unwrap();
        assert_eq!(again, job);
    }

    #[test]
    fn aliases_hash_to_the_same_key_as_canonical_labels() {
        let reg = registry();
        let a = CanonicalJob::new(&generated_spec("alg2"), &reg).unwrap();
        let b = CanonicalJob::new(&generated_spec("ALG2-Central"), &reg).unwrap();
        let c = CanonicalJob::new(&generated_spec("central"), &reg).unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.encoded, c.encoded);
        assert_eq!(a.spec.algorithm, "alg2-central");
    }

    #[test]
    fn reordered_tag_lists_hash_identically() {
        let reg = registry();
        let tags = vec![
            Point::new(4.0, 4.0),
            Point::new(16.0, 14.0),
            Point::new(6.0, 5.0),
            Point::new(16.0, 2.0),
        ];
        let mut reversed = tags.clone();
        reversed.reverse();
        let a = CanonicalJob::new(&explicit_spec(tags), &reg).unwrap();
        let b = CanonicalJob::new(&explicit_spec(reversed), &reg).unwrap();
        assert_eq!(a.encoded, b.encoded);
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn different_content_yields_different_keys() {
        let reg = registry();
        let a = CanonicalJob::new(&generated_spec("alg2"), &reg).unwrap();
        let mut other = generated_spec("alg2");
        other.algo_seed = 4;
        let b = CanonicalJob::new(&other, &reg).unwrap();
        assert_ne!(a.key, b.key);
        let mut ghc = generated_spec("ghc");
        ghc.algo_seed = 3;
        let c = CanonicalJob::new(&ghc, &reg).unwrap();
        assert_ne!(a.key, c.key);
    }

    #[test]
    fn unknown_algorithm_is_a_structured_error() {
        let err = CanonicalJob::new(&generated_spec("nope"), &registry()).unwrap_err();
        match &err {
            CodecError::UnknownAlgorithm(m) => assert!(m.contains("alg2-central"), "{m}"),
            other => panic!("wrong error: {other:?}"),
        }
        assert!(err.to_string().contains("unknown algorithm"));
    }

    #[test]
    fn oversized_and_degenerate_workloads_are_rejected() {
        let mut spec = generated_spec("alg2");
        if let Workload::Generated { scenario, .. } = &mut spec.workload {
            scenario.n_readers = MAX_READERS + 1;
        }
        assert!(matches!(
            CanonicalJob::new(&spec, &registry()).unwrap_err(),
            CodecError::InvalidWorkload(_)
        ));
        let mut spec = generated_spec("alg2");
        if let Workload::Generated { scenario, .. } = &mut spec.workload {
            scenario.region_side = f64::NAN;
        }
        assert!(matches!(
            CanonicalJob::new(&spec, &registry()).unwrap_err(),
            CodecError::InvalidWorkload(_)
        ));
        let mut spec = generated_spec("alg2");
        if let Workload::Generated { scenario, .. } = &mut spec.workload {
            scenario.kind = rfid_model::ScenarioKind::ClusteredTags {
                clusters: 1 << 40,
                sigma: 2.0,
            };
        }
        assert!(matches!(
            CanonicalJob::new(&spec, &registry()).unwrap_err(),
            CodecError::InvalidWorkload(_)
        ));
        if let Workload::Generated { scenario, .. } = &mut spec.workload {
            scenario.kind = rfid_model::ScenarioKind::ClusteredTags {
                clusters: MAX_TAGS,
                sigma: 2.0,
            };
        }
        assert!(CanonicalJob::new(&spec, &registry()).is_ok());
    }

    #[test]
    fn invalid_explicit_deployments_error_instead_of_panicking() {
        // Build a hostile deployment by deserialising (bypasses
        // `Deployment::new`'s asserts, exactly like untrusted wire input).
        let hostile = r#"{"region":{"min_x":0.0,"min_y":0.0,"max_x":10.0,"max_y":10.0},
            "reader_pos":[{"x":1.0,"y":1.0}],
            "interference_r":[2.0],
            "interrogation_r":[5.0],
            "tag_pos":[]}"#;
        let d: Deployment = serde_json::from_str(hostile).unwrap();
        let spec = JobSpec::new(Workload::Explicit { deployment: d });
        let err = CanonicalJob::new(&spec, &registry()).unwrap_err();
        assert!(matches!(err, CodecError::InvalidWorkload(_)), "{err}");
    }

    #[test]
    fn dead_readers_with_zeroed_radii_are_accepted() {
        // `SetReaderAlive(false)` materialises as both radii zero; the
        // validator must admit such deployments. A zero interrogation
        // radius with a nonzero interference radius stays rejected.
        let d = Deployment::new(
            Rect::square(20.0),
            vec![Point::new(5.0, 5.0), Point::new(15.0, 15.0)],
            vec![6.0, 0.0],
            vec![3.0, 0.0],
            vec![Point::new(4.0, 4.0)],
        );
        let spec = JobSpec::new(Workload::Explicit { deployment: d });
        let job = CanonicalJob::new(&spec, &registry()).unwrap();
        assert_eq!(job.spec, job.spec.canonicalize(&registry()).unwrap());
    }

    #[test]
    fn canonical_json_sorts_keys_at_every_depth() {
        let v: serde_json::Value =
            serde_json::from_str(r#"{"b":1,"a":{"z":[{"y":2,"x":3}],"w":4}}"#).unwrap();
        assert_eq!(
            canonical_json(&v),
            r#"{"a":{"w":4,"z":[{"x":3,"y":2}]},"b":1}"#
        );
    }

    #[test]
    fn scan_extracts_key_v_and_request_id_from_wire_frames() {
        use crate::protocol::{encode_frame, Request, PROTOCOL_VERSION};
        let frame = Request::Key {
            key: "00000000000000ff".into(),
            ops: None,
            request_id: Some("c1-42".into()),
            v: Some(PROTOCOL_VERSION),
        };
        let line = encode_frame(&frame);
        let scan = scan_key_frame(&line).expect("wire frame must scan");
        assert_eq!(scan.key, "00000000000000ff");
        assert_eq!(scan.v, Some(PROTOCOL_VERSION));
        assert_eq!(scan.request_id, Some("c1-42"));
        assert!(!scan.has_ops);

        let frame = Request::Key {
            key: "00000000000000ff".into(),
            ops: Some(vec![rfid_delta::ScenarioDelta::AddTag { x: 1.5, y: 2.5 }]),
            request_id: None,
            v: None,
        };
        let line = encode_frame(&frame);
        let scan = scan_key_frame(&line).unwrap();
        assert_eq!(scan.key, "00000000000000ff");
        assert_eq!(scan.v, None);
        assert_eq!(scan.request_id, None);
        assert!(scan.has_ops, "non-empty ops must force the full parse");

        // Empty ops array: nothing to materialise, fast path stays open.
        let scan = scan_key_frame(r#"{"Key":{"key":"00000000000000ff","ops":[],"v":4}}"#).unwrap();
        assert!(!scan.has_ops);
    }

    #[test]
    fn scan_rejects_non_key_and_malformed_frames() {
        use crate::protocol::{encode_frame, Request};
        assert_eq!(scan_key_frame(&encode_frame(&Request::Stats)), None);
        assert_eq!(
            scan_key_frame(&encode_frame(&Request::Hello { v: 4 })),
            None
        );
        for bad in [
            "",
            "{",
            r#"{"Key":"#,
            r#"{"Key":{"key":"ff"}"#,            // unterminated outer object
            r#"{"Key":{"key":"ff"}}{"Key":{}}"#, // trailing bytes
            r#"{"Key":{"keg":"ff"}}"#,           // unknown field
            r#"{"Key":{"key":"ff","v":4.5}}"#,   // non-integer version
            r#"{"Key":{"v":4}}"#,                // no key at all
            r#"{"Key":{"key":"ff" "v":4}}"#,     // missing comma
            r#"{"Key":[1,2]}"#,                  // wrong value shape
            r#"{"Key":{"key":"00000000000000ff","ops":[}}}"#, // mismatched closer
            r#"{"Key":{"key":"00000000000000aa","key":"00000000000000bb"}}"#, // repeat
        ] {
            assert_eq!(scan_key_frame(bad), None, "must bail on {bad:?}");
        }
    }

    #[test]
    fn scan_cannot_be_spoofed_by_hostile_string_values() {
        // A request_id whose *content* looks like a key field: the
        // escape-aware string skip must not let it shadow the real key.
        let line = r#"{"Key":{"key":"00000000000000aa","request_id":"x\",\"key\":\"00000000000000bb","v":4}}"#;
        // The id contains escapes, so the scanner bails to the full
        // parse rather than guessing — and serde agrees on the real key.
        assert_eq!(scan_key_frame(line), None);
        let parsed: crate::protocol::Request = crate::protocol::decode_frame(line).unwrap();
        match parsed {
            crate::protocol::Request::Key { key, .. } => assert_eq!(key, "00000000000000aa"),
            other => panic!("wrong frame: {other:?}"),
        }
        // Same trick inside an ops array: the array is skipped
        // escape-aware, the scanned key stays the real one.
        let line =
            r#"{"Key":{"key":"00000000000000aa","ops":["\",\"key\":\"00000000000000bb"],"v":4}}"#;
        let scan = scan_key_frame(line).unwrap();
        assert_eq!(scan.key, "00000000000000aa");
        assert!(scan.has_ops);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
