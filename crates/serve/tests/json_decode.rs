//! Differential tests for `serde_json::from_str`, the decoder behind every
//! wire frame, journal line, gossip entry and client reply.
//!
//! The decoder reads each value straight from the text through the
//! derived `Deserialize` impls, without a tree. This file keeps the
//! earlier decoder as the oracle: a parser that builds the whole
//! `Content` tree, then a reader that applies the earlier derived impls'
//! rules to it — a struct needs a map and takes the first occurrence of
//! each field, a missing field reads as `null`, a struct variant reads
//! its fields from whatever its payload is, an enum is a unit variant's
//! name or a one-entry map. The reader follows a hand-written schema of
//! each frame type, so it shares no code with the derive.
//!
//! Generated texts — valid frames, then frames with duplicate, unknown
//! and missing keys, wrong types, escapes (`\u` included), integral and
//! out-of-range numbers, truncation and trailing bytes — must decode to
//! the oracle's value, or fail exactly where it fails. Nesting is the one
//! intended difference: past `serde_json::MAX_DEPTH` the decoder fails
//! where the oracle would recurse on.

use proptest::prelude::*;
use rfid_serve::protocol::{GossipEntry, Request, Response};
use rfid_serve::JobSpec;
use serde::{Content, Deserialize, Serialize};
use serde_json::Value;

// ---------------------------------------------------------------------
// Oracle, part 1: the earlier parser, which builds the whole tree.

struct OracleParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type Parsed = Result<Content, String>;

impl OracleParser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(format!("expected `{literal}` at byte {}", self.pos))
        }
    }

    fn parse_value(&mut self) -> Parsed {
        match self.peek() {
            Some(b'n') => self.eat_literal("null").map(|_| Content::Null),
            Some(b't') => self.eat_literal("true").map(|_| Content::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|_| Content::Bool(false)),
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn parse_array(&mut self) -> Parsed {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Parsed {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let rest = &self.bytes[start..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8".to_string())?,
            );
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        _ => return Err("unknown escape".into()),
                    }
                }
            }
        }
    }

    fn parse_number(&mut self) -> Parsed {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let bad = || format!("bad number `{text}`");
        if is_float {
            text.parse::<f64>().map(Content::F64).map_err(|_| bad())
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<u64>()
                .ok()
                .and_then(|v| 0i64.checked_sub_unsigned(v))
                .map(Content::I64)
                .ok_or_else(bad)
        } else {
            text.parse::<u64>().map(Content::U64).map_err(|_| bad())
        }
    }
}

fn oracle_parse(text: &str) -> Parsed {
    let mut parser = OracleParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let content = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err("trailing characters".into());
    }
    Ok(content)
}

// ---------------------------------------------------------------------
// Oracle, part 2: the earlier derived impls' rules over the tree, driven
// by a schema. The result is the tree the decoded value serializes to
// (`Serialize::to_content`), so it compares with the decoder's output.

#[derive(Clone)]
enum Schema {
    Bool,
    Str,
    /// An integer type, by its range.
    Int(i128, i128),
    F64,
    Opt(Box<Schema>),
    Seq(Box<Schema>),
    Struct(Fields),
    Enum(Vec<(&'static str, Variant)>),
    /// `serde_json::Value`: any value as it is.
    Any,
}

type Fields = Vec<(&'static str, Schema)>;

#[derive(Clone)]
enum Variant {
    Unit,
    Struct(Fields),
}

const U16: Schema = Schema::Int(0, u16::MAX as i128);
const U32: Schema = Schema::Int(0, u32::MAX as i128);
const U64: Schema = Schema::Int(0, u64::MAX as i128);
const USIZE: Schema = Schema::Int(0, usize::MAX as i128);

fn opt(s: Schema) -> Schema {
    Schema::Opt(Box::new(s))
}

fn seq(s: Schema) -> Schema {
    Schema::Seq(Box::new(s))
}

fn point() -> Schema {
    Schema::Struct(vec![("x", Schema::F64), ("y", Schema::F64)])
}

fn deployment() -> Schema {
    let rect = ["min_x", "min_y", "max_x", "max_y"].map(|f| (f, Schema::F64));
    Schema::Struct(vec![
        ("region", Schema::Struct(rect.to_vec())),
        ("reader_pos", seq(point())),
        ("interference_r", seq(Schema::F64)),
        ("interrogation_r", seq(Schema::F64)),
        ("tag_pos", seq(point())),
    ])
}

fn pair(a: &'static str, b: &'static str) -> Variant {
    Variant::Struct(vec![(a, Schema::F64), (b, Schema::F64)])
}

fn scenario() -> Schema {
    let kind = Schema::Enum(vec![
        ("UniformRandom", Variant::Unit),
        (
            "ClusteredTags",
            Variant::Struct(vec![("clusters", USIZE), ("sigma", Schema::F64)]),
        ),
        ("LatticeReaders", Variant::Unit),
    ]);
    let radius_model = Schema::Enum(vec![
        (
            "PoissonPair",
            pair("lambda_interference", "lambda_interrogation"),
        ),
        ("Fixed", pair("interference", "interrogation")),
        ("Scaled", pair("lambda_interference", "beta")),
    ]);
    Schema::Struct(vec![
        ("kind", kind),
        ("n_readers", USIZE),
        ("n_tags", USIZE),
        ("region_side", Schema::F64),
        ("radius_model", radius_model),
    ])
}

fn job_spec() -> Schema {
    let workload = Schema::Enum(vec![
        (
            "Generated",
            Variant::Struct(vec![("scenario", scenario()), ("seed", U64)]),
        ),
        (
            "Explicit",
            Variant::Struct(vec![("deployment", deployment())]),
        ),
    ]);
    Schema::Struct(vec![
        ("workload", workload),
        ("algorithm", Schema::Str),
        ("algo_seed", U64),
        ("resilient", Schema::Bool),
        ("max_slots", opt(USIZE)),
    ])
}

fn scenario_delta() -> Schema {
    Schema::Enum(vec![
        ("AddTag", pair("x", "y")),
        ("RemoveTag", Variant::Struct(vec![("tag", U32)])),
        (
            "MoveReader",
            Variant::Struct(vec![
                ("reader", U32),
                ("x", Schema::F64),
                ("y", Schema::F64),
            ]),
        ),
        (
            "SetReaderAlive",
            Variant::Struct(vec![("reader", U32), ("alive", Schema::Bool)]),
        ),
        (
            "Retune",
            Variant::Struct(vec![
                ("reader", U32),
                ("interference", Schema::F64),
                ("interrogation", Schema::F64),
            ]),
        ),
    ])
}

fn gossip_entry() -> Schema {
    Schema::Struct(vec![("key", Schema::Str), ("payload", Schema::Str)])
}

/// The journal's line shape (`rfid_serve::journal` keeps its type private).
#[derive(Serialize, Deserialize)]
struct Record {
    crc: String,
    key: String,
    payload: String,
}

fn record() -> Schema {
    Schema::Struct(["crc", "key", "payload"].map(|f| (f, Schema::Str)).to_vec())
}

fn request() -> Schema {
    let tail = || vec![("request_id", opt(Schema::Str)), ("v", opt(U32))];
    let mut schedule = vec![("job", job_spec()), ("deadline_ms", opt(U64))];
    schedule.extend(tail());
    let mut delta = vec![
        ("base", Schema::Str),
        ("ops", seq(scenario_delta())),
        ("deadline_ms", opt(U64)),
    ];
    delta.extend(tail());
    let mut key = vec![("key", Schema::Str), ("ops", opt(seq(scenario_delta())))];
    key.extend(tail());
    Schema::Enum(vec![
        ("Hello", Variant::Struct(vec![("v", U32)])),
        ("Schedule", Variant::Struct(schedule)),
        ("Delta", Variant::Struct(delta)),
        ("Key", Variant::Struct(key)),
        (
            "Gossip",
            Variant::Struct(vec![("entries", seq(gossip_entry())), ("v", opt(U32))]),
        ),
        ("Stats", Variant::Unit),
        ("Shutdown", Variant::Unit),
    ])
}

const STATS_FIELDS: [&str; 22] = [
    "requests",
    "cache_hits",
    "cache_misses",
    "coalesced",
    "cache_evictions",
    "cache_expired",
    "cache_entries",
    "rejected_full",
    "rejected_shutdown",
    "deadline_expired",
    "solved",
    "errors",
    "queue_depth",
    "workers",
    "recovered_entries",
    "journal_appends",
    "journal_append_errors",
    "snapshots_written",
    "replicated_out",
    "replication_dropped",
    "replicated_in",
    "deduped",
];

fn response() -> Schema {
    let stats = Schema::Struct(STATS_FIELDS.map(|f| (f, U64)).to_vec());
    Schema::Enum(vec![
        ("HelloAck", Variant::Struct(vec![("v", U32)])),
        (
            "Schedule",
            Variant::Struct(vec![
                ("key", Schema::Str),
                ("cached", Schema::Bool),
                ("payload", Schema::Str),
            ]),
        ),
        ("GossipAck", Variant::Struct(vec![("applied", U64)])),
        (
            "Stats",
            Variant::Struct(vec![("stats", stats), ("metrics", Schema::Str)]),
        ),
        (
            "Error",
            Variant::Struct(vec![("code", U16), ("message", Schema::Str)]),
        ),
        ("Bye", Variant::Unit),
    ])
}

/// The earlier `from_content` rules: `Err(())` where they failed.
fn oracle_read(schema: &Schema, content: &Content) -> Result<Content, ()> {
    match (schema, content) {
        (Schema::Bool, Content::Bool(b)) => Ok(Content::Bool(*b)),
        (Schema::Str, Content::Str(s)) => Ok(Content::Str(s.clone())),
        (Schema::Int(lo, hi), _) => {
            let v = match *content {
                Content::U64(v) => i128::from(v),
                Content::I64(v) => i128::from(v),
                Content::F64(v) if v.fract() == 0.0 => v as i128,
                _ => return Err(()),
            };
            match v {
                _ if v < *lo || v > *hi => Err(()),
                0.. => Ok(Content::U64(v as u64)),
                _ => Ok(Content::I64(v as i64)),
            }
        }
        (Schema::F64, _) => content.as_f64().map(Content::F64).ok_or(()),
        (Schema::Opt(_), Content::Null) => Ok(Content::Null),
        (Schema::Opt(inner), _) => oracle_read(inner, content),
        (Schema::Seq(inner), Content::Seq(items)) => items
            .iter()
            .map(|item| oracle_read(inner, item))
            .collect::<Result<_, _>>()
            .map(Content::Seq),
        (Schema::Struct(fields), Content::Map(_)) => oracle_fields(fields, content),
        (Schema::Enum(variants), Content::Str(name)) => variants
            .iter()
            .any(|(v, kind)| v == name && matches!(kind, Variant::Unit))
            .then(|| content.clone())
            .ok_or(()),
        (Schema::Enum(variants), Content::Map(entries)) if entries.len() == 1 => {
            let (tag, inner) = &entries[0];
            match variants.iter().find(|(v, _)| v == tag) {
                Some((_, Variant::Struct(fields))) => {
                    let payload = oracle_fields(fields, inner)?;
                    Ok(Content::Map(vec![(tag.clone(), payload)]))
                }
                _ => Err(()),
            }
        }
        (Schema::Any, _) => Ok(content.clone()),
        _ => Err(()),
    }
}

/// Each field from the first entry with its name, or from `null`; a
/// non-map yields `null` for every field.
fn oracle_fields(fields: &Fields, content: &Content) -> Result<Content, ()> {
    fields
        .iter()
        .map(|(name, s)| {
            let value = content.get(name).unwrap_or(&Content::Null);
            Ok((name.to_string(), oracle_read(s, value)?))
        })
        .collect::<Result<_, _>>()
        .map(Content::Map)
}

// ---------------------------------------------------------------------
// Generated texts.

/// SplitMix64 over a proptest-drawn seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    /// `true` with probability `1/n`.
    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Characters that stress the string reader: plain ASCII, everything
/// the writer escapes, and one-to-four-byte UTF-8 sequences.
const CHARS: &[char] = &[
    'a', 'k', 'x', 'y', '0', ' ', '/', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'é', '€',
    '\u{2028}', '𝄞',
];

fn string(draw: &mut Draw) -> String {
    (0..draw.below(6)).map(|_| draw.pick(CHARS)).collect()
}

fn number(draw: &mut Draw) -> Content {
    match draw.below(6) {
        0 => Content::U64(draw.below(1000)),
        1 => Content::U64(draw.next()),
        2 => Content::I64(-1 - draw.below(1000) as i64),
        3 => Content::F64(draw.below(1000) as f64),
        4 => Content::F64((draw.next() >> 11) as f64 / 1e9 - 4e6),
        _ => Content::F64(draw.pick(&[1e300, -1e300, 0.5, -0.0, 65536.0, 4294967296.0])),
    }
}

/// Any value, up to `depth` containers deep.
fn any(draw: &mut Draw, depth: u32) -> Content {
    match draw.below(if depth == 0 { 5 } else { 7 }) {
        0 => Content::Null,
        1 => Content::Bool(draw.one_in(2)),
        2 => number(draw),
        3 | 4 => Content::Str(string(draw)),
        5 => Content::Seq((0..draw.below(4)).map(|_| any(draw, depth - 1)).collect()),
        _ => Content::Map(
            (0..draw.below(4))
                .map(|_| (string(draw), any(draw, depth - 1)))
                .collect(),
        ),
    }
}

/// A value of `schema`, with a mutation at about one node in `rate`.
fn gen(schema: &Schema, draw: &mut Draw, rate: u64) -> Content {
    if draw.one_in(rate * 4) {
        return any(draw, 2); // most likely the wrong type
    }
    match schema {
        Schema::Bool => Content::Bool(draw.one_in(2)),
        Schema::Str => Content::Str(string(draw)),
        Schema::Int(_, hi) => {
            if draw.one_in(rate) {
                return number(draw); // negative, fractional, out of range
            }
            let v = draw.below(u64::try_from(*hi).unwrap_or(u64::MAX).min(5000));
            if draw.one_in(4) {
                Content::F64(v as f64) // integral float
            } else {
                Content::U64(v)
            }
        }
        Schema::F64 => number(draw),
        Schema::Opt(inner) => {
            if draw.one_in(3) {
                Content::Null
            } else {
                gen(inner, draw, rate)
            }
        }
        Schema::Seq(inner) => {
            Content::Seq((0..draw.below(4)).map(|_| gen(inner, draw, rate)).collect())
        }
        Schema::Struct(fields) => gen_fields(fields, draw, rate),
        Schema::Enum(variants) => {
            let (name, variant) = &variants[draw.below(variants.len() as u64) as usize];
            let name = if draw.one_in(rate) {
                draw.pick(&["Nope", "", "Stats", "Hello", "AddTag"])
                    .to_string()
            } else {
                name.to_string()
            };
            let mut entries = match variant {
                Variant::Unit if !draw.one_in(rate) => return Content::Str(name),
                Variant::Unit => vec![(name, Content::Null)],
                Variant::Struct(fields) => vec![(name, gen_fields(fields, draw, rate))],
            };
            if draw.one_in(rate) {
                match draw.below(3) {
                    0 => entries.clear(),
                    1 => entries.push(entries[0].clone()),
                    _ => return Content::Str(entries.remove(0).0),
                }
            }
            Content::Map(entries)
        }
        Schema::Any => any(draw, 4),
    }
}

/// A map of `fields`, sometimes missing, repeating or adding keys, or
/// out of order.
fn gen_fields(fields: &Fields, draw: &mut Draw, rate: u64) -> Content {
    let mut entries: Vec<(String, Content)> = Vec::new();
    for (name, s) in fields {
        if draw.one_in(rate) {
            continue; // missing
        }
        entries.push((name.to_string(), gen(s, draw, rate)));
        if draw.one_in(rate) {
            // A duplicate: valid, the wrong type, or the same value.
            let again = match draw.below(3) {
                0 => gen(s, draw, rate),
                1 => any(draw, 2),
                _ => entries.last().unwrap().1.clone(),
            };
            entries.push((name.to_string(), again));
        }
    }
    if draw.one_in(rate) {
        let at = draw.below(entries.len() as u64 + 1) as usize;
        let key = draw.pick(&["unknown", "", "x", "v", "é"]).to_string();
        entries.insert(at, (key, any(draw, 3)));
    }
    if entries.len() > 1 && draw.one_in(rate) {
        let (a, b) = (
            draw.below(entries.len() as u64),
            draw.below(entries.len() as u64),
        );
        entries.swap(a as usize, b as usize);
    }
    Content::Map(entries)
}

fn ws(draw: &mut Draw, out: &mut String) {
    if draw.one_in(4) {
        out.push_str(draw.pick(&[" ", "\n", "\t", "\r\n", "  "]));
    }
}

/// Writes `s` as a string literal, escaping what must be escaped and,
/// at random, other characters too (`\u`, `\/`, short escapes); at
/// about one string in `rate * 8`, plants a bad escape instead.
fn render_str(s: &str, draw: &mut Draw, rate: u64, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' if draw.one_in(2) => out.push_str("\\n"),
            '\t' if draw.one_in(2) => out.push_str("\\t"),
            '/' if draw.one_in(2) => out.push_str("\\/"),
            c if (c as u32) < 0x10000 && draw.one_in(4) => {
                out.push_str(&format!("\\u{:04x}", c as u32))
            }
            c => out.push(c), // raw control bytes included
        }
    }
    if draw.one_in(rate * 8) {
        out.push_str(draw.pick(&["\\x", "\\u12", "\\ud834", "\\u+041", "\\uzzzz", "\\"]));
    }
    out.push('"');
}

/// Writes `content` as JSON with random whitespace, escapes and number
/// spellings (`7`, `7.0`, `7e0`, `07`, 25-digit overflows).
fn render(content: &Content, draw: &mut Draw, rate: u64, out: &mut String) {
    ws(draw, out);
    match content {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::U64(v) => match draw.below(12) {
            0 => out.push_str(&format!("{v}.0")),
            1 => out.push_str(&format!("{v}e0")),
            2 => out.push_str(&format!("0{v}")),
            3 if draw.one_in(rate) => out.push_str("9999999999999999999999999"),
            _ => out.push_str(&v.to_string()),
        },
        Content::I64(v) => match draw.below(8) {
            0 => out.push_str(&format!("{v}.0")),
            1 if draw.one_in(rate) => out.push_str("-9999999999999999999999999"),
            _ => out.push_str(&v.to_string()),
        },
        Content::F64(v) => {
            let text = if draw.one_in(2) {
                format!("{v:?}")
            } else {
                format!("{v:e}")
            };
            out.push_str(&text);
        }
        Content::Str(s) => render_str(s, draw, rate, out),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, draw, rate, out);
            }
            ws(draw, out);
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (key, value)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(draw, out);
                render_str(key, draw, rate, out);
                ws(draw, out);
                out.push(':');
                render(value, draw, rate, out);
            }
            ws(draw, out);
            out.push('}');
        }
    }
    ws(draw, out);
}

/// One text of `schema`: valid about half the time (when `rate` is high),
/// otherwise mutated in its tree, its text or both.
fn text_for(schema: &Schema, seed: u64) -> String {
    let mut draw = Draw(seed);
    let rate = draw.pick(&[1000, 40, 12, 5]);
    let content = gen(schema, &mut draw, rate);
    let mut text = String::new();
    render(&content, &mut draw, rate, &mut text);
    if draw.one_in(rate / 4 + 1) {
        // Truncate at a char boundary, or add trailing bytes.
        if draw.one_in(2) {
            let mut cut = draw.below(text.len() as u64 + 1) as usize;
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
        } else {
            text.push_str(draw.pick(&[" x", "}", "]", "0", ",", "null", " \n"]));
        }
    }
    if draw.one_in(rate / 2 + 1) {
        // Overwrite one ASCII byte with a structural one.
        let ascii: Vec<usize> = text
            .bytes()
            .enumerate()
            .filter(|(_, b)| b.is_ascii())
            .map(|(i, _)| i)
            .collect();
        if !ascii.is_empty() {
            let at = ascii[draw.below(ascii.len() as u64) as usize];
            let with = draw.pick(&["{", "}", "[", "]", ",", ":", "\"", "\\", "-", "n", " "]);
            text.replace_range(at..at + 1, with);
        }
    }
    text
}

/// The value's JSON text (tells `-0.0` from `0.0`, unlike `==`).
fn json(content: &Content) -> String {
    serde_json::to_string(&Value(content.clone())).unwrap()
}

/// Decodes `text` as `T` and holds the result to the oracle's.
fn check<T: Deserialize + Serialize>(schema: &Schema, text: &str) -> Result<(), TestCaseError> {
    let expected = oracle_parse(text)
        .ok()
        .and_then(|tree| oracle_read(schema, &tree).ok());
    let decoded = serde_json::from_str::<T>(text);
    match (&expected, &decoded) {
        (Some(want), Ok(got)) => prop_assert_eq!(json(&got.to_content()), json(want), "{}", text),
        (None, Err(_)) => {}
        (None, Ok(got)) => prop_assert!(
            false,
            "oracle rejects {text:?}, decoder reads {}",
            json(&got.to_content())
        ),
        (Some(want), Err(e)) => prop_assert!(
            false,
            "oracle reads {text:?} as {}, decoder fails: {e}",
            json(want)
        ),
    }
    Ok(())
}

/// The generator is worth its cases only if it makes both outcomes
/// often: texts the oracle reads and texts it rejects.
#[test]
fn generated_texts_both_decode_and_fail() {
    for schema in [request(), response(), job_spec(), seq(scenario_delta())] {
        let read = (0..400u64)
            .filter(|&seed| {
                let text = text_for(&schema, seed);
                oracle_parse(&text).is_ok_and(|tree| oracle_read(&schema, &tree).is_ok())
            })
            .count();
        assert!((100..=300).contains(&read), "{read} of 400 texts read");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn requests_decode_as_the_tree_decoder_did(seed in proptest::num::u64::ANY) {
        let schema = request();
        check::<Request>(&schema, &text_for(&schema, seed))?;
    }

    #[test]
    fn responses_decode_as_the_tree_decoder_did(seed in proptest::num::u64::ANY) {
        let schema = response();
        check::<Response>(&schema, &text_for(&schema, seed))?;
    }

    #[test]
    fn jobs_and_deltas_decode_as_the_tree_decoder_did(seed in proptest::num::u64::ANY) {
        let schema = job_spec();
        check::<JobSpec>(&schema, &text_for(&schema, seed))?;
        let schema = seq(scenario_delta());
        check::<Vec<rfid_delta::ScenarioDelta>>(&schema, &text_for(&schema, seed ^ 1))?;
    }

    #[test]
    fn records_gossip_and_values_decode_as_the_tree_decoder_did(seed in proptest::num::u64::ANY) {
        let schema = record();
        check::<Record>(&schema, &text_for(&schema, seed))?;
        let schema = seq(gossip_entry());
        check::<Vec<GossipEntry>>(&schema, &text_for(&schema, seed ^ 1))?;
        check::<Value>(&Schema::Any, &text_for(&Schema::Any, seed ^ 2))?;
    }

    /// Around the nesting limit, alone and under a frame's unknown key
    /// (two maps deeper): the decoder agrees with the oracle up to
    /// `MAX_DEPTH` open containers and fails past it.
    #[test]
    fn nesting_agrees_up_to_the_limit_and_fails_past_it(seed in proptest::num::u64::ANY) {
        let mut draw = Draw(seed);
        let depth = serde_json::MAX_DEPTH - 6 + draw.below(12) as usize;
        let mut value = String::new();
        let mut close = String::new();
        for _ in 0..depth {
            if draw.one_in(2) {
                value.push('[');
                close.insert(0, ']');
            } else {
                value.push_str("{\"k\":");
                close.insert(0, '}');
            }
        }
        // The leaf `[]` is one more container.
        let leaf_is_seq = draw.one_in(2);
        value.push_str(if leaf_is_seq { "[]" } else { "1" });
        value.push_str(&close);
        let bare = depth + usize::from(leaf_is_seq);
        let frame = format!("{{\"Hello\":{{\"v\":4,\"junk\":{value}}}}}");
        for (text, nesting) in [(value.as_str(), bare), (frame.as_str(), bare + 2)] {
            if nesting <= serde_json::MAX_DEPTH {
                check::<Value>(&Schema::Any, text)?;
                check::<Request>(&request(), text)?;
            } else {
                prop_assert!(serde_json::from_str::<Value>(text).is_err());
                prop_assert!(serde_json::from_str::<Request>(text).is_err());
            }
        }
    }
}
