//! Byte-identity and parser tests for the JSON codec behind every
//! content key.
//!
//! Content keys hash the canonical JSON text, journals persist those keys
//! and clients memoise them, so the renderer's output must never drift.
//! `canonical_json` renders in one pass with the writer's sorted-keys
//! mode; the property tests pin it, the plain compact writer and the
//! pretty writer (CLI output, tables and bench reports) to a reference
//! copy of the earlier algorithm (sort every map in place, then render
//! one char at a time), which this file keeps only as the oracle.
//! The parser cases pin `serde_json::from_str` on strings: escapes at run
//! boundaries, multi-byte text beside escapes, `\u` escapes, raw control
//! bytes and unterminated input; and on numbers out of range for the
//! type they decode into.

use proptest::prelude::*;
use rfid_delta::{canonical_json, ScenarioDelta};
use serde::{Content, Serialize};
use serde_json::Value;

// ---------------------------------------------------------------------
// Oracle: the earlier canonical renderer.

fn oracle_sort_maps(content: &mut Content) {
    match content {
        Content::Map(entries) => {
            for (_, v) in entries.iter_mut() {
                oracle_sort_maps(v);
            }
            entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        }
        Content::Seq(items) => {
            for item in items {
                oracle_sort_maps(item);
            }
        }
        _ => {}
    }
}

fn oracle_render(content: &Content, out: &mut String) {
    match content {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::F64(v) => {
            if v.is_finite() {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    out.push_str(&format!("{v:.1}"));
                } else {
                    out.push_str(&v.to_string());
                }
            } else {
                out.push_str("null");
            }
        }
        Content::Str(s) => oracle_escape(s, out),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                oracle_render(item, out);
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (key, value)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                oracle_escape(key, out);
                out.push(':');
                oracle_render(value, out);
            }
            out.push('}');
        }
    }
}

fn oracle_escape(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The earlier pretty layout: two spaces per level, `": "` after a key,
/// and a non-empty container's closing bracket on a line of its own.
fn oracle_render_pretty(content: &Content, depth: usize, out: &mut String) {
    fn newline_indent(out: &mut String, depth: usize) {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    match content {
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, depth + 1);
                oracle_render_pretty(item, depth + 1, out);
            }
            if !items.is_empty() {
                newline_indent(out, depth);
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (key, value)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, depth + 1);
                oracle_escape(key, out);
                out.push_str(": ");
                oracle_render_pretty(value, depth + 1, out);
            }
            if !entries.is_empty() {
                newline_indent(out, depth);
            }
            out.push('}');
        }
        scalar => oracle_render(scalar, out),
    }
}

fn oracle_pretty(content: &Content) -> String {
    let mut out = String::new();
    oracle_render_pretty(content, 0, &mut out);
    out
}

fn oracle_compact(content: &Content) -> String {
    let mut out = String::new();
    oracle_render(content, &mut out);
    out
}

fn oracle_canonical(content: &Content) -> String {
    let mut sorted = content.clone();
    oracle_sort_maps(&mut sorted);
    oracle_compact(&sorted)
}

// ---------------------------------------------------------------------
// Generated content trees.

/// Characters that stress the string writer: plain ASCII, everything
/// the writer escapes, DEL, and one-to-four-byte UTF-8 sequences.
const CHARS: &[char] = &[
    'a', 'b', 'x', 'y', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}',
    '\u{c}', '\u{1f}', '\u{7f}', 'é', 'ü', 'ß', '€', '\u{2028}', '𝄞', '😀',
];

/// A small key pool, so maps often repeat a key or hold keys that
/// differ only past a shared prefix or in a non-ASCII byte.
const KEYS: &[&str] = &[
    "a", "b", "x", "y", "ab", "B", "", "é", "a\"", "\\", "\u{1}", "z€",
];

/// SplitMix64 over a proptest-drawn seed: the tree shape and leaves
/// come from one reproducible stream.
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

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn string(draw: &mut Draw, max_len: u64) -> String {
    (0..draw.below(max_len + 1))
        .map(|_| draw.pick(CHARS))
        .collect()
}

fn float(draw: &mut Draw) -> f64 {
    let unit = (draw.next() >> 11) as f64 / (1u64 << 53) as f64;
    let magnitude = match draw.below(8) {
        0 => draw.below(2_000) as f64,                      // integral
        1 => unit * 1_000.0,                                // fractional
        2 => 10f64.powi(14 + draw.below(4) as i32),         // around the `.0` cut-off
        3 => 1.5 * 10f64.powi(18 + draw.below(291) as i32), // huge
        4 => 3.7 * 10f64.powi(-1 - draw.below(300) as i32), // tiny
        5 => f64::from_bits(1 + draw.below((1 << 52) - 1)), // subnormal
        6 => draw.pick(&[f64::NAN, f64::INFINITY, f64::MAX, f64::MIN_POSITIVE, 0.0]),
        _ => f64::from_bits(draw.next()), // any bit pattern
    };
    if draw.coin() {
        -magnitude
    } else {
        magnitude
    }
}

fn tree(draw: &mut Draw, depth: u32) -> Content {
    match draw.below(if depth == 0 { 6 } else { 8 }) {
        0 => Content::Null,
        1 => Content::Bool(draw.coin()),
        2 => Content::U64(match draw.below(3) {
            0 => draw.below(100),
            1 => draw.next(),
            _ => u64::MAX,
        }),
        3 => Content::I64(-1 - draw.below(i64::MAX as u64) as i64),
        4 => Content::F64(float(draw)),
        5 => Content::Str(string(draw, 12)),
        6 => Content::Seq((0..draw.below(5)).map(|_| tree(draw, depth - 1)).collect()),
        _ => Content::Map(
            (0..draw.below(7))
                .map(|_| {
                    let key = if draw.below(10) < 7 {
                        draw.pick(KEYS).to_string()
                    } else {
                        string(draw, 6)
                    };
                    (key, tree(draw, depth - 1))
                })
                .collect(),
        ),
    }
}

/// Content trees up to four levels deep whose root is always a map.
fn arb_tree() -> impl Strategy<Value = Content> {
    proptest::num::u64::ANY.prop_map(|seed| {
        let mut draw = Draw(seed);
        loop {
            let content = tree(&mut draw, 4);
            if matches!(content, Content::Map(_)) {
                return content;
            }
        }
    })
}

fn arb_ops() -> impl Strategy<Value = Vec<ScenarioDelta>> {
    proptest::collection::vec(
        (
            0u32..5,
            0u32..1_000,
            -1e3..1e3f64,
            -1e3..1e3f64,
            proptest::bool::ANY,
        )
            .prop_map(|(kind, index, x, y, flag)| match kind {
                0 => ScenarioDelta::AddTag { x, y },
                1 => ScenarioDelta::RemoveTag { tag: index },
                2 => ScenarioDelta::MoveReader {
                    reader: index,
                    x,
                    y,
                },
                3 => ScenarioDelta::SetReaderAlive {
                    reader: index,
                    alive: flag,
                },
                _ => ScenarioDelta::Retune {
                    reader: index,
                    interference: x.abs(),
                    interrogation: y.abs(),
                },
            }),
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn canonical_json_matches_sort_then_render(content in arb_tree()) {
        let value = Value(content.clone());
        prop_assert_eq!(canonical_json(&value), oracle_canonical(&content));
        prop_assert_eq!(serde_json::to_string(&value).unwrap(), oracle_compact(&content));
        prop_assert_eq!(serde_json::to_string_pretty(&value).unwrap(), oracle_pretty(&content));
    }

    #[test]
    fn canonical_ops_match_sort_then_render(ops in arb_ops()) {
        prop_assert_eq!(canonical_json(&ops), oracle_canonical(&ops.to_content()));
        prop_assert_eq!(serde_json::to_string(&ops).unwrap(), oracle_compact(&ops.to_content()));
        prop_assert_eq!(
            serde_json::to_string_pretty(&ops).unwrap(),
            oracle_pretty(&ops.to_content())
        );
    }
}

#[test]
fn sorted_mode_is_stable_for_duplicate_keys() {
    let content = Content::Map(vec![
        ("b".into(), Content::U64(1)),
        ("a".into(), Content::U64(2)),
        ("b".into(), Content::U64(3)),
        ("a".into(), Content::U64(4)),
    ]);
    assert_eq!(
        canonical_json(&Value(content)),
        r#"{"a":2,"a":4,"b":1,"b":3}"#
    );
    // Large enough that an unstable sort would not fall back to a
    // stable small-slice path.
    let many = Content::Map(
        (0..200u64)
            .map(|i| {
                (
                    ["c", "a", "b"][(i * 7 % 3) as usize].to_string(),
                    Content::U64(i),
                )
            })
            .collect(),
    );
    assert_eq!(
        canonical_json(&Value(many.clone())),
        oracle_canonical(&many)
    );
}

// ---------------------------------------------------------------------
// Parser cases.

fn parse(text: &str) -> Result<String, String> {
    serde_json::from_str::<String>(text).map_err(|e| e.to_string())
}

#[test]
fn escapes_at_run_boundaries_decode() {
    for (text, expected) in [
        (r#""""#, ""),
        (r#""\"""#, "\""),
        (r#""\\""#, "\\"),
        (r#""\"abc""#, "\"abc"),
        (r#""abc\"""#, "abc\""),
        (r#""a\nb""#, "a\nb"),
        (r#""\t\r\n\b\f\/""#, "\t\r\n\u{8}\u{c}/"),
        (r#""\\\\\"\\""#, "\\\\\"\\"),
        (r#""x\\""#, "x\\"),
    ] {
        assert_eq!(parse(text), Ok(expected.to_string()), "{text}");
    }
}

#[test]
fn multi_byte_text_beside_escapes_decodes() {
    for (text, expected) in [
        (r#""é\n€""#, "é\n€"),
        (r#""\"𝄞\"""#, "\"𝄞\""),
        (r#""üüü""#, "üüü"),
        (r#""日本\\語""#, "日本\\語"),
        ("\"😀\\t😀\"", "😀\t😀"),
        ("\"\u{2028}\\\"\u{2028}\"", "\u{2028}\"\u{2028}"),
    ] {
        assert_eq!(parse(text), Ok(expected.to_string()), "{text}");
    }
}

#[test]
fn unicode_escapes_decode_or_fail_as_before() {
    for (text, expected) in [
        (r#""\u0041""#, Ok("A")),
        (r#""\u00e9\u00E9""#, Ok("éé")),
        (r#""\u20AC1""#, Ok("€1")),
        (r#""\u0000""#, Ok("\u{0}")),
        (r#""\u001f""#, Ok("\u{1f}")),
        (
            r#""\u12""#,
            Err("serde_json: truncated \\u escape at byte 1"),
        ),
        (r#""\u12"x""#, Err("serde_json: bad \\u escape at byte 1")),
        (
            r#""\u12"#,
            Err("serde_json: truncated \\u escape at byte 1"),
        ),
        (r#""\u12G4""#, Err("serde_json: bad \\u escape at byte 1")),
        (
            r#""\ud834""#,
            Err("serde_json: bad \\u code point at byte 1"),
        ),
        (r#""\x""#, Err("serde_json: unknown escape \\x at byte 1")),
    ] {
        let expected = expected.map(str::to_string).map_err(str::to_string);
        assert_eq!(parse(text), expected, "{text}");
    }
}

#[test]
fn raw_control_bytes_are_accepted_verbatim() {
    for text in [
        "a\u{1}b",
        "tab\there",
        "line\nbreak",
        "\u{0}",
        "\u{1f}\u{7f}",
    ] {
        assert_eq!(parse(&format!("\"{text}\"")), Ok(text.to_string()));
    }
}

#[test]
fn unterminated_strings_are_errors() {
    for (text, message) in [
        ("\"", "serde_json: unterminated string at byte 1"),
        ("\"abc", "serde_json: unterminated string at byte 4"),
        ("\"é€", "serde_json: unterminated string at byte 6"),
        ("\"abc\\\"", "serde_json: unterminated string at byte 6"),
        ("\"abc\\", "serde_json: unterminated escape at byte 4"),
    ] {
        assert_eq!(parse(text), Err(message.to_string()), "{text}");
    }
    let err = serde_json::from_str::<Value>(r#"{"key":"value"#).unwrap_err();
    assert_eq!(
        err.to_string(),
        "serde_json: unterminated string at byte 13"
    );
}

#[test]
fn long_strings_with_scattered_escapes_round_trip() {
    let text: String = (0..50_000)
        .map(|i| match i % 97 {
            0 => '"',
            1 => '\\',
            2 => '\n',
            3 => 'é',
            4 => '\u{3}',
            _ => char::from(b'a' + (i % 26) as u8),
        })
        .collect();
    let encoded = serde_json::to_string(&text).unwrap();
    assert_eq!(encoded, oracle_compact(&Content::Str(text.clone())));
    assert_eq!(serde_json::from_str::<String>(&encoded).unwrap(), text);
}

// ---------------------------------------------------------------------
// Numbers out of range for their type.

fn decode_error<T: serde::Deserialize + std::fmt::Debug>(text: &str) -> String {
    serde_json::from_str::<T>(text).unwrap_err().to_string()
}

#[test]
fn negative_literals_below_i64_min_are_errors() {
    // `-18446744073709551615` once wrapped to 1, and a u64 field read it.
    assert_eq!(
        decode_error::<u64>("-18446744073709551615"),
        "serde_json: bad number at byte 0"
    );
    assert_eq!(
        decode_error::<Vec<u64>>("[-18446744073709551615]"),
        "serde_json: bad number at byte 1"
    );
    // One below i64::MIN once saturated to i64::MAX.
    assert_eq!(
        decode_error::<i64>("-9223372036854775809"),
        "serde_json: bad number at byte 0"
    );
    // i64::MIN itself is in range (a debug build once panicked negating it).
    assert_eq!(
        serde_json::from_str::<i64>("-9223372036854775808"),
        Ok(i64::MIN)
    );
    assert_eq!(
        serde_json::from_str::<Value>("-9223372036854775808"),
        Ok(Value(Content::I64(i64::MIN)))
    );
    assert_eq!(serde_json::from_str::<i64>("-0"), Ok(0));
    // The positive side already failed this way.
    assert_eq!(
        decode_error::<u64>("18446744073709551616"),
        "serde_json: bad number at byte 0"
    );
}

#[test]
fn integral_floats_convert_only_in_range() {
    // `300.0` once saturated to u8 255 while `300` was an error; both now
    // report the integer error.
    assert_eq!(
        decode_error::<u8>("300"),
        "serde_json: 300 out of range for u8 at byte 0"
    );
    assert_eq!(
        decode_error::<u8>("300.0"),
        "serde_json: 300 out of range for u8 at byte 0"
    );
    assert_eq!(
        decode_error::<u8>("-1.0"),
        "serde_json: -1 out of range for u8 at byte 0"
    );
    assert_eq!(serde_json::from_str::<u8>("255.0"), Ok(255));
    assert_eq!(serde_json::from_str::<u64>("2.5e2"), Ok(250));
    assert_eq!(
        serde_json::from_str::<i64>("-9223372036854775808.0"),
        Ok(i64::MIN)
    );
    // `1e300` once decoded as u64::MAX.
    assert!(decode_error::<u64>("1e300").ends_with("out of range for u64 at byte 0"));
    assert!(
        decode_error::<u64>("18446744073709551616.0").ends_with("out of range for u64 at byte 0")
    );
    assert!(
        decode_error::<i64>("9223372036854775808.0").ends_with("out of range for i64 at byte 0")
    );
    // Through a derived type, with the field path in front.
    assert_eq!(
        decode_error::<Vec<ScenarioDelta>>(r#"[{"RemoveTag":{"tag":1e10}}]"#),
        "serde_json: ScenarioDelta::RemoveTag.tag: 10000000000 out of range for u32 at byte 21"
    );
    assert_eq!(
        serde_json::from_str::<Vec<ScenarioDelta>>(r#"[{"RemoveTag":{"tag":7.0}}]"#),
        Ok(vec![ScenarioDelta::RemoveTag { tag: 7 }])
    );
    // Non-integral floats still fail as before.
    assert_eq!(
        decode_error::<u8>("0.5"),
        "serde_json: expected u8, found a float at byte 0"
    );
}
