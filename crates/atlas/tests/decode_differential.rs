//! Differential tests for the direct traceroute decoder against the serde
//! path it short-circuits. The property, everywhere: whenever
//! `decode_traceroute` returns a model, `serde_json::from_str` into
//! `AtlasTraceroute` followed by `to_model` returns the same model, RTT
//! bits included. Inputs are records rendered by `to_atlas_json`,
//! adversarial rewrites of them (reordered keys, unknown and nested
//! fields, duplicate keys, escapes, unusual reply shapes, IPv6, odd
//! numbers, out-of-range integers), every truncation of a valid record,
//! and nesting around the recursion limit.
//!
//! The same inputs hold `peek_probe` to its own property: whenever it
//! returns a probe id and the serde path accepts the record, the decoded
//! model carries that probe. Rewrites aimed at it add escaped, nested
//! and duplicate `prb_id` keys.

use lastmile_atlas::json::{decode_traceroute, peek_probe, to_atlas_json, AtlasTraceroute};
use lastmile_atlas::{Hop, ProbeId, Reply, TracerouteResult};
use lastmile_timebase::UnixTime;
use proptest::prelude::*;
use serde_json::Value;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

fn serde_path(text: &str) -> Result<TracerouteResult, String> {
    let doc: AtlasTraceroute = serde_json::from_str(text).map_err(|e| e.to_string())?;
    doc.to_model().map_err(|e| e.to_string())
}

/// RTT bit patterns: `PartialEq` on `f64` equates -0.0 and 0.0.
fn rtt_bits(tr: &TracerouteResult) -> Vec<Option<u64>> {
    tr.hops
        .iter()
        .flat_map(|h| h.replies.iter().map(|r| r.rtt_ms.map(f64::to_bits)))
        .collect()
}

/// Check the peek property on `text` and return the peeked probe.
fn peek_agrees(text: &str) -> Option<ProbeId> {
    let peeked = peek_probe(text);
    if let (Some(p), Ok(tr)) = (peeked, serde_path(text)) {
        assert_eq!(tr.probe, p, "peek disagrees with serde on {text}");
    }
    peeked
}

/// Check both properties on `text` and return the direct decoder's answer.
fn agrees(text: &str) -> Option<TracerouteResult> {
    peek_agrees(text);
    let direct = decode_traceroute(text);
    if let Some(tr) = &direct {
        let oracle = serde_path(text)
            .unwrap_or_else(|e| panic!("direct decoder accepted what serde rejects ({e}): {text}"));
        assert_eq!(tr, &oracle, "models differ on {text}");
        assert_eq!(rtt_bits(tr), rtt_bits(&oracle), "RTT bits differ on {text}");
    }
    direct
}

fn arb_ip() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        3 => any::<u32>().prop_map(|v| IpAddr::V4(Ipv4Addr::from(v))),
        1 => any::<u128>().prop_map(|v| IpAddr::V6(Ipv6Addr::from(v))),
        // Short forms such as `::1` and `::ffff:a.b.c.d`.
        1 => (0u128..4096).prop_map(|v| IpAddr::V6(Ipv6Addr::from(v))),
        1 => any::<u32>().prop_map(|v| IpAddr::V6(Ipv4Addr::from(v).to_ipv6_mapped())),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        4 => (arb_ip(), 0.0f64..400.0).prop_map(|(a, rtt)| Reply::answered(a, rtt)),
        1 => (arb_ip(), 0u32..2000).prop_map(|(a, ms)| Reply::answered(a, f64::from(ms))),
        // Any bit pattern: negatives, -0.0, subnormals, huge values, and
        // non-finite ones (written as `null`, read back as timeouts).
        1 => (arb_ip(), any::<u64>()).prop_map(|(a, bits)| Reply::answered(a, f64::from_bits(bits))),
        1 => Just(Reply::timeout()),
    ]
}

fn arb_traceroute(
    hops: std::ops::Range<usize>,
) -> impl Strategy<Value = (TracerouteResult, IpAddr)> {
    let hop = (any::<u8>(), prop::collection::vec(arb_reply(), 1..4))
        .prop_map(|(hop, replies)| Hop { hop, replies });
    (
        any::<u32>(),
        any::<u32>(),
        0i64..4_000_000_000,
        arb_ip(),
        arb_ip(),
        prop::collection::vec(hop, hops),
        arb_ip(),
    )
        .prop_map(|(probe, msm_id, ts, dst, src, hops, public)| {
            let tr = TracerouteResult {
                probe: ProbeId(probe),
                msm_id,
                timestamp: UnixTime::from_secs(ts),
                dst,
                src,
                hops,
            };
            (tr, public)
        })
}

/// Where a rewrite applies: the record, its first hop, or that hop's
/// first reply.
#[derive(Clone, Copy, Debug)]
enum Level {
    Record,
    Hop,
    Reply,
}

fn fields_at(doc: &mut Value, level: Level) -> &mut Vec<(String, Value)> {
    let obj = match level {
        Level::Record => doc,
        Level::Hop => first_of(doc),
        Level::Reply => first_of(first_of(doc)),
    };
    match obj {
        Value::Object(fields) => fields,
        other => panic!("not an object: {other}"),
    }
}

/// The first element of an object's `result` array.
fn first_of(obj: &mut Value) -> &mut Value {
    let Value::Object(fields) = obj else {
        panic!("not an object")
    };
    let (_, result) = fields
        .iter_mut()
        .find(|(k, _)| k == "result")
        .expect("result field");
    let Value::Array(items) = result else {
        panic!("result is not an array")
    };
    &mut items[0]
}

const LEVELS: [Level; 3] = [Level::Record, Level::Hop, Level::Reply];

/// Raw JSON tokens spliced in as a field's value.
const RAW_VALUES: &[&str] = &[
    "0",
    "5",
    "-0",
    "-0.0",
    "-3",
    "1e2",
    "1E-2",
    "2.5e+1",
    "-1.5e-3",
    "01",
    "1.",
    ".5",
    "1.5.2",
    "-",
    "+1",
    "1e",
    "0x10",
    "255",
    "256",
    "4294967295",
    "4294967296",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551616",
    "1e400",
    "null",
    "true",
    "[]",
    "{}",
    "[1,{\"a\":null}]",
    "\"5\"",
    "\"*\"",
    "\"\"",
    "\"::1\"",
    "\"::ffff:10.0.0.1\"",
    "\"1.2.3\"",
    "\"2001:db8::\"",
    "\"traceroute\"",
    "\"ping\"",
    "\"ICMP\"",
    "\"IC\\u004dP\"",
    "\"a\\\"b\"",
    "\"tab\\tin\"",
    "\"é😀\"",
];

/// Unknown-field values, nested ones included.
const UNKNOWN_VALUES: &[&str] = &[
    "22",
    "-1.5e3",
    "\"s\"",
    "null",
    "true",
    "false",
    "{}",
    "[]",
    "{\"a\":[1,{\"b\":[null,\"x\",{\"c\":-0}]}],\"d\":{}}",
    "[[[[]]],{\"k\":\"v\"}]",
];

/// Whole replies of unusual but valid shape.
const REPLIES: &[&str] = &[
    r#"{"x":"*"}"#,
    r#"{"from":null,"rtt":1.5}"#,
    r#"{"from":"192.0.2.1","rtt":null}"#,
    r#"{"from":"garbage","rtt":2}"#,
    r#"{"rtt":3.0}"#,
    r#"{"from":"2001:db8::1","rtt":0.25,"size":28,"ttl":64}"#,
    r#"{"x":null,"size":null,"ttl":null}"#,
    r#"{}"#,
];

/// Bytes after the record: whitespace is valid, anything else is not.
const SUFFIXES: &[&str] = &[" ", "\n\t\r ", "x", "}", ",", "{}", "\"", "0", "null"];

const PLACEHOLDER: &str = "@@raw@@";

/// One adversarial rewrite of a rendered record, as text.
fn rewrite(doc: &Value, kind: usize, level: usize, pick: usize, pos: usize) -> String {
    let mut doc = doc.clone();
    let level = LEVELS[level % LEVELS.len()];
    let mut raw = None;
    let mut suffix = "";
    if kind % 9 == 8 {
        suffix = SUFFIXES[pick % SUFFIXES.len()];
    } else if kind % 9 == 7 {
        // The first reply replaced by an unusual shape.
        *first_of(first_of(&mut doc)) = Value::String(PLACEHOLDER.into());
        raw = Some(REPLIES[pick % REPLIES.len()]);
    } else {
        let fields = fields_at(&mut doc, level);
        let n = fields.len();
        match kind % 9 {
            // Reorder keys.
            0 => fields.rotate_left(pos % n.max(1)),
            1 => fields.reverse(),
            // An unknown field, anywhere in the object.
            2 => {
                fields.insert(
                    pos % (n + 1),
                    ("extra".into(), Value::String(PLACEHOLDER.into())),
                );
                raw = Some(UNKNOWN_VALUES[pick % UNKNOWN_VALUES.len()]);
            }
            // A duplicate key.
            3 => {
                let dup = fields[pos % n].clone();
                fields.insert(pick % (n + 1), dup);
            }
            // A field's value replaced by a raw token.
            4 | 5 => {
                fields[pos % n].1 = Value::String(PLACEHOLDER.into());
                raw = Some(RAW_VALUES[pick % RAW_VALUES.len()]);
            }
            // A field removed.
            _ => {
                fields.remove(pos % n);
            }
        }
    }
    let text = if pos.is_multiple_of(3) {
        serde_json::to_string_pretty(&doc).unwrap()
    } else {
        serde_json::to_string(&doc).unwrap()
    };
    let text = match raw {
        Some(raw) => text.replace(&format!("\"{PLACEHOLDER}\""), raw),
        None => text,
    };
    text + suffix
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rendered_records_decode_directly(case in arb_traceroute(0..6)) {
        let (tr, public) = case;
        let text = to_atlas_json(&tr, public);
        let direct = agrees(&text);
        prop_assert!(direct.is_some(), "a rendered record must take the direct path: {text}");
        let finite = tr.hops.iter().flat_map(|h| &h.replies).all(|r| r.rtt_ms.is_none_or(f64::is_finite));
        if finite {
            prop_assert_eq!(direct.unwrap(), tr);
        }
    }

    #[test]
    fn adversarial_rewrites_never_disagree(
        case in arb_traceroute(1..4),
        kind in 0usize..9,
        level in 0usize..3,
        pick in 0usize..64,
        pos in 0usize..16,
    ) {
        let (tr, public) = case;
        let doc: Value = serde_json::from_str(&to_atlas_json(&tr, public)).unwrap();
        agrees(&rewrite(&doc, kind, level, pick, pos));
    }

    #[test]
    fn rendered_records_peek_their_probe(case in arb_traceroute(0..4)) {
        let (tr, public) = case;
        let text = to_atlas_json(&tr, public);
        prop_assert_eq!(peek_agrees(&text), Some(tr.probe));
    }

    #[test]
    fn prb_id_rewrites_never_mislead_the_peek(
        case in arb_traceroute(1..3),
        kind in 0usize..PRB_REWRITES,
        pick in 0usize..64,
        pos in 0usize..16,
    ) {
        let (tr, public) = case;
        let doc: Value = serde_json::from_str(&to_atlas_json(&tr, public)).unwrap();
        agrees(&prb_rewrite(&doc, kind, pick, pos));
    }

    #[test]
    fn every_truncation_is_declined(case in arb_traceroute(1..3)) {
        let (tr, public) = case;
        let text = to_atlas_json(&tr, public);
        for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            prop_assert!(agrees(&text[..end]).is_none(), "truncated at {end}: {}", &text[..end]);
        }
    }
}

/// How many kinds of [`prb_rewrite`] there are.
const PRB_REWRITES: usize = 5;

/// One rewrite aimed at the peek: the record's keys reordered, a second
/// `prb_id` (literal or escaped, with the same or another value), an
/// escaped `prb_id` instead of the literal one, or a nested unknown field
/// holding a `prb_id` of its own, each at any position.
fn prb_rewrite(doc: &Value, kind: usize, pick: usize, pos: usize) -> String {
    let mut doc = doc.clone();
    let fields = fields_at(&mut doc, Level::Record);
    let n = fields.len();
    let at = pos % (n + 1);
    let other: Value = serde_json::from_str(&pick.to_string()).unwrap();
    let mut escaped = None;
    match kind % PRB_REWRITES {
        0 => fields.rotate_left(pos % n),
        1 => {
            let value = if pick.is_multiple_of(2) {
                fields
                    .iter()
                    .find(|(k, _)| k == "prb_id")
                    .unwrap()
                    .1
                    .clone()
            } else {
                other
            };
            fields.insert(at, ("prb_id".into(), value));
        }
        2 => {
            fields.insert(at, ("@@prb@@".into(), other));
            escaped = Some(r#""prb\u005fid""#);
        }
        3 => {
            let i = fields.iter().position(|(k, _)| k == "prb_id").unwrap();
            fields[i].0 = "@@prb@@".into();
            escaped = Some(r#""prb\u005fid""#);
        }
        _ => {
            let nested = format!(r#"{{"prb_id":{pick},"inner":[{{"prb_id":{pick}}}]}}"#);
            let nested: Value = serde_json::from_str(&nested).unwrap();
            fields.insert(at, ("meta".into(), nested));
        }
    }
    let text = serde_json::to_string(&doc).unwrap();
    match escaped {
        Some(key) => text.replace("\"@@prb@@\"", key),
        None => text,
    }
}

fn sample() -> (Value, String) {
    let tr = TracerouteResult {
        probe: ProbeId(6042),
        msm_id: 5001,
        timestamp: UnixTime::from_secs(1_567_296_000),
        dst: "193.0.14.129".parse().unwrap(),
        src: "192.168.1.10".parse().unwrap(),
        hops: vec![
            Hop {
                hop: 1,
                replies: vec![Reply::answered("192.168.1.1".parse().unwrap(), 0.5); 3],
            },
            Hop {
                hop: 2,
                replies: vec![
                    Reply::answered("20.0.0.1".parse().unwrap(), 5.25),
                    Reply::timeout(),
                ],
            },
        ],
    };
    let text = to_atlas_json(&tr, "20.0.0.55".parse().unwrap());
    (serde_json::from_str(&text).unwrap(), text)
}

/// Every rewrite of the fixed sample, exhaustively: which ones the
/// decoder keeps matters as much as agreement — a decoder that declines
/// everything would pass the property vacuously.
#[test]
fn canonical_variants_stay_on_the_direct_path() {
    let (doc, text) = sample();
    let direct = |kind, level, pick, pos| agrees(&rewrite(&doc, kind, level, pick, pos));
    let base = agrees(&text).expect("canonical");
    for level in 0..3 {
        for pos in 0..16 {
            assert_eq!(
                direct(0, level, 0, pos).as_ref(),
                Some(&base),
                "rotated keys"
            );
            assert_eq!(
                direct(1, level, 0, pos).as_ref(),
                Some(&base),
                "reversed keys"
            );
            for pick in 0..UNKNOWN_VALUES.len() {
                assert_eq!(
                    direct(2, level, pick, pos).as_ref(),
                    Some(&base),
                    "unknown field"
                );
            }
            assert_eq!(direct(3, level, 0, pos), None, "duplicate key");
            for pick in 0..RAW_VALUES.len() {
                direct(4, level, pick, pos);
            }
        }
    }
    for (pick, reply) in REPLIES.iter().enumerate() {
        assert!(direct(7, 0, pick, 1).is_some(), "{reply}");
    }
    for (pick, suffix) in SUFFIXES.iter().enumerate() {
        let whitespace = suffix.trim().is_empty();
        assert_eq!(direct(8, 0, pick, 1).is_some(), whitespace, "{suffix:?}");
    }
}

/// Every `prb_id` rewrite of the fixed sample. Serde keeps the first of
/// duplicate keys, escaped or not; the peek answers with the first
/// literal top-level `prb_id` when no escaped key or string comes before
/// it, whatever the key order and whatever is nested before it.
#[test]
fn prb_id_variants_peek_only_when_unambiguous() {
    let (doc, text) = sample();
    assert_eq!(peek_agrees(&text), Some(ProbeId(6042)));
    for pos in 0..16 {
        // Reordered keys, the `result` array first included: found.
        let rotated = prb_rewrite(&doc, 0, 0, pos);
        assert_eq!(peek_agrees(&rotated), Some(ProbeId(6042)), "{rotated}");
        for pick in 0..2 {
            // A second literal `prb_id`: both read the first.
            let dup = prb_rewrite(&doc, 1, pick, pos);
            let first = serde_path(&dup).unwrap().probe;
            assert_eq!(peek_agrees(&dup), Some(first), "{dup}");
            // A second, escaped one: before the literal, the peek declines.
            let extra = prb_rewrite(&doc, 2, pick, pos);
            let before = extra.find("prb\\u005fid").unwrap() < extra.find("\"prb_id\"").unwrap();
            assert!(serde_path(&extra).is_ok(), "{extra}");
            assert_eq!(
                peek_agrees(&extra),
                (!before).then_some(ProbeId(6042)),
                "{extra}"
            );
        }
        // The only `prb_id` escaped: serde accepts it, the peek declines.
        let escaped = prb_rewrite(&doc, 3, 0, pos);
        assert_eq!(peek_agrees(&escaped), None, "{escaped}");
        assert_eq!(serde_path(&escaped).unwrap().probe, ProbeId(6042));
        // A nested object holding `prb_id` keys of its own, before or
        // after the top-level one: the top-level value stands.
        let nested = prb_rewrite(&doc, 4, 1, pos);
        assert_eq!(peek_agrees(&nested), Some(ProbeId(6042)), "{nested}");
    }
}

#[test]
fn numbers_and_escapes_decide_the_path() {
    let (_, text) = sample();
    let with = |from: &str, to: &str| {
        assert!(text.contains(from), "{from}");
        text.replacen(from, to, 1)
    };
    // Exponent and integer RTTs stay direct and keep serde's bits.
    for rtt in ["5", "1e2", "1E-2", "2.5e+1", "-0.0", "-1.5e-3", "1e400"] {
        let tr = agrees(&with("5.25", rtt)).unwrap_or_else(|| panic!("rtt {rtt}"));
        assert_eq!(
            tr.hops[1].replies[0].rtt_ms.map(f64::to_bits),
            Some(rtt.parse::<f64>().unwrap().to_bits())
        );
    }
    // Negative integers are left to serde: it reads `-0` as +0.0.
    assert!(agrees(&with("5.25", "-0")).is_none());
    let tr = serde_path(&with("5.25", "-0")).unwrap();
    assert_eq!(tr.hops[1].replies[0].rtt_ms.map(f64::to_bits), Some(0));
    // Escapes and leading zeros are serde's; both still accept them.
    for (from, to) in [
        ("\"ICMP\"", r#""IC\u004dP""#),
        ("\"traceroute\"", r#""trace\u0072oute""#),
        ("\"prb_id\"", r#""prb\u005fid""#),
        ("6042", "06042"),
    ] {
        let variant = with(from, to);
        assert_eq!(agrees(&variant), None, "{to}");
        assert!(serde_path(&variant).is_ok(), "{to}");
    }
    // Out-of-range and negative integers fail both ways.
    for (from, to) in [
        ("\"hop\":2", "\"hop\":256"),
        ("\"hop\":2", "\"hop\":-1"),
        ("6042", "4294967296"),
        ("\"af\":4", "\"af\":300"),
        ("\"af\":4", "\"af\":4.0"),
    ] {
        let variant = with(from, to);
        assert_eq!(agrees(&variant), None, "{to}");
        assert!(serde_path(&variant).is_err(), "{to}");
    }
    // A negative timestamp is valid but not canonical.
    let variant = with("1567296000", "-5");
    assert_eq!(agrees(&variant), None);
    assert_eq!(serde_path(&variant).unwrap().timestamp.as_secs(), -5);
}

#[test]
fn nesting_limit_matches_serde() {
    let (_, text) = sample();
    let nest = |levels: usize| {
        text.replacen(
            '{',
            &format!("{{\"deep\":{}{},", "[".repeat(levels), "]".repeat(levels)),
            1,
        )
    };
    // The record is level 1: 126 arrays reach 127 levels, the most both
    // paths accept.
    assert!(agrees(&nest(126)).is_some());
    assert!(serde_path(&nest(126)).is_ok());
    for levels in [127, 20_000] {
        assert!(agrees(&nest(levels)).is_none());
        let err = serde_path(&nest(levels)).unwrap_err();
        assert!(err.contains("recursion limit exceeded"), "{err}");
    }
}
