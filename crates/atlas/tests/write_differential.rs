//! Differential tests for the direct traceroute writer against the serde
//! path it replaced. The property, everywhere: `write_traceroute` appends
//! exactly the bytes of `serde_json::to_string(&AtlasTraceroute::
//! from_model(tr, addr))`, and reading them back returns the model with
//! every reply that lacks an address or a finite RTT turned into a
//! timeout, RTT bits included. Inputs mix IPv4 and IPv6, timeouts and
//! half-filled replies with answers, RTTs of any bit pattern (NaN, ±inf,
//! -0.0, subnormals, huge values), hop numbers on both sides of the TTL
//! clamp, empty hop and reply lists, negative timestamps and extreme ids.

use lastmile_atlas::json::{
    decode_traceroute, parse_traceroute, to_atlas_json, write_traceroute, AtlasTraceroute,
};
use lastmile_atlas::{Hop, ProbeId, Reply, TracerouteResult};
use lastmile_timebase::UnixTime;
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

fn oracle(tr: &TracerouteResult, public: IpAddr) -> String {
    serde_json::to_string(&AtlasTraceroute::from_model(tr, public)).unwrap()
}

/// What the wire keeps of a model: replies without both an address and
/// a finite RTT read back as timeouts.
fn wire_model(tr: &TracerouteResult) -> TracerouteResult {
    let mut tr = tr.clone();
    for reply in tr.hops.iter_mut().flat_map(|h| &mut h.replies) {
        if !(reply.from.is_some() && reply.rtt_ms.is_some_and(f64::is_finite)) {
            *reply = Reply::timeout();
        }
    }
    tr
}

/// RTT bit patterns: `PartialEq` on `f64` equates -0.0 and 0.0.
fn rtt_bits(tr: &TracerouteResult) -> Vec<Option<u64>> {
    tr.hops
        .iter()
        .flat_map(|h| h.replies.iter().map(|r| r.rtt_ms.map(f64::to_bits)))
        .collect()
}

/// Check both properties on one model and return the written text.
fn check(tr: &TracerouteResult, public: IpAddr) -> String {
    let mut text = String::new();
    write_traceroute(tr, public, &mut text);
    assert_eq!(text, oracle(tr, public), "writer differs from serde");
    let expected = wire_model(tr);
    let back = parse_traceroute(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(back, expected, "round trip differs on {text}");
    assert_eq!(
        rtt_bits(&back),
        rtt_bits(&expected),
        "RTT bits differ on {text}"
    );
    if tr.timestamp.as_secs() >= 0 {
        // Only the leading `-` of a negative timestamp sends a record to
        // the serde fallback; everything else the writer emits is canonical.
        assert_eq!(decode_traceroute(&text).as_ref(), Some(&back), "{text}");
    }
    text
}

/// RTTs at the edges of `{:?}` formatting and of JSON.
const EDGE_RTTS: [f64; 11] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    f64::MIN_POSITIVE,
    5e-324,
    1e-5,
    1e16,
    f64::MAX,
    -f64::MAX,
];

/// One of `values`, uniformly.
fn one_of<T: Copy + std::fmt::Debug + 'static>(values: &'static [T]) -> impl Strategy<Value = T> {
    (0..values.len()).prop_map(move |i| values[i])
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

fn arb_rtt() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => 0.0f64..400.0,
        1 => (0u32..2000).prop_map(f64::from),
        1 => one_of(&EDGE_RTTS),
        // Any bit pattern: negatives, subnormals, huge values, NaNs.
        1 => any::<u64>().prop_map(f64::from_bits),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        6 => (arb_ip(), arb_rtt()).prop_map(|(a, rtt)| Reply::answered(a, rtt)),
        2 => Just(Reply::timeout()),
        // Half-filled replies, which the wire can only carry as timeouts.
        1 => arb_ip().prop_map(|a| Reply { from: Some(a), rtt_ms: None }),
        1 => arb_rtt().prop_map(|rtt| Reply { from: None, rtt_ms: Some(rtt) }),
    ]
}

fn arb_hop() -> impl Strategy<Value = Hop> {
    let hop = prop_oneof![
        2 => 1u8..30,
        1 => one_of(&[0u8, 1, 62, 63, 64, 65, 254, 255]),
        1 => any::<u8>(),
    ];
    // A hop's replies usually share one address; `same` repeats the first.
    (hop, prop::collection::vec(arb_reply(), 0..4), any::<bool>()).prop_map(
        |(hop, mut replies, same)| {
            if same {
                let first = replies.iter().find_map(|r| r.from);
                for r in replies.iter_mut().filter(|r| r.from.is_some()) {
                    r.from = first;
                }
            }
            Hop { hop, replies }
        },
    )
}

fn arb_traceroute() -> impl Strategy<Value = (TracerouteResult, IpAddr)> {
    let id = || prop_oneof![3 => any::<u32>(), 1 => Just(u32::MAX), 1 => Just(0u32)];
    let ts = prop_oneof![
        3 => 0i64..4_000_000_000,
        1 => -4_000_000_000i64..0,
        1 => one_of(&[i64::MIN, -1, 0, i64::MAX]),
    ];
    (
        id(),
        id(),
        ts,
        arb_ip(),
        arb_ip(),
        prop::collection::vec(arb_hop(), 0..6),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn writer_matches_serde_byte_for_byte(case in arb_traceroute()) {
        let (tr, public) = case;
        check(&tr, public);
    }

    #[test]
    fn appends_after_existing_text(case in arb_traceroute(), prefix in prop::collection::vec(0usize..4, 0..8)) {
        let (tr, public) = case;
        let prefix: String = prefix.into_iter().map(|i| ['a', '{', '}', '\n'][i]).collect();
        let mut out = prefix.clone();
        write_traceroute(&tr, public, &mut out);
        prop_assert_eq!(out, prefix + &to_atlas_json(&tr, public));
    }
}

/// The edges the strategies reach only by chance, checked every run.
#[test]
fn fixed_edge_cases_match_serde() {
    let v4: IpAddr = "20.0.0.1".parse().unwrap();
    let v6: IpAddr = "2001:db8::1".parse().unwrap();
    let base = TracerouteResult {
        probe: ProbeId(u32::MAX),
        msm_id: u32::MAX,
        timestamp: UnixTime::from_secs(-1),
        dst: v6,
        src: "::".parse().unwrap(),
        hops: Vec::new(),
    };
    let text = check(&base, v4);
    assert!(
        text.contains(r#""af":6"#) && text.contains(r#""result":[]}"#),
        "{text}"
    );
    let mut tr = base.clone();
    tr.timestamp = UnixTime::from_secs(i64::MIN);
    tr.hops = [0u8, 1, 63, 64, 255]
        .into_iter()
        .map(|hop| Hop {
            hop,
            replies: EDGE_RTTS
                .iter()
                .chain(&[0.1 + 0.2])
                .map(|&rtt| Reply::answered(v4, rtt))
                .collect(),
        })
        .chain([Hop {
            hop: 7,
            replies: Vec::new(),
        }])
        .collect();
    let text = check(&tr, v6);
    assert!(
        text.contains(r#""rtt":null"#) && text.contains(r#""ttl":1}"#),
        "{text}"
    );
    assert!(text.contains(r#"{"hop":7,"result":[]}"#), "{text}");
}
