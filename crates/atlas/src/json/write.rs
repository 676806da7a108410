//! The direct Atlas traceroute writer: one record appended straight to a
//! caller's buffer, with no intermediate document tree and no allocation
//! per key, number or address.
//!
//! Its bytes are the serde path's bytes — `serde_json::to_string` of
//! [`super::AtlasTraceroute::from_model`] — which stays the wire type and
//! the oracle `tests/write_differential.rs` holds this writer to: the same
//! key order and constants, `{"x":"*"}` for a reply without both an
//! address and an RTT, `{:?}` (shortest round-trip) for finite RTTs and
//! `null` for non-finite ones, and `Display` text for addresses.
//! Integers and IPv4 addresses are formatted by hand; a hop's replies
//! nearly always share an address, so its text is formatted once per run
//! of equal addresses.

use crate::traceroute::{Reply, TracerouteResult};
use std::fmt::Write as _;
use std::net::IpAddr;

/// Append one traceroute as a single-line Atlas JSON document (no
/// trailing newline). `public_addr` fills the Atlas `from` field.
pub fn write_traceroute(tr: &TracerouteResult, public_addr: IpAddr, out: &mut String) {
    out.push_str(r#"{"fw":5080,"af":"#);
    out.push(if tr.dst.is_ipv4() { '4' } else { '6' });
    out.push_str(r#","dst_addr":""#);
    AddrText::new(tr.dst).push_to(out);
    out.push_str(r#"","src_addr":""#);
    AddrText::new(tr.src).push_to(out);
    out.push_str(r#"","from":""#);
    AddrText::new(public_addr).push_to(out);
    out.push_str(r#"","msm_id":"#);
    push_u64(out, u64::from(tr.msm_id));
    out.push_str(r#","prb_id":"#);
    push_u64(out, u64::from(tr.probe.0));
    out.push_str(r#","timestamp":"#);
    let ts = tr.timestamp.as_secs();
    if ts < 0 {
        out.push('-');
    }
    push_u64(out, ts.unsigned_abs());
    out.push_str(r#","proto":"ICMP","type":"traceroute","result":["#);
    let mut from: (Option<IpAddr>, AddrText) = (None, AddrText::EMPTY);
    for (i, hop) in tr.hops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r#"{"hop":"#);
        push_u64(out, u64::from(hop.hop));
        out.push_str(r#","result":["#);
        for (j, reply) in hop.replies.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let Reply {
                from: Some(addr),
                rtt_ms: Some(rtt),
            } = *reply
            else {
                out.push_str(r#"{"x":"*"}"#);
                continue;
            };
            if from.0 != Some(addr) {
                from = (Some(addr), AddrText::new(addr));
            }
            out.push_str(r#"{"from":""#);
            from.1.push_to(out);
            out.push_str(r#"","rtt":"#);
            if rtt.is_finite() {
                write!(out, "{rtt:?}").expect("writing to a String cannot fail");
            } else {
                out.push_str("null");
            }
            out.push_str(r#","size":28,"ttl":"#);
            push_u64(out, u64::from(64 - hop.hop.min(63)));
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

/// Append `v` in decimal.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// An address's `Display` text, formatted into a stack buffer.
struct AddrText {
    /// Long enough for any IPv6 text
    /// (`ffff:ffff:ffff:ffff:ffff:ffff:255.255.255.255` is 45 bytes).
    buf: [u8; 48],
    len: usize,
}

impl AddrText {
    const EMPTY: AddrText = AddrText {
        buf: [0; 48],
        len: 0,
    };

    fn new(addr: IpAddr) -> AddrText {
        let mut text = AddrText::EMPTY;
        match addr {
            IpAddr::V4(v4) => {
                for (i, octet) in v4.octets().into_iter().enumerate() {
                    if i > 0 {
                        text.push(b'.');
                    }
                    if octet >= 100 {
                        text.push(b'0' + octet / 100);
                    }
                    if octet >= 10 {
                        text.push(b'0' + octet / 10 % 10);
                    }
                    text.push(b'0' + octet % 10);
                }
            }
            IpAddr::V6(v6) => write!(text, "{v6}").expect("IPv6 text fits the buffer"),
        }
        text
    }

    fn push(&mut self, byte: u8) {
        self.buf[self.len] = byte;
        self.len += 1;
    }

    fn push_to(&self, out: &mut String) {
        out.push_str(std::str::from_utf8(&self.buf[..self.len]).expect("address text is ASCII"));
    }
}

impl std::fmt::Write for AddrText {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        self.buf
            .get_mut(self.len..end)
            .ok_or(std::fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::AtlasTraceroute;
    use crate::probe::ProbeId;
    use crate::traceroute::Hop;
    use lastmile_timebase::UnixTime;

    fn oracle(tr: &TracerouteResult, public: IpAddr) -> String {
        serde_json::to_string(&AtlasTraceroute::from_model(tr, public)).unwrap()
    }

    fn written(tr: &TracerouteResult, public: IpAddr) -> String {
        let mut out = String::new();
        write_traceroute(tr, public, &mut out);
        out
    }

    #[test]
    fn matches_serde_on_a_typical_record() {
        let a = |s: &str| s.parse::<IpAddr>().unwrap();
        let tr = TracerouteResult {
            probe: ProbeId(6042),
            msm_id: 5001,
            timestamp: UnixTime::from_secs(1_567_296_000),
            dst: a("193.0.14.129"),
            src: a("192.168.1.10"),
            hops: vec![
                Hop {
                    hop: 1,
                    replies: vec![
                        Reply::answered(a("192.168.1.1"), 0.5),
                        Reply::timeout(),
                        Reply::answered(a("192.168.1.1"), 0.1 + 0.2),
                    ],
                },
                Hop {
                    hop: 2,
                    replies: vec![
                        Reply::answered(a("20.0.0.1"), 5.125),
                        Reply::answered(a("20.0.0.2"), f64::NAN),
                        Reply::answered(a("20.0.0.1"), -0.0),
                    ],
                },
            ],
        };
        let public = a("20.0.0.55");
        assert_eq!(written(&tr, public), oracle(&tr, public));
    }

    #[test]
    fn integers_and_addresses_cover_their_ranges() {
        for v in [
            0,
            7,
            10,
            99,
            100,
            255,
            65_535,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        for s in [
            "0.0.0.0",
            "1.2.3.4",
            "10.100.255.9",
            "255.255.255.255",
            "::",
            "::1",
            "::ffff:255.255.255.255",
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
        ] {
            let mut out = String::new();
            AddrText::new(s.parse().unwrap()).push_to(&mut out);
            assert_eq!(out, s);
        }
    }
}
