//! The direct Atlas traceroute decoder: one scan of a record's text
//! straight into a [`TracerouteResult`], with no intermediate document
//! tree and no allocation per key or string.
//!
//! The decoder accepts only the canonical shape the Atlas API (and
//! `fleet gen`) writes, and returns `None` for everything else: escapes
//! in strings, duplicate keys, a leading `-` on an integer, numbers
//! outside strict JSON grammar (leading zeros, a token running on into
//! `.`, `e` or a sign), nesting at the recursion limit, and every
//! malformed input. Callers then run the serde path
//! ([`super::AtlasTraceroute`]), which alone decides errors and their
//! messages.
//!
//! Inside that shape it checks everything the serde path checks: full
//! JSON syntax (unknown fields included) with nothing but whitespace
//! after the object, the type and integer range of every field,
//! `type == "traceroute"`, and IP-valued `dst_addr`/`src_addr`. So
//! whenever it returns a model, the serde path returns the same model.
//! RTTs go through `str::parse::<f64>` on the token text, exactly as the
//! serde parser does, so their bits match too. The differential test in
//! `tests/decode_differential.rs` holds the decoder to this.

use crate::probe::ProbeId;
use crate::traceroute::{Hop, Reply, TracerouteResult};
use lastmile_timebase::UnixTime;
use std::net::IpAddr;

/// Nesting depth at which the vendored serde parser fails a document
/// (upstream `serde_json`'s default recursion limit): a container that
/// would be the 128th level open is rejected, here and there alike.
const RECURSION_LIMIT: usize = 128;

/// Decode one Atlas traceroute document, or `None` when the record is
/// not in the canonical shape (see the module docs) — the caller then
/// falls back to the serde path.
pub fn decode_traceroute(text: &str) -> Option<TracerouteResult> {
    const FW: u16 = 1 << 0;
    const AF: u16 = 1 << 1;
    const DST: u16 = 1 << 2;
    const SRC: u16 = 1 << 3;
    const FROM: u16 = 1 << 4;
    const MSM: u16 = 1 << 5;
    const PRB: u16 = 1 << 6;
    const TS: u16 = 1 << 7;
    const PROTO: u16 = 1 << 8;
    const TYPE: u16 = 1 << 9;
    const RESULT: u16 = 1 << 10;
    const ALL: u16 = (1 << 11) - 1;

    let mut s = Scan::new(text);
    let mut seen = 0u16;
    let (mut msm_id, mut prb_id, mut timestamp) = (0u32, 0u32, 0i64);
    let (mut dst, mut src) = (None, None);
    let mut hops = Vec::new();
    s.ws();
    s.object(0, |s, key, depth| {
        let field = match key {
            "fw" => FW,
            "af" => AF,
            "dst_addr" => DST,
            "src_addr" => SRC,
            "from" => FROM,
            "msm_id" => MSM,
            "prb_id" => PRB,
            "timestamp" => TS,
            "proto" => PROTO,
            "type" => TYPE,
            "result" => RESULT,
            _ => return s.skip(depth),
        };
        if seen & field != 0 {
            return None;
        }
        seen |= field;
        match field {
            FW => {
                s.uint::<u32>()?;
            }
            AF => {
                s.uint::<u8>()?;
            }
            DST => dst = Some(s.string()?.parse::<IpAddr>().ok()?),
            SRC => src = Some(s.string()?.parse::<IpAddr>().ok()?),
            FROM | PROTO => {
                s.string()?;
            }
            MSM => msm_id = s.uint()?,
            PRB => prb_id = s.uint()?,
            TS => timestamp = s.uint()?,
            TYPE => {
                if s.string()? != "traceroute" {
                    return None;
                }
            }
            _ => hops = s.hops(depth)?,
        }
        Some(())
    })?;
    s.ws();
    if s.pos != s.bytes.len() || seen != ALL {
        return None;
    }
    Some(TracerouteResult {
        probe: ProbeId(prb_id),
        msm_id,
        timestamp: UnixTime::from_secs(timestamp),
        dst: dst?,
        src: src?,
        hops,
    })
}

/// The probe id of one Atlas traceroute document, read without decoding
/// the rest: the value of the first top-level `"prb_id"` key. Values of
/// the keys before it, nested ones included, are only checked for syntax
/// and skipped, so key order decides how much is read but not the
/// answer: a record that puts `prb_id` before `result` (as `fleet gen`
/// does) is read only up to its hundred-odd first bytes, one that puts
/// `result` first (as the Atlas API does) is scanned through the hops,
/// still without building anything.
///
/// Returns `None` for anything unusual before or at that key: an escape
/// in a string (a nested one included) or a key, a number outside strict
/// JSON grammar, a `prb_id` out of `u32` range or not followed by `,` or
/// `}`, nesting at the recursion limit, malformed syntax. Whenever it
/// returns `Some(p)` and the serde path accepts the whole record, the
/// decoded model's probe is `p`: only top-level keys name fields, serde
/// keeps the first of duplicate keys, and no escaped key (which could
/// decode to `prb_id`) comes before this one. It says nothing about
/// whether the rest of the record is valid.
pub fn peek_probe(text: &str) -> Option<ProbeId> {
    let mut s = Scan::new(text);
    s.ws();
    s.eat(b'{')?;
    loop {
        s.ws();
        let key = s.string()?;
        s.ws();
        s.eat(b':')?;
        s.ws();
        if key == "prb_id" {
            let probe = s.uint().map(ProbeId)?;
            s.ws();
            return matches!(s.peek(), Some(b',' | b'}')).then_some(probe);
        }
        // The record object is nesting level 1, as in `decode_traceroute`.
        s.skip(1)?;
        s.ws();
        s.eat(b',')?;
    }
}

/// A cursor over one record's text.
struct Scan<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The last reply address parsed and its value: the replies of one
    /// hop nearly always share an address, so each is parsed once.
    last_from: (&'a str, Option<IpAddr>),
}

impl<'a> Scan<'a> {
    fn new(text: &'a str) -> Scan<'a> {
        Scan {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            last_from: ("", None),
        }
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> Option<()> {
        (self.peek()? == byte).then(|| self.pos += 1)
    }

    /// `{ "key": value, ... }` at the cursor, calling `field` with the
    /// cursor on each value and the object's own nesting depth.
    fn object(
        &mut self,
        depth: usize,
        mut field: impl FnMut(&mut Scan<'a>, &'a str, usize) -> Option<()>,
    ) -> Option<()> {
        let depth = depth + 1;
        if depth >= RECURSION_LIMIT {
            return None;
        }
        self.eat(b'{')?;
        self.ws();
        if self.eat(b'}').is_some() {
            return Some(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            field(self, key, depth)?;
            self.ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }

    /// `[ value, ... ]` at the cursor, calling `element` with the cursor
    /// on each element and the array's own nesting depth.
    fn array(
        &mut self,
        depth: usize,
        mut element: impl FnMut(&mut Scan<'a>, usize) -> Option<()>,
    ) -> Option<()> {
        let depth = depth + 1;
        if depth >= RECURSION_LIMIT {
            return None;
        }
        self.eat(b'[')?;
        self.ws();
        if self.eat(b']').is_some() {
            return Some(());
        }
        loop {
            self.ws();
            element(self, depth)?;
            self.ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }

    /// A string without escapes or control characters, borrowed from
    /// the input.
    fn string(&mut self) -> Option<&'a str> {
        self.eat(b'"')?;
        let start = self.pos;
        let len = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        let end = start + len;
        if self.bytes[end] != b'"' {
            return None;
        }
        self.pos = end + 1;
        // Both ends sit next to an ASCII quote, so they are char
        // boundaries of the input.
        self.text.get(start..end)
    }

    /// A number token in strict JSON grammar, as `(text, is_integer)`.
    /// The serde scanner consumes any run of `[0-9.eE+-]`, so a token
    /// followed by one of those bytes is refused rather than split.
    fn number(&mut self) -> Option<(&'a str, bool)> {
        let digits = |s: &Self, mut i: usize| {
            while let Some(b'0'..=b'9') = s.bytes.get(i) {
                i += 1;
            }
            i
        };
        let start = self.pos;
        let mut i = start + usize::from(self.peek()? == b'-');
        i = match self.bytes.get(i)? {
            b'0' => i + 1,
            b'1'..=b'9' => digits(self, i + 1),
            _ => return None,
        };
        let mut integer = true;
        if self.bytes.get(i) == Some(&b'.') {
            integer = false;
            let end = digits(self, i + 1);
            if end == i + 1 {
                return None;
            }
            i = end;
        }
        if let Some(b'e' | b'E') = self.bytes.get(i) {
            integer = false;
            i += 1;
            if let Some(b'+' | b'-') = self.bytes.get(i) {
                i += 1;
            }
            let end = digits(self, i);
            if end == i {
                return None;
            }
            i = end;
        }
        if let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.bytes.get(i) {
            return None;
        }
        self.pos = i;
        Some((&self.text[start..i], integer))
    }

    /// A non-negative integer that fits `T`.
    fn uint<T: TryFrom<u64>>(&mut self) -> Option<T> {
        match self.number()? {
            (text, true) if !text.starts_with('-') => T::try_from(text.parse().ok()?).ok(),
            _ => None,
        }
    }

    /// An RTT. A negative integer token is refused: the serde path reads
    /// `-0` as the integer 0 (+0.0), where `str::parse` gives -0.0.
    fn rtt(&mut self) -> Option<f64> {
        match self.number()? {
            (text, integer) if !(integer && text.starts_with('-')) => text.parse().ok(),
            _ => None,
        }
    }

    fn literal(&mut self, word: &[u8]) -> Option<()> {
        self.bytes[self.pos..]
            .starts_with(word)
            .then(|| self.pos += word.len())
    }

    /// Validate and skip any value (an unknown field's).
    fn skip(&mut self, depth: usize) -> Option<()> {
        match self.peek()? {
            b'{' => self.object(depth, |s, _, depth| s.skip(depth)),
            b'[' => self.array(depth, |s, depth| s.skip(depth)),
            b'"' => self.string().map(|_| ()),
            b't' => self.literal(b"true"),
            b'f' => self.literal(b"false"),
            b'n' => self.literal(b"null"),
            _ => self.number().map(|_| ()),
        }
    }

    fn hops(&mut self, depth: usize) -> Option<Vec<Hop>> {
        let mut hops = Vec::new();
        self.array(depth, |s, depth| {
            hops.push(s.hop(depth)?);
            Some(())
        })?;
        Some(hops)
    }

    fn hop(&mut self, depth: usize) -> Option<Hop> {
        const HOP: u8 = 1;
        const RESULT: u8 = 2;
        let mut seen = 0u8;
        let mut hop = 0u8;
        let mut replies = Vec::new();
        self.object(depth, |s, key, depth| {
            let field = match key {
                "hop" => HOP,
                "result" => RESULT,
                _ => return s.skip(depth),
            };
            if seen & field != 0 {
                return None;
            }
            seen |= field;
            if field == HOP {
                hop = s.uint()?;
                Some(())
            } else {
                s.array(depth, |s, depth| {
                    replies.push(s.reply(depth)?);
                    Some(())
                })
            }
        })?;
        (seen == HOP | RESULT).then_some(Hop { hop, replies })
    }

    fn reply(&mut self, depth: usize) -> Option<Reply> {
        const FROM: u8 = 1 << 0;
        const RTT: u8 = 1 << 1;
        const X: u8 = 1 << 2;
        const SIZE: u8 = 1 << 3;
        const TTL: u8 = 1 << 4;
        let mut seen = 0u8;
        let mut from: Option<&'a str> = None;
        let mut rtt: Option<f64> = None;
        self.object(depth, |s, key, depth| {
            let field = match key {
                "from" => FROM,
                "rtt" => RTT,
                "x" => X,
                "size" => SIZE,
                "ttl" => TTL,
                _ => return s.skip(depth),
            };
            if seen & field != 0 {
                return None;
            }
            seen |= field;
            // Every reply field is optional: `null` reads as absent.
            if s.literal(b"null").is_some() {
                return Some(());
            }
            match field {
                FROM => from = Some(s.string()?),
                RTT => rtt = Some(s.rtt()?),
                X => {
                    s.string()?;
                }
                SIZE => {
                    s.uint::<u32>()?;
                }
                _ => {
                    s.uint::<u8>()?;
                }
            }
            Some(())
        })?;
        // An unparsable reply address reads as a timeout, as in
        // `AtlasTraceroute::to_model`.
        let addr = from.and_then(|f| {
            if f != self.last_from.0 {
                self.last_from = (f, f.parse().ok());
            }
            self.last_from.1
        });
        Some(match (addr, rtt) {
            (Some(a), Some(rtt)) => Reply::answered(a, rtt),
            _ => Reply::timeout(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_traceroute;

    const RECORD: &str = r#"{"fw":5080,"af":4,"dst_addr":"193.0.14.129","src_addr":"192.168.1.10","from":"20.0.0.55","msm_id":5001,"prb_id":6042,"timestamp":1567296000,"proto":"ICMP","type":"traceroute","result":[{"hop":1,"result":[{"from":"192.168.1.1","rtt":0.5,"size":28,"ttl":64},{"x":"*"}]},{"hop":2,"result":[{"from":"20.0.0.1","rtt":5.125,"size":28,"ttl":63}]}]}"#;

    #[test]
    fn decodes_the_canonical_shape_like_serde() {
        let tr = decode_traceroute(RECORD).expect("canonical record");
        assert_eq!(tr, parse_traceroute(RECORD).unwrap());
        assert_eq!(tr.probe, ProbeId(6042));
        assert_eq!(tr.hops.len(), 2);
        assert!(!tr.hops[0].replies[1].is_answered());
        assert_eq!(tr.hops[1].replies[0].rtt_ms, Some(5.125));
    }

    #[test]
    fn refuses_what_it_does_not_own() {
        let cases = [
            RECORD.replace("ICMP", r"IC\u004dP"),
            RECORD.replace(r#""fw":5080"#, r#""fw":5080,"fw":5080"#),
            RECORD.replace("6042", "-6042"),
            RECORD.replace("6042", "06042"),
            RECORD.replace("5001", "5001.0"),
            RECORD.replace("0.5", "-0"),
            RECORD.replace("traceroute", "ping"),
            RECORD.replace("193.0.14.129", "not-an-ip"),
            RECORD.replace(r#""hop":2"#, r#""hop":256"#),
            RECORD.replace(r#""af":4,"#, ""),
            format!("{RECORD} x"),
            RECORD[..RECORD.len() - 1].to_string(),
        ];
        for case in &cases {
            assert_eq!(decode_traceroute(case), None, "{case}");
        }
    }

    #[test]
    fn unknown_fields_are_validated_and_skipped() {
        let extra = RECORD.replacen(
            '{',
            r#"{"lts":22,"meta":{"a":[1,-2.5e3,true,null,"s"]},"#,
            1,
        );
        assert_eq!(decode_traceroute(&extra), decode_traceroute(RECORD));
        let bad = RECORD.replacen('{', r#"{"meta":[1,],"#, 1);
        assert_eq!(decode_traceroute(&bad), None);
    }

    #[test]
    fn peek_reads_the_first_top_level_prb_id() {
        assert_eq!(peek_probe(RECORD), Some(ProbeId(6042)));
        // Nothing after the value's comma is read.
        let head = &RECORD[..RECORD.find("6042").unwrap() + 5];
        assert_eq!(peek_probe(head), Some(ProbeId(6042)));
        let leading = RECORD.replacen('{', " {\"lts\":-2.5e3,\"ok\":true,\"n\":null,", 1);
        assert_eq!(peek_probe(&leading), Some(ProbeId(6042)));
        // After `prb_id` nothing is read: nested values are fine there.
        let trailing = RECORD.replace(r#""prb_id":6042,"#, r#""prb_id":6042,"meta":{"prb_id":1},"#);
        assert_eq!(peek_probe(&trailing), Some(ProbeId(6042)));
        // Before it, nested values are skipped: their keys name no field.
        for nested in [
            r#"{"meta":{"prb_id":1},"#,
            r#"{"meta":[],"#,
            r#"{"m":[{"a":[null]}],"#,
        ] {
            assert_eq!(
                peek_probe(&RECORD.replacen('{', nested, 1)),
                Some(ProbeId(6042)),
                "{nested}"
            );
        }
        let result_first = RECORD.replace(r#""prb_id":6042,"#, "").replacen(
            '{',
            r#"{"result":[{"hop":1,"result":[{"x":"*"}]}],"prb_id":6042,"#,
            1,
        );
        assert_eq!(peek_probe(&result_first), Some(ProbeId(6042)));
        let cases = [
            RECORD.replace(r#""prb_id""#, r#""prb\u005fid""#),
            RECORD.replace(r#""fw":5080,"#, r#""fw":5080,"p":"a\nb","#),
            RECORD.replacen('{', r#"{"meta":{"p":"a\"b"},"#, 1),
            RECORD.replacen('{', r#"{"meta":[1,],"#, 1),
            RECORD.replace("6042", "06042"),
            RECORD.replace("6042", "-6042"),
            RECORD.replace("6042", "6042.0"),
            RECORD.replace("6042", "1e3"),
            RECORD.replace("6042", "4294967296"),
            RECORD.replace("6042", r#""6042""#),
            RECORD.replace(r#""prb_id":6042,"#, ""),
            RECORD.replace("6042,", "6042 x,"),
            RECORD[..RECORD.find("6042").unwrap() + 2].to_string(),
            RECORD[..RECORD.find("6042").unwrap() + 4].to_string(),
            RECORD.replacen('{', "[", 1),
            RECORD.replace(r#""fw":5080"#, r#""fw" 5080"#),
            String::new(),
            "{}".to_string(),
        ];
        for case in &cases {
            assert_eq!(peek_probe(case), None, "{case}");
        }
    }

    #[test]
    fn nesting_stops_at_the_recursion_limit() {
        let nest = |levels: usize| {
            RECORD.replacen(
                '{',
                &format!(r#"{{"deep":{}{},"#, "[".repeat(levels), "]".repeat(levels)),
                1,
            )
        };
        // The record object is level 1, so `levels` arrays reach 1 + levels.
        assert!(decode_traceroute(&nest(RECURSION_LIMIT - 2)).is_some());
        assert!(decode_traceroute(&nest(RECURSION_LIMIT - 1)).is_none());
        assert_eq!(peek_probe(&nest(RECURSION_LIMIT - 2)), Some(ProbeId(6042)));
        assert_eq!(peek_probe(&nest(RECURSION_LIMIT - 1)), None);
        assert!(decode_traceroute(&nest(20_000)).is_none());
    }
}
