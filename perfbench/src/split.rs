//! The serve-live corpus split: every record before the last day is the
//! daemon's base corpus, and the last day is held out and replayed
//! through `POST /v1/traceroutes` in timestamp order.

use std::io::Write;

/// The `"timestamp":N` field of one Atlas JSON line, read without a
/// full decode (the benchmark's own bookkeeping must stay cheap).
pub fn timestamp(line: &[u8]) -> Option<i64> {
    const KEY: &[u8] = b"\"timestamp\":";
    let at = line.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits: &[u8] = &line[at..];
    let digits = &digits[digits
        .iter()
        .take_while(|b| b.is_ascii_whitespace())
        .count()..];
    let len = digits.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&digits[..len]).ok()?.parse().ok()
}

/// The base lines and the live lines of a split corpus.
pub type Split<'a> = (Vec<&'a [u8]>, Vec<&'a [u8]>);

/// Split JSON Lines `corpus` at `cut`: lines stamped before it stay in
/// the base (original order); the rest become the live day, stably
/// sorted by timestamp. Blank lines are dropped; a line without a
/// timestamp is an error.
pub fn split_last_day(corpus: &[u8], cut: i64) -> Result<Split<'_>, String> {
    let mut base = Vec::new();
    let mut live: Vec<(i64, &[u8])> = Vec::new();
    for (n, line) in corpus.split(|&b| b == b'\n').enumerate() {
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let ts = timestamp(line).ok_or_else(|| format!("line {} has no timestamp", n + 1))?;
        if ts < cut {
            base.push(line);
        } else {
            live.push((ts, line));
        }
    }
    live.sort_by_key(|&(ts, _)| ts);
    Ok((base, live.into_iter().map(|(_, l)| l).collect()))
}

/// Write lines newline-terminated.
pub fn write_lines(path: &str, lines: &[&[u8]]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    for line in lines {
        w.write_all(line)
            .and_then(|_| w.write_all(b"\n"))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    w.flush().map_err(|e| format!("write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(probe: u32, ts: i64) -> String {
        format!("{{\"prb_id\":{probe},\"timestamp\":{ts},\"result\":[]}}")
    }

    /// A probe-major corpus like `fleet gen` writes: each probe's records
    /// in time order, probes one after another.
    fn corpus() -> String {
        let mut s = String::new();
        for probe in 1..=3u32 {
            for k in 0..10i64 {
                s.push_str(&line(probe, 1000 + k * 100 + i64::from(probe)));
                s.push('\n');
            }
        }
        s
    }

    #[test]
    fn reads_the_timestamp_field() {
        assert_eq!(timestamp(line(7, 1567296041).as_bytes()), Some(1567296041));
        assert_eq!(timestamp(b"{\"timestamp\": 12}"), Some(12));
        assert_eq!(timestamp(b"{\"prb_id\":1}"), None);
    }

    #[test]
    fn base_and_live_together_are_the_corpus_as_a_multiset() {
        let text = corpus();
        let (base, live) = split_last_day(text.as_bytes(), 1600).unwrap();
        let mut together: Vec<&[u8]> = base.iter().chain(live.iter()).copied().collect();
        let mut original: Vec<&[u8]> = text.as_bytes().split(|&b| b == b'\n').collect();
        original.retain(|l| !l.is_empty());
        together.sort();
        original.sort();
        assert_eq!(together, original);
        assert!(!base.is_empty() && !live.is_empty());
        assert!(base.iter().all(|l| timestamp(l).unwrap() < 1600));
        assert!(live.iter().all(|l| timestamp(l).unwrap() >= 1600));
    }

    #[test]
    fn live_lines_are_sorted_by_timestamp() {
        let text = corpus();
        let (_, live) = split_last_day(text.as_bytes(), 1600).unwrap();
        let stamps: Vec<i64> = live.iter().map(|l| timestamp(l).unwrap()).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
        // Probe-major input interleaves across probes once sorted.
        assert_ne!(timestamp(live[0]), timestamp(live[1]));
    }

    #[test]
    fn base_keeps_the_original_order() {
        let text = corpus();
        let (base, _) = split_last_day(text.as_bytes(), 1600).unwrap();
        let original: Vec<&[u8]> = text
            .as_bytes()
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty() && timestamp(l).unwrap() < 1600)
            .collect();
        assert_eq!(base, original);
    }

    #[test]
    fn a_line_without_timestamp_is_an_error() {
        assert!(split_last_day(b"{\"prb_id\":1}\n", 0).is_err());
    }
}
