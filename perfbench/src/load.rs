//! Open-loop load for the serve-live workload, from one process.
//!
//! Reads and intake POSTs follow fixed schedules. Each request is timed
//! from when it was *due*, so a stall on the client or the daemon is
//! charged to every request it delays, and the generator reports how
//! late it sent each request. The POST thread also polls `/metrics` for
//! freshness: a POST is fresh once the published epoch covers the
//! `records_ingested` value read just after the POST was acknowledged.
//!
//! The rates are fixed. Reads follow the read part of the fanout mix
//! `scripts/bench_serve.sh` drives (`classify=4,classify_asn=2,series=2`),
//! so the repository keeps one traffic model. 150 reads/s is under a fifth
//! of the 800 reads/s that `BENCH_serve.json` records as flat; it and the
//! 12 POSTs/s are set by the sample floors of the reporting rule (at least
//! 1,000 reads for a p99 and 100 POSTs for a p90 in [`MIN_SECONDS`]). The
//! held-out day replays in the load time, so a 9 s run plays back 86,400 s
//! of records about 9,600 times faster than real time.

use crate::client::{self, Answer};
use crate::stats::Tail;
use lastmile_loadgen::{scrape_shed_counters, Endpoint, Mix};
use serde_json::json;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Reads per second.
pub const READ_RATE: f64 = 150.0;
/// Intake POSTs per second.
pub const POST_RATE: f64 = 12.0;
/// The read mix, in `lastmile loadgen --mix` syntax.
pub const READ_MIX: &str = "classify=4,classify_asn=2,series=2";
/// Shortest load: keeps at least 1,000 reads and 100 POSTs per run.
pub const MIN_SECONDS: f64 = 9.0;
/// How often the POST thread polls `/metrics` for freshness.
const POLL_SECONDS: f64 = 0.025;
/// How long the last POSTs may take to be covered by an epoch.
const SETTLE_SECONDS: f64 = 90.0;

/// Load time for a requested run length.
pub fn load_seconds(seconds: f64) -> f64 {
    seconds.max(MIN_SECONDS)
}

/// Intake POSTs in a load of `seconds`.
pub fn post_count(seconds: f64) -> usize {
    (POST_RATE * load_seconds(seconds)).round() as usize
}

/// Time source of the open-loop generator, in seconds since the run began.
pub trait Clock {
    fn now(&mut self) -> f64;
    /// Return once `t` has passed (at once when it already has).
    fn wait_until(&mut self, t: f64);
}

/// When one scheduled request was due, sent and finished.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
}

impl Timing {
    /// Latency as a user sees it: from the due time to completion.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent the request.
    pub fn lag(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Run `op` once per due time, in order, never before its due time.
/// A slow `op` delays the ones after it; their latency counts the wait.
pub fn run_open_loop<C: Clock, T>(
    clock: &mut C,
    dues: &[f64],
    mut op: impl FnMut(&mut C, usize) -> T,
) -> Vec<(Timing, T)> {
    let mut out = Vec::with_capacity(dues.len());
    for (i, &due) in dues.iter().enumerate() {
        clock.wait_until(due);
        let sent = clock.now();
        let result = op(clock, i);
        let done = clock.now();
        out.push((Timing { due, sent, done }, result));
    }
    out
}

/// Evenly spaced due times: `count` requests over `seconds`.
pub fn schedule(count: usize, seconds: f64) -> Vec<f64> {
    (0..count)
        .map(|i| i as f64 * seconds / count as f64)
        .collect()
}

/// Outcome tally in `loadgen`'s terms: every attempt is exactly one of
/// ok (200), shed (503) or error (anything else, including transport
/// failures and rejected intake records).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
}

impl Tally {
    fn record(&mut self, result: &std::io::Result<Answer>) -> bool {
        self.attempted += 1;
        match result {
            Ok(a) if a.status == 200 => {
                self.ok += 1;
                true
            }
            Ok(a) if a.status == 503 => {
                self.shed += 1;
                false
            }
            _ => {
                self.errors += 1;
                false
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.shed += other.shed;
        self.errors += other.errors;
    }

    pub fn balanced(&self) -> bool {
        self.attempted == self.ok + self.shed + self.errors
    }
}

/// Wall clock starting at construction.
struct WallClock {
    start: Instant,
}

impl Clock for WallClock {
    fn now(&mut self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn wait_until(&mut self, t: f64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_secs_f64(t - now));
        }
    }
}

/// The daemon's live coverage: `records_ingested - ingest_lag`, and
/// `records_ingested` itself.
fn live_coverage(metrics: &serde_json::Value) -> Option<(u64, u64)> {
    let live = metrics.get("live")?;
    let ingested = live.get("records_ingested")?.as_u64()?;
    let lag = live.get("ingest_lag")?.as_u64()?;
    Some((ingested.saturating_sub(lag), ingested))
}

/// The POST thread's clock: while waiting for the next POST it first
/// reads the target of every just-acknowledged POST, then polls
/// `/metrics` for coverage every `poll` seconds.
struct FreshnessClock {
    wall: WallClock,
    addr: SocketAddr,
    poll: f64,
    /// Due times of acknowledged POSTs whose target is not read yet.
    acked: Vec<f64>,
    /// `(due, target)` of POSTs not yet covered by an epoch.
    pending: Vec<(f64, u64)>,
    freshness: Vec<f64>,
    tally: Tally,
}

impl FreshnessClock {
    fn new(addr: SocketAddr, poll: f64, start: Instant) -> FreshnessClock {
        FreshnessClock {
            wall: WallClock { start },
            addr,
            poll,
            acked: Vec::new(),
            pending: Vec::new(),
            freshness: Vec::new(),
            tally: Tally::default(),
        }
    }

    fn scrape(&mut self) -> Option<(u64, u64)> {
        let result = client::request(self.addr, "GET", "/metrics", b"");
        if !self.tally.record(&result) {
            return None;
        }
        let body = result.ok()?.body;
        let doc: serde_json::Value = serde_json::from_str(std::str::from_utf8(&body).ok()?).ok()?;
        live_coverage(&doc)
    }

    fn read_targets(&mut self) {
        // A failed scrape is already tallied as an error.
        for due in std::mem::take(&mut self.acked) {
            if let Some((covered, ingested)) = self.scrape() {
                self.pending.push((due, ingested));
                self.observe(covered);
            }
        }
    }

    fn observe(&mut self, covered: u64) {
        let now = self.wall.now();
        let freshness = &mut self.freshness;
        self.pending.retain(|&(due, target)| {
            let fresh = covered >= target;
            if fresh {
                freshness.push(now - due);
            }
            !fresh
        });
    }

    fn poll_once(&mut self) {
        if let Some((covered, _)) = self.scrape() {
            self.observe(covered);
        }
    }
}

impl Clock for FreshnessClock {
    fn now(&mut self) -> f64 {
        self.wall.now()
    }

    fn wait_until(&mut self, t: f64) {
        self.read_targets();
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            if self.pending.is_empty() {
                self.wall.wait_until(t);
                return;
            }
            self.poll_once();
            let next = (self.now() + self.poll).min(t);
            self.wall.wait_until(next);
        }
    }
}

/// Load parameters.
pub struct LoadPlan {
    pub addr: SocketAddr,
    /// Requested run length; the load lasts [`load_seconds`] of it.
    pub seconds: f64,
    pub asns: Vec<u64>,
    /// Held-out records in timestamp order, one per line.
    pub live_lines: Vec<Vec<u8>>,
}

/// The paths of `count` reads: [`READ_MIX`] in `loadgen`'s smooth
/// weighted round-robin order, each per-ASN endpoint cycling through
/// `asns`.
pub fn read_paths(count: usize, asns: &[u64]) -> Vec<String> {
    let mut mix = Mix::parse(READ_MIX).expect("READ_MIX parses");
    let (mut by_asn, mut series) = (0usize, 0usize);
    let next = |i: &mut usize| {
        let asn = asns[*i % asns.len()];
        *i += 1;
        asn
    };
    (0..count)
        .map(|_| match mix.pick() {
            Endpoint::ClassifyAsn => format!("/v1/classify/{}", next(&mut by_asn)),
            Endpoint::Series => format!("/v1/series/{}", next(&mut series)),
            _ => "/v1/classify".to_string(),
        })
        .collect()
}

/// The POST bodies: the live lines cut into `posts` consecutive batches.
pub fn post_bodies(lines: &[Vec<u8>], posts: usize) -> Vec<(Vec<u8>, u64)> {
    let per = lines.len().div_ceil(posts.max(1)).max(1);
    lines
        .chunks(per)
        .map(|chunk| (chunk.join(&b'\n'), chunk.len() as u64))
        .collect()
}

/// Every 503 the daemon says it has sent so far.
fn server_shed(addr: SocketAddr) -> Result<u64, String> {
    scrape_shed_counters(addr, client::TIMEOUT)
        .map(|c| c.total())
        .ok_or_else(|| "no shed counters in /metrics".to_string())
}

fn ms(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| v * 1e3).collect()
}

fn tail_json(values: &[f64], p: f64) -> serde_json::Value {
    match Tail::of(values, p) {
        Some(t) => json!({"value": t.value, "count": t.count}),
        None => json!({"value": serde_json::Value::Null, "count": values.len()}),
    }
}

/// Drive the daemon and return the report document. Reads and POSTs run
/// on two threads at once, so the host needs at least two cores: with
/// fewer, the client would compete with the daemon it measures.
pub fn run(plan: &LoadPlan) -> Result<serde_json::Value, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        return Err(format!(
            "serve-live needs at least 2 cores, this host has {cores}"
        ));
    }
    let seconds = load_seconds(plan.seconds);
    let shed_before = server_shed(plan.addr)?;
    let read_dues = schedule((READ_RATE * seconds).round() as usize, seconds);
    let paths = read_paths(read_dues.len(), &plan.asns);
    let bodies = post_bodies(&plan.live_lines, post_count(seconds));
    let post_dues = schedule(bodies.len(), seconds);

    let reads = |clock: &mut WallClock, tally: &mut Tally| {
        run_open_loop(clock, &read_dues, |_, i| {
            let result = client::request(plan.addr, "GET", &paths[i], b"");
            let ok = tally.record(&result);
            result.ok().filter(|_| ok).map(|a| (a.connect, a.ttfb))
        })
    };
    let posts = |clock: &mut FreshnessClock| {
        let out = run_open_loop(clock, &post_dues, |clock, i| {
            let (body, records) = &bodies[i];
            let result = client::request(plan.addr, "POST", "/v1/traceroutes", body);
            let mut ok = clock.tally.record(&result);
            if let Ok(a) = &result {
                // Every record of the batch must be accepted.
                let accepted = std::str::from_utf8(&a.body)
                    .ok()
                    .and_then(|t| serde_json::from_str::<serde_json::Value>(t).ok())
                    .and_then(|d| d.get("accepted").and_then(|v| v.as_u64()));
                if ok && accepted != Some(*records) {
                    clock.tally.ok -= 1;
                    clock.tally.errors += 1;
                    ok = false;
                }
            }
            if ok {
                let due = post_dues[i];
                clock.acked.push(due);
            }
            ok
        });
        // Settle: keep polling until every acknowledged POST is covered.
        let deadline = clock.now() + SETTLE_SECONDS;
        clock.read_targets();
        while !clock.pending.is_empty() && clock.now() < deadline {
            clock.poll_once();
            let next = clock.now() + POLL_SECONDS;
            clock.wall.wait_until(next);
        }
        out
    };

    let start = Instant::now();
    let mut read_tally = Tally::default();
    let mut fresh = FreshnessClock::new(plan.addr, POLL_SECONDS, start);
    let (read_out, post_out) = std::thread::scope(|s| {
        let reader = s.spawn(|| reads(&mut WallClock { start }, &mut read_tally));
        let p = posts(&mut fresh);
        (reader.join().expect("read thread panicked"), p)
    });
    let mut tally = read_tally;
    tally.merge(fresh.tally);

    tally.attempted += 2; // the two shed scrapes bracketing the run
    tally.ok += 2;
    let server_shed = server_shed(plan.addr)? - shed_before;

    let read_lat: Vec<f64> = read_out.iter().map(|(t, _)| t.latency()).collect();
    let connect: Vec<f64> = read_out
        .iter()
        .filter_map(|(_, r)| r.map(|(c, _)| c.as_secs_f64()))
        .collect();
    let ttfb: Vec<f64> = read_out
        .iter()
        .filter_map(|(_, r)| r.map(|(_, f)| f.as_secs_f64()))
        .collect();
    let intake_lat: Vec<f64> = post_out.iter().map(|(t, _)| t.latency()).collect();
    let lag: Vec<f64> = read_out
        .iter()
        .map(|(t, _)| t.lag())
        .chain(post_out.iter().map(|(t, _)| t.lag()))
        .collect();
    Ok(json!({
        "seconds": seconds,
        "posts": bodies.len(),
        "reads": json!({
            "latency_ms_p50": tail_json(&ms(&read_lat), 50.0),
            "latency_ms_p99": tail_json(&ms(&read_lat), 99.0),
            "connect_ms_p50": tail_json(&ms(&connect), 50.0),
            "ttfb_ms_p50": tail_json(&ms(&ttfb), 50.0),
            "ttfb_ms_p99": tail_json(&ms(&ttfb), 99.0),
        }),
        "intake": json!({
            "latency_ms_p50": tail_json(&ms(&intake_lat), 50.0),
            "latency_ms_p90": tail_json(&ms(&intake_lat), 90.0),
        }),
        "freshness": json!({
            "s_p50": tail_json(&fresh.freshness, 50.0),
            "s_p90": tail_json(&fresh.freshness, 90.0),
            "uncovered": fresh.pending.len(),
        }),
        "lag_ms_p99": tail_json(&ms(&lag), 99.0),
        "tally": json!({
            "attempted": tally.attempted,
            "ok": tally.ok,
            "shed": tally.shed,
            "errors": tally.errors,
            "balanced": tally.balanced(),
        }),
        "server_shed": server_shed,
        "shed_reconciled": server_shed == tally.shed,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to: waiting jumps to the due
    /// time, and each operation advances it by its cost.
    struct FakeClock {
        t: f64,
    }

    impl Clock for FakeClock {
        fn now(&mut self) -> f64 {
            self.t
        }
        fn wait_until(&mut self, t: f64) {
            self.t = self.t.max(t);
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        let dues = schedule(6, 0.06); // every 10 ms
        let mut clock = FakeClock { t: 0.0 };
        // Request 2 stalls for 45 ms; the rest take 1 ms.
        let out = run_open_loop(&mut clock, &dues, |c, i| {
            c.t += if i == 2 { 0.045 } else { 0.001 };
        });
        let lat: Vec<f64> = out.iter().map(|(t, _)| t.latency()).collect();
        let lag: Vec<f64> = out.iter().map(|(t, _)| t.lag()).collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // Before the stall: on time.
        assert!(close(lat[0], 0.001) && close(lag[0], 0.0));
        assert!(close(lat[2], 0.045));
        // Request 3 was due at 30 ms but could only go at 65 ms.
        assert!(close(out[3].0.sent, 0.065));
        assert!(close(lag[3], 0.035));
        assert!(close(lat[3], 0.036));
        // The backlog drains one request at a time.
        assert!(close(lat[4], 0.027));
        assert!(close(lat[5], 0.018));
        // Timing from the send instead would hide the stall entirely.
        let from_send: Vec<f64> = out.iter().map(|(t, _)| t.done - t.sent).collect();
        assert!(close(from_send[3], 0.001));
    }

    #[test]
    fn on_schedule_requests_have_no_lag() {
        let dues = schedule(4, 1.0);
        assert_eq!(dues, vec![0.0, 0.25, 0.5, 0.75]);
        let mut clock = FakeClock { t: 0.0 };
        let out = run_open_loop(&mut clock, &dues, |c, _| c.t += 0.01);
        assert!(out.iter().all(|(t, _)| t.lag() == 0.0));
        assert!(out.iter().all(|(t, _)| (t.latency() - 0.01).abs() < 1e-12));
    }

    #[test]
    fn read_mix_follows_the_fanout_weights() {
        let paths = read_paths(16, &[7, 8]);
        let count = |f: &dyn Fn(&String) -> bool| paths.iter().filter(|p| f(p)).count();
        assert_eq!(count(&|p| p == "/v1/classify"), 8);
        assert_eq!(count(&|p| p.starts_with("/v1/classify/")), 4);
        assert_eq!(count(&|p| p.starts_with("/v1/series/")), 4);
        // Each per-ASN endpoint visits every ASN in turn.
        assert_eq!(count(&|p| p == "/v1/classify/7"), 2);
        assert_eq!(count(&|p| p == "/v1/series/8"), 2);
        // Interleaved, never a run of the heavy endpoint.
        assert!(paths
            .windows(3)
            .all(|w| w.iter().any(|p| p != "/v1/classify")));
    }

    #[test]
    fn post_count_keeps_the_sample_floor() {
        assert_eq!(post_count(1.0), 108);
        assert_eq!(post_count(10.0), 120);
        assert!((READ_RATE * load_seconds(1.0)) as usize >= 1000);
    }

    #[test]
    fn post_bodies_keep_every_line_in_order() {
        let lines: Vec<Vec<u8>> = (0..7).map(|i| format!("r{i}").into_bytes()).collect();
        let bodies = post_bodies(&lines, 3);
        assert_eq!(bodies.len(), 3);
        assert_eq!(bodies.iter().map(|(_, n)| n).sum::<u64>(), 7);
        let joined: Vec<u8> = bodies
            .iter()
            .map(|(b, _)| b.clone())
            .collect::<Vec<_>>()
            .join(&b'\n');
        assert_eq!(joined, lines.join(&b'\n'));
    }

    #[test]
    fn a_transport_error_balances_as_an_error() {
        let mut t = Tally::default();
        t.record(&Err(std::io::Error::other("refused")));
        assert!(t.balanced() && t.errors == 1);
    }

    #[test]
    fn coverage_is_ingested_minus_lag() {
        let doc: serde_json::Value =
            serde_json::from_str(r#"{"live": {"records_ingested": 10, "ingest_lag": 4}}"#).unwrap();
        assert_eq!(live_coverage(&doc), Some((6, 10)));
    }
}
