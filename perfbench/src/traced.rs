//! The traced run: the benchmark's own composition of the layers the
//! `lastmile` binary uses, in the binary's order, with one span around
//! every layer call. Spans are kept in memory and written at the end as
//! Chrome trace-event JSON (the format `--trace` files use).
//!
//! Order: netsim build → traceroutes → render (checked byte-for-byte
//! against the generated corpus) → read → frame → decode → route by
//! `probes.json` → `AsPipeline::ingest` → `finish`, with store load and
//! lookup before the stream when a primed snapshot is given (the warm
//! path: served probes are decoded but not ingested, as the binary does
//! today). Then the layer micro-calls: ingest over the file, intake
//! slices, request parse/write and an in-process server round trip.
//! Decode here runs on one thread; the binary overlaps it across cores.

use crate::client;
use crate::load;
use crate::stats::Tail;
use lastmile_atlas::framing::{DocSplitter, Frame};
use lastmile_atlas::json::{parse_traceroute, to_atlas_json};
use lastmile_atlas::{ProbeId, TracerouteResult};
use lastmile_core::aggregate::aggregate_median;
use lastmile_core::detect::detect;
use lastmile_core::pipeline::{AsPipeline, PipelineConfig, PopulationAnalysis};
use lastmile_ingest::{ingest_file, ingest_slice, IngestOptions};
use lastmile_live::{intake_body, Spool};
use lastmile_netsim::fleet::{build_fleet, ClassMix, FleetSpec};
use lastmile_netsim::TracerouteEngine;
use lastmile_obs::ServeMetrics;
use lastmile_serve::http::{parse_request, Response};
use lastmile_serve::{Handler, Server, ServerConfig};
use lastmile_store::{CacheMode, Lookup, SeriesStore, StoreConfig, StoreKey};
use lastmile_timebase::{TimeRange, UnixTime};
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Records decoded and ingested per span.
const BATCH: usize = 8192;
/// Repetitions of the sub-millisecond layer calls.
const MICRO_REPS: usize = 2000;
const SLICE_REPS: usize = 50;
const FLOOR_REQUESTS: usize = 300;

const DAY: i64 = 86_400;

/// One span: a layer call (or the root) with its parent.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// In-memory span recorder. Only the root has children, so the layer
/// calls never overlap and their sum is the accounted time.
struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: vec![Span {
                name: "traced",
                start: 0,
                end: 0,
                parent: None,
            }],
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Time one layer call as a child of the root.
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(0),
        });
        out
    }

    /// Total seconds of the spans called `name`.
    fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e9)
            .sum()
    }

    fn close(&mut self) {
        self.spans[0].end = self.now();
    }

    fn wall(&self) -> f64 {
        self.spans[0].end as f64 / 1e9
    }

    /// Share of the root not covered by a layer call.
    fn unaccounted_share(&self) -> f64 {
        let covered: u64 = self.spans[1..].iter().map(|s| s.end - s.start).sum();
        1.0 - covered as f64 / self.spans[0].end.max(1) as f64
    }

    fn chrome_json(&self, run_id: &str) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "ph": "X",
                    "ts": s.start as f64 / 1e3,
                    "dur": (s.end - s.start) as f64 / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": json!({
                        "id": run_id,
                        "parent": s.parent.map(|p| self.spans[p].name),
                    }),
                })
            })
            .collect();
        json!({"displayTimeUnit": "ms", "traceEvents": events}).to_string()
    }
}

/// Inputs of one traced run.
pub struct TracedPlan {
    pub workload: String,
    pub spec: Value,
    pub seed: u64,
    pub corpus: String,
    pub probes: String,
    pub window: (i64, i64),
    /// The CLI's `classify --json` output for the same inputs.
    pub cli_json: String,
    /// A primed snapshot to serve probes from (the warm path).
    pub snapshot: Option<String>,
    /// The run length, which sets the serve-live POST count and so the
    /// size of an intake body.
    pub seconds: f64,
    pub work_dir: String,
    pub trace_out: String,
}

fn fleet_spec(v: &Value) -> Result<FleetSpec, String> {
    let count = |k: &str| v["classes"].get(k).and_then(Value::as_u64).unwrap_or(0) as usize;
    let num = |v: &Value, what: &str| v.as_u64().ok_or(format!("spec {what}"));
    let spec = FleetSpec {
        name: v["name"].as_str().ok_or("spec name")?.to_string(),
        days: num(&v["days"], "days")? as u32,
        classes: ClassMix {
            severe: count("severe"),
            mild: count("mild"),
            low: count("low"),
            clean: count("clean"),
            transient: count("transient"),
            adversarial_weekly: count("adversarial_weekly"),
            adversarial_peering: count("adversarial_peering"),
            adversarial_route_shift: count("adversarial_route_shift"),
        },
        probes_min: num(&v["probes_per_as"]["min"], "probes_per_as.min")? as usize,
        probes_max: num(&v["probes_per_as"]["max"], "probes_per_as.max")? as usize,
    };
    let problems = spec.validate();
    if problems.is_empty() {
        Ok(spec)
    } else {
        Err(format!("invalid spec: {problems:?}"))
    }
}

/// Probe → ASN for non-anchor probes, as `classify --probes` routes.
fn probe_routes(path: &str) -> Result<BTreeMap<ProbeId, u64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let list: Vec<Value> = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(list
        .iter()
        .filter(|p| !p["is_anchor"].as_bool().unwrap_or(false))
        .filter_map(|p| Some((ProbeId(p["id"].as_u64()? as u32), p["asn"].as_u64()?)))
        .collect())
}

/// The fingerprint a snapshot header records (magic, version, then the
/// little-endian source fingerprint at bytes 8..16).
fn snapshot_fingerprint(path: &str) -> Result<u64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let raw: [u8; 8] = bytes
        .get(8..16)
        .and_then(|b| b.try_into().ok())
        .ok_or(format!("{path}: snapshot header truncated"))?;
    Ok(u64::from_le_bytes(raw))
}

/// Percentile `p` of `samples` under the reporting rule, scaled by
/// `unit`; an error when there are too few samples for it.
fn tail(samples: &[f64], p: f64, unit: f64, what: &str) -> Result<f64, String> {
    Tail::of(samples, p)
        .map(|t| t.value * unit)
        .ok_or_else(|| format!("too few samples for {what} p{p} ({})", samples.len()))
}

/// Per-ASN `(class, daily amplitude)` from `classify --json` bytes.
fn verdicts(doc: &Value) -> BTreeMap<u64, (Value, Value)> {
    doc.as_array()
        .into_iter()
        .flatten()
        .filter_map(|d| {
            Some((
                d["asn"].as_u64()?,
                (d["class"].clone(), d["daily_amplitude_ms"].clone()),
            ))
        })
        .collect()
}

pub fn run(plan: &TracedPlan) -> Result<Value, String> {
    let spec = fleet_spec(&plan.spec)?;
    let routes = probe_routes(&plan.probes)?;
    let window = TimeRange::new(
        UnixTime::from_secs(plan.window.0),
        UnixTime::from_secs(plan.window.1),
    );
    let cfg = PipelineConfig::paper();
    let mut sp = Spans::new();

    // Generation: build the world, simulate and render probe by probe,
    // and check the rendering against the corpus `fleet gen` wrote.
    let scenario = sp.call("netsim.build", || build_fleet(&spec, plan.seed));
    let corpus = sp
        .call("io.read", || std::fs::read(&plan.corpus))
        .map_err(|e| format!("read {}: {e}", plan.corpus))?;
    let engine = TracerouteEngine::new(&scenario.world);
    let mut at = 0usize;
    let mut rendered_equal = true;
    for probe in scenario.world.probes() {
        let trs = sp.call("netsim.traceroutes", || {
            let mut v: Vec<TracerouteResult> = Vec::new();
            engine.for_each_traceroute(probe, &scenario.window, |tr| v.push(tr));
            v
        });
        let text = sp.call("atlas.render", || {
            let mut s = String::new();
            for tr in &trs {
                s.push_str(&to_atlas_json(tr, probe.meta.public_addr));
                s.push('\n');
            }
            s
        });
        rendered_equal &= corpus.get(at..at + text.len()) == Some(text.as_bytes());
        at += text.len();
    }
    rendered_equal &= at == corpus.len();
    drop(scenario);

    // The warm path: load the primed snapshot and look every routed
    // probe up over the window before the stream.
    let mut served: BTreeSet<ProbeId> = BTreeSet::new();
    let mut prebuilt = Vec::new();
    let mut lookup_s: Vec<f64> = Vec::new();
    let mut snapshot_bytes = 0u64;
    let mut store: Option<SeriesStore> = None;
    if let Some(path) = &plan.snapshot {
        let fp = snapshot_fingerprint(path)?;
        let config = StoreConfig {
            mode: CacheMode::ReadOnly,
            ..StoreConfig::default()
        };
        let (s, bytes) = sp
            .call("store.load", || {
                SeriesStore::load_snapshot(Path::new(path), fp, config)
            })
            .map_err(|e| format!("load {path}: {e}"))?;
        snapshot_bytes = bytes;
        for &probe in routes.keys() {
            let t = Instant::now();
            let hit = sp.call("store.lookup", || {
                s.lookup(&StoreKey::for_pipeline(probe, &cfg), &window)
            });
            lookup_s.push(t.elapsed().as_secs_f64());
            if let Lookup::Hit(pre) = hit {
                served.insert(probe);
                prebuilt.push((routes[&probe], pre));
            }
        }
        store = Some(s);
    }

    // Classify: frame, then decode → route → ingest in batches.
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut junk = 0usize;
    sp.call("atlas.frame", || {
        DocSplitter::split_all(&corpus, &mut |f| match f {
            Frame::Doc { offset, bytes } => frames.push((offset as usize, bytes.len())),
            Frame::Junk { .. } => junk += 1,
        })
    });
    let mut decode_s: Vec<f64> = Vec::with_capacity(frames.len());
    let mut decode_failed = junk;
    let retain = store.is_none();
    let mut pipelines: BTreeMap<u64, AsPipeline> = BTreeMap::new();
    let new_pipeline = || {
        let mut p = AsPipeline::new(cfg, window);
        p.retain_median_series(retain);
        p
    };
    for batch in frames.chunks(BATCH) {
        let decoded = sp.call("atlas.decode", || {
            let mut out = Vec::with_capacity(batch.len());
            for &(off, len) in batch {
                let t = Instant::now();
                let r = std::str::from_utf8(&corpus[off..off + len])
                    .ok()
                    .and_then(|text| parse_traceroute(text).ok());
                decode_s.push(t.elapsed().as_secs_f64());
                match r {
                    Some(tr) => out.push(tr),
                    None => decode_failed += 1,
                }
            }
            out
        });
        let routed = sp.call("cli.route", || {
            decoded
                .into_iter()
                .filter_map(|tr| {
                    let asn = *routes.get(&tr.probe)?;
                    (!served.contains(&tr.probe)).then_some((asn, tr))
                })
                .collect::<Vec<_>>()
        });
        sp.call("core.ingest", || {
            for (asn, tr) in &routed {
                pipelines
                    .entry(*asn)
                    .or_insert_with(new_pipeline)
                    .ingest(tr);
            }
        });
    }
    sp.call("core.ingest", || {
        for (asn, pre) in prebuilt {
            pipelines
                .entry(asn)
                .or_insert_with(new_pipeline)
                .ingest_series(pre);
        }
    });
    let mut analyses: Vec<(u64, PopulationAnalysis)> = Vec::new();
    for (asn, p) in pipelines {
        let a = sp.call("core.finish", || p.finish());
        let agg = sp.call("core.aggregate", || {
            aggregate_median(&a.probe_series, &window, cfg.bin, cfg.min_probes_per_bin)
        });
        sp.call("core.detect", || {
            agg.contiguous_with_stats()
                .map(|(signal, _)| detect(&signal, cfg.bin))
        });
        analyses.push((asn, a));
    }

    // Store round trip: the warm run saves what it loaded (what `fleet
    // gen --cache-dir` writes); other runs insert the series they built,
    // save, load back and look up.
    let work_snapshot = Path::new(&plan.work_dir).join("traced.lmss");
    let store = match store {
        Some(s) => s,
        None => {
            let s = SeriesStore::default();
            sp.call("store.insert", || {
                for (_, a) in &analyses {
                    for built in &a.built_series {
                        s.insert(
                            &StoreKey::for_pipeline(built.series.probe(), &cfg),
                            &window,
                            built,
                        );
                    }
                }
            });
            s
        }
    };
    sp.call("store.save", || store.save_snapshot(&work_snapshot, 1))
        .map_err(|e| format!("save snapshot: {e}"))?;
    let mut hits = served.len();
    if plan.snapshot.is_none() {
        let (loaded, bytes) = sp
            .call("store.load", || {
                SeriesStore::load_snapshot(&work_snapshot, 1, StoreConfig::default())
            })
            .map_err(|e| format!("load back: {e}"))?;
        snapshot_bytes = bytes;
        for &probe in routes.keys() {
            let t = Instant::now();
            let hit = sp.call("store.lookup", || {
                loaded.lookup(&StoreKey::for_pipeline(probe, &cfg), &window)
            });
            lookup_s.push(t.elapsed().as_secs_f64());
            hits += usize::from(matches!(hit, Lookup::Hit(_)));
        }
    }

    // Layer micro-calls.
    let summary = sp
        .call("ingest.file", || {
            let mut n = 0u64;
            ingest_file(&plan.corpus, &IngestOptions::default(), |_| n += 1).map(|s| (s, n))
        })?
        .0;
    // An intake body the size of a serve-live POST: one day's records
    // spread over the POSTs.
    let days = ((plan.window.1 - plan.window.0) / DAY).max(1) as usize;
    let intake_records = (frames.len() / days / load::post_count(plan.seconds)).max(1);
    let body_end = frames
        .get(intake_records.min(frames.len()).saturating_sub(1))
        .map(|&(off, len)| off + len)
        .unwrap_or(0);
    let body = &corpus[..body_end];
    let mut slice_s = Vec::new();
    for _ in 0..SLICE_REPS {
        let t = Instant::now();
        sp.call("ingest.slice", || ingest_slice(body, |_, _, _| {}));
        slice_s.push(t.elapsed().as_secs_f64());
    }
    let spool = Spool::open(Path::new(&plan.work_dir).join("traced.spool"))
        .map_err(|e| format!("open spool: {e}"))?;
    let mut intake_s = Vec::new();
    for _ in 0..SLICE_REPS {
        let t = Instant::now();
        sp.call("live.intake_body", || intake_body(body, &spool))
            .map_err(|e| format!("intake: {e}"))?;
        intake_s.push(t.elapsed().as_secs_f64());
    }
    let head = b"GET /v1/classify/1000 HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    let t = Instant::now();
    sp.call("serve.parse", || {
        for _ in 0..MICRO_REPS {
            black_box(parse_request(&mut black_box(&head[..])).is_ok());
        }
    });
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / MICRO_REPS as f64;
    let response = Response::json(200, plan.cli_json.clone());
    let t = Instant::now();
    sp.call("serve.write", || {
        let mut buf = Vec::new();
        for _ in 0..MICRO_REPS {
            buf.clear();
            black_box(black_box(&response).write_to(&mut buf).is_ok());
            black_box(&buf);
        }
    });
    let write_us = t.elapsed().as_secs_f64() * 1e6 / MICRO_REPS as f64;
    let floor = sp.call("serve.floor", floor_round_trips)?;
    sp.close();

    std::fs::write(
        &plan.trace_out,
        sp.chrome_json(&format!("{}-{}", plan.workload, plan.seed)),
    )
    .map_err(|e| format!("write {}: {e}", plan.trace_out))?;

    let ours: Vec<(u64, String)> = analyses
        .iter()
        .map(|(asn, a)| {
            let d = a.detection.as_ref();
            (
                *asn,
                json!({"c": a.class().name(), "a": d.map(|d| d.daily_amplitude_ms)}).to_string(),
            )
        })
        .collect();
    let cli: Value = serde_json::from_str(&plan.cli_json).map_err(|e| format!("cli json: {e}"))?;
    let theirs: Vec<(u64, String)> = verdicts(&cli)
        .into_iter()
        .map(|(asn, (c, a))| (asn, json!({"c": c, "a": a}).to_string()))
        .collect();

    let decode_total = sp.seconds("atlas.decode");
    let frame_s = sp.seconds("atlas.frame");
    let lookups = lookup_s.len();
    Ok(json!({
        "checks": json!({
            "rendered_equals_corpus": rendered_equal,
            "verdicts_equal_cli": ours == theirs,
            "decode_failed": decode_failed,
        }),
        // The sample count behind each percentile below.
        "samples": json!({
            "atlas.decode_us": decode_s.len(),
            "store.lookup_us": lookups,
            "ingest.slice_us": slice_s.len(),
            "live.intake_body_us": intake_s.len(),
            "serve.parse_us": MICRO_REPS,
            "serve.write_us": MICRO_REPS,
            "serve.floor_ms": FLOOR_REQUESTS,
        }),
        "metrics": json!({
            "netsim.build_s": sp.seconds("netsim.build"),
            "netsim.traceroutes_s": sp.seconds("netsim.traceroutes"),
            "atlas.render_s": sp.seconds("atlas.render"),
            "atlas.frame_s": frame_s,
            "atlas.frame_mb_per_s": corpus.len() as f64 / 1e6 / frame_s,
            "atlas.decode_s": decode_total,
            "atlas.decode_us_p50": tail(&decode_s, 50.0, 1e6, "atlas.decode_us")?,
            "atlas.decode_us_p99": tail(&decode_s, 99.0, 1e6, "atlas.decode_us")?,
            "atlas.records": decode_s.len(),
            "ingest.wall_s": summary.wall_nanos as f64 / 1e9,
            "ingest.records_per_s": summary.parsed as f64 / (summary.wall_nanos as f64 / 1e9),
            "ingest.queue_max_depth": summary.queue_max_depth,
            "ingest.slice_us_p50": tail(&slice_s, 50.0, 1e6, "ingest.slice_us")?,
            "core.ingest_s": sp.seconds("core.ingest"),
            "core.finish_s": sp.seconds("core.finish"),
            "core.aggregate_s": sp.seconds("core.aggregate"),
            "core.detect_s": sp.seconds("core.detect"),
            "store.load_s": sp.seconds("store.load"),
            "store.snapshot_bytes": snapshot_bytes,
            "store.lookup_us_p50": tail(&lookup_s, 50.0, 1e6, "store.lookup_us")?,
            "store.lookups": lookups,
            "store.hit_ratio": if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
            "store.save_s": sp.seconds("store.save"),
            "serve.parse_us": parse_us,
            "serve.write_us": write_us,
            "serve.floor_p50_ms": floor,
            "live.intake_body_us_p50": tail(&intake_s, 50.0, 1e6, "live.intake_body_us")?,
            "traced.wall_s": sp.wall(),
            "traced.unaccounted_share": sp.unaccounted_share(),
        }),
    }))
}

/// Median round trip through an in-process server with a trivial
/// handler, using the benchmark's client — the floor under every read.
fn floor_round_trips() -> Result<f64, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Arc::new(ServeMetrics::new()))
        .map_err(|e| format!("bind floor server: {e}"))?;
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let handler: Arc<Handler> = Arc::new(|_req| Response::json(200, "{}\n"));
    let flag = Arc::clone(&stop);
    let thread = std::thread::spawn(move || server.run(handler, &flag));
    let mut rtt = Vec::with_capacity(FLOOR_REQUESTS);
    let mut failure = None;
    for _ in 0..FLOOR_REQUESTS {
        let t = Instant::now();
        match client::request(addr, "GET", "/floor", b"") {
            Ok(a) if a.status == 200 => rtt.push(t.elapsed().as_secs_f64() * 1e3),
            Ok(a) => failure = Some(format!("floor server answered {}", a.status)),
            Err(e) => failure = Some(format!("floor request: {e}")),
        }
    }
    stop.store(true, Ordering::Relaxed);
    thread
        .join()
        .map_err(|_| "floor server panicked".to_string())?
        .map_err(|e| format!("floor server: {e}"))?;
    match failure {
        Some(e) => Err(e),
        None => tail(&rtt, 50.0, 1.0, "serve.floor_ms"),
    }
}
