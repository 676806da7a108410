//! `lastmile classify`: per-AS persistent-congestion classification from
//! Atlas-format traceroute data on disk.

use crate::bgp::load_table;
use crate::cache::{self, Cache};
use crate::input::{
    group_by_asn, ingest_options, ingest_traffic, load_probes, resolve_window, write_quarantine,
};
use crate::progress::Heartbeat;
use crate::stats::{emit_stats, wants_stats};
use crate::Flags;
use lastmile_repro::atlas::ProbeId;
use lastmile_repro::core::pipeline::{
    AsPipeline, PipelineConfig, PopulationAnalysis, PrebuiltSeries,
};
use lastmile_repro::ingest::ingest_file;
use lastmile_repro::obs::{trace, LiveProgress, RunMetrics, StageTimer};
use lastmile_repro::prefix::Asn;
use lastmile_repro::runner::{record_population_metrics, store_traffic_since};
use lastmile_repro::store::{CacheMode, Lookup, StoreKey};
use lastmile_repro::timebase::{TimeRange, UnixTime};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Shared plumbing for `classify` and `hygiene`: stream the file once
/// and return one [`PopulationAnalysis`] per ASN (ASN 0 = "all probes"
/// when no metadata is given). When `metrics` is given, pipeline
/// counters and stage timings are accumulated into it.
///
/// With `--cache-dir` the per-probe median series are served from /
/// memoized into a `lastmile-store` snapshot: a probe whose series the
/// cache already holds for the whole analysis window skips ingestion
/// entirely, and freshly built series are written back (`--cache rw`, the
/// default). The classification output is byte-identical either way. The
/// cache only serves when the window is known before the stream and
/// aligned to bin boundaries — pass explicit midnight-aligned
/// `--start`/`--end`. Without them the window is the data span, known
/// only at the end: no probe is served, and write-back still runs if
/// that span happens to be aligned. A `--cache rw` run marks the snapshot
/// source-quarantine-free iff its pass quarantined nothing, which lets
/// later warm runs skip decoding served records (see [`analyze_corpus`]).
///
/// Under per-traceroute ASN attribution (`--bgp` without `--probes`) a
/// probe can legitimately split across AS pipelines, but the store holds
/// ONE series per probe — so only probes whose routed traceroutes all
/// resolve to a single ASN are served or memoized (a pre-scan records
/// the attribution), and the snapshot's source fingerprint mixes in the
/// BGP table (the table decides which traceroutes are ingested), so
/// `--bgp` snapshots never cross with `--probes`/ASN-0 ones.
pub fn analyze_file(
    flags: &Flags,
    metrics: Option<&RunMetrics>,
) -> Result<Vec<(Asn, PopulationAnalysis)>, String> {
    analyze_file_with_cache(flags, metrics).map(|(results, _)| results)
}

/// [`analyze_file_with_cache`]'s success value: the per-ASN analyses
/// plus the active series cache (when `--cache-dir` was given).
pub type AnalysesAndCache = (Vec<(Asn, PopulationAnalysis)>, Option<Cache>);

/// [`analyze_file`], also handing back the active series cache (when
/// `--cache-dir` was given) so a long-lived caller — the `serve` daemon —
/// can re-persist the snapshot at shutdown. The snapshot has already
/// been persisted once by the time this returns.
pub fn analyze_file_with_cache(
    flags: &Flags,
    metrics: Option<&RunMetrics>,
) -> Result<AnalysesAndCache, String> {
    let paths = vec![flags.required("traceroutes")?.to_string()];
    let cache = cache::from_flags(flags, || corpus_fingerprint(flags, &paths), metrics)?;
    let analysis = analyze_corpus(flags, &paths, metrics, cache.as_ref())?;
    if let Some(c) = &cache {
        // The pass read the fingerprinted files, so it knows whether they
        // decode with zero quarantine.
        c.store
            .set_source_quarantine_free(analysis.quarantined == 0);
        c.persist(metrics)?;
    }
    Ok((analysis.populations, cache))
}

/// The source fingerprint for a (possibly multi-file) corpus: the files'
/// content fingerprints folded left-to-right, plus the BGP table under
/// per-traceroute attribution (the table decides which traceroutes are
/// ingested). One file gives exactly [`cache::file_fingerprint`] of it,
/// so single-file snapshots from older builds keep matching.
pub fn corpus_fingerprint(flags: &Flags, paths: &[String]) -> Result<u64, String> {
    let mut f = cache::file_fingerprint(&paths[0])?;
    for path in &paths[1..] {
        f = cache::combine_fingerprints(f, cache::file_fingerprint(path)?);
    }
    let per_traceroute_asn = flags.optional("probes").is_none();
    if let (true, Some(table_path)) = (per_traceroute_asn, flags.optional("bgp")) {
        f = cache::combine_fingerprints(f, cache::file_fingerprint(table_path)?);
    }
    Ok(f)
}

/// What [`analyze_corpus`] produced.
pub struct CorpusAnalysis {
    /// One analysis per ASN.
    pub populations: Vec<(Asn, PopulationAnalysis)>,
    /// Records the pass quarantined, across all files.
    pub quarantined: usize,
}

/// The core analysis over a corpus of one or more traceroute files
/// (streamed in order, as if concatenated), reading each record once.
/// `--start`/`--end` filter at ingest; a bound not given resolves to the
/// data span (`[data_min, data_max + 1)`) when the stream ends — a window
/// holding every record by construction, so nothing the provisional
/// filter let through falls outside it. Serves from / memoizes into
/// `cache` when one is given, but neither builds nor persists it — a
/// long-lived caller (the `serve` daemon's re-analysis engine) owns the
/// cache across many calls and persists once at shutdown.
///
/// A served probe's records are read and framed but not decoded when
/// the store says its source decodes with zero quarantine
/// ([`SeriesStore::source_quarantine_free`], from the snapshot flag), the
/// window is explicit, and routing does not need the record (not `--bgp`
/// without `--probes`). Before the stream the set of routable probes the
/// store covers for the window goes to the ingest, which counts their
/// records (`ingest.records_skipped_served`) instead of decoding them;
/// after it, each such probe seen is looked up once, as a decoded record
/// would have been, so the store counters do not change. Over exactly
/// the fingerprinted bytes no skipped record could have been
/// quarantined, so output and quarantine match a cold run. A caller that
/// reads bytes the fingerprint does not name must clear the store flag
/// first.
///
/// [`SeriesStore::source_quarantine_free`]: lastmile_repro::store::SeriesStore::source_quarantine_free
pub fn analyze_corpus(
    flags: &Flags,
    paths: &[String],
    metrics: Option<&RunMetrics>,
    cache: Option<&Cache>,
) -> Result<CorpusAnalysis, String> {
    let mut ingest_opts = ingest_options(flags)?;
    // `--progress` gauges are shared with the ingest workers; the
    // heartbeat thread lives for the whole analysis and is stopped and
    // joined when this function returns.
    let progress = flags
        .switch("progress")
        .then(|| Arc::new(LiveProgress::default()));
    let _heartbeat = progress.clone().map(Heartbeat::start);
    ingest_opts.progress = progress.clone();
    // One decode-latency sample per record decoded, so the histogram
    // count matches `ingest.records_decoded`.
    ingest_opts.record_latency = metrics.is_some();
    let probes = flags.optional("probes").map(load_probes).transpose()?;
    let bgp = flags.optional("bgp").map(load_table).transpose()?;
    let anchors_only = flags.switch("anchors-only");
    let per_traceroute_asn = probes.is_none() && bgp.is_some();
    let cache_engaged = cache.is_some_and(|c| c.mode != CacheMode::Off);

    let start = flags.parsed::<i64>("start")?;
    let end = flags.parsed::<i64>("end")?;
    // Both bounds given: the window is known before the stream, so
    // cached probes can be served mid-stream.
    let explicit_window = match (start, end) {
        (Some(_), Some(_)) => Some(resolve_window(start, end, None, None)?),
        _ => None,
    };
    // Pipelines drop what falls outside the given bounds; a missing bound
    // stays open until the data span resolves it.
    let filter = TimeRange::new(
        UnixTime::from_secs(start.unwrap_or(i64::MIN)),
        UnixTime::from_secs(end.unwrap_or(i64::MAX)),
    );

    // Pre-scan, only when the cache may engage under per-traceroute
    // attribution: record each probe's edge ASN before any probe can be
    // served. A probe whose routed traceroutes disagree (`None`) must
    // never be served from or inserted into the cache: its traceroutes
    // split across AS pipelines, and each pipeline's partial series
    // under one store key would poison the snapshot.
    let bgp_probe_asn: Option<BTreeMap<ProbeId, Option<Asn>>> = match &bgp {
        Some(table) if per_traceroute_asn && cache_engaged => {
            let mut attribution = BTreeMap::new();
            for path in paths {
                let mut scan = ingest_file(path, &ingest_opts, |tr| {
                    if let Some((_, &asn)) = tr.edge_address().and_then(|a| table.lookup(a)) {
                        attribution
                            .entry(tr.probe)
                            .and_modify(|e| {
                                if *e != Some(asn) {
                                    *e = None;
                                }
                            })
                            .or_insert(Some(asn));
                    }
                })?;
                // The pass below reports quarantine; the scan adds only
                // its reads and decodes.
                scan.quarantined.clear();
                if let Some(m) = metrics {
                    m.add_ingest_traffic(&ingest_traffic(&scan));
                    m.merge_decode_hist(&scan.decode_hist);
                }
            }
            Some(attribution)
        }
        _ => None,
    };

    // Probe → ASN routing.
    let probe_to_asn: Option<BTreeMap<ProbeId, Asn>> = probes.as_ref().map(|list| {
        group_by_asn(list, anchors_only)
            .into_iter()
            .flat_map(|(asn, ids)| ids.into_iter().map(move |id| (id, asn)))
            .collect()
    });

    let mut cfg = PipelineConfig::paper();
    if let Some(min_probes) = flags.parsed::<usize>("min-probes")? {
        cfg.min_probes = min_probes;
        cfg.min_probes_per_bin = min_probes.min(cfg.min_probes_per_bin);
    }

    // Whether a probe's series may be cached at all: always, except under
    // per-traceroute attribution, where only single-ASN probes qualify.
    let cacheable = |probe: ProbeId| match &bgp_probe_asn {
        Some(attribution) => matches!(attribution.get(&probe), Some(Some(_))),
        None => true,
    };
    let counters_before = cache.map(|c| c.store.counters());

    // The probes whose records need no decode (see the doc comment).
    if let (Some(c), Some(window), false) = (cache, &explicit_window, per_traceroute_asn) {
        if c.store.source_quarantine_free() {
            let covered: BTreeSet<ProbeId> = c
                .store
                .keys()
                .into_iter()
                .filter(|key| *key == StoreKey::for_pipeline(key.probe, &cfg))
                .filter(|key| {
                    probe_to_asn
                        .as_ref()
                        .is_none_or(|map| map.contains_key(&key.probe))
                })
                .filter(|key| c.store.covers(key, window))
                .map(|key| key.probe)
                .collect();
            ingest_opts.skip_probes = (!covered.is_empty()).then(|| Arc::new(covered));
        }
    }

    // The pass: route into per-AS pipelines. Probe metadata wins;
    // otherwise the BGP table maps the first public hop (the paper's ISP
    // edge) to its origin ASN; otherwise everything is one population
    // (ASN 0). A probe whose series the cache covers for the whole
    // window is "served": its traceroutes are skipped and the prebuilt
    // series is fed to its population after the stream.
    let mut data_min: Option<UnixTime> = None;
    let mut data_max: Option<UnixTime> = None;
    let mut pipelines: BTreeMap<Asn, AsPipeline> = BTreeMap::new();
    let mut served: BTreeMap<ProbeId, (Asn, PrebuiltSeries)> = BTreeMap::new();
    let mut unserved: BTreeSet<ProbeId> = BTreeSet::new();
    let mut parsed = 0u64;
    let mut skipped_served = 0u64;
    let mut skipped_probes: BTreeSet<ProbeId> = BTreeSet::new();
    let mut quarantined_all = Vec::new();
    let ingest_timer = StageTimer::start();
    for path in paths {
        let summary = ingest_file(path, &ingest_opts, |tr| {
            data_min = Some(data_min.map_or(tr.timestamp, |m| m.min(tr.timestamp)));
            data_max = Some(data_max.map_or(tr.timestamp, |m| m.max(tr.timestamp)));
            let asn = match (&probe_to_asn, &bgp) {
                (Some(map), _) => match map.get(&tr.probe) {
                    Some(&asn) => asn,
                    None => return, // unknown or filtered probe
                },
                (None, Some(table)) => match tr.edge_address().and_then(|a| table.lookup(a)) {
                    Some((_, &asn)) => asn,
                    None => return, // no public hop or unrouted edge
                },
                (None, None) => 0,
            };
            if let Some(c) = cache {
                // Ineligible (multi-ASN) probes take the cache-free path
                // untouched.
                if cacheable(tr.probe) && !unserved.contains(&tr.probe) {
                    match served.entry(tr.probe) {
                        Entry::Occupied(_) => return,
                        Entry::Vacant(slot) => {
                            let key = StoreKey::for_pipeline(tr.probe, &cfg);
                            let lookup = match &explicit_window {
                                Some(window) => c.store.lookup(&key, window),
                                None => c.store.bypass(),
                            };
                            match lookup {
                                Lookup::Hit(pre) => {
                                    slot.insert((asn, pre));
                                    return;
                                }
                                Lookup::Miss | Lookup::Bypass => {
                                    unserved.insert(tr.probe);
                                }
                            }
                        }
                    }
                }
            }
            pipelines
                .entry(asn)
                .or_insert_with(|| AsPipeline::new(cfg, filter))
                .ingest(&tr);
        })?;
        parsed += summary.parsed;
        skipped_served += summary.records_skipped_served;
        if let Some(m) = metrics {
            m.add_ingest_traffic(&ingest_traffic(&summary));
            m.merge_decode_hist(&summary.decode_hist);
        }
        skipped_probes.extend(summary.skipped_probes);
        quarantined_all.extend(summary.quarantined);
    }
    // Skipped records were counted, not decoded: look each of their
    // probes up once, as the first decoded record of a probe is.
    if let (Some(c), Some(window)) = (cache, &explicit_window) {
        for probe in skipped_probes {
            if let Entry::Vacant(slot) = served.entry(probe) {
                let asn = probe_to_asn
                    .as_ref()
                    .and_then(|map| map.get(&probe))
                    .copied()
                    .unwrap_or(0);
                match c.store.lookup(&StoreKey::for_pipeline(probe, &cfg), window) {
                    Lookup::Hit(pre) => {
                        slot.insert((asn, pre));
                    }
                    Lookup::Miss | Lookup::Bypass => {
                        return Err(format!(
                            "series cache stopped serving probe {probe} during the pass"
                        ))
                    }
                }
            }
        }
    }
    let served_note = if skipped_served > 0 {
        format!(", {skipped_served} served from cache")
    } else {
        String::new()
    };
    eprintln!(
        "[input] {parsed} traceroutes parsed, {} skipped{served_note}",
        quarantined_all.len()
    );
    if let Some(qpath) = flags.optional("quarantine") {
        write_quarantine(qpath, &quarantined_all)?;
        eprintln!(
            "[input] {} quarantined record(s) written to {qpath}",
            quarantined_all.len()
        );
    }
    let window = match explicit_window {
        Some(window) => window,
        None => resolve_window(start, end, data_min, data_max)?,
    };
    // Retaining built series costs memory; only pay when write-back can
    // accept them (rw mode, bin-aligned window).
    let retain =
        cache.is_some_and(|c| c.mode == CacheMode::ReadWrite && cfg.bin.is_aligned(&window));
    for (_, (asn, pre)) in served {
        pipelines
            .entry(asn)
            .or_insert_with(|| AsPipeline::new(cfg, filter))
            .ingest_series(pre);
    }
    for p in pipelines.values_mut() {
        p.set_period(window);
        p.retain_median_series(retain);
    }
    if let Some(m) = metrics {
        m.add_ingest_nanos(ingest_timer.elapsed_nanos());
    }

    // The population table keys on (ASN, period); a file run has no
    // named measurement period, so the analysis window stands in.
    let window_label = format!("{}..{}", window.start().as_secs(), window.end().as_secs());
    if let Some(p) = &progress {
        p.populations_total
            .store(pipelines.len() as u64, Ordering::Relaxed);
    }
    let results: Vec<(Asn, PopulationAnalysis)> = pipelines
        .into_iter()
        .map(|(asn, p)| {
            let span = trace::span_with("population", |a| {
                a.u64("asn", u64::from(asn))
                    .str("period", window_label.as_str());
            });
            let analysis = p.finish();
            if let Some(m) = metrics {
                // Streaming interleaves populations, so ingest time is
                // accounted once above; per-task wall = pipeline stages.
                let s = &analysis.stats;
                record_population_metrics(
                    m,
                    asn,
                    &window_label,
                    &analysis,
                    s.series_nanos + s.aggregate_nanos + s.detect_nanos,
                );
            }
            drop(span);
            if let Some(p) = &progress {
                p.populations_done.fetch_add(1, Ordering::Relaxed);
            }
            (asn, analysis)
        })
        .collect();

    if let Some(c) = cache {
        for (_, analysis) in &results {
            for built in &analysis.built_series {
                // A multi-ASN probe's series here is the partial view of
                // one pipeline; inserting it would claim full-window
                // coverage for a subset of the probe's traceroutes.
                if !cacheable(built.series.probe()) {
                    continue;
                }
                c.store.insert(
                    &StoreKey::for_pipeline(built.series.probe(), &cfg),
                    &window,
                    built,
                );
            }
        }
        if let (Some(m), Some(before)) = (metrics, counters_before) {
            m.add_store_traffic(&store_traffic_since(before, c.store.counters()));
        }
    }
    Ok(CorpusAnalysis {
        populations: results,
        quarantined: quarantined_all.len(),
    })
}

/// One ASN's classification document. Shared by `classify --json` and
/// the serve daemon's `/v1/classify` endpoints so their bytes cannot
/// drift apart.
pub fn classification_doc(asn: Asn, a: &PopulationAnalysis) -> serde_json::Value {
    let d = a.detection.as_ref();
    serde_json::json!({
        "asn": asn,
        "probes": a.probes_used(),
        "class": a.class().name(),
        "daily_amplitude_ms": d.map(|d| d.daily_amplitude_ms),
        "prominent_frequency_cph": d.and_then(|d| d.prominent_frequency()),
        "prominent_is_daily": d.map(|d| d.prominent_is_daily),
        "max_agg_delay_ms": a.aggregated.max(),
        "coverage": a.aggregated.coverage(),
    })
}

/// The exact bytes `classify --json` prints: a pretty array of
/// [`classification_doc`]s with a trailing newline.
pub fn classification_json(results: &[(Asn, PopulationAnalysis)]) -> String {
    let docs: Vec<serde_json::Value> = results
        .iter()
        .map(|(asn, a)| classification_doc(*asn, a))
        .collect();
    let mut s = serde_json::to_string_pretty(&docs).expect("json encodes");
    s.push('\n');
    s
}

pub fn run(flags: &Flags) -> Result<(), String> {
    let metrics = wants_stats(flags).then(RunMetrics::new);
    let run_timer = StageTimer::start();
    let results = analyze_file(flags, metrics.as_ref())?;
    if let Some(m) = &metrics {
        m.set_wall(&run_timer);
    }
    if results.is_empty() {
        return Err("no analysable traceroutes in the window".into());
    }
    if flags.switch("json") {
        print!("{}", classification_json(&results));
    } else {
        println!(
            "{:<10} {:>7} {:>8} {:>12} {:>12} {:>9}",
            "asn", "probes", "class", "daily amp", "max delay", "coverage"
        );
        for (asn, a) in &results {
            let amp = a
                .detection
                .as_ref()
                .map(|d| format!("{:.2} ms", d.daily_amplitude_ms))
                .unwrap_or_else(|| "-".into());
            println!(
                "{:<10} {:>7} {:>8} {:>12} {:>9.2} ms {:>9.2}",
                if *asn == 0 {
                    "all".to_string()
                } else {
                    format!("AS{asn}")
                },
                a.probes_used(),
                a.class().name(),
                amp,
                a.aggregated.max().unwrap_or(0.0),
                a.aggregated.coverage(),
            );
        }
    }
    if let Some(m) = &metrics {
        emit_stats(flags, m)?;
    }
    Ok(())
}
