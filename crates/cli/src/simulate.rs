//! `lastmile simulate`: export a scenario's datasets to disk —
//! Atlas-format traceroutes (JSON Lines), probe metadata (JSON), and for
//! the Tokyo scenario the CDN access logs (TSV) — so external tools (or
//! the paper's original pipeline) can be pointed at the simulated data.

use crate::cache;
use crate::export;
use crate::Flags;
use lastmile_repro::cdnlog::{CdnGeneratorConfig, CdnLogGenerator};
use lastmile_repro::netsim::scenarios::{anchor, examples, tokyo};
use lastmile_repro::netsim::{ServiceClass, TracerouteEngine, World};
use lastmile_repro::obs::trace;
use lastmile_repro::store::CacheMode;
use lastmile_repro::timebase::{MeasurementPeriod, TimeRange};
use std::io::Write;

pub fn run(flags: &Flags) -> Result<(), String> {
    let scenario = flags.required("scenario")?;
    let out_dir = flags.required("out")?;
    let seed: u64 = flags.parsed("seed")?.unwrap_or(20190919);
    let days: i64 = flags.parsed("days")?.unwrap_or(8);
    if days <= 0 {
        return Err("--days must be positive".into());
    }
    // `--cache-dir` primes a series snapshot alongside the export, so a
    // later `classify --cache-dir` over the exported traceroutes starts
    // warm. Only `rw` (the default) writes; `ro`/`off` skip priming.
    //
    // The primed snapshot targets `--probes`/ASN-0 classification, which
    // ingests every traceroute of a probe — exactly what the builder
    // below sees. A `--bgp` classify instead drops traceroutes with no
    // routed public hop before ingest and mixes the table into its source
    // fingerprint, so it reports the primed snapshot as a source mismatch
    // and recomputes rather than serving series no cold `--bgp` run would
    // build.
    let cache_dir = flags.optional("cache-dir");
    let cache_mode: CacheMode = flags.parsed("cache")?.unwrap_or_default();
    if cache_dir.is_none() && flags.optional("cache").is_some() {
        return Err("--cache needs --cache-dir".into());
    }
    let prime = cache_dir.is_some() && cache_mode == CacheMode::ReadWrite;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;

    let (world, default_period, with_cdn): (World, MeasurementPeriod, bool) = match scenario {
        "tokyo" => (
            tokyo::tokyo_world(seed),
            MeasurementPeriod::tokyo_cdn_2019(),
            true,
        ),
        "fig1" => (
            examples::fig1_world(seed),
            MeasurementPeriod::september_2019(),
            false,
        ),
        "anchor" => (
            anchor::anchor_world(seed),
            MeasurementPeriod::september_2019(),
            false,
        ),
        other => return Err(format!("unknown scenario {other} (tokyo|fig1|anchor)")),
    };
    let window = TimeRange::new(
        default_period.start(),
        (default_period.start() + days * 86_400).min(default_period.end()),
    );

    // Probe metadata.
    let span = trace::span("export_probes");
    let probes: Vec<_> = world.probes().iter().map(|p| p.meta.clone()).collect();
    let probes_path = format!("{out_dir}/probes.json");
    let json = serde_json::to_string_pretty(&probes).expect("probes encode");
    std::fs::write(&probes_path, json).map_err(|e| format!("write {probes_path}: {e}"))?;
    eprintln!("[out] {probes_path} ({} probes)", probes.len());

    // The routing table, for metadata-free classification (--bgp).
    let table_path = format!("{out_dir}/bgp.csv");
    std::fs::write(&table_path, crate::bgp::table_to_csv(world.registry()))
        .map_err(|e| format!("write {table_path}: {e}"))?;
    eprintln!("[out] {table_path}");
    drop(span);

    // Traceroutes as JSON Lines, rendered on one worker per core and
    // written in probe order.
    let span = trace::span("export_traceroutes");
    let trs_path = format!("{out_dir}/traceroutes.jsonl");
    let engine = TracerouteEngine::new(&world);
    let probes: Vec<_> = world.probes().iter().collect();
    let count = export::write_jsonl(&trs_path, &probes, 0, |probe, emit| {
        engine.for_each_traceroute(probe, &window, emit)
    })?;
    eprintln!("[out] {trs_path} ({count} traceroutes)");
    drop(span);

    if let Some(dir) = cache_dir {
        if prime {
            let report = cache::prime_snapshot(&trs_path, dir, &window)?;
            eprintln!(
                "[cache] primed {} ({} series, {} bytes; classify with \
                 --probes (or no routing input) and --start {} --end {} to \
                 hit it — --bgp runs use a different source id and recompute)",
                report.snapshot.display(),
                report.series,
                report.bytes,
                window.start().as_secs(),
                window.end().as_secs()
            );
        } else {
            eprintln!(
                "[cache] --cache {cache_mode:?} given: simulate only primes in rw mode, skipping"
            );
        }
    }

    // IPv6 built-ins, when any AS offers an IPv6 service. Kept in a
    // separate file: the paper's delay analysis is per-family (v6 rides
    // IPoE with a different RTT baseline).
    if world.ases().iter().any(|a| a.v6_prefix.is_some()) {
        let _span = trace::span("export_traceroutes_v6");
        let v6_path = format!("{out_dir}/traceroutes_v6.jsonl");
        let v6_count = export::write_jsonl(&v6_path, &probes, 0, |probe, emit| {
            engine.for_each_traceroute_v6(probe, &window, emit)
        })?;
        eprintln!("[out] {v6_path} ({v6_count} traceroutes)");
    }

    // CDN logs for the Tokyo scenario.
    if with_cdn {
        let _span = trace::span("export_cdn");
        let cdn_path = format!("{out_dir}/cdn_access.tsv");
        let file =
            std::fs::File::create(&cdn_path).map_err(|e| format!("create {cdn_path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        let cdn = CdnLogGenerator::new(&world, CdnGeneratorConfig::default_tokyo(seed ^ 0xCD));
        let mut lines = 0usize;
        for asn in [tokyo::ISP_A_ASN, tokyo::ISP_B_ASN, tokyo::ISP_C_ASN] {
            for class in [
                ServiceClass::BroadbandV4,
                ServiceClass::BroadbandV6,
                ServiceClass::Mobile,
            ] {
                for rec in cdn.generate(asn, class, &window) {
                    writeln!(w, "{}", rec.to_tsv())
                        .map_err(|e| format!("write {cdn_path}: {e}"))?;
                    lines += 1;
                }
            }
        }
        w.flush().map_err(|e| format!("flush {cdn_path}: {e}"))?;
        eprintln!("[out] {cdn_path} ({lines} records)");
    }
    Ok(())
}
