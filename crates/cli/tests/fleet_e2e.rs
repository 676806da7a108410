//! End-to-end tests of the `lastmile fleet` subcommand: spec linting,
//! byte-exact determinism of generated corpora, snapshot priming for
//! zero-re-ingest warm classification, and the truth-joined scorer with
//! its CI gates.

use std::path::{Path, PathBuf};
use std::process::Command;

fn lastmile_bin() -> PathBuf {
    // target/debug/lastmile next to the test binary's directory.
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop(); // deps/
    path.pop(); // debug/
    path.push(format!("lastmile{}", std::env::consts::EXE_SUFFIX));
    path
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(lastmile_bin())
        .args(args)
        .output()
        .expect("spawn lastmile");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// A fresh scratch dir per test (parallel tests must not collide).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lastmile-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small spec covering a persistent, a clean, and an adversarial AS.
fn write_spec(dir: &Path) -> PathBuf {
    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        r#"{
            "name": "e2e",
            "days": 5,
            "classes": {"severe": 1, "clean": 1, "adversarial_peering": 1},
            "probes_per_as": {"min": 3, "max": 4}
        }"#,
    )
    .unwrap();
    spec
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `--start`/`--end` instants recorded in a truth sidecar.
fn truth_window(truth_path: &Path) -> (i64, i64) {
    let truth: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(truth_path).unwrap()).unwrap();
    (
        truth["window"]["start"].as_i64().unwrap(),
        truth["window"]["end"].as_i64().unwrap(),
    )
}

#[test]
fn lint_validates_fleet_specs() {
    let dir = scratch("lint");
    let spec = write_spec(&dir);
    let (_, err, ok) = run(&["lint", "--fleet", spec.to_str().unwrap()]);
    assert!(ok, "lint rejected a valid spec: {err}");
    assert!(err.contains("fleet spec ok (3 ASes, 5 days)"), "{err}");

    // A broken spec fails with *every* problem listed, not just the first.
    let bad = dir.join("bad.json");
    std::fs::write(
        &bad,
        r#"{"name": "bad", "days": 2, "classes": {"severe": 1}, "surprise": true}"#,
    )
    .unwrap();
    let (_, err, ok) = run(&["lint", "--fleet", bad.to_str().unwrap()]);
    assert!(!ok, "lint accepted an invalid spec");
    assert!(err.contains("unknown key \"surprise\""), "{err}");
    assert!(err.contains("Welch"), "{err}");
}

#[test]
fn fleet_corpus_is_byte_identical_across_threads_and_runs() {
    let dir = scratch("determinism");
    let spec = write_spec(&dir);
    let spec_s = spec.to_str().unwrap();
    for (out, threads) in [("a", "1"), ("b", "1"), ("c", "3")] {
        let out_dir = dir.join(out);
        let (_, err, ok) = run(&[
            "fleet",
            "gen",
            "--spec",
            spec_s,
            "--out",
            out_dir.to_str().unwrap(),
            "--seed",
            "11",
            "--threads",
            threads,
        ]);
        assert!(ok, "fleet gen --threads {threads} failed: {err}");
    }
    for artifact in ["traceroutes.jsonl", "probes.json", "bgp.csv", "truth.json"] {
        let a = std::fs::read(dir.join("a").join(artifact)).unwrap();
        let b = std::fs::read(dir.join("b").join(artifact)).unwrap();
        let c = std::fs::read(dir.join("c").join(artifact)).unwrap();
        assert!(a == b, "{artifact} differs between identical runs");
        assert!(
            a == c,
            "{artifact} differs between --threads 1 and --threads 3"
        );
        assert!(!a.is_empty(), "{artifact} is empty");
    }

    // The corpus bytes themselves are pinned: a renderer change that
    // moves any byte of the wire format fails here, whatever it agrees with.
    let corpus = std::fs::read(dir.join("a/traceroutes.jsonl")).unwrap();
    assert_eq!(corpus.len(), 59_702_696, "corpus size moved");
    assert_eq!(
        fnv1a(&corpus),
        0x2f26_2ab8_8307_9510,
        "corpus digest moved (seed 11)"
    );

    // A different seed moves the corpus (the knob is live).
    let other = dir.join("other");
    let (_, err, ok) = run(&[
        "fleet",
        "gen",
        "--spec",
        spec_s,
        "--out",
        other.to_str().unwrap(),
        "--seed",
        "12",
    ]);
    assert!(ok, "fleet gen failed: {err}");
    let a = std::fs::read(dir.join("a/traceroutes.jsonl")).unwrap();
    let d = std::fs::read(other.join("traceroutes.jsonl")).unwrap();
    assert!(a != d, "different seeds must move the corpus");
}

#[test]
fn fleet_gen_primes_cache_for_zero_reingest_warm_classify() {
    let dir = scratch("warm");
    let spec = write_spec(&dir);
    let world = dir.join("world");
    let cache = dir.join("cache");
    let (_, err, ok) = run(&[
        "fleet",
        "gen",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        world.to_str().unwrap(),
        "--seed",
        "5",
        "--cache-dir",
        cache.to_str().unwrap(),
    ]);
    assert!(ok, "fleet gen failed: {err}");
    assert!(err.contains("[cache] primed"), "{err}");
    assert!(cache.join("series.lmss").exists());

    let (start, end) = truth_window(&world.join("truth.json"));
    let trs = world.join("traceroutes.jsonl");
    let probes_path = world.join("probes.json");
    let probes: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&probes_path).unwrap()).unwrap();
    let probe_count = probes.as_array().unwrap().len();

    let classify = |extra: &[&str]| -> (String, String, bool) {
        let mut args = vec![
            "classify",
            "--traceroutes",
            trs.to_str().unwrap(),
            "--probes",
            probes_path.to_str().unwrap(),
            "--json",
        ];
        let (start_s, end_s) = (start.to_string(), end.to_string());
        args.extend(["--start", &start_s, "--end", &end_s]);
        args.extend(extra);
        run(&args)
    };

    // Cold baseline: no cache flags at all.
    let (cold, err, ok) = classify(&[]);
    assert!(ok, "cold classify failed: {err}");

    // Warm run against the primed snapshot, read-only: every series is a
    // hit, nothing is re-ingested, nothing is re-inserted — and the
    // verdicts are byte-identical to the cold run.
    let stats = dir.join("stats.json");
    let (warm, err, ok) = classify(&[
        "--cache-dir",
        cache.to_str().unwrap(),
        "--cache",
        "ro",
        "--stats-out",
        stats.to_str().unwrap(),
    ]);
    assert!(ok, "warm classify failed: {err}");
    assert_eq!(cold, warm, "warm verdicts must match cold verdicts");
    let stats: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    assert_eq!(
        stats["store"]["hits"].as_u64().unwrap(),
        probe_count as u64,
        "every probe series must come from the snapshot: {stats}"
    );
    assert_eq!(stats["store"]["misses"].as_u64(), Some(0), "{stats}");
    assert_eq!(stats["store"]["inserts"].as_u64(), Some(0), "{stats}");
    assert_eq!(
        stats["traceroutes_ingested"].as_u64(),
        Some(0),
        "a warm fleet survey must re-ingest nothing: {stats}"
    );
    // The primed snapshot marks its source quarantine-free, so served
    // probes' records are read and framed once but never decoded.
    let corpus = std::fs::read_to_string(&trs).unwrap();
    assert_eq!(
        stats["ingest"]["records_decoded"].as_u64(),
        Some(0),
        "a fully served corpus decodes nothing: {stats}"
    );
    assert_eq!(
        stats["ingest"]["records_skipped_served"].as_u64(),
        Some(corpus.lines().count() as u64),
        "every record is counted as served: {stats}"
    );
    assert!(
        err.contains("0 traceroutes parsed, 0 skipped, ") && err.contains(" served from cache"),
        "{err}"
    );
    assert_eq!(
        stats["ingest"]["bytes_read"].as_u64(),
        Some(corpus.len() as u64),
        "the corpus is read exactly once: {stats}"
    );
}

#[test]
fn fleet_score_joins_truth_and_enforces_gates() {
    let dir = scratch("score");
    let spec = write_spec(&dir);
    let world = dir.join("world");
    let (_, err, ok) = run(&[
        "fleet",
        "gen",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        world.to_str().unwrap(),
        "--seed",
        "9",
    ]);
    assert!(ok, "fleet gen failed: {err}");
    let (start, end) = truth_window(&world.join("truth.json"));

    let (classified, err, ok) = run(&[
        "classify",
        "--traceroutes",
        world.join("traceroutes.jsonl").to_str().unwrap(),
        "--probes",
        world.join("probes.json").to_str().unwrap(),
        "--start",
        &start.to_string(),
        "--end",
        &end.to_string(),
        "--json",
    ]);
    assert!(ok, "classify failed: {err}");
    let classified_path = dir.join("classified.json");
    std::fs::write(&classified_path, &classified).unwrap();

    // Gates that must hold by construction: the severe AS is found
    // (recall 1.0) and the peering AS — congested *beyond* the edge — is
    // never a false positive.
    let truth_s = world.join("truth.json");
    let (stdout, err, ok) = run(&[
        "fleet",
        "score",
        "--truth",
        truth_s.to_str().unwrap(),
        "--classified",
        classified_path.to_str().unwrap(),
        "--min-recall",
        "0.99",
        "--max-peering-fp",
        "0",
    ]);
    assert!(ok, "score gates failed: {err}\n{stdout}");
    assert!(stdout.contains("severe"), "{stdout}");
    assert!(stdout.contains("adversarial_peering"), "{stdout}");
    assert!(stdout.contains("recall 1.000"), "{stdout}");

    // The JSON form carries the full matrix.
    let (stdout, err, ok) = run(&[
        "fleet",
        "score",
        "--truth",
        truth_s.to_str().unwrap(),
        "--classified",
        classified_path.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "score --json failed: {err}");
    let doc: serde_json::Value = serde_json::from_str(&stdout).expect("score json");
    assert_eq!(doc["spec_name"], "e2e");
    assert_eq!(doc["ases"].as_u64(), Some(3));
    assert_eq!(doc["recall"].as_f64(), Some(1.0));
    assert_eq!(
        doc["false_positives"]["adversarial_peering"].as_u64(),
        Some(0)
    );
    let matrix = doc["matrix"].as_array().unwrap();
    assert_eq!(matrix.len(), 3, "{stdout}");
    assert_eq!(matrix[0]["label"], "severe");
    assert_eq!(matrix[0]["outcomes"]["Severe"].as_u64(), Some(1));

    // An impossible gate fails loudly (nonzero exit, matrix still shown).
    let (stdout, err, ok) = run(&[
        "fleet",
        "score",
        "--truth",
        truth_s.to_str().unwrap(),
        "--classified",
        classified_path.to_str().unwrap(),
        "--min-recall",
        "1.01",
    ]);
    assert!(!ok, "impossible gate must fail");
    assert!(err.contains("below --min-recall"), "{err}");
    assert!(
        stdout.contains("severe"),
        "matrix must print even on gate failure"
    );
}

/// A fleet corpus with one malformed record of a probe the cache serves.
/// Priming it with `classify --cache rw` must leave the snapshot's
/// quarantine-free flag clear, so a warm run decodes every record and its
/// verdicts and quarantine dump match a cold run byte for byte. A clean
/// corpus primed the same way gets the flag and skips every record.
/// `record` with its top-level `result` array moved to the front, the
/// order the Atlas API writes: every other byte is kept.
fn result_first(record: &str) -> String {
    let at = record.find(",\"result\":").expect("top-level result");
    let (head, tail) = (&record[1..at], &record[at + 1..record.len() - 1]);
    format!("{{{tail},{head}}}")
}

#[test]
fn warm_skip_does_not_depend_on_key_order() {
    let dir = scratch("keyorder");
    let spec = write_spec(&dir);
    let world = dir.join("world");
    let (_, err, ok) = run(&[
        "fleet",
        "gen",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        world.to_str().unwrap(),
        "--seed",
        "6",
    ]);
    assert!(ok, "fleet gen failed: {err}");
    let canonical = std::fs::read_to_string(world.join("traceroutes.jsonl")).unwrap();
    let rotated: String = canonical
        .lines()
        .map(|line| result_first(line) + "\n")
        .collect();
    assert!(rotated.starts_with("{\"result\":["), "{rotated:.80}");
    let trs = dir.join("result-first.jsonl");
    std::fs::write(&trs, &rotated).unwrap();

    let (start, end) = truth_window(&world.join("truth.json"));
    let (start_s, end_s) = (start.to_string(), end.to_string());
    let probes = world.join("probes.json");
    let cache = dir.join("cache");
    let stats = dir.join("stats.json");
    let classify = |corpus: &Path, extra: &[&str]| {
        let mut args = vec![
            "classify",
            "--traceroutes",
            corpus.to_str().unwrap(),
            "--probes",
            probes.to_str().unwrap(),
            "--start",
            &start_s,
            "--end",
            &end_s,
            "--json",
        ];
        args.extend(extra);
        let (stdout, err, ok) = run(&args);
        assert!(ok, "classify failed: {err}");
        stdout
    };
    let cold = classify(&world.join("traceroutes.jsonl"), &[]);
    assert_eq!(classify(&trs, &[]), cold, "key order changed the verdicts");
    classify(&trs, &["--cache-dir", cache.to_str().unwrap()]);
    let warm = classify(
        &trs,
        &[
            "--cache-dir",
            cache.to_str().unwrap(),
            "--cache",
            "ro",
            "--stats-out",
            stats.to_str().unwrap(),
        ],
    );
    assert_eq!(warm, cold, "warm verdicts differ from cold");
    let stats: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    assert_eq!(
        stats["ingest"]["records_decoded"].as_u64(),
        Some(0),
        "{stats}"
    );
    assert_eq!(
        stats["ingest"]["records_skipped_served"].as_u64(),
        Some(canonical.lines().count() as u64),
        "{stats}"
    );
}

#[test]
fn warm_skip_never_hides_a_quarantined_record() {
    let dir = scratch("quarantine");
    let spec = write_spec(&dir);
    let world = dir.join("world");
    let (_, err, ok) = run(&[
        "fleet",
        "gen",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        world.to_str().unwrap(),
        "--seed",
        "3",
    ]);
    assert!(ok, "fleet gen failed: {err}");
    let (start, end) = truth_window(&world.join("truth.json"));
    let clean = std::fs::read_to_string(world.join("traceroutes.jsonl")).unwrap();
    let records = clean.lines().count() as u64;
    // The first record cut after its `prb_id`: the peek still finds the
    // (served) probe, the decoder quarantines it.
    let first = clean.lines().next().unwrap();
    let cut = first.find("\"timestamp\"").unwrap();
    let corrupt = dir.join("corrupt.jsonl");
    std::fs::write(&corrupt, format!("{clean}{}\n", &first[..cut])).unwrap();

    let probes = world.join("probes.json");
    let (start_s, end_s) = (start.to_string(), end.to_string());
    let classify = |corpus: &Path, tag: &str, extra: &[&str]| {
        let quarantine = dir.join(format!("{tag}.quarantine.jsonl"));
        let stats = dir.join(format!("{tag}.stats.json"));
        let mut args = vec![
            "classify",
            "--traceroutes",
            corpus.to_str().unwrap(),
            "--probes",
            probes.to_str().unwrap(),
            "--start",
            &start_s,
            "--end",
            &end_s,
            "--json",
            "--quarantine",
            quarantine.to_str().unwrap(),
            "--stats-out",
            stats.to_str().unwrap(),
        ];
        args.extend(extra);
        let (stdout, err, ok) = run(&args);
        assert!(ok, "classify {tag} failed: {err}");
        let stats: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
        (stdout, std::fs::read(&quarantine).unwrap(), stats)
    };
    let flags_word = |cache: &Path| {
        let bytes = std::fs::read(cache.join("series.lmss")).unwrap();
        u32::from_le_bytes(bytes[28..32].try_into().unwrap())
    };

    let cache = dir.join("cache-corrupt");
    let cache_s = cache.to_str().unwrap();
    let (cold, cold_q, cold_stats) = classify(&corrupt, "cold", &[]);
    assert_eq!(
        cold_stats["ingest"]["quarantined"]["json"].as_u64(),
        Some(1)
    );
    let (primed, _, primed_stats) = classify(&corrupt, "prime", &["--cache-dir", cache_s]);
    assert_eq!(primed, cold);
    assert_eq!(
        flags_word(&cache),
        0,
        "a quarantining source must not be flagged"
    );
    let (warm, warm_q, stats) =
        classify(&corrupt, "warm", &["--cache-dir", cache_s, "--cache", "ro"]);
    assert_eq!(warm, cold, "warm verdicts differ from cold");
    assert_eq!(warm_q, cold_q, "warm quarantine dump differs from cold");
    assert!(!cold_q.is_empty());
    // Every probe the priming run built is served, yet nothing is skipped.
    assert_eq!(stats["store"]["hits"], primed_stats["store"]["misses"]);
    assert!(stats["store"]["hits"].as_u64().unwrap() > 0, "{stats}");
    assert_eq!(stats["ingest"]["records_decoded"].as_u64(), Some(records));
    assert_eq!(stats["ingest"]["records_skipped_served"].as_u64(), Some(0));

    // The clean corpus: `--cache rw` flags it, and a warm run skips all.
    let clean_path = world.join("traceroutes.jsonl");
    let cache = dir.join("cache-clean");
    let cache_s = cache.to_str().unwrap();
    let (clean_cold, _, _) = classify(&clean_path, "clean-cold", &[]);
    classify(&clean_path, "clean-prime", &["--cache-dir", cache_s]);
    assert_eq!(flags_word(&cache), 1, "a clean source must be flagged");
    let (warm, warm_q, stats) = classify(
        &clean_path,
        "clean-warm",
        &["--cache-dir", cache_s, "--cache", "ro"],
    );
    assert_eq!(warm, clean_cold);
    assert!(warm_q.is_empty());
    assert_eq!(stats["ingest"]["records_decoded"].as_u64(), Some(0));
    assert_eq!(
        stats["ingest"]["records_skipped_served"].as_u64(),
        Some(records)
    );
}

/// A version-1 snapshot (no flags word) is reported and ignored: the run
/// recomputes cold, byte-identical, decoding every record.
#[test]
fn version_one_snapshot_degrades_to_a_cold_recompute() {
    let dir = scratch("v1");
    let spec = write_spec(&dir);
    let world = dir.join("world");
    let cache = dir.join("cache");
    let (_, err, ok) = run(&[
        "fleet",
        "gen",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        world.to_str().unwrap(),
        "--seed",
        "4",
        "--cache-dir",
        cache.to_str().unwrap(),
    ]);
    assert!(ok, "fleet gen failed: {err}");
    // Rewrite the primed v2 snapshot in the v1 layout: version 1, no
    // flags word, the checksum over the payload alone.
    let snapshot = cache.join("series.lmss");
    let v2 = std::fs::read(&snapshot).unwrap();
    let payload = &v2[32..];
    let mut v1 = Vec::new();
    v1.extend_from_slice(&v2[..4]);
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&v2[8..24]);
    v1.extend_from_slice(&lastmile_repro::store::snapshot::crc32(payload).to_le_bytes());
    v1.extend_from_slice(payload);
    std::fs::write(&snapshot, &v1).unwrap();

    let (start, end) = truth_window(&world.join("truth.json"));
    let trs = world.join("traceroutes.jsonl");
    let stats = dir.join("stats.json");
    let probes = world.join("probes.json");
    let (start_s, end_s) = (start.to_string(), end.to_string());
    let classify = |extra: &[&str]| {
        let mut args = vec![
            "classify",
            "--traceroutes",
            trs.to_str().unwrap(),
            "--probes",
            probes.to_str().unwrap(),
            "--json",
            "--start",
            &start_s,
            "--end",
            &end_s,
        ];
        args.extend(extra);
        run(&args)
    };
    let (cold, err, ok) = classify(&[]);
    assert!(ok, "cold classify failed: {err}");
    let (warm, err, ok) = classify(&[
        "--cache-dir",
        cache.to_str().unwrap(),
        "--cache",
        "ro",
        "--stats-out",
        stats.to_str().unwrap(),
    ]);
    assert!(ok, "warm classify failed: {err}");
    assert!(
        err.contains("[cache] ignoring") && err.contains("unsupported snapshot version 1"),
        "{err}"
    );
    assert_eq!(warm, cold);
    let stats: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    let records = std::fs::read_to_string(&trs).unwrap().lines().count() as u64;
    assert_eq!(stats["store"]["hits"].as_u64(), Some(0), "{stats}");
    assert_eq!(stats["ingest"]["records_decoded"].as_u64(), Some(records));
    assert_eq!(stats["ingest"]["records_skipped_served"].as_u64(), Some(0));
}
