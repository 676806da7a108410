//! Shared `--cache-dir` / `--cache` plumbing for the subcommands that can
//! reuse per-probe median series across runs.
//!
//! A cache directory holds one snapshot file (`series.lmss`) and is valid
//! for exactly one data source: the snapshot records a fingerprint of the
//! traceroute file it was built from, and a snapshot from a different
//! source (or a corrupt/truncated/old-format file) is reported and
//! ignored — the run recomputes everything, and in `rw` mode rewrites the
//! snapshot.

use crate::Flags;
use lastmile_repro::core::pipeline::PipelineConfig;
use lastmile_repro::core::series::ProbeSeriesBuilder;
use lastmile_repro::ingest::{ingest_file, IngestOptions};
use lastmile_repro::obs::{trace, RunMetrics, StageTimer};
use lastmile_repro::store::{CacheMode, SeriesStore, StoreConfig, StoreKey};
use lastmile_repro::timebase::TimeRange;
use std::io::Read;
use std::path::PathBuf;

/// Snapshot file name inside `--cache-dir`.
pub const SNAPSHOT_FILE: &str = "series.lmss";

/// What [`prime_snapshot`] wrote.
pub struct PrimeReport {
    /// Per-probe series inserted into the snapshot.
    pub series: usize,
    /// Snapshot size on disk, bytes.
    pub bytes: u64,
    /// The snapshot path (`<cache-dir>/series.lmss`).
    pub snapshot: PathBuf,
}

/// Prime a `--cache-dir` snapshot from an exported traceroute file, so a
/// later `classify --cache-dir` over that file starts warm. The file is
/// re-read through the same ingest path `classify` uses: the builders see
/// exactly what a `--probes`/ASN-0 classify would feed them — no
/// round-trip-fidelity assumption, and any export bug surfaces here as a
/// quarantined record instead of a poisoned snapshot. Quarantined input
/// is refused, so the snapshot always carries the source-quarantine-free
/// flag and a warm classify may skip decoding the records it serves.
///
/// The window must be the exact window a warm classify will pass via
/// `--start`/`--end` (the store only serves range-identical requests).
pub fn prime_snapshot(
    trs_path: &str,
    cache_dir: &str,
    window: &TimeRange,
) -> Result<PrimeReport, String> {
    let _span = trace::span("prime_cache");
    let cfg = PipelineConfig::paper();
    let store = SeriesStore::default();
    let mut builders: std::collections::BTreeMap<_, ProbeSeriesBuilder> = Default::default();
    let summary = ingest_file(trs_path, &IngestOptions::default(), |tr| {
        builders
            .entry(tr.probe)
            .or_insert_with(|| {
                ProbeSeriesBuilder::new(tr.probe, cfg.bin, cfg.min_traceroutes_per_bin)
            })
            .ingest(&tr);
    })?;
    if summary.skipped() > 0 {
        return Err(format!(
            "exported {trs_path} failed its own ingest: {} record(s) quarantined (first: {})",
            summary.skipped(),
            summary
                .quarantined
                .first()
                .map(|q| q.detail.as_str())
                .unwrap_or("?"),
        ));
    }
    for (probe, builder) in builders {
        let built = builder.finish_detailed();
        store.insert(&StoreKey::for_pipeline(probe, &cfg), window, &built);
    }
    store.set_source_quarantine_free(true);
    std::fs::create_dir_all(cache_dir)
        .map_err(|e| format!("create --cache-dir {cache_dir}: {e}"))?;
    let snapshot = std::path::Path::new(cache_dir).join(SNAPSHOT_FILE);
    let fingerprint = file_fingerprint(trs_path)?;
    let bytes = store
        .save_snapshot(&snapshot, fingerprint)
        .map_err(|e| format!("save cache snapshot {}: {e}", snapshot.display()))?;
    Ok(PrimeReport {
        series: store.len(),
        bytes,
        snapshot,
    })
}

/// An active series cache: the (possibly snapshot-loaded) store plus
/// where and how to persist it.
pub struct Cache {
    pub store: SeriesStore,
    pub path: PathBuf,
    pub fingerprint: u64,
    pub mode: CacheMode,
}

/// Build the cache from `--cache-dir DIR` and `--cache off|ro|rw`
/// (default `rw`). Returns `None` when no `--cache-dir` was given.
/// `fingerprint` identifies the data source (see [`file_fingerprint`]);
/// it is computed lazily so an uncached run never pays for it.
pub fn from_flags(
    flags: &Flags,
    fingerprint: impl FnOnce() -> Result<u64, String>,
    metrics: Option<&RunMetrics>,
) -> Result<Option<Cache>, String> {
    let mode: CacheMode = flags.parsed("cache")?.unwrap_or_default();
    let Some(dir) = flags.optional("cache-dir") else {
        if flags.optional("cache").is_some() {
            return Err("--cache needs --cache-dir".into());
        }
        return Ok(None);
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("create --cache-dir {dir}: {e}"))?;
    let path = PathBuf::from(dir).join(SNAPSHOT_FILE);
    let config = StoreConfig {
        mode,
        ..StoreConfig::default()
    };
    if mode == CacheMode::Off {
        // Off mode neither loads nor persists, so the fingerprint (a
        // full scan of the data file) is never computed.
        return Ok(Some(Cache {
            store: SeriesStore::new(config),
            path,
            fingerprint: 0,
            mode,
        }));
    }
    let fingerprint = fingerprint()?;
    let span = trace::span_with("snapshot_load", |a| {
        a.str("path", path.display().to_string());
    });
    let load_timer = StageTimer::start();
    let (store, bytes, error) = SeriesStore::load_snapshot_or_empty(&path, fingerprint, config);
    drop(span);
    if let Some(m) = metrics {
        m.add_store_load_nanos(load_timer.elapsed_nanos());
        m.add_store_bytes_read(bytes);
    }
    match &error {
        Some(e) => eprintln!("[cache] ignoring {}: {e} (recomputing)", path.display()),
        None if bytes > 0 => eprintln!(
            "[cache] loaded {} ({} series, {bytes} bytes)",
            path.display(),
            store.len()
        ),
        None => {}
    }
    Ok(Some(Cache {
        store,
        path,
        fingerprint,
        mode,
    }))
}

impl Cache {
    /// Persist the store back to the snapshot (no-op unless `rw`).
    pub fn persist(&self, metrics: Option<&RunMetrics>) -> Result<(), String> {
        self.persist_as(self.fingerprint, metrics)
    }

    /// [`Cache::persist`], stamping the snapshot with a caller-supplied
    /// source fingerprint. A live daemon's corpus grows while it runs,
    /// so the fingerprint computed at startup no longer names the bytes
    /// the store now reflects — the shutdown persist recomputes it over
    /// the final corpus and stamps that instead.
    pub fn persist_as(&self, fingerprint: u64, metrics: Option<&RunMetrics>) -> Result<(), String> {
        if self.mode != CacheMode::ReadWrite {
            return Ok(());
        }
        let span = trace::span_with("snapshot_save", |a| {
            a.str("path", self.path.display().to_string());
        });
        let save_timer = StageTimer::start();
        let bytes = self
            .store
            .save_snapshot(&self.path, fingerprint)
            .map_err(|e| format!("save cache snapshot {}: {e}", self.path.display()))?;
        drop(span);
        if let Some(m) = metrics {
            m.add_store_save_nanos(save_timer.elapsed_nanos());
            m.add_store_bytes_written(bytes);
        }
        eprintln!(
            "[cache] saved {} ({} series, {bytes} bytes)",
            self.path.display(),
            self.store.len()
        );
        Ok(())
    }
}

/// Mix a second fingerprint into a first, order-sensitively: used when
/// the cached series depend on more than one input (e.g. `--bgp`
/// classification, where the table decides which traceroutes are
/// ingested), so snapshots from different input combinations — or the
/// same files in different roles — never match.
pub fn combine_fingerprints(a: u64, b: u64) -> u64 {
    // FNV-1a over a's bytes then b's: position-sensitive, so swapping
    // the inputs gives a different result.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Read size of [`file_fingerprint`]: one fixed buffer, so the scan's
/// memory does not grow with the file.
const FINGERPRINT_BUF: usize = 256 * 1024;

/// Fingerprint a data file by content (XXH64, seed 0, over its bytes):
/// the same bytes give the same fingerprint wherever the file lives, and
/// any content change invalidates snapshots built from it.
pub fn file_fingerprint(path: &str) -> Result<u64, String> {
    let mut file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut hasher = Xxh64::default();
    let mut buf = vec![0u8; FINGERPRINT_BUF];
    loop {
        let n = match file.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("read {path}: {e}")),
        };
        hasher.update(&buf[..n]);
    }
    Ok(hasher.finish())
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Streaming XXH64 with seed 0: four 64-bit lanes over 32-byte stripes,
/// so it runs at memory speed.
struct Xxh64 {
    lanes: [u64; 4],
    total: u64,
    /// A partial stripe carried between `update` calls.
    tail: [u8; 32],
    tail_len: usize,
}

impl Default for Xxh64 {
    fn default() -> Xxh64 {
        Xxh64 {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            total: 0,
            tail: [0; 32],
            tail_len: 0,
        }
    }
}

fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

impl Xxh64 {
    /// Fold whole 32-byte stripes into the lanes, held in registers.
    fn stripes<'a>(&mut self, stripes: impl Iterator<Item = &'a [u8]>) {
        let [mut v1, mut v2, mut v3, mut v4] = self.lanes;
        for s in stripes {
            v1 = xxh_round(v1, read_u64(&s[0..8]));
            v2 = xxh_round(v2, read_u64(&s[8..16]));
            v3 = xxh_round(v3, read_u64(&s[16..24]));
            v4 = xxh_round(v4, read_u64(&s[24..32]));
        }
        self.lanes = [v1, v2, v3, v4];
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total += data.len() as u64;
        if self.tail_len > 0 {
            let take = (32 - self.tail_len).min(data.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len < 32 {
                return;
            }
            let tail = self.tail;
            self.stripes(std::iter::once(&tail[..]));
            self.tail_len = 0;
        }
        let mut stripes = data.chunks_exact(32);
        self.stripes(&mut stripes);
        let rest = stripes.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    fn finish(&self) -> u64 {
        let mut h = if self.total >= 32 {
            let [v1, v2, v3, v4] = self.lanes;
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in self.lanes {
                h = (h ^ xxh_round(0, v)).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut rest = &self.tail[..self.tail_len];
        while rest.len() >= 8 {
            h = (h ^ xxh_round(0, read_u64(rest)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let word = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
            h = (h ^ u64::from(word).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            rest = &rest[4..];
        }
        for &b in rest {
            h = (h ^ u64::from(b).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_content_not_name() {
        let dir = std::env::temp_dir().join("lastmile-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        std::fs::write(&a, "same bytes").unwrap();
        std::fs::write(&b, "same bytes").unwrap();
        let fa = file_fingerprint(a.to_str().unwrap()).unwrap();
        let fb = file_fingerprint(b.to_str().unwrap()).unwrap();
        assert_eq!(fa, fb);
        std::fs::write(&b, "other bytes").unwrap();
        assert_ne!(fa, file_fingerprint(b.to_str().unwrap()).unwrap());
        assert!(file_fingerprint("/does/not/exist").is_err());
    }

    fn xxh64(bytes: &[u8]) -> u64 {
        let mut h = Xxh64::default();
        h.update(bytes);
        h.finish()
    }

    #[test]
    fn xxh64_known_answers() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // Seed-0 rows of the xxHash project's sanity-test table (xxhsum's
        // `XSUM_XXH64_testdata`), over its generated buffer: byte i is the
        // top byte of PRIME32 * PRIME64^i, with xxhsum's PRIME32 =
        // 2654435761 and PRIME64 = 11400714785074694797. The 222-byte row
        // runs six 32-byte stripes through the four lanes and the merge
        // rounds.
        let mut gen = 2_654_435_761u64;
        let sanity: Vec<u8> = (0..222)
            .map(|_| {
                let byte = (gen >> 56) as u8;
                gen = gen.wrapping_mul(11_400_714_785_074_694_797);
                byte
            })
            .collect();
        for (len, want) in [
            (1, 0xE934_A84A_DB05_2768),
            (4, 0x9136_A0DC_A574_57EE),
            (14, 0x8282_DCC4_994E_35C8),
            (222, 0xB641_AE8C_B691_C174),
        ] {
            assert_eq!(xxh64(&sanity[..len]), want, "sanity buffer, {len} bytes");
        }
        // Split updates agree with one-shot hashing at every cut.
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        for cut in 0..data.len() {
            let mut h = Xxh64::default();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), xxh64(&data), "cut at {cut}");
        }
    }

    #[test]
    fn fingerprint_of_a_file_longer_than_the_buffer_is_its_xxh64() {
        let dir = std::env::temp_dir().join("lastmile-cache-xxh-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("big-{}.bin", std::process::id()));
        let len = FINGERPRINT_BUF * 2 + 37;
        assert_ne!(len % 32, 0);
        let data: Vec<u8> = (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 7) as u8)
            .collect();
        std::fs::write(&path, &data).unwrap();
        assert_eq!(
            file_fingerprint(path.to_str().unwrap()).unwrap(),
            xxh64(&data)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn combine_is_order_sensitive_and_changes_both_inputs() {
        assert_ne!(combine_fingerprints(1, 2), combine_fingerprints(2, 1));
        assert_ne!(combine_fingerprints(1, 2), 1);
        assert_ne!(combine_fingerprints(1, 2), 2);
        assert_eq!(combine_fingerprints(1, 2), combine_fingerprints(1, 2));
    }

    #[test]
    fn off_mode_never_computes_the_fingerprint() {
        let dir = std::env::temp_dir().join("lastmile-cache-off-test");
        std::fs::create_dir_all(&dir).unwrap();
        let args: Vec<String> = ["--cache-dir", dir.to_str().unwrap(), "--cache", "off"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = crate::Flags::parse(&args).unwrap();
        // The fingerprint closure (a full data-file scan in real runs)
        // must not run in off mode.
        let cache = from_flags(&flags, || panic!("fingerprint computed in off mode"), None)
            .unwrap()
            .expect("cache-dir given");
        assert_eq!(cache.mode, CacheMode::Off);
    }
}
