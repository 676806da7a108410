//! # lastmile-ingest
//!
//! Parallel, bounded-memory ingest of Atlas-format traceroute files: the
//! data plane between bytes on disk and the analysis pipelines.
//!
//! Real Atlas built-in dumps are tens of gigabytes per day of
//! newline-delimited documents with routine truncation and interleaved
//! garbage; the API's list form is one giant JSON array. Both must be
//! decoded without ever holding the whole file, fast enough that cold
//! runs are not bound by a single parsing core, and without letting one
//! poisoned record kill the run. This crate does exactly that:
//!
//! ```text
//!  file ──► framing reader ──► bounded batch queue ──► N parse workers
//!           (DocSplitter,          (backpressure)        (direct decoder,
//!            one thread)                                  serde fallback,
//!                                                         catch_unwind)
//!                     ┌──────────────────────────────────────┘
//!                     ▼
//!           bounded result queue ──► caller thread (`on_record`,
//!                                    quarantine collection)
//! ```
//!
//! * **Framing** reuses [`lastmile_atlas::framing::DocSplitter`]: JSON
//!   Lines and top-level JSON arrays are split into record-aligned byte
//!   frames incrementally, so peak memory is bounded by the chunk size
//!   plus the queues — never by the file.
//! * **Backpressure**: both queues are `sync_channel`s. A slow consumer
//!   stalls the workers, which stall the framer, which stops reading.
//! * **Determinism**: records are delivered to `on_record` in arrival
//!   order, which varies with thread count — by design. Every consumer
//!   in this workspace accumulates per-probe/per-bin multisets (min,
//!   max, medians, maps keyed by probe), which are order-independent
//!   reductions, so reports are byte-identical at any `threads` value.
//!   The CLI's end-to-end tests pin this.
//! * **Quarantine**: a malformed record is captured — offset, raw bytes,
//!   and a typed reason ([`QuarantineKind`]: framing / JSON / model
//!   conversion / worker panic) — not just counted, so `--quarantine`
//!   can reproduce the bad records for offline triage. A record that
//!   panics its worker is caught by a per-record `catch_unwind` and
//!   quarantined like any other.
//! * **Decode**: a worker hands each record to
//!   [`lastmile_atlas::json::decode_traceroute`], a direct one-scan
//!   decoder for the canonical record shape. A record it declines
//!   (escapes, unusual numbers, anything malformed) takes the serde path,
//!   which alone names quarantine kinds and details, so delivered models
//!   and quarantine dumps equal a serde-only decode. Both paths stop at
//!   128 levels of nesting: a deeply nested record is a `json`
//!   quarantine, not a stack overflow.
//! * **Served records**: a caller that already holds some probes' results
//!   (a warm series cache) names them in [`IngestOptions::skip_probes`].
//!   A valid UTF-8 record whose `prb_id`
//!   ([`lastmile_atlas::json::peek_probe`]) is in that set is counted and
//!   reported by probe id, not decoded. The caller must only pass a set
//!   when no such record could have been quarantined (see the CLI's
//!   snapshot flag), because a skipped record is never checked beyond
//!   its UTF-8 and the bytes up to its probe id.
//!
//! `on_record` runs on the caller's thread, so consumers need no
//! locking; [`ingest_file`] returns an [`IngestSummary`] with counts,
//! quarantined records (sorted by byte offset), and per-stage timers.

use lastmile_atlas::framing::{DocSplitter, Frame};
use lastmile_atlas::json::{decode_traceroute, peek_probe, AtlasTraceroute};
use lastmile_atlas::{ProbeId, TracerouteResult};
use lastmile_obs::{trace, Histogram, LiveProgress};
use std::collections::BTreeSet;
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Why a record was quarantined instead of delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineKind {
    /// The bytes could not be framed as a document (truncated final
    /// document, content after the top-level array close).
    Framing,
    /// The document is not valid JSON of the Atlas traceroute shape
    /// (includes invalid UTF-8).
    Json,
    /// Valid JSON that does not convert to the internal model (bad
    /// address, non-traceroute type).
    Model,
    /// Decoding the record panicked its worker; the panic was caught
    /// and isolated to this record.
    WorkerPanic,
}

impl QuarantineKind {
    /// Stable lower-case name, used in `--stats` JSON and the
    /// `--quarantine` dump.
    pub fn name(self) -> &'static str {
        match self {
            QuarantineKind::Framing => "framing",
            QuarantineKind::Json => "json",
            QuarantineKind::Model => "model",
            QuarantineKind::WorkerPanic => "worker_panic",
        }
    }
}

/// One malformed record, captured for triage.
#[derive(Clone, Debug)]
pub struct Quarantined {
    /// Absolute byte offset of the record in the input.
    pub offset: u64,
    pub kind: QuarantineKind,
    /// Human-readable error detail.
    pub detail: String,
    /// The record's raw bytes.
    pub record: Vec<u8>,
}

/// What one ingest did: delivered/quarantined counts, bytes, timers.
#[derive(Debug, Default)]
pub struct IngestSummary {
    /// Records decoded and delivered to `on_record`.
    pub parsed: u64,
    /// Records of [`IngestOptions::skip_probes`] probes, counted but not
    /// decoded or delivered.
    pub records_skipped_served: u64,
    /// The probes those skipped records belong to.
    pub skipped_probes: BTreeSet<ProbeId>,
    /// Bytes read from the input.
    pub bytes_read: u64,
    /// Malformed records, sorted by byte offset.
    pub quarantined: Vec<Quarantined>,
    /// Nanoseconds the framing reader spent splitting (one thread,
    /// excludes IO and queue blocking).
    pub frame_nanos: u64,
    /// Nanoseconds spent parsing, summed across workers.
    pub decode_nanos: u64,
    /// Elapsed time of the whole ingest.
    pub wall_nanos: u64,
    /// Deepest the bounded batch queue got, in batches, counting one the
    /// framer is blocked handing over (0 on the serial path, which has
    /// no queue). Pinned at `queue_batches + 1` means the parse workers
    /// are the bottleneck; near zero means framing/IO is.
    pub queue_max_depth: u64,
    /// Per-record decode latency, collected only when
    /// [`IngestOptions::record_latency`] is set; empty otherwise.
    pub decode_hist: Histogram,
}

impl IngestSummary {
    /// Total quarantined records (the CLI's "skipped" count).
    pub fn skipped(&self) -> u64 {
        self.quarantined.len() as u64
    }

    /// Quarantined records of one kind.
    pub fn quarantined_of(&self, kind: QuarantineKind) -> u64 {
        self.quarantined.iter().filter(|q| q.kind == kind).count() as u64
    }
}

/// Ingest tuning. Peak memory is bounded regardless of file size: every
/// in-flight batch pins the read-chunk buffer(s) its records point into
/// (records are `(chunk, range)` slices, not copies), so the worker
/// pipeline holds at most roughly `(queue_batches + threads + 1) ×
/// chunk_bytes` at once; the serial path holds one chunk.
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Parse worker threads; `0` (the default) means one per available
    /// core, like the survey executor.
    pub threads: usize,
    /// Run the retained single-threaded reference path instead of the
    /// worker pipeline. Same framing, same quarantine semantics; kept
    /// for byte-identity tests and benchmarks against the serial
    /// baseline.
    pub serial: bool,
    /// Records per batch handed to a worker.
    pub batch_records: usize,
    /// Bounded batch-queue capacity, in batches.
    pub queue_batches: usize,
    /// Read chunk size in bytes.
    pub chunk_bytes: usize,
    /// Collect a per-record decode-latency histogram into
    /// [`IngestSummary::decode_hist`]. Off by default: two clock reads
    /// per record are cheap but not free, and most runs only want the
    /// distribution when `--stats` asked for it.
    pub record_latency: bool,
    /// Live gauges for a `--progress` heartbeat: bytes read, records
    /// decoded, and batch-queue depth are updated *while the ingest
    /// runs* (the summary only lands when it returns).
    pub progress: Option<Arc<LiveProgress>>,
    /// Probes whose results the caller already has: their records are
    /// counted in [`IngestSummary::records_skipped_served`], not decoded.
    /// Only safe when none of those records would be quarantined.
    pub skip_probes: Option<Arc<BTreeSet<ProbeId>>>,
    /// Test hook: panic while decoding the record at this byte offset,
    /// exercising per-record panic isolation from integration tests.
    #[doc(hidden)]
    pub inject_panic_offset: Option<u64>,
}

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            threads: 0,
            serial: false,
            batch_records: 64,
            queue_batches: 8,
            chunk_bytes: 256 * 1024,
            record_latency: false,
            progress: None,
            skip_probes: None,
            inject_panic_offset: None,
        }
    }
}

/// Bytes of one framed record travelling to a worker.
///
/// The framing reader reads each chunk into an `Arc<Vec<u8>>`; the
/// splitter's zero-copy contract (a document completing inside the fed
/// chunk is emitted as a subslice of it) lets the common case ride to
/// the parse workers as a `(buffer, range)` pair sharing that chunk
/// allocation — no per-record copy. Only a record spanning a chunk
/// boundary (at most one per chunk) is copied out of the splitter's
/// carry buffer.
enum RecordBytes {
    /// A subslice of a shared chunk buffer (whole-chunk records).
    Shared {
        buf: Arc<Vec<u8>>,
        start: usize,
        len: usize,
    },
    /// An owned copy (records spanning a chunk boundary).
    Owned(Vec<u8>),
}

impl RecordBytes {
    fn as_slice(&self) -> &[u8] {
        match self {
            RecordBytes::Shared { buf, start, len } => &buf[*start..*start + *len],
            RecordBytes::Owned(v) => v,
        }
    }
}

/// One framed record travelling to a worker.
type Batch = Vec<(u64, RecordBytes)>;

/// One decoded batch travelling back to the caller.
enum Delivery {
    Records(Vec<TracerouteResult>),
    /// Probe ids of skipped records, one per record.
    Served(Vec<ProbeId>),
    Quarantined(Quarantined),
}

/// A framed record that did not need quarantine.
enum Decoded {
    Record(TracerouteResult),
    /// A record of a [`IngestOptions::skip_probes`] probe, left undecoded.
    Served(ProbeId),
}

/// Ingest a traceroute file (JSON Lines or a top-level JSON array),
/// calling `on_record` on the caller's thread for each decoded record.
/// Delivery order is unspecified under `threads > 1`; see the crate docs
/// for why consumers stay deterministic anyway.
pub fn ingest_file(
    path: &str,
    options: &IngestOptions,
    on_record: impl FnMut(TracerouteResult),
) -> Result<IngestSummary, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    ingest_reader(file, options, on_record).map_err(|e| format!("{path}: {e}"))
}

/// [`ingest_file`] over any reader (the file-free entry point tests and
/// benchmarks use).
pub fn ingest_reader(
    reader: impl Read + Send,
    options: &IngestOptions,
    on_record: impl FnMut(TracerouteResult),
) -> Result<IngestSummary, String> {
    let _span = trace::span("ingest");
    if select_serial(options, available_parallelism()) {
        ingest_reader_serial(reader, options, on_record)
    } else {
        ingest_reader_parallel(reader, options, on_record)
    }
}

/// Incremental feed entry point for live intake: frame and decode one
/// standalone byte slice (an appended corpus delta or a `POST
/// /v1/traceroutes` body) with exactly the framing and quarantine
/// semantics of [`ingest_file`]. Each decoded record is delivered with
/// its byte offset within the slice and its raw framed bytes, so
/// callers can spool accepted records verbatim. Serial by design — live
/// intake chunks are small, and the worker pipeline's spawn cost would
/// dominate. Returns the quarantined records, sorted by offset.
pub fn ingest_slice(
    bytes: &[u8],
    mut on_record: impl FnMut(u64, &[u8], TracerouteResult),
) -> Vec<Quarantined> {
    let _span = trace::span("ingest_slice");
    let options = IngestOptions::default();
    let mut quarantined: Vec<Quarantined> = Vec::new();
    let mut handle = |frame: Frame<'_>| match frame {
        Frame::Doc { offset, bytes } => match decode_record(offset, bytes, &options) {
            Ok(Decoded::Record(tr)) => on_record(offset, bytes, tr),
            // The default options skip no probe.
            Ok(Decoded::Served(_)) => {}
            Err(q) => quarantined.push(q),
        },
        Frame::Junk {
            offset,
            bytes,
            reason,
        } => quarantined.push(Quarantined {
            offset,
            kind: QuarantineKind::Framing,
            detail: reason.to_string(),
            record: bytes.to_vec(),
        }),
    };
    let mut splitter = DocSplitter::new();
    splitter.feed(bytes, &mut handle);
    splitter.finish(&mut handle);
    quarantined.sort_by_key(|q| q.offset);
    quarantined
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Whether an ingest should take the serial path: explicitly requested,
/// or automatic thread selection (`threads == 0`) on a single-core host —
/// there the worker pipeline only adds queue hand-off cost on top of one
/// core's parsing (BENCH_ingest.json measured it ~25% slower than
/// serial). An explicit `threads >= 1` still forces the worker pipeline,
/// so its behaviour stays testable on any machine.
fn select_serial(options: &IngestOptions, available: usize) -> bool {
    options.serial || (options.threads == 0 && available <= 1)
}

fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_parallelism()
    } else {
        requested
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Decode one framed record — the direct decoder, or the serde path when
/// it declines; quarantines never escape as panics. A record whose probe
/// is in [`IngestOptions::skip_probes`] is only peeked.
fn decode_record(
    offset: u64,
    bytes: &[u8],
    options: &IngestOptions,
) -> Result<Decoded, Quarantined> {
    let quarantine = |kind: QuarantineKind, detail: String| Quarantined {
        offset,
        kind,
        detail,
        record: bytes.to_vec(),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if options.inject_panic_offset == Some(offset) {
            panic!("injected ingest panic at byte {offset}");
        }
        let text = std::str::from_utf8(bytes)
            .map_err(|e| quarantine(QuarantineKind::Json, e.to_string()))?;
        if let Some(skip) = &options.skip_probes {
            if let Some(probe) = peek_probe(text).filter(|p| skip.contains(p)) {
                return Ok(Decoded::Served(probe));
            }
        }
        if let Some(tr) = decode_traceroute(text) {
            return Ok(Decoded::Record(tr));
        }
        // The direct decoder declined: the serde path decides, and alone
        // names the quarantine kind and detail.
        let doc: AtlasTraceroute = serde_json::from_str(text)
            .map_err(|e| quarantine(QuarantineKind::Json, e.to_string()))?;
        doc.to_model()
            .map(Decoded::Record)
            .map_err(|e| quarantine(QuarantineKind::Model, e.to_string()))
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => Err(quarantine(
            QuarantineKind::WorkerPanic,
            panic_message(payload.as_ref()),
        )),
    }
}

/// [`decode_record`], sampling its latency into `hist` when
/// [`IngestOptions::record_latency`] is set. A skipped record is not a
/// decode and adds no sample.
fn decode_timed(
    offset: u64,
    bytes: &[u8],
    options: &IngestOptions,
    hist: &mut Histogram,
) -> Result<Decoded, Quarantined> {
    if !options.record_latency {
        return decode_record(offset, bytes, options);
    }
    let t = Instant::now();
    let outcome = decode_record(offset, bytes, options);
    if !matches!(outcome, Ok(Decoded::Served(_))) {
        hist.record(elapsed_nanos(t));
    }
    outcome
}

/// The retained single-threaded reference path: same framing and
/// quarantine semantics as the worker pipeline, no threads, no queues.
fn ingest_reader_serial(
    mut reader: impl Read + Send,
    options: &IngestOptions,
    mut on_record: impl FnMut(TracerouteResult),
) -> Result<IngestSummary, String> {
    let wall = Instant::now();
    let mut summary = IngestSummary::default();
    let mut decode_hist = Histogram::new();
    let mut splitter = DocSplitter::new();
    let mut buf = vec![0u8; options.chunk_bytes.max(1)];
    // The emit closure cannot call `on_record` directly (it borrows the
    // splitter), so each chunk's frames are staged and drained after.
    let mut staged: Vec<Result<Decoded, Quarantined>> = Vec::new();
    loop {
        let n = reader.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        let chunk = &buf[..n];
        summary.bytes_read += n as u64;
        if let Some(p) = &options.progress {
            p.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
        }
        let t = Instant::now();
        // Decode runs inside the framing callback: time it there, so it
        // can be taken out of the frame time and reported as itself.
        let mut chunk_decode_nanos = 0u64;
        let mut handle = |frame: Frame<'_>| match frame {
            Frame::Doc { offset, bytes } => {
                let t = Instant::now();
                staged.push(decode_timed(offset, bytes, options, &mut decode_hist));
                chunk_decode_nanos += elapsed_nanos(t);
            }
            Frame::Junk {
                offset,
                bytes,
                reason,
            } => staged.push(Err(Quarantined {
                offset,
                kind: QuarantineKind::Framing,
                detail: reason.to_string(),
                record: bytes.to_vec(),
            })),
        };
        if n == 0 {
            let s = std::mem::take(&mut splitter);
            s.finish(&mut handle);
        } else {
            splitter.feed(chunk, &mut handle);
        }
        summary.frame_nanos += elapsed_nanos(t).saturating_sub(chunk_decode_nanos);
        summary.decode_nanos += chunk_decode_nanos;
        for outcome in staged.drain(..) {
            match outcome {
                Ok(Decoded::Record(tr)) => {
                    summary.parsed += 1;
                    if let Some(p) = &options.progress {
                        p.records.fetch_add(1, Ordering::Relaxed);
                    }
                    on_record(tr);
                }
                Ok(Decoded::Served(probe)) => {
                    summary.records_skipped_served += 1;
                    summary.skipped_probes.insert(probe);
                }
                Err(q) => summary.quarantined.push(q),
            }
        }
        if n == 0 {
            break;
        }
    }
    summary.decode_hist = decode_hist;
    summary.quarantined.sort_by_key(|q| q.offset);
    summary.wall_nanos = elapsed_nanos(wall);
    Ok(summary)
}

/// The worker pipeline: framer thread → bounded batch queue → N parse
/// workers → bounded result queue → caller thread.
fn ingest_reader_parallel(
    mut reader: impl Read + Send,
    options: &IngestOptions,
    mut on_record: impl FnMut(TracerouteResult),
) -> Result<IngestSummary, String> {
    let wall = Instant::now();
    let threads = resolve_threads(options.threads);
    let batch_records = options.batch_records.max(1);
    let (batch_tx, batch_rx) = mpsc::sync_channel::<Batch>(options.queue_batches.max(1));
    let (out_tx, out_rx) = mpsc::sync_channel::<Delivery>(options.queue_batches.max(1) + threads);
    let batch_queue = Mutex::new(batch_rx);
    let fatal: Mutex<Option<String>> = Mutex::new(None);
    let bytes_read = AtomicU64::new(0);
    let frame_nanos = AtomicU64::new(0);
    let decode_nanos = AtomicU64::new(0);
    // Batch-queue depth gauge: pushed by the framer, popped by workers.
    // Saturating pop — a worker can account its pop before the framer's
    // racing push lands.
    let queue_depth = AtomicU64::new(0);
    let queue_max_depth = AtomicU64::new(0);
    let decode_hist: Mutex<Histogram> = Mutex::new(Histogram::new());

    let mut summary = IngestSummary::default();
    std::thread::scope(|scope| {
        // Framer: read chunks, split into frames, batch the documents.
        // Junk frames go straight to the result queue as quarantine.
        {
            let out_tx = out_tx.clone();
            let fatal = &fatal;
            let bytes_read = &bytes_read;
            let frame_nanos = &frame_nanos;
            let queue_depth = &queue_depth;
            let queue_max_depth = &queue_max_depth;
            let push_batch = move |b: Batch, tx: &mpsc::SyncSender<Batch>| {
                // Gauges before send, as the serve acceptor does: a worker
                // may dequeue (and pop) the instant the send lands, and
                // the pop saturates at zero, so push-after-send drifts the
                // gauges up by one each time it loses that race.
                let depth = queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
                queue_max_depth.fetch_max(depth, Ordering::Relaxed);
                if let Some(p) = &options.progress {
                    p.queue_push();
                }
                // Err: all workers are gone (fatal path).
                tx.send(b).is_ok()
            };
            std::thread::Builder::new()
                .name("ingest-frame".into())
                .spawn_scoped(scope, move || {
                    let mut splitter = DocSplitter::new();
                    let mut batch: Batch = Vec::with_capacity(batch_records);
                    let mut junk: Vec<Quarantined> = Vec::new();
                    let mut full: Vec<Batch> = Vec::new();
                    loop {
                        // Each chunk gets its own shared allocation:
                        // batches reference it until their records are
                        // decoded, so it cannot be a reused buffer.
                        let mut buf = vec![0u8; options.chunk_bytes.max(1)];
                        let n = match reader.read(&mut buf) {
                            Ok(n) => n,
                            Err(e) => {
                                *fatal.lock().expect("fatal slot lock") =
                                    Some(format!("read: {e}"));
                                return; // drops the senders; pipeline drains
                            }
                        };
                        buf.truncate(n);
                        let chunk = Arc::new(buf);
                        bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                        if let Some(p) = &options.progress {
                            p.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                        }
                        let t = Instant::now();
                        // The splitter's zero-copy contract: a document
                        // completing inside the fed chunk is emitted as
                        // a subslice of it. The pointer-range test tells
                        // those apart from carry-buffer frames exactly.
                        let base = chunk.as_ptr() as usize;
                        let mut handle = |frame: Frame<'_>| match frame {
                            Frame::Doc { offset, bytes } => {
                                let p = bytes.as_ptr() as usize;
                                let rec = if p >= base && p + bytes.len() <= base + chunk.len() {
                                    RecordBytes::Shared {
                                        buf: Arc::clone(&chunk),
                                        start: p - base,
                                        len: bytes.len(),
                                    }
                                } else {
                                    RecordBytes::Owned(bytes.to_vec())
                                };
                                batch.push((offset, rec));
                                if batch.len() >= batch_records {
                                    full.push(std::mem::take(&mut batch));
                                }
                            }
                            Frame::Junk {
                                offset,
                                bytes,
                                reason,
                            } => junk.push(Quarantined {
                                offset,
                                kind: QuarantineKind::Framing,
                                detail: reason.to_string(),
                                record: bytes.to_vec(),
                            }),
                        };
                        if n == 0 {
                            let s = std::mem::take(&mut splitter);
                            s.finish(&mut handle);
                        } else {
                            splitter.feed(&chunk, &mut handle);
                        }
                        frame_nanos.fetch_add(elapsed_nanos(t), Ordering::Relaxed);
                        // Queue sends happen outside the timed region: a
                        // blocked send is backpressure, not framing work.
                        for b in full.drain(..) {
                            if !push_batch(b, &batch_tx) {
                                return;
                            }
                        }
                        for q in junk.drain(..) {
                            if out_tx.send(Delivery::Quarantined(q)).is_err() {
                                return;
                            }
                        }
                        if n == 0 {
                            if !batch.is_empty() {
                                push_batch(std::mem::take(&mut batch), &batch_tx);
                            }
                            return;
                        }
                    }
                })
                .expect("spawn ingest framer thread");
        }

        // Parse workers: steal batches until the framer hangs up.
        for worker in 0..threads {
            let out_tx = out_tx.clone();
            let batch_queue = &batch_queue;
            let decode_nanos = &decode_nanos;
            let queue_depth = &queue_depth;
            let decode_hist = &decode_hist;
            std::thread::Builder::new()
                .name(format!("ingest-parse-{worker}"))
                .spawn_scoped(scope, move || {
                    let mut local_hist = Histogram::new();
                    loop {
                        // Blocking recv under the lock: the holder waits
                        // for a batch while the other workers wait for
                        // the lock, which hands batches to exactly one
                        // worker each.
                        let Ok(batch) = batch_queue.lock().expect("batch queue lock").recv() else {
                            // Framer done and queue drained; publish this
                            // worker's latency samples.
                            decode_hist
                                .lock()
                                .expect("decode histogram lock")
                                .merge(&local_hist);
                            return;
                        };
                        let _ =
                            queue_depth.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                                Some(d.saturating_sub(1))
                            });
                        if let Some(p) = &options.progress {
                            p.queue_pop();
                        }
                        let span = trace::span_with("decode_batch", |a| {
                            a.u64("records", batch.len() as u64);
                        });
                        let t = Instant::now();
                        let mut records = Vec::with_capacity(batch.len());
                        let mut served = Vec::new();
                        let mut quarantined = Vec::new();
                        for (offset, bytes) in &batch {
                            match decode_timed(*offset, bytes.as_slice(), options, &mut local_hist)
                            {
                                Ok(Decoded::Record(tr)) => records.push(tr),
                                Ok(Decoded::Served(probe)) => served.push(probe),
                                Err(q) => quarantined.push(q),
                            }
                        }
                        decode_nanos.fetch_add(elapsed_nanos(t), Ordering::Relaxed);
                        drop(span);
                        if !records.is_empty() && out_tx.send(Delivery::Records(records)).is_err() {
                            return;
                        }
                        if !served.is_empty() && out_tx.send(Delivery::Served(served)).is_err() {
                            return;
                        }
                        for q in quarantined {
                            if out_tx.send(Delivery::Quarantined(q)).is_err() {
                                return;
                            }
                        }
                    }
                })
                .expect("spawn ingest parse worker");
        }
        // The caller keeps no sender: the drain below ends exactly when
        // the framer and every worker have hung up.
        drop(out_tx);

        for delivery in out_rx.iter() {
            match delivery {
                Delivery::Records(records) => {
                    summary.parsed += records.len() as u64;
                    if let Some(p) = &options.progress {
                        p.records.fetch_add(records.len() as u64, Ordering::Relaxed);
                    }
                    for tr in records {
                        on_record(tr);
                    }
                }
                Delivery::Served(probes) => {
                    summary.records_skipped_served += probes.len() as u64;
                    summary.skipped_probes.extend(probes);
                }
                Delivery::Quarantined(q) => summary.quarantined.push(q),
            }
        }
    });

    if let Some(e) = fatal.into_inner().expect("fatal slot lock") {
        return Err(e);
    }
    summary.bytes_read = bytes_read.into_inner();
    summary.frame_nanos = frame_nanos.into_inner();
    summary.decode_nanos = decode_nanos.into_inner();
    summary.queue_max_depth = queue_max_depth.into_inner();
    summary.decode_hist = decode_hist.into_inner().expect("decode histogram lock");
    summary.quarantined.sort_by_key(|q| q.offset);
    summary.wall_nanos = elapsed_nanos(wall);
    Ok(summary)
}

fn elapsed_nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastmile_atlas::json::to_atlas_json;
    use lastmile_atlas::{Hop, ProbeId, Reply};
    use lastmile_timebase::UnixTime;
    use std::collections::BTreeMap;
    use std::io::Cursor;

    fn tr(probe: u32, ts: i64) -> TracerouteResult {
        TracerouteResult {
            probe: ProbeId(probe),
            msm_id: 5001,
            timestamp: UnixTime::from_secs(ts),
            dst: "20.9.9.9".parse().unwrap(),
            src: "192.168.1.10".parse().unwrap(),
            hops: vec![Hop {
                hop: 1,
                replies: vec![Reply::answered("192.168.1.1".parse().unwrap(), 1.25)],
            }],
        }
    }

    fn tr_json(probe: u32, ts: i64) -> String {
        to_atlas_json(&tr(probe, ts), "20.0.0.1".parse().unwrap())
    }

    /// A multiset fingerprint of delivered records: order-independent,
    /// so serial and parallel ingests must agree exactly.
    fn fingerprint(
        options: &IngestOptions,
        input: &[u8],
    ) -> (BTreeMap<(u32, i64), u64>, IngestSummary) {
        let mut seen: BTreeMap<(u32, i64), u64> = BTreeMap::new();
        let summary = ingest_reader(Cursor::new(input.to_vec()), options, |tr| {
            *seen
                .entry((tr.probe.0, tr.timestamp.as_secs()))
                .or_default() += 1;
        })
        .unwrap();
        (seen, summary)
    }

    fn lines_input(n: u32) -> Vec<u8> {
        let mut s = String::new();
        for i in 0..n {
            s.push_str(&tr_json(i, 1000 + i64::from(i)));
            s.push('\n');
        }
        s.into_bytes()
    }

    fn array_input(n: u32) -> Vec<u8> {
        let docs: Vec<String> = (0..n).map(|i| tr_json(i, 1000 + i64::from(i))).collect();
        format!("[{}]", docs.join(",")).into_bytes()
    }

    #[test]
    fn ingest_slice_delivers_raw_bytes_and_matches_reader_semantics() {
        let input = lines_input(5);
        let mut records: Vec<(u64, Vec<u8>, u32)> = Vec::new();
        let quarantined = ingest_slice(&input, |offset, raw, tr| {
            records.push((offset, raw.to_vec(), tr.probe.0));
        });
        assert!(quarantined.is_empty());
        assert_eq!(records.len(), 5);
        for (i, (offset, raw, probe)) in records.iter().enumerate() {
            assert_eq!(*probe, i as u32);
            // The raw frame is the exact source line at its offset —
            // the spool can replay it verbatim.
            let end = *offset as usize + raw.len();
            assert_eq!(&input[*offset as usize..end], &raw[..]);
            assert_eq!(raw.first(), Some(&b'{'));
        }
        // A top-level array frames too (same DocSplitter).
        let mut n = 0;
        assert!(ingest_slice(&array_input(3), |_, _, _| n += 1).is_empty());
        assert_eq!(n, 3);
    }

    #[test]
    fn ingest_slice_quarantines_with_file_taxonomy() {
        let mut input = Vec::new();
        input.extend_from_slice(tr_json(1, 1000).as_bytes());
        input.push(b'\n');
        input.extend_from_slice(b"{\"not\":\"atlas\"}\n");
        input.extend_from_slice(b"not json at all\n");
        input.extend_from_slice(tr_json(2, 1001).as_bytes());
        input.push(b'\n');
        let mut accepted = 0;
        let quarantined = ingest_slice(&input, |_, _, _| accepted += 1);
        assert_eq!(accepted, 2);
        assert_eq!(quarantined.len(), 2);
        // Sorted by offset; kinds match the batch ingest taxonomy.
        assert!(quarantined.windows(2).all(|w| w[0].offset <= w[1].offset));
        let kinds: Vec<&str> = quarantined.iter().map(|q| q.kind.name()).collect();
        assert_eq!(kinds, vec!["json", "json"]);
        // A reader-based ingest over the same bytes agrees on counts.
        let mut reader_accepted = 0;
        let summary = ingest_reader(
            Cursor::new(input.clone()),
            &IngestOptions {
                serial: true,
                ..IngestOptions::default()
            },
            |_| reader_accepted += 1,
        )
        .unwrap();
        assert_eq!(reader_accepted, accepted);
        assert_eq!(summary.quarantined.len(), quarantined.len());
        for (a, b) in summary.quarantined.iter().zip(&quarantined) {
            assert_eq!((a.offset, a.kind), (b.offset, b.kind));
            assert_eq!(a.record, b.record);
        }
    }

    #[test]
    fn ingest_slice_quarantines_deep_nesting_and_keeps_neighbours() {
        // 20,000 nested arrays: an unbounded recursive parser overflows
        // the stack here, which aborts the process past `catch_unwind`.
        let deep = format!("{{\"deep\":{}{}}}", "[".repeat(20_000), "]".repeat(20_000));
        let input = format!("{}\n{deep}\n{}\n", tr_json(1, 1000), tr_json(2, 1001));
        let mut probes = Vec::new();
        let quarantined = ingest_slice(input.as_bytes(), |_, _, tr| probes.push(tr.probe.0));
        assert_eq!(probes, vec![1, 2]);
        assert_eq!(quarantined.len(), 1);
        let q = &quarantined[0];
        assert_eq!(q.kind, QuarantineKind::Json);
        assert_eq!(q.offset as usize, tr_json(1, 1000).len() + 1);
        assert_eq!(q.record, deep.as_bytes());
        assert!(
            q.detail.contains("recursion limit exceeded"),
            "{}",
            q.detail
        );
    }

    /// The serde-only decode the direct decoder short-circuits: what
    /// `decode_record` did before it, kept here as the oracle.
    fn serde_only(bytes: &[u8]) -> Result<TracerouteResult, (QuarantineKind, String)> {
        let text = std::str::from_utf8(bytes).map_err(|e| (QuarantineKind::Json, e.to_string()))?;
        let doc: AtlasTraceroute =
            serde_json::from_str(text).map_err(|e| (QuarantineKind::Json, e.to_string()))?;
        doc.to_model()
            .map_err(|e| (QuarantineKind::Model, e.to_string()))
    }

    #[test]
    fn ingest_slice_matches_a_serde_only_decode() {
        // Canonical records, variants the direct decoder declines but
        // serde accepts, variants both reject, and every truncation of
        // one record, each on its own line.
        let good = tr_json(7, 1234);
        let without_fw = good.replacen("\"fw\":5080,", "", 1);
        let reordered = format!("{},\"fw\":5080}}", &without_fw[..without_fw.len() - 1]);
        let mut lines: Vec<String> = vec![
            good.clone(),
            good.replace("\"ICMP\"", r#""IC\u004dP""#),
            reordered,
            good.replacen('{', r#"{"lts":22,"meta":{"a":[1,null,"x"]},"#, 1),
            good.replacen("\"af\":4", "\"af\":4,\"af\":6", 1),
            good.replace("1.25", "-0"),
            good.replace("1.25", "1e2"),
            good.replace("\"hop\":1", "\"hop\":256"),
            good.replace("\"prb_id\":7", "\"prb_id\":07"),
            good.replace("\"timestamp\":1234", "\"timestamp\":-1234"),
            good.replace("traceroute", "ping"),
            good.replace("20.9.9.9", "not-an-ip"),
            good.replace("192.168.1.1", "2001:db8::1"),
            format!("{{\"x\":{}{}}}", "[".repeat(200), "]".repeat(200)),
            "{\"bad\u{1}\":1}".to_string(),
        ];
        lines.extend((1..good.len()).map(|end| good[..end].to_string()));
        let input = lines.join("\n") + "\n";

        let mut delivered: Vec<(u64, TracerouteResult)> = Vec::new();
        let quarantined = ingest_slice(input.as_bytes(), |offset, _, tr| {
            delivered.push((offset, tr))
        });

        let mut want_delivered = Vec::new();
        let mut want_quarantined = Vec::new();
        let mut handle = |frame: Frame<'_>| match frame {
            Frame::Doc { offset, bytes } => match serde_only(bytes) {
                Ok(tr) => want_delivered.push((offset, tr)),
                Err((kind, detail)) => {
                    want_quarantined.push((offset, kind, detail, bytes.to_vec()))
                }
            },
            Frame::Junk {
                offset,
                bytes,
                reason,
            } => want_quarantined.push((
                offset,
                QuarantineKind::Framing,
                reason.to_string(),
                bytes.to_vec(),
            )),
        };
        let mut splitter = DocSplitter::new();
        splitter.feed(input.as_bytes(), &mut handle);
        splitter.finish(&mut handle);

        assert_eq!(delivered, want_delivered);
        let got: Vec<_> = quarantined
            .into_iter()
            .map(|q| (q.offset, q.kind, q.detail, q.record))
            .collect();
        assert_eq!(got, want_quarantined);
        // Not vacuous: both outcomes occur, and some accepted records
        // took the serde fallback.
        assert!(delivered.len() >= 6, "{}", delivered.len());
        assert!(got.len() > good.len(), "{}", got.len());
    }

    #[test]
    fn serial_and_parallel_agree_on_lines_and_array() {
        for input in [lines_input(100), array_input(100)] {
            let serial = fingerprint(
                &IngestOptions {
                    serial: true,
                    ..IngestOptions::default()
                },
                &input,
            );
            for threads in [1, 4] {
                let parallel = fingerprint(
                    &IngestOptions {
                        threads,
                        chunk_bytes: 97, // force documents across chunk boundaries
                        ..IngestOptions::default()
                    },
                    &input,
                );
                assert_eq!(serial.0, parallel.0, "threads={threads}");
                assert_eq!(serial.1.parsed, parallel.1.parsed);
                assert_eq!(serial.1.bytes_read, parallel.1.bytes_read);
                assert_eq!(serial.1.skipped(), parallel.1.skipped());
            }
        }
    }

    #[test]
    fn skip_probes_drops_exactly_the_served_records_on_both_paths() {
        // Probes 0..6, five records each; probes 2 and 4 are served.
        let mut text = String::new();
        for ts in 0..5 {
            for probe in 0..6 {
                text.push_str(&tr_json(probe, 1000 + ts));
                text.push('\n');
            }
        }
        // A served probe's record the peek declines (an escaped key) is
        // decoded as usual.
        text.push_str(&tr_json(2, 9000).replace("\"prb_id\"", "\"prb\\u005fid\""));
        text.push('\n');
        // A served probe's record with invalid UTF-8 after its `prb_id`
        // is quarantined as ever.
        let mut bad_utf8 = tr_json(2, 9003).into_bytes();
        let last = bad_utf8.len() - 2;
        bad_utf8[last] = 0xFF;
        // Quarantine from junk and from a probe that is not served.
        text.push_str("not-json\n");
        text.push_str(&tr_json(5, 9001).replace("traceroute", "ping"));
        text.push('\n');
        let dir = std::env::temp_dir().join("lastmile-ingest-skip-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("corpus-{}.jsonl", std::process::id()));
        let mut bytes = text.into_bytes();
        bytes.extend_from_slice(&bad_utf8);
        bytes.push(b'\n');
        std::fs::write(&path, &bytes).unwrap();
        let path = path.to_str().unwrap();
        let skip: BTreeSet<ProbeId> = [ProbeId(2), ProbeId(4)].into_iter().collect();
        let run = |options: &IngestOptions| {
            let mut seen: BTreeMap<(u32, i64), u64> = BTreeMap::new();
            let summary = ingest_file(path, options, |tr| {
                *seen
                    .entry((tr.probe.0, tr.timestamp.as_secs()))
                    .or_default() += 1;
            })
            .unwrap();
            (seen, summary)
        };
        let triage = |s: &IngestSummary| -> Vec<(u64, &str, String, Vec<u8>)> {
            s.quarantined
                .iter()
                .map(|q| (q.offset, q.kind.name(), q.detail.clone(), q.record.clone()))
                .collect()
        };
        for serial in [true, false] {
            let full_options = IngestOptions {
                serial,
                threads: 2,
                chunk_bytes: 97, // documents across chunk boundaries
                record_latency: true,
                ..IngestOptions::default()
            };
            let skip_options = IngestOptions {
                skip_probes: Some(Arc::new(skip.clone())),
                ..full_options.clone()
            };
            let (all, full) = run(&full_options);
            let (kept, skipped) = run(&skip_options);
            let mut expected = all.clone();
            expected.retain(|&(probe, ts), _| !(skip.contains(&ProbeId(probe)) && ts < 9000));
            assert_eq!(kept, expected, "serial={serial}");
            assert!(kept.contains_key(&(2, 9000)));
            assert_eq!(full.records_skipped_served, 0);
            assert!(full.skipped_probes.is_empty());
            assert_eq!(skipped.records_skipped_served, 10);
            assert_eq!(skipped.skipped_probes, skip);
            assert_eq!(skipped.parsed + 10, full.parsed);
            assert_eq!(skipped.bytes_read, full.bytes_read);
            assert_eq!(triage(&skipped), triage(&full));
            assert_eq!(full.skipped(), 3);
            // A skipped record is not a decode: no latency sample.
            assert_eq!(skipped.decode_hist.count() + 10, full.decode_hist.count());
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn array_larger_than_the_bounded_queues_streams_through() {
        // 500 records but the pipeline may only ever hold 2 batches of 4
        // in the queue (plus one in each of 2 workers): completion
        // proves the framer streams under backpressure instead of
        // buffering the array.
        let input = array_input(500);
        let queue_capacity_records = 2 * 4;
        assert!(input.len() > 50 * queue_capacity_records);
        let (seen, summary) = fingerprint(
            &IngestOptions {
                threads: 2,
                batch_records: 4,
                queue_batches: 2,
                chunk_bytes: 512,
                ..IngestOptions::default()
            },
            &input,
        );
        assert_eq!(summary.parsed, 500);
        assert_eq!(summary.bytes_read as usize, input.len());
        assert_eq!(seen.len(), 500);
        assert!(summary.quarantined.is_empty());
    }

    #[test]
    fn quarantine_taxonomy_is_typed_with_offsets() {
        let good = tr_json(1, 1000);
        let model_bad = good.replace("traceroute", "ping");
        let input = format!("{good}\nnot-json\n{model_bad}\n{good}\n");
        for options in [
            IngestOptions {
                serial: true,
                ..IngestOptions::default()
            },
            IngestOptions {
                threads: 3,
                ..IngestOptions::default()
            },
        ] {
            let (_, summary) = fingerprint(&options, input.as_bytes());
            assert_eq!(summary.parsed, 2);
            assert_eq!(summary.skipped(), 2);
            assert_eq!(summary.quarantined_of(QuarantineKind::Json), 1);
            assert_eq!(summary.quarantined_of(QuarantineKind::Model), 1);
            // Sorted by offset, with the raw bytes captured.
            let q = &summary.quarantined;
            assert!(q[0].offset < q[1].offset);
            assert_eq!(q[0].record, b"not-json");
            assert_eq!(q[0].offset as usize, good.len() + 1);
            assert!(String::from_utf8_lossy(&q[1].record).contains("ping"));
        }
    }

    #[test]
    fn truncated_array_tail_is_framing_quarantine() {
        let good = tr_json(1, 1000);
        let input = format!("[{good},{}", &good[..30]);
        let (_, summary) = fingerprint(&IngestOptions::default(), input.as_bytes());
        assert_eq!(summary.parsed, 1);
        assert_eq!(summary.quarantined_of(QuarantineKind::Framing), 1);
        assert!(summary.quarantined[0].detail.contains("truncated"));
    }

    #[test]
    fn worker_panic_is_isolated_to_the_record() {
        let input = lines_input(10);
        // Panic on the third record (offset = 2 lines in).
        let line_len = tr_json(0, 1000).len() + 1;
        let panic_offset = (2 * line_len) as u64;
        for serial in [false, true] {
            let options = IngestOptions {
                threads: 2,
                serial,
                inject_panic_offset: Some(panic_offset),
                ..IngestOptions::default()
            };
            let (_, summary) = fingerprint(&options, &input);
            assert_eq!(summary.parsed, 9, "serial={serial}");
            assert_eq!(summary.quarantined_of(QuarantineKind::WorkerPanic), 1);
            let q = &summary.quarantined[0];
            assert_eq!(q.offset, panic_offset);
            assert!(q.detail.contains("injected"), "{}", q.detail);
        }
    }

    #[test]
    fn empty_and_whitespace_inputs_are_clean() {
        for input in [&b""[..], b"  \n \n", b"[]"] {
            let (seen, summary) = fingerprint(&IngestOptions::default(), input);
            assert!(seen.is_empty());
            assert_eq!(summary.parsed, 0);
            assert!(summary.quarantined.is_empty());
        }
    }

    #[test]
    fn missing_file_is_an_error() {
        let err =
            ingest_file("/does/not/exist.jsonl", &IngestOptions::default(), |_| {}).unwrap_err();
        assert!(err.contains("/does/not/exist.jsonl"), "{err}");
    }

    #[test]
    fn auto_thread_selection_prefers_serial_on_one_core() {
        let auto = IngestOptions::default();
        assert!(
            select_serial(&auto, 1),
            "auto threads on one core must take the serial path"
        );
        assert!(!select_serial(&auto, 8));
        let explicit_one = IngestOptions {
            threads: 1,
            ..IngestOptions::default()
        };
        assert!(
            !select_serial(&explicit_one, 1),
            "explicit thread counts keep the worker pipeline"
        );
        let forced = IngestOptions {
            serial: true,
            ..IngestOptions::default()
        };
        assert!(select_serial(&forced, 16));
    }

    #[test]
    fn latency_and_progress_gauges_are_collected_when_asked() {
        let input = lines_input(100);
        for serial in [true, false] {
            let options = IngestOptions {
                serial,
                threads: 2,
                batch_records: 4,
                record_latency: true,
                progress: Some(Arc::new(LiveProgress::default())),
                ..IngestOptions::default()
            };
            let progress = options.progress.clone().unwrap();
            let (_, summary) = fingerprint(&options, &input);
            assert_eq!(summary.decode_hist.count(), 100, "serial={serial}");
            assert!(summary.decode_hist.max() > 0);
            assert_eq!(
                progress.bytes_read.load(Ordering::Relaxed) as usize,
                input.len()
            );
            assert_eq!(progress.records.load(Ordering::Relaxed), 100);
            assert_eq!(
                progress.queue_depth.load(Ordering::Relaxed),
                0,
                "queue fully drained"
            );
            if serial {
                assert_eq!(summary.queue_max_depth, 0, "serial path has no queue");
            } else {
                assert!(summary.queue_max_depth > 0, "queue gauge never moved");
            }
        }
        // Latency collection is opt-in: off by default.
        let (_, summary) = fingerprint(&IngestOptions::default(), &input);
        assert_eq!(summary.decode_hist.count(), 0);
    }

    #[test]
    fn serial_timers_keep_consumer_time_out_of_decode() {
        // 20 records whose consumer sleeps 2 ms each: 40 ms of consumer
        // time that is neither framing nor decoding.
        let input = lines_input(20);
        let options = IngestOptions {
            serial: true,
            ..IngestOptions::default()
        };
        let summary = ingest_reader(Cursor::new(input), &options, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        })
        .unwrap();
        assert_eq!(summary.parsed, 20);
        assert!(summary.wall_nanos >= 40_000_000);
        assert!(summary.decode_nanos > 0, "decode time went unmeasured");
        assert!(
            summary.decode_nanos < 20_000_000,
            "decode_nanos {} counts the consumer's sleep",
            summary.decode_nanos
        );
        assert!(
            summary.frame_nanos + summary.decode_nanos < summary.wall_nanos,
            "frame {} + decode {} exceed wall {}",
            summary.frame_nanos,
            summary.decode_nanos,
            summary.wall_nanos
        );
    }

    #[test]
    fn timers_and_throughput_inputs_are_populated() {
        let input = lines_input(50);
        let (_, summary) = fingerprint(&IngestOptions::default(), &input);
        assert!(summary.wall_nanos > 0);
        assert_eq!(summary.bytes_read as usize, input.len());
    }
}
