//! Traceroute export shared by `simulate` and `fleet gen`: simulate each
//! probe's traceroutes, render them as Atlas JSON Lines and write the file
//! in probe order.
//!
//! Rendering runs on a small pool of workers that claim probes in order
//! from a shared cursor, each into a reused buffer. The calling thread
//! writes probe *i* as soon as it is ready while the workers render
//! *i+1…*. At most `threads + 1` probe buffers exist, so memory does not
//! grow with the fleet, and the file is assembled strictly in probe
//! order, so no thread count can move a byte.

use lastmile_repro::atlas::json::write_traceroute;
use lastmile_repro::atlas::TracerouteResult;
use lastmile_repro::netsim::SimProbe;
use lastmile_repro::obs::trace;
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Write `traceroutes(probe, emit)`'s records for every probe to `path`
/// as JSON Lines, rendering on `threads` workers (0 = one per core).
/// Returns the number of records written.
pub fn write_jsonl(
    path: &str,
    probes: &[&SimProbe],
    threads: usize,
    traceroutes: impl Fn(&SimProbe, &mut dyn FnMut(TracerouteResult)) + Sync,
) -> Result<usize, String> {
    // Each write is a whole probe's text, so there is nothing to buffer.
    let mut file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let render = |probe: &&SimProbe, buf: &mut String| {
        let public = probe.meta.public_addr;
        let mut records = 0usize;
        traceroutes(probe, &mut |tr| {
            write_traceroute(&tr, public, buf);
            buf.push('\n');
            records += 1;
        });
        records
    };
    let mut count = 0usize;
    render_ordered(probes, threads, render, |text, records| {
        count += records;
        file.write_all(text.as_bytes())
    })
    .map_err(|e| format!("write {path}: {e}"))?;
    Ok(count)
}

/// Render every item into a buffer on `threads` workers (0 = one per
/// core; never more than there are items) and hand each buffer, with what `render` returned for it, to `write`
/// in item order on the calling thread. The first error from `write`
/// stops the run and is returned; a panic in `render` is re-raised here.
pub fn render_ordered<T: Sync, R: Send, E>(
    items: &[T],
    threads: usize,
    render: impl Fn(&T, &mut String) -> R + Sync,
    mut write: impl FnMut(&str, R) -> Result<(), E>,
) -> Result<(), E> {
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .clamp(1, items.len().max(1));
    let cursor = AtomicUsize::new(0);
    // The buffer pool bounds memory: a worker takes a free buffer before
    // it claims an item, and the writer returns each buffer once written.
    // The lowest unwritten item is therefore always rendered already or
    // claimed by a worker holding a buffer, so the pipeline cannot stall.
    let (free_tx, free_rx) = mpsc::channel::<String>();
    for _ in 0..=threads {
        free_tx.send(String::new()).expect("pool receiver is alive");
    }
    let free_rx = Mutex::new(free_rx);
    std::thread::scope(|scope| {
        // Owned here, so leaving the scope early (an error or a panic)
        // hangs up on the workers and they exit.
        let free_tx = free_tx;
        let (done_tx, done_rx) = mpsc::channel::<(usize, std::thread::Result<(String, R)>)>();
        for worker in 0..threads {
            let (free_rx, done_tx, cursor, render) = (&free_rx, done_tx.clone(), &cursor, &render);
            std::thread::Builder::new()
                .name(format!("render-{worker}"))
                .spawn_scoped(scope, move || loop {
                    let Ok(mut buf) = free_rx.lock().expect("buffer pool lock").recv() else {
                        return;
                    };
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        return;
                    };
                    let span = trace::span_with("render_probe", |a| {
                        a.u64("index", i as u64);
                    });
                    buf.clear();
                    let rendered = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let r = render(item, &mut buf);
                        (buf, r)
                    }));
                    drop(span);
                    if done_tx.send((i, rendered)).is_err() {
                        return;
                    }
                })
                .expect("spawn render worker");
        }
        drop(done_tx);
        // Rendered buffers that arrived ahead of their turn.
        let mut ready = BTreeMap::new();
        for next in 0..items.len() {
            let rendered = loop {
                if let Some(rendered) = ready.remove(&next) {
                    break rendered;
                }
                let _wait = trace::span("render_wait");
                let (i, rendered) = done_rx.recv().expect("a render worker is alive");
                ready.insert(i, rendered);
            };
            let (buf, r) = rendered.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            let span = trace::span_with("write_probe", |a| {
                a.u64("index", next as u64);
                a.u64("bytes", buf.len() as u64);
            });
            write(&buf, r)?;
            drop(span);
            // The pool's receiver outlives this scope: the send succeeds.
            let _ = free_tx.send(buf);
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_in_item_order_with_bounded_buffers() {
        let items: Vec<u64> = (0..200).collect();
        for threads in [1, 2, 3, 8] {
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let mut out = String::new();
            let render = |&v: &u64, buf: &mut String| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                // Uneven work, so later items often finish first.
                std::thread::sleep(std::time::Duration::from_micros((v * 7919) % 300));
                buf.push_str(&format!("{v},"));
                v
            };
            let result: Result<(), ()> = render_ordered(&items, threads, render, |text, v| {
                assert_eq!(text, format!("{v},"));
                out.push_str(text);
                in_flight.fetch_sub(1, Ordering::SeqCst);
                Ok(())
            });
            result.unwrap();
            let expected: String = items.iter().map(|v| format!("{v},")).collect();
            assert_eq!(out, expected, "threads={threads}");
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= threads + 1,
                "{peak} buffers in flight, threads={threads}"
            );
        }
    }

    #[test]
    fn a_write_error_stops_the_run() {
        let items: Vec<usize> = (0..1000).collect();
        let rendered = AtomicUsize::new(0);
        let mut written = 0;
        let result = render_ordered(
            &items,
            2,
            |_, buf| {
                rendered.fetch_add(1, Ordering::SeqCst);
                buf.push('x');
            },
            |_, ()| {
                written += 1;
                if written == 5 {
                    Err("disk full")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(result, Err("disk full"));
        assert_eq!(written, 5);
        assert!(rendered.load(Ordering::SeqCst) < 20, "workers kept going");
    }

    #[test]
    fn a_render_panic_reaches_the_caller() {
        let items: Vec<usize> = (0..50).collect();
        let caught = std::panic::catch_unwind(|| {
            let _: Result<(), ()> = render_ordered(
                &items,
                3,
                |&i, _| assert!(i != 17, "render failed on item 17"),
                |_, ()| Ok(()),
            );
        });
        assert!(caught.is_err());
    }

    #[test]
    fn empty_input_writes_nothing() {
        let result: Result<(), ()> = render_ordered(
            &[] as &[u8],
            4,
            |_, _| (),
            |_, ()| panic!("nothing to write"),
        );
        assert_eq!(result, Ok(()));
    }
}
