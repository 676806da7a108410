#!/usr/bin/env python3
"""The lastmile benchmark: one command for batch classify, warm cache and
live serving, plus a traced per-layer run.

    python3 perfbench/run.py --workload fleet-cold|fleet-warm|serve-live \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds `lastmile` and the `perfbench`
helper from source (into $CARGO_TARGET_DIR, default `.bench_build`),
generates the workload's inputs from the seed with `lastmile fleet gen`
over `perfbench/fleet.json`, runs the program end to end, checks its
outputs, and prints one JSON object as the last line of standard output:
the end-to-end metrics with `--trace 0`, the per-layer metrics of the
traced run with `--trace 1`. The line before it holds the host and input
provenance and the per-workload detail. Progress goes to standard error.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SPEC = os.path.join(BENCH, "fleet.json")
WORKLOADS = ("fleet-cold", "fleet-warm", "serve-live")

SETUP_REPS = 3  # set-ups per run; setup_s is their median
MIN_CLASSIFY_REPS = 2  # timed classify invocations per run, at least
MIN_BEYOND = 10  # samples beyond a reported percentile, as in src/stats.rs
SERVE_WORKERS = 2
DEBOUNCE_MS = 250
READY_TIMEOUT_S = 120
STOP_TIMEOUT_S = 60
DAY = 86400


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Build the program and the helper from source."""
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError("no Cargo.toml at the repository root: nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "lastmile-cli"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(BENCH, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "lastmile"), os.path.join(release, "perfbench")


class Child:
    """One finished child process: exit code, wall, CPU and peak RSS."""

    def __init__(self, code, wall_s, cpu_s, rss_mb):
        self.code, self.wall_s, self.cpu_s, self.rss_mb = code, wall_s, cpu_s, rss_mb


def reap(proc, t0):
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run(cmd, stdout_path=None):
    """Run `cmd` to completion, timed; stdout to a file or discarded."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        # Write back the files earlier steps left dirty, so that their
        # flush does not compete with the timed child.
        os.sync()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL)
        return reap(proc, t0)
    finally:
        if stdout_path:
            out.close()


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_json(path):
    with open(path) as f:
        return json.load(f)


def median(values):
    return statistics.median(values)


class Ledger:
    """Attempted and failed operations. An operation is one classify
    invocation or one HTTP request; every failed check counts as a failed
    operation too."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def ops(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")


class Workload:
    def __init__(self, name, seed, seconds, bins, work):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.lastmile, self.perfbench = bins
        self.work = work
        self.ledger = Ledger()
        self.detail = {}
        self.corpus_dir = os.path.join(work, "corpus")
        self.corpus = os.path.join(self.corpus_dir, "traceroutes.jsonl")
        self.probes = os.path.join(self.corpus_dir, "probes.json")
        self.truth = os.path.join(self.corpus_dir, "truth.json")
        self.cache = os.path.join(work, "cache")

    def path(self, name):
        return os.path.join(self.work, name)

    # ---------------------------------------------------------- set-up

    def gen(self, cache=False):
        """`fleet gen` (with snapshot priming when `cache`); its wall time."""
        cmd = [self.lastmile, "fleet", "gen", "--spec", SPEC, "--out", self.corpus_dir,
               "--seed", str(self.seed), "--threads", str(os.cpu_count() or 1)]
        if cache:
            shutil.rmtree(self.cache, ignore_errors=True)
            cmd += ["--cache-dir", self.cache]
        child = run(cmd)
        if child.code != 0:
            raise BenchError(f"fleet gen exited {child.code}")
        return child.wall_s

    def gen_repeated(self, cache=False):
        """Set up SETUP_REPS times; the corpus and truth must come out
        byte for byte the same (hashed after each timed gen)."""
        times, digests = [], set()
        for _ in range(SETUP_REPS):
            times.append(self.gen(cache))
            digests.add((file_sha256(self.corpus), file_sha256(self.truth)))
        self.ledger.op(len(digests) == 1, "fleet gen is not deterministic")
        return median(times)

    def window(self):
        w = read_json(self.truth)["window"]
        return w["start"], w["end"]

    # -------------------------------------------------------- classify

    def classify(self, out, warm=False, windowed=False, corpus=None, stats=None):
        cmd = [self.lastmile, "classify", "--traceroutes", corpus or self.corpus,
               "--probes", self.probes, "--json"]
        if windowed or warm:
            start, end = self.window()
            cmd += ["--start", str(start), "--end", str(end)]
        if warm:
            cmd += ["--cache-dir", self.cache, "--cache", "ro"]
        if stats:
            cmd += ["--stats-out", stats]
        child = run(cmd, out)
        self.ledger.op(child.code == 0, f"classify exited {child.code}")
        return child

    def timed_classifies(self, reference, **flags):
        """Repeat classify for --seconds (at least MIN_CLASSIFY_REPS
        times); every output must equal `reference`."""
        children, deadline, i = [], time.perf_counter() + self.seconds, 0
        while i < MIN_CLASSIFY_REPS or time.perf_counter() < deadline:
            out = self.path(f"classify-{i}.json")
            child = self.classify(out, **flags)
            if reference is None:
                reference = out
            self.ledger.op(read_bytes(out) == read_bytes(reference),
                           f"classify output {i} differs from its reference")
            children.append(child)
            i += 1
        return children, reference

    def score(self, classified):
        out = self.path("score.json")
        child = run([self.lastmile, "fleet", "score", "--truth", self.truth,
                     "--classified", classified, "--json"], out)
        if not self.ledger.op(child.code == 0, f"fleet score exited {child.code}"):
            return {"recall": 0.0, "precision": 0.0}
        return read_json(out)

    def classify_metrics(self, children, scored):
        return {
            "classify_s": median([c.wall_s for c in children]),
            "classify_cpu_s": median([c.cpu_s for c in children]),
            "peak_rss_mb": median([c.rss_mb for c in children]),
            "recall": scored["recall"],
            "precision": scored["precision"],
        }

    # ---------------------------------------------------------- daemon

    def start_daemon(self, base, spool, ready, access=None):
        for p in (spool, ready, access):
            if p and os.path.exists(p):
                os.remove(p)
        cmd = [self.lastmile, "serve", "--traceroutes", base, "--probes", self.probes,
               "--addr", "127.0.0.1:0", "--ready-file", ready, "--live-spool", spool,
               "--serve-workers", str(SERVE_WORKERS),
               "--reanalyze-debounce-ms", str(DEBOUNCE_MS)]
        if access:
            cmd += ["--access-log", access]
        os.sync()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        while True:
            if os.path.exists(ready):
                text = open(ready).read()
                if text.endswith("\n"):
                    return proc, time.perf_counter() - t0, text.strip()
            if proc.poll() is not None:
                raise BenchError(f"serve exited {proc.returncode} before it was ready")
            if time.perf_counter() - t0 > READY_TIMEOUT_S:
                stop_daemon(proc)
                raise BenchError("serve never wrote its ready file")
            time.sleep(0.005)

    def serve_session(self, setup_reps, access_log=False):
        """The serve-live run: split off the last day, start the daemon
        (`setup_reps` times, keeping the last), replay the day as intake
        POSTs under open-loop reads, then check the final epoch."""
        start, end = self.window()
        base, live = self.path("base.jsonl"), self.path("live.jsonl")
        split = subprocess.run([self.perfbench, "split", "--corpus", self.corpus, "--cut",
                                str(end - DAY), "--base", base, "--live", live],
                               capture_output=True, text=True)
        if split.returncode != 0:
            raise BenchError("split failed: " + split.stderr)
        self.detail["split_records"] = json.loads(split.stdout)
        spool, ready = self.path("spool.jsonl"), self.path("ready")
        access = self.path("access.jsonl")
        startups, proc = [], None
        for i in range(setup_reps):
            proc, ready_s, addr = self.start_daemon(base, spool, ready,
                                                        access if access_log else None)
            startups.append(ready_s)
            if i + 1 < setup_reps:
                stop_daemon(proc)
        host, port = addr.rsplit(":", 1)
        try:
            asns = sorted({p["asn"] for p in read_json(self.probes)})
            report_path = self.path("load.json")
            load = subprocess.run(
                [self.perfbench, "load", "--addr", addr, "--seconds", str(self.seconds),
                 "--live", live, "--asns", ",".join(map(str, asns)),
                 "--out", report_path], stderr=subprocess.PIPE, text=True)
            if load.returncode != 0:
                raise BenchError("load generator failed: " + load.stderr)
            report = read_json(report_path)
            scrapes = [http_get(host, int(port), path)
                       for path in ("/v1/classify", "/metrics", "/v1/ops/epochs")]
        finally:
            daemon = stop_daemon(proc)
        (_, final), (_, metrics), (_, epochs) = scrapes
        final_path = self.path("final.json")
        with open(final_path, "wb") as f:
            f.write(final)
        metrics, epochs = json.loads(metrics), json.loads(epochs)

        led = self.ledger
        tally = report["tally"]
        led.ops(tally["attempted"], tally["shed"] + tally["errors"], "HTTP requests")
        led.ops(len(scrapes), sum(status != 200 for status, _ in scrapes), "final scrapes")
        led.op(tally["balanced"], "attempted != ok + shed + errors")
        led.op(report["shed_reconciled"],
               f"client saw {tally['shed']} sheds, daemon counted {report['server_shed']}")
        led.op(metrics["live"]["posts_rejected"] == 0,
               f"{metrics['live']['posts_rejected']} intake records rejected")
        led.op(report["freshness"]["uncovered"] == 0,
               f"{report['freshness']['uncovered']} POSTs never covered by an epoch")
        led.op(daemon.code == 0, f"serve exited {daemon.code}")
        for name, (value, count) in report_tails(report).items():
            led.op(value is not None, f"too few samples for {name} ({count})")
        # The pinned live contract: the final epoch equals a cold classify
        # over the base corpus plus the spool, timed like the fleet runs.
        union = self.path("union.jsonl")
        with open(union, "wb") as out:
            for part in (base, spool):
                with open(part, "rb") as f:
                    shutil.copyfileobj(f, out)
        children, _ = self.timed_classifies(final_path, corpus=union)
        s = {
            "startups": startups, "daemon": daemon, "report": report, "metrics": metrics,
            "epochs": epochs["epochs"], "union_classify": children, "final": final_path,
            "access": [json.loads(line) for line in open(access)] if access_log else None,
        }
        samples = {name: count for name, (_, count) in report_tails(report).items()}
        if access_log:
            handler = handler_ms(s["access"])
            samples["serve.handler_ms"] = len(handler)
            for p in (50, 99):
                led.op(tail(handler, p) is not None,
                       f"too few samples for serve.handler_ms p{p} ({len(handler)})")
        samples["live.passes"] = len(published(s["epochs"]))
        self.detail.setdefault("samples", {}).update(samples)
        return s

    # ------------------------------------------------------ timed runs

    def timed(self):
        if self.name == "fleet-cold":
            setup = self.gen_repeated()
            children, ref = self.timed_classifies(None)
            metrics = self.classify_metrics(children, self.score(ref))
        elif self.name == "fleet-warm":
            setup = self.gen_repeated(cache=True)
            ref = self.path("reference.json")
            self.classify(ref, windowed=True)  # outside timing
            children, _ = self.timed_classifies(ref, warm=True)
            metrics = self.classify_metrics(children, self.score(ref))
        else:
            self.gen()  # bookkeeping: not the daemon's set-up
            s = self.serve_session(SETUP_REPS)
            setup = median(s["startups"])
            metrics = self.classify_metrics(s["union_classify"], self.score(s["final"]))
            metrics["peak_rss_mb"] = s["daemon"].rss_mb
            self.detail["serve"] = serve_layers(s)
        metrics["setup_s"] = setup
        return metrics

    # ------------------------------------------------------ traced run

    def traced(self):
        """One set-up, the workload's classify with --stats-out, the
        in-process layer composition, and a serve-live session."""
        warm = self.name == "fleet-warm"
        self.gen(cache=warm)
        cli_json, stats = self.path("cli.json"), self.path("stats.json")
        cli = self.classify(cli_json, warm=warm, stats=stats)
        st = read_json(stats)
        records, size = count_lines(self.corpus), os.path.getsize(self.corpus)
        start, end = self.window()
        out, trace = self.path("traced.json"), self.path("trace.json")
        cmd = [self.perfbench, "traced", "--workload", self.name, "--spec", SPEC,
               "--seed", str(self.seed), "--corpus", self.corpus, "--probes", self.probes,
               "--start", str(start), "--end", str(end), "--cli-json", cli_json,
               "--seconds", str(self.seconds),
               "--work-dir", self.work, "--trace-out", trace, "--out", out]
        if warm:
            cmd += ["--snapshot", os.path.join(self.cache, "series.lmss")]
        t = subprocess.run(cmd, stderr=subprocess.PIPE, text=True)
        if t.returncode != 0:
            raise BenchError("traced run failed: " + t.stderr)
        traced = read_json(out)
        self.detail.setdefault("samples", {}).update(traced["samples"])
        checks = traced["checks"]
        self.ledger.op(checks["rendered_equals_corpus"], "traced render differs from the corpus")
        self.ledger.op(checks["verdicts_equal_cli"], "traced verdicts differ from the CLI's")
        self.ledger.op(checks["decode_failed"] == 0, "traced decode failures")
        unaccounted = traced["metrics"]["traced.unaccounted_share"]
        self.ledger.op(unaccounted <= 0.05,
                       f"layer calls cover only {1 - unaccounted:.1%} of the traced run")
        keep = os.path.join(target_dir(), "perfbench-last")
        os.makedirs(keep, exist_ok=True)
        shutil.copy(trace, os.path.join(keep, f"{self.name}.trace.json"))

        s = self.serve_session(1, access_log=True)
        metrics = dict(traced["metrics"])
        metrics["cli.decodes_per_record"] = st["ingest"]["records_decoded"] / records
        metrics["cli.read_bytes_per_byte"] = st["ingest"]["bytes_read"] / size
        metrics["cli.store_hits"] = st["store"]["hits"]
        metrics.update(serve_layers(s))
        # Composition overhead: the traced run against the binary doing
        # the same classification (with --stats-out).
        self.detail["classify_s"] = cli.wall_s
        self.detail["composition_overhead_s"] = metrics["traced.wall_s"] - cli.wall_s
        return metrics


def count_lines(path):
    n = 0
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            n += block.count(b"\n")
    return n


def tail(values, p):
    """Nearest-rank percentile `p` under the reporting rule of src/stats.rs:
    None unless at least MIN_BEYOND samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(p / 100.0 * len(ordered) - 1e-9)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def report_tails(report):
    """Every percentile of a load report: name -> (value, sample count)."""
    out = {}
    for group, entries in report.items():
        if isinstance(entries, dict) and "count" in entries:
            entries, group = {group: entries}, ""
        if isinstance(entries, dict):
            for key, t in entries.items():
                if isinstance(t, dict) and "count" in t:
                    out[f"{group}.{key}" if group else key] = (t["value"], t["count"])
    return out


def http_get(host, port, path):
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def stop_daemon(proc):
    """SIGTERM the daemon (it drains), SIGKILL it if the drain hangs, and
    reap it with its resource usage."""
    if proc is None:
        return None
    t0 = time.perf_counter()
    proc.send_signal(signal.SIGTERM)
    deadline = t0 + STOP_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return Child(proc.returncode, time.perf_counter() - t0,
                         usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        if time.perf_counter() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.01)


def published(epochs):
    return [e for e in epochs if e["outcome"] == "published"]


def serve_layers(s):
    """Per-layer figures of one serve-live session. A run has only a few
    re-analysis passes, too few for a percentile, so pass and swap times
    are reported as mean and max."""
    r, m = s["report"], s["metrics"]
    t = report_tails(r)
    passes = published(s["epochs"])
    pass_s = [e["pass_nanos"] / 1e9 for e in passes] or [0.0]
    swap_us = [e["swap_nanos"] / 1e3 for e in passes] or [0.0]
    out = {
        "serve.read_p50_ms": t["reads.latency_ms_p50"][0],
        "serve.read_p99_ms": t["reads.latency_ms_p99"][0],
        "serve.reads": t["reads.latency_ms_p50"][1],
        "serve.connect_p50_ms": t["reads.connect_ms_p50"][0],
        "serve.ttfb_p50_ms": t["reads.ttfb_ms_p50"][0],
        "serve.ttfb_p99_ms": t["reads.ttfb_ms_p99"][0],
        "serve.queue_max_depth": m["serve"]["queue_max_depth"],
        "serve.shed": r["server_shed"],
        "live.intake_p50_ms": t["intake.latency_ms_p50"][0],
        "live.intake_p90_ms": t["intake.latency_ms_p90"][0],
        "live.freshness_p50_s": t["freshness.s_p50"][0],
        "live.freshness_p90_s": t["freshness.s_p90"][0],
        "live.posts": t["intake.latency_ms_p50"][1],
        "live.freshness_samples": t["freshness.s_p50"][1],
        "live.pass_s_mean": statistics.fmean(pass_s),
        "live.pass_s_max": max(pass_s),
        "live.passes": len(passes),
        "live.posts_per_pass": r["posts"] / max(1, len(passes)),
        "live.swap_us_mean": statistics.fmean(swap_us),
        "client.lag_ms_p99": t["lag_ms_p99"][0],
    }
    if s["access"]:
        handler = handler_ms(s["access"])
        out["serve.handler_p50_ms"] = tail(handler, 50)
        out["serve.handler_p99_ms"] = tail(handler, 99)
    return out


def handler_ms(access):
    """The daemon's own latency for each read, from its access log; ttfb
    minus this is the accept-poll plus queue wait."""
    return [rec["latency_micros"] / 1e3 for rec in access
            if rec["method"] == "GET" and rec["path"].startswith(("/v1/classify", "/v1/series"))]


def source_digest():
    """SHA-256 over the program's sources, which names the code under test
    where there is no git commit to name it."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0" + read_bytes(path))
        if os.path.isfile(os.path.join(ROOT, top)):
            h.update(top.encode() + b"\0" + read_bytes(os.path.join(ROOT, top)))
    return h.hexdigest()


def provenance(w, args):
    def cmd_out(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            return r.stdout.strip() if r.returncode == 0 else None
        except OSError:
            return None

    return {
        "nproc": os.cpu_count(),
        "rustc": cmd_out(["rustc", "--version"]),
        "git_commit": cmd_out(["git", "rev-parse", "HEAD"]) or "not a git checkout",
        "source_sha256": source_digest(),
        "spec_sha256": hashlib.sha256(read_bytes(SPEC)).hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "corpus_records": count_lines(w.corpus) if os.path.exists(w.corpus) else None,
        "corpus_bytes": os.path.getsize(w.corpus) if os.path.exists(w.corpus) else None,
    }


def declared_metrics(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    doc = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        bins = build()
        work = os.path.join(target_dir(), "perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        w = Workload(args.workload, args.seed, args.seconds, bins, work)
        try:
            metrics = w.traced() if args.trace else w.timed()
            prov = provenance(w, args)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log(f"error: {e}")
        return 1
    for p in w.ledger.problems:
        log(f"check failed: {p}")
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        log(f"error: measured {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
        return 1
    result = {
        "correct": w.ledger.failed == 0,
        "attempted": w.ledger.attempted,
        "failed": w.ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in declared.items()},
    }
    print(json.dumps({"provenance": prov, "detail": w.detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
