#!/bin/sh
# Ingest perf record: classify a simulated dataset in both wire forms
# (JSON Lines and top-level array) on the serial reference path and at
# --ingest-threads 1 / auto, collecting each run's --stats-out document
# into BENCH_ingest.json. Offline; uses only the repo's own binary.
#
# The criterion benchmark (cargo bench -p lastmile-bench --bench ingest)
# prices the raw decode loop in-process; this script records the same
# comparison end-to-end through the CLI, stats plumbing included.
#
# BENCH_SMOKE=1 runs a fast correctness-only pass instead: a one-day
# corpus (plus a deliberately corrupted copy) is classified in every
# form × mode combination and each parallel mode's --json output and
# quarantine dump must be byte-identical to the serial reference path.
# No timings are recorded and BENCH_ingest.json is not touched — this is
# the cross-mode identity check scripts/check.sh runs on every change.
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo build --release -q -p lastmile-cli"
cargo build --release -q -p lastmile-cli
bin=target/release/lastmile

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

if [ "${BENCH_SMOKE:-0}" = "1" ]; then
    echo "==> smoke: simulate 1 day of the anchor scenario"
    "$bin" simulate --scenario anchor --out "$work" --days 1 >/dev/null 2>&1
    jsonl="$work/traceroutes.jsonl"
    array="$work/traceroutes.json"
    { printf '['; sed '$!s/$/,/' "$jsonl"; printf ']'; } >"$array"
    # A corrupted copy exercises quarantine identity: a torn record, a
    # non-JSON line and a record nested 20,000 deep (a json quarantine,
    # not a stack-overflow abort) spliced between intact records. Record
    # 4 gets an escaped string, outside the direct decoder's canonical
    # shape, so the serde fallback must accept it; record 5 gets
    # reordered keys, which the direct decoder takes in any order.
    corrupt="$work/corrupt.jsonl"
    deep=$(printf '%20000s' '' | tr ' ' '[')$(printf '%20000s' '' | tr ' ' ']')
    {
        head -n 3 "$jsonl"
        printf '{"torn": \nnot json at all\n'
        printf '{"deep":%s}\n' "$deep"
        sed -n '4s/"proto":"ICMP"/"proto":"IC\\u004dP"/p' "$jsonl"
        sed -n '5s/^{"fw":\([0-9]*\),\(.*\)}$/{\2,"fw":\1}/p' "$jsonl"
        tail -n +6 "$jsonl"
    } >"$corrupt"
    records=$(wc -l <"$jsonl")
    [ "$(wc -l <"$corrupt")" -eq $((records + 3)) ] || {
        echo "FAIL: the fallback-path rewrites did not apply" >&2
        exit 1
    }
    for form in lines array corrupt; do
        case $form in
            lines) file=$jsonl ;;
            array) file=$array ;;
            corrupt) file=$corrupt ;;
        esac
        for mode in serial 1 0; do
            case $mode in
                serial) args="--ingest-serial" label=serial ;;
                *) args="--ingest-threads $mode" label="threads$mode" ;;
            esac
            echo "==> smoke: classify $form $label"
            # shellcheck disable=SC2086 # $args is intentionally word-split
            "$bin" classify --traceroutes "$file" --probes "$work/probes.json" \
                $args --json --quarantine "$work/q.$form.$label.jsonl" \
                >"$work/out.$form.$label.json" 2>"$work/err.$form.$label"
            if [ "$label" != serial ]; then
                cmp "$work/out.$form.serial.json" "$work/out.$form.$label.json" || {
                    echo "FAIL: $form $label classify --json differs from serial" >&2
                    exit 1
                }
                cmp "$work/q.$form.serial.jsonl" "$work/q.$form.$label.jsonl" || {
                    echo "FAIL: $form $label quarantine dump differs from serial" >&2
                    exit 1
                }
            fi
        done
    done
    # The corrupted corpus must quarantine exactly its three bad records
    # (or the identity above is vacuous) and deliver every other one,
    # the two fallback-path records included.
    grep -q "\[input\] $records traceroutes parsed, 3 skipped" "$work/err.corrupt.serial" || {
        echo "FAIL: corrupted corpus did not parse $records records and skip 3" >&2
        cat "$work/err.corrupt.serial" >&2
        exit 1
    }
    grep -q 'recursion limit exceeded' "$work/q.corrupt.serial.jsonl" || {
        echo "FAIL: the deeply nested record is not in the quarantine dump" >&2
        exit 1
    }
    echo "OK: ingest smoke passed (classify --json and quarantine byte-identical across modes)"
    exit 0
fi

echo "==> simulate 3 days of the anchor scenario"
"$bin" simulate --scenario anchor --out "$work" --days 3 >/dev/null 2>&1
jsonl="$work/traceroutes.jsonl"
array="$work/traceroutes.json"
# Same records as a top-level JSON array.
{ printf '['; sed '$!s/$/,/' "$jsonl"; printf ']'; } >"$array"

out=BENCH_ingest.json
# Host context, so numbers from different machines/toolchains are never
# compared as if they were one series.
cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)
rustc_version=$(rustc --version 2>/dev/null || echo unknown)
timestamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
printf '{\n  "bench": "ingest",\n  "host": {"cores": %s, "rustc": "%s", "timestamp_utc": "%s"},\n  "cases": [\n' \
    "$cores" "$rustc_version" "$timestamp" >"$out"
first=1
for form in lines array; do
    case $form in
        lines) file=$jsonl ;;
        array) file=$array ;;
    esac
    for mode in serial 1 0; do
        case $mode in
            serial)
                args="--ingest-serial"
                label=serial
                ;;
            *)
                args="--ingest-threads $mode"
                label="threads$mode"
                ;;
        esac
        echo "==> classify $form $label"
        # shellcheck disable=SC2086 # $args is intentionally word-split
        "$bin" classify --traceroutes "$file" --probes "$work/probes.json" \
            $args --stats-out "$work/stats.json" >/dev/null 2>&1
        [ "$first" -eq 1 ] || printf ',\n' >>"$out"
        first=0
        printf '    {"form": "%s", "mode": "%s", "stats": ' "$form" "$label" >>"$out"
        tr -d '\n' <"$work/stats.json" >>"$out"
        printf '}' >>"$out"
    done
done
printf '\n  ]\n}\n' >>"$out"
echo "OK: wrote $out"
