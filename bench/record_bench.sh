#!/bin/sh
# Records a machine-tagged perf snapshot so PRs can track the trajectory.
#
#   bench/record_bench.sh [build-dir] [out.json] [trajectory.jsonl]
#
# Runs the three perf anchors (micro_queue, micro_sync, latency_percentiles)
# from a Release build tree and writes one JSON document: a machine tag, the
# google-benchmark ns/op numbers, the per-protocol round-trip latency
# percentiles (plus the derived single-client round-trip throughput in
# msgs/ms), and the metrics-registry view of each run (wake-ups, coalesced
# messages, registry-side percentiles — the "[registry]" lines emitted by
# latency_percentiles --registry-dump). The first snapshot is committed as
# BENCH_baseline.json; every run also appends a one-line summary to the
# trajectory file (third argument; default BENCH_trajectory.jsonl next to
# the output file), so later PRs accumulate comparable points without
# rewriting the committed baseline.
#
# Requires python3 (parsing) and a build tree with the bench binaries built.
set -eu

BUILD_DIR="${1:-build-rel}"
OUT="${2:-BENCH_baseline.json}"
TRAJ="${3:-}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

BENCH_DIR="$BUILD_DIR/bench"
for bin in micro_queue micro_sync latency_percentiles; do
  if [ ! -x "$BENCH_DIR/$bin" ]; then
    echo "error: $BENCH_DIR/$bin not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

MESSAGES="${ULIPC_BENCH_MESSAGES:-20000}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BENCH_DIR/micro_queue" --benchmark_format=json \
  > "$TMP/micro_queue.json" 2>"$TMP/micro_queue.err"
"$BENCH_DIR/micro_sync" --benchmark_format=json \
  > "$TMP/micro_sync.json" 2>"$TMP/micro_sync.err"
# || true: the bench's shape checks are advisory here; the numbers matter.
# Binaries from before --registry-dump / --batched ignore the flags (the
# parser then simply finds no "[registry]" lines — harmless).
"$BENCH_DIR/latency_percentiles" "--messages=$MESSAGES" --registry-dump \
  > "$TMP/latency.txt" 2>&1 || true
"$BENCH_DIR/latency_percentiles" "--messages=$MESSAGES" --batched \
  --registry-dump > "$TMP/latency_batched.txt" 2>&1 || true
# Payload-plane bytes/s sweep ("[payload]" JSON lines): loaned (zero-copy)
# vs copy-through-slot at each size, 64 B..1 MiB. Binaries from before
# --payload exit with "unknown"-free output containing no "[payload]" lines.
"$BENCH_DIR/latency_percentiles" "--messages=$MESSAGES" --payload=sweep \
  > "$TMP/payload.txt" 2>&1 || true
# Fan-in over the readiness plane ("[fanin]" JSON line): one waitset
# worker serving 64 channels. Messages are per client (64x multiplier), so
# the count is bounded separately from MESSAGES. Binaries from before
# --fanin contribute no "[fanin]" line.
FANIN_MESSAGES="${ULIPC_BENCH_FANIN_MESSAGES:-200}"
"$BENCH_DIR/latency_percentiles" --fanin=64 "--messages=$FANIN_MESSAGES" \
  > "$TMP/fanin.txt" 2>&1 || true
# Pool scale-out points ("[pool]" JSON lines), if the binary exists (trees
# built before fig11b simply contribute no pool section).
if [ -x "$BENCH_DIR/fig11b_server_pool" ]; then
  "$BENCH_DIR/fig11b_server_pool" "--messages=$MESSAGES" \
    > "$TMP/pool.txt" 2>&1 || true
fi
# Scenario engine ("[scenario]" JSON lines with per-run SLO pass/fail), if
# ulipc-perf is built. || true: a chaos SLO failure is a data point to
# record, not a reason to lose the rest of the snapshot — and a crashed run
# leaves at worst a truncated last line, which the parser below discards.
PERF_BIN="$BUILD_DIR/tools/ulipc-perf/ulipc-perf"
if [ -x "$PERF_BIN" ]; then
  "$PERF_BIN" --quick > "$TMP/scenarios.txt" 2>&1 || true
fi

python3 - "$TMP" "$OUT" "$MESSAGES" "$TRAJ" <<'EOF'
import json, os, platform, re, subprocess, sys, datetime

tmp, out, messages = sys.argv[1], sys.argv[2], int(sys.argv[3])
traj_arg = sys.argv[4] if len(sys.argv) > 4 else ""

def bench_json(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: round(b["real_time"], 2)
            for b in doc.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"}

def latency_table(path):
    # Rows look like: "| BSLS | 1.84 | 2.1 | ... |" (TextTable output).
    rows = {}
    if not os.path.exists(path):
        return rows
    with open(path) as f:
        for line in f:
            cells = [c.strip() for c in line.split("|") if c.strip()]
            if len(cells) < 5 or cells[0] not in (
                    "BSS", "BSW", "BSWY", "BSLS", "SYSV"):
                continue
            try:
                p50, p95, p99, mx = (float(c) for c in cells[1:5])
            except ValueError:
                continue
            rows[cells[0]] = {
                "p50_us": p50, "p95_us": p95, "p99_us": p99, "max_us": mx,
                # One synchronous round trip per message: msgs/ms = 1000/p50.
                "rt_throughput_msgs_per_ms": round(1000.0 / p50, 2) if p50 else 0.0,
            }
    return rows

def registry_lines(path):
    # "[registry] {...}" JSON lines from latency_percentiles --registry-dump.
    rows = {}
    if not os.path.exists(path):
        return rows
    with open(path) as f:
        for line in f:
            if not line.startswith("[registry] "):
                continue
            try:
                rec = json.loads(line[len("[registry] "):])
                rows[rec.pop("protocol")] = rec
            except (ValueError, KeyError):
                continue
    return rows

def payload_lines(path):
    # "[payload] {...}" JSON lines from latency_percentiles --payload=sweep:
    # one per (size, mode) run; mode is "loan" (in-place) or "copy"
    # (copy-through-slot baseline).
    rows = []
    if not os.path.exists(path):
        return rows
    with open(path) as f:
        for line in f:
            if not line.startswith("[payload] "):
                continue
            try:
                rows.append(json.loads(line[len("[payload] "):]))
            except ValueError:
                continue
    return rows

def pool_lines(path):
    # "[pool] {...}" JSON lines from fig11b_server_pool: one per worker
    # count, aggregate msgs/ms.
    rows = []
    if not os.path.exists(path):
        return rows
    with open(path) as f:
        for line in f:
            if not line.startswith("[pool] "):
                continue
            try:
                rows.append(json.loads(line[len("[pool] "):]))
            except ValueError:
                continue
    return rows

def fanin_lines(path):
    # "[fanin] {...}" JSON lines from latency_percentiles --fanin=N: the
    # readiness-plane point (1 waitset worker, N channels). The run may
    # have crashed mid-bench, so each line is validated (parses AND has the
    # keys the trajectory folds) before it contributes; malformed lines are
    # counted and dropped.
    rows, dropped = [], 0
    if not os.path.exists(path):
        return rows, dropped
    with open(path, errors="replace") as f:
        for line in f:
            if not line.startswith("[fanin] "):
                continue
            try:
                rec = json.loads(line[len("[fanin] "):])
                if not isinstance(rec["channels"], int):
                    raise KeyError("channels")
                for key in ("bytes_per_s", "wk_per_msg", "msgs_per_ms"):
                    if not isinstance(rec[key], (int, float)):
                        raise KeyError(key)
                rows.append(rec)
            except (ValueError, KeyError, TypeError):
                dropped += 1
    if dropped:
        print(f"warning: dropped {dropped} malformed [fanin] line(s)",
              file=sys.stderr)
    return rows, dropped

def scenario_lines(path):
    # "[scenario] {...}" JSON lines from ulipc-perf: one per scenario run,
    # with nested SLO verdicts. The run may have crashed mid-scenario, so
    # every line is validated (parses AND has the keys we fold) before it
    # contributes; malformed/truncated lines are counted and dropped.
    rows, dropped = {}, 0
    if not os.path.exists(path):
        return rows, dropped
    with open(path, errors="replace") as f:
        for line in f:
            if not line.startswith("[scenario] "):
                continue
            try:
                rec = json.loads(line[len("[scenario] "):])
                name = rec["scenario"]
                slo = rec["slo"]
                if not isinstance(slo, dict) or "pass" not in slo:
                    raise KeyError("slo.pass")
                rows[name] = rec
            except (ValueError, KeyError, TypeError):
                dropped += 1
    if dropped:
        print(f"warning: dropped {dropped} malformed [scenario] line(s)",
              file=sys.stderr)
    return rows, dropped

def git(*args):
    try:
        return subprocess.check_output(("git",) + args, text=True).strip()
    except Exception:
        return "unknown"

doc = {
    "schema": "ulipc-bench-v1",
    "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "machine": {
        "hostname": platform.node(),
        "kernel": platform.release(),
        "arch": platform.machine(),
        "cpus": os.cpu_count(),
    },
    "git_rev": git("rev-parse", "--short", "HEAD"),
    "messages_per_protocol": messages,
    "micro_queue_ns": bench_json(os.path.join(tmp, "micro_queue.json")),
    "micro_sync_ns": bench_json(os.path.join(tmp, "micro_sync.json")),
    "latency_percentiles": latency_table(os.path.join(tmp, "latency.txt")),
}
batched = latency_table(os.path.join(tmp, "latency_batched.txt"))
if batched:
    doc["latency_percentiles_batched"] = batched
registry = registry_lines(os.path.join(tmp, "latency.txt"))
if registry:
    doc["registry"] = registry
registry_batched = registry_lines(os.path.join(tmp, "latency_batched.txt"))
if registry_batched:
    doc["registry_batched"] = registry_batched
payload = payload_lines(os.path.join(tmp, "payload.txt"))
if payload:
    doc["payload_plane"] = payload
pool = pool_lines(os.path.join(tmp, "pool.txt"))
if pool:
    doc["server_pool"] = pool
fanin, _ = fanin_lines(os.path.join(tmp, "fanin.txt"))
if fanin:
    doc["fanin"] = fanin
scenarios, _ = scenario_lines(os.path.join(tmp, "scenarios.txt"))
if scenarios:
    doc["scenarios"] = scenarios

with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")

# Trajectory: one compact line per snapshot, append-only.
point = {
    "recorded_utc": doc["recorded_utc"],
    "git_rev": doc["git_rev"],
    "cpus": doc["machine"]["cpus"],
    "rt_msgs_per_ms": {k: v["rt_throughput_msgs_per_ms"]
                       for k, v in doc["latency_percentiles"].items()},
}
if batched:
    point["rt_msgs_per_ms_batched"] = {
        k: v["rt_throughput_msgs_per_ms"] for k, v in batched.items()}
if registry_batched:
    point["wk_per_msg_batched"] = {
        k: round(v["wakeups"] / max(1, v["messages"]), 4)
        for k, v in registry_batched.items()}
    point["coal_per_msg_batched"] = {
        k: round(v["wakeups_coalesced"] / max(1, v["messages"]), 4)
        for k, v in registry_batched.items()}
if payload:
    point["payload_bytes_per_s"] = {
        f'{p["mode"]}@{p["bytes"]}': p["bytes_per_s"] for p in payload
        if "mode" in p and "bytes" in p
        and isinstance(p.get("bytes_per_s"), (int, float))}
if pool:
    point["pool_msgs_per_ms"] = {
        str(p["workers"]): p["msgs_per_ms"] for p in pool
        if "workers" in p and "msgs_per_ms" in p}
if fanin:
    point["fanin_bytes_per_s"] = {
        str(p["channels"]): p["bytes_per_s"] for p in fanin}
    point["fanin_wk_per_msg"] = {
        str(p["channels"]): p["wk_per_msg"] for p in fanin}
    point["fanin_msgs_per_ms"] = {
        str(p["channels"]): p["msgs_per_ms"] for p in fanin}
if scenarios:
    point["scenario_slo"] = {
        name: bool(rec["slo"]["pass"]) for name, rec in scenarios.items()}
    point["scenario_msgs_per_ms"] = {
        name: rec["msgs_per_ms"] for name, rec in scenarios.items()
        if isinstance(rec.get("msgs_per_ms"), (int, float))}
traj = traj_arg or os.path.join(os.path.dirname(os.path.abspath(out)) or ".",
                                "BENCH_trajectory.jsonl")

# Append-only trajectory, hardened against crashed/partial runs:
#   1. the serialized point must round-trip through json before anything
#      touches the file (a bug here must not corrupt history);
#   2. if a previous run died mid-write and left the file without a
#      trailing newline, terminate that fragment first so it stays confined
#      to its own (invalid, hence skipped-by-readers) line;
#   3. the point goes out as ONE os.write on an O_APPEND fd — either the
#      whole line lands or (on a crash before the syscall) none of it.
line = json.dumps(point) + "\n"
json.loads(line)  # self-check: never append what a reader cannot parse
fd = os.open(traj, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
try:
    if os.fstat(fd).st_size > 0:
        with open(traj, "rb") as rf:
            rf.seek(-1, os.SEEK_END)
            if rf.read(1) != b"\n":
                os.write(fd, b"\n")
                print(f"warning: {traj} had a truncated last line; "
                      "terminated it", file=sys.stderr)
    os.write(fd, line.encode())
finally:
    os.close(fd)

print(f"wrote {out} and appended {traj}")
EOF
