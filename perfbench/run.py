#!/usr/bin/env python3
"""Mission benchmark: build the rfly libraries and the mission_bench binary
from this checkout's sources, run one workload (or all of them), check the
record, and print every metric by name with its unit.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics
every workload reports; with --trace 1 the per-layer metrics every workload
reports. The full record of the run (all metrics, absent ones as null with
the reason, build facts, exact work counts, digest, checks, spans) is
printed above that line and kept under the build directory.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["warehouse_sweep", "warehouse_repeat", "fleet_1000", "service_mixed"]

# Metrics every workload reports, in the order BENCHMARK.json lists them.
END_TO_END = ["missions_per_s", "setup_s", "peak_rss_mb", "localized_fraction",
              "loc_error_p50_m", "loc_error_p90_m"]
PER_LAYER = [
    "stage.fly_s", "stage.inventory_s", "stage.measure_s", "stage.disentangle_s",
    "stage.localize_s", "stage.report_s",
    "stage.fly_calls", "stage.inventory_calls", "stage.measure_calls",
    "stage.disentangle_calls", "stage.localize_calls", "stage.report_calls",
    "gen2.slots", "gen2.collisions", "gen2.rounds", "gen2.epcs_read",
    "inventory.slots_per_tag", "inventory.ns_per_slot_tag",
    "measure.channel_evals", "measure.plane_builds", "measure.plane_cache_hit_ratio",
    "measure.ns_per_channel_eval", "drone.fly_ns_per_waypoint",
    "sar.cells", "sar.ns_per_cell", "sar.multi_ns_per_cell",
    "peak.find_us_per_map", "peak.candidates_per_map",
    "pool.jobs", "pool.chunks", "pool.serial_jobs",
    "setup.cold_s", "trace.overhead_frac",
]

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


SOURCE_SUFFIXES = {".cpp", ".h", ".inc", ".txt"}


def source_digest(root):
    """sha256 over the program and benchmark sources: the build identity
    that exact work counts are compared under."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in SOURCE_SUFFIXES:
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision(root):
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, build_dir, env):
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "mission_bench", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                    timeout=max(1.0, deadline - time.monotonic())).returncode
            except (OSError, subprocess.SubprocessError) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (see %s)" % log_path)
    return build_dir / "mission_bench"


def check_ledger(build_dir, record, build_id, workload, seed):
    """Exact work counts must repeat for the same sources, workload and
    seed. The first run stores them; every later run is compared."""
    path = build_dir / "perfbench_ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    key = "%s/%s/%d" % (build_id, workload, seed)
    work = record["work"]
    known = ledger.get(key)
    if known is None:
        ledger[key] = work
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, sort_keys=True))
        tmp.replace(path)
        return True, "first run of this build, workload and seed: counts stored"
    diff = sorted(k for k in set(known) | set(work) if known.get(k) != work.get(k))
    if diff:
        return False, "counts differ from an earlier run: " + ", ".join(
            "%s %s -> %s" % (k, known.get(k), work.get(k)) for k in diff)
    return True, "identical to the earlier run of this build, workload and seed"


def format_value(value):
    if value is None:
        return "absent"
    return "%.6g" % value


def print_record(record):
    facts = record["facts"]
    print("== %s  seed %s  trace %s  digest %s" % (facts["workload"], facts["seed"],
                                                  facts["trace"], record["digest"]))
    print("   build: %s, %s, flags '%s', sar_isa %s, RFLY_OBS %s, hw %s, nproc %s, rev %s, src %s"
          % (facts["compiler"], facts["build_type"], facts["cxx_flags"].strip(),
             facts["sar_isa"], facts["rfly_obs"], facts["hardware_concurrency"],
             facts["nproc"], facts.get("git_revision"), facts.get("source_digest")))
    print("   pins: " + ", ".join("%s=%g" % kv for kv in sorted(record["pins"].items())))
    print("   jobs: %d attempted, %d failed; %d rounds in %.2f s (%d in the proof set)"
          % (record["attempted"], record["failed"], record["info"]["rounds"],
             record["info"]["window_s"], record["info"]["proof_rounds"]))
    for kind in ("end_to_end", "per_layer"):
        print("   %s:" % kind)
        for m in record["metrics"]:
            if m["kind"] == kind:
                note = m.get("note", "")
                print("     %-32s %14s %-9s %s" % (m["name"], format_value(m["value"]),
                                                  m["unit"], note))
    print("   work counts (proof set): " + json.dumps(record["work"], sort_keys=True))
    for c in record["checks"]:
        print("   check %-34s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED", c["detail"]))
    for s in record["spans"]:
        print("   span %-40s calls %6d  total %9.4f s  self %9.4f s"
              % (s["name"], s["calls"], s["total_s"], s["self_s"]))


def run_workload(binary, build_dir, env, workload, seed, seconds, trace, build_id, revision):
    out_dir = build_dir / "perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--record", str(out_dir / (stem + ".json"))]
    if trace:
        cmd += ["--trace-out", str(out_dir / (stem + ".trace.json"))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s exited %d without a record" % (workload, proc.returncode))
    record = json.loads(lines[-1])
    record["facts"]["git_revision"] = revision
    record["facts"]["source_digest"] = build_id
    ok, detail = check_ledger(build_dir, record, build_id, workload, seed)
    record["checks"].append({"name": "work_counters_exact", "ok": ok, "detail": detail})
    names = PER_LAYER if trace else END_TO_END
    metrics = {m["name"]: m for m in record["metrics"]}
    missing = [n for n in names if metrics.get(n, {}).get("value") is None]
    if missing:
        record["checks"].append({"name": "reported_metrics_present", "ok": False,
                                 "detail": "absent: " + ", ".join(missing)})
    (out_dir / (stem + ".json")).write_text(json.dumps(record, sort_keys=True) + "\n")
    print_record(record)
    correct = proc.returncode == 0 and all(c["ok"] for c in record["checks"])
    chosen = {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
              for n in names if n not in missing}
    return correct, record["attempted"], record["failed"], chosen


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be at least 1 and --seed non-negative")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no program sources under %s/src; run from a full checkout" % root)
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not str(build_dir.resolve()).startswith(str(root)):
        build_dir = root / ".bench_build"
    build_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(build_dir / "tmp")
    (build_dir / "tmp").mkdir(exist_ok=True)

    binary = build(root, build_dir, env)
    build_id = source_digest(root)
    revision = git_revision(root)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        ok, att, fl, chosen = run_workload(binary, build_dir, env, w, args.seed, args.seconds,
                                           args.trace, build_id, revision)
        correct = correct and ok
        attempted += att
        failed += fl
        if len(workloads) == 1:
            metrics = chosen
        else:
            metrics.update({"%s/%s" % (w, k): v for k, v in chosen.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
