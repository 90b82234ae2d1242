#!/usr/bin/env python3
"""Repository benchmark: builds the program from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds perfbench/ (which
compiles ../src) into .bench_build/perfbench. Each run prints the provenance
and the simulated-outcome digest, then, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.
Workloads, metrics and what each should move: perfbench/README.md.

--record-reference stores the run's digest in perfbench/reference_digests.json,
for a change that moves simulated outcomes on purpose.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference_digests.json")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures and builds the workload program; returns its path."""
    log_path = os.path.join(os.path.dirname(BUILD), "perfbench-build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, cpu_count()))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed; see " + log_path, 1)
    return os.path.join(BUILD, "perfbench_workloads")


def run_workload(exe, workload, seed, seconds, trace, extra=()):
    """Runs the workload program once; returns its result record."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--repo", ROOT] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("workload program exited with code %d on %s" % (proc.returncode, workload), 1)
    return json.loads(lines[-1])


def digest(cells):
    """Order-independent digest of per-cell outcome hashes."""
    h = hashlib.sha256()
    for name in sorted(cells):
        h.update(("%s=%s\n" % (name, cells[name])).encode())
    return h.hexdigest()[:16]


def moved_cells(cells, ref_cells):
    names = set(cells) | set(ref_cells)
    return sorted(n for n in names if cells.get(n) != ref_cells.get(n))


def source_sha256():
    """Hash of the program and benchmark sources (not the recorded digests):
    identifies the code built when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                if path == REFERENCE:
                    continue
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree of
    its own."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def report_digest(workload, rec, record_reference):
    """Prints the digest, names the cells that moved against the committed
    reference, and records the digest there when asked."""
    cells = rec["cells"]
    d = digest(cells)
    unstable = rec["unstable"]
    print("digest %s %s (%d cells%s)" % (
        workload, d, len(cells),
        "; varied between ops: " + ", ".join(unstable) if unstable else ""))
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            ref = json.load(f)
    entry = ref.get(workload)
    if record_reference:
        ref[workload] = {"digest": d, "cells": cells}
        with open(REFERENCE, "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")
        print("digest recorded in " + os.path.relpath(REFERENCE, ROOT))
    elif entry is None:
        print("digest: no reference for " + workload)
    elif entry["digest"] == d:
        print("digest matches the reference")
    else:
        moved = moved_cells(cells, entry["cells"])
        print("digest differs from the reference; cells that moved: " +
              ", ".join(m + (" (varied between ops)" if m in unstable else "")
                        for m in moved))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources at %s/src; run from a full checkout" % ROOT)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    knobs = sorted(k for k in os.environ if k.startswith("GPC_"))
    if knobs:
        fail("refusing to time with %s set; the benchmark sets its own "
             "GPC_* knobs" % ", ".join(knobs))

    exe = build()
    rec = run_workload(exe, args.workload, args.seed, args.seconds, args.trace)
    metrics = rec["metrics"]
    if args.trace and args.workload == "paper_fig03":
        # sim.thread_speedup: simulator launch time of one traced sweep on a
        # single simulator thread over the same at nproc. The single-thread
        # sweep must reach the same simulated outcomes.
        one = run_workload(exe, args.workload, args.seed, args.seconds, 1,
                           ["--sim-threads", "1", "--passes", "1"])
        metrics["sim.thread_speedup"] = (one["metrics"]["sim.launch_ms"] /
                                         metrics["sim.launch_ms"])
        rec["ops"] += one["ops"]
        rec["failed_ops"] += one["failed_ops"]
        for name in moved_cells(one["cells"], rec["cells"]):
            print("cell %s: outcome at 1 simulator thread differs from %d "
                  "threads" % (name, rec["provenance"]["sim_threads"]))
            rec["unstable"] = sorted(set(rec["unstable"]) | {name})

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(metrics) - names)
    if unknown:
        fail("workload program reported metrics BENCHMARK.json does not "
             "define: " + ", ".join(unknown), 1)
    out = {}
    for m in wanted:
        if m["name"] in metrics:
            value = metrics[m["name"]]
        elif args.trace:
            value = 0  # the layer is not exercised by this workload
        else:
            fail("workload program did not report " + m["name"], 1)
        out[m["name"]] = {"value": value, "unit": m["unit"]}

    prov = dict(rec["provenance"])
    prov.update(commit=git_commit(), source_sha256=source_sha256(),
                workload=args.workload, seed=args.seed, trace=args.trace)
    print("provenance " + json.dumps(prov, sort_keys=True))
    report_digest(args.workload, rec, args.record_reference)
    for name, m in out.items():
        print("%-28s %16.6g %s" % (name, m["value"], m["unit"]))
    print("ops %d, failed_ops %d" % (rec["ops"], rec["failed_ops"]))

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"provenance": prov, "digest": digest(rec["cells"]),
                   "cells": rec["cells"], "unstable": rec["unstable"],
                   "ops": rec["ops"], "failed_ops": rec["failed_ops"],
                   "metrics": out}, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": rec["failed_ops"] == 0,
                      "attempted": rec["ops"], "failed": rec["failed_ops"],
                      "metrics": out}))


if __name__ == "__main__":
    main()
