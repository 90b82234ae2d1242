#!/usr/bin/env python3
"""Schema validation for gpc::prof exports (DESIGN.md §11).

Usage:
    validate_trace.py PROF_DIR          # expects PROF_DIR/trace.json and
                                        # PROF_DIR/counters.jsonl; validates
                                        # PROF_DIR/aiwc.jsonl when present
    validate_trace.py trace.json [counters.jsonl]

Checks, stdlib only (run as a ctest, label "prof"):
  * trace.json is valid JSON: {"displayTimeUnit", "traceEvents": [...]} with
    only known event types (ph X/M/i, plus "C" AIWC counter tracks on device
    pids), known track pids (0 host, 1 CUDA device, 2 OpenCL device) and
    non-negative ts/dur;
  * host spans are properly nested per (pid, tid) — RAII spans cannot
    partially overlap;
  * device-track slices do not overlap per pid (a device runs one grid at a
    time) and every "kernel" slice carries the timing-breakdown args
    (runtime, launch_us/issue_us/dram_us, occupancy, limiter);
  * counters.jsonl "type":"serve" lines (gpc::serve, DESIGN.md §17) carry
    one record per served job: a terminal class in {OK, DEG, ABT, SHED},
    kernel/device provenance, shard >= -1 (-1 = shed at admission, never
    enqueued), batch >= 1, queue_depth >= 0, a boolean cache_hit, and
    0 <= queue_ns <= total_ns. Serve lines are excluded from the
    launch-line count below; --expect-serve makes their absence an error
    (the serve_trace_schema ctest);
  * the remaining counters.jsonl lines are valid JSON with the full
    BlockStats counter set
    (21 counters) plus the instruction-mix/fusion fields (per-XKind issue
    mix, fused execution + static census) and the cohort-scheduler
    divergence diagnostics (splits, merges, max_live, depth_max). Every
    launch record must carry all of these — divergent launches included
    (records from split warps used to omit the static-fusion keys, which
    this check now rejects) — and the
    line count equals the trace's kernel-slice count when both files come
    from the same run;
  * aiwc.jsonl lines (gpc::aiwc, DESIGN.md §16) carry the full finalize()
    feature vector with entropies inside their information-theoretic bounds
    (0 <= H <= log2(n) over n outcomes, decimation levels non-increasing),
    fractions in [0, 1], and the raw histograms summing to the record's own
    totals (occupancy -> issues, reuse + cold -> global accesses, stride ->
    global instructions). When counters.jsonl from the same run covers the
    same launches, each record's total issues must equal the counter
    stream's per-XKind issue sum — the two exporters describe one stream.

Exit code 0 on success, 1 with per-finding messages on stderr otherwise.
"""
import json
import math
import os
import re
import sys

TRACK_NAMES = {0: "host", 1: "CUDA device", 2: "OpenCL device"}
KERNEL_ARGS = (
    "device", "runtime", "blocks", "tpb",
    "launch_us", "issue_us", "dram_us",
    "latency_factor", "occupancy", "limiter",
)
COUNTER_KEYS = (
    "alu_issues", "ialu_issues", "agu_issues", "mad_issues", "mul_issues",
    "sfu_issues", "branch_issues", "mem_issues", "shared_cycles",
    "const_cycles", "barrier_count", "dram_read_bytes", "dram_write_bytes",
    "dram_transactions", "useful_global_bytes", "local_bytes",
    "tex_requests", "tex_hits", "l1_hits", "atomic_serial_ops", "flops",
)
JSONL_KEYS = (
    "kernel", "runtime", "device", "blocks", "tpb", "seconds", "launch_s",
    "issue_s", "dram_s", "latency_factor", "occupancy", "resident_warps",
    "limiter", "counters", "xkind_issues", "fused_groups",
    "fused_exec", "static_fusion", "cohort",
)
COHORT_KEYS = ("splits", "merges", "max_live", "depth_max")
XKIND_KEYS = (
    "bra", "exit", "bar", "ld_param", "mem_global", "mem_shared",
    "mem_local", "mem_const", "mem_tex", "read_sreg", "mov", "cvt",
    "setp", "selp", "float_op", "int_op",
)
FUSED_KEYS = ("addr_gen", "shl_add", "mul_add", "setp_bra")
# aiwc.jsonl: finalize()'s fixed metric order (aiwc/aiwc.h) and record keys.
FEATURE_KEYS = (
    "opcode_unique", "opcode_entropy", "flop_issue_fraction",
    "fused_idiom_density", "branch_entropy", "branch_divergence_rate",
    "simt_efficiency", "workgroup_utilization", "barriers_per_warp",
    "global_unique_words", "shared_unique_words",
) + tuple("mem_entropy_l%d" % i for i in range(10)) + (
    "reuse_cold_fraction", "reuse_median_log2",
    "stride_broadcast_fraction", "stride_unit_fraction",
    "stride_strided_fraction", "stride_gather_fraction",
)
FRACTION_KEYS = (
    "flop_issue_fraction", "fused_idiom_density", "branch_entropy",
    "branch_divergence_rate", "simt_efficiency", "workgroup_utilization",
    "reuse_cold_fraction", "stride_broadcast_fraction",
    "stride_unit_fraction", "stride_strided_fraction",
    "stride_gather_fraction",
)
AIWC_KEYS = (
    "kernel", "runtime", "device", "blocks", "tpb", "warp_size", "warps",
    "features", "histograms", "totals", "digest",
)
AIWC_TOTAL_KEYS = (
    "issues", "lanes", "branch_exec", "branch_splits", "global_accesses",
    "shared_accesses", "global_instrs", "global_unique_words",
    "shared_unique_words", "reuse_cold",
)
AIWC_COUNTER_ARGS = (
    "simt_efficiency", "branch_entropy", "opcode_entropy",
    "mem_entropy_l0", "reuse_cold_fraction",
)
SERVE_KEYS = (
    "job", "class", "kernel", "device", "shard", "batch", "queue_depth",
    "cache_hit", "queue_ns", "total_ns",
)
SERVE_CLASSES = ("OK", "DEG", "ABT", "SHED")
EPS = 1e-6

errors = []


def err(msg):
    errors.append(msg)


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_event(i, ev):
    where = "traceEvents[%d]" % i
    if not isinstance(ev, dict):
        err("%s: not an object" % where)
        return None
    ph = ev.get("ph")
    if ph not in ("X", "M", "i", "C"):
        err("%s: unknown ph %r" % (where, ph))
        return None
    if ev.get("pid") not in TRACK_NAMES:
        err("%s: unknown track pid %r" % (where, ev.get("pid")))
        return None
    if not isinstance(ev.get("name"), str) or not ev["name"]:
        err("%s: missing/empty name" % where)
    if ph == "C":
        # AIWC counter track: device pids only, numeric series in args.
        if ev["pid"] == 0:
            err("%s: counter events are device-track only" % where)
        if not is_num(ev.get("ts")) or ev["ts"] < 0:
            err("%s: bad ts %r" % (where, ev.get("ts")))
        args = ev.get("args")
        if not isinstance(args, dict) or not args:
            err("%s: counter event has no args" % where)
        else:
            for key in AIWC_COUNTER_ARGS:
                if not is_num(args.get(key)):
                    err("%s: counter args missing %r" % (where, key))
        return None
    if ph == "M":
        # process_name labels a track; thread_name labels a per-tenant row
        # on a device track (gpc::virt).
        if ev["name"] not in ("process_name", "thread_name") \
                or "name" not in ev.get("args", {}):
            err("%s: metadata event must set args.name" % where)
        elif ev["name"] == "thread_name" and ev["pid"] == 0:
            err("%s: thread_name rows are device-track only" % where)
        return None
    if not is_num(ev.get("ts")) or ev["ts"] < 0:
        err("%s: bad ts %r" % (where, ev.get("ts")))
        return None
    if ph == "i":
        return None
    # ph == "X": complete event.
    if not is_num(ev.get("dur")) or ev["dur"] < 0:
        err("%s: bad dur %r" % (where, ev.get("dur")))
        return None
    if not isinstance(ev.get("cat"), str):
        err("%s: X event missing cat" % where)
        return None
    if ev["cat"] == "kernel":
        args = ev.get("args")
        if not isinstance(args, dict):
            err("%s: kernel slice has no args" % where)
        else:
            for key in KERNEL_ARGS:
                if key not in args:
                    err("%s: kernel args missing %r" % (where, key))
            if args.get("runtime") not in ("CUDA", "OpenCL"):
                err("%s: bad runtime %r" % (where, args.get("runtime")))
            occ = args.get("occupancy")
            if is_num(occ) and not 0 < occ <= 1:
                err("%s: occupancy %r outside (0, 1]" % (where, occ))
    return ev


def check_nesting(track, tid, spans):
    """Spans on one host thread must be disjoint or properly nested."""
    spans.sort(key=lambda e: (e["ts"], -e["dur"]))
    stack = []
    for ev in spans:
        end = ev["ts"] + ev["dur"]
        while stack and ev["ts"] >= stack[-1]:
            stack.pop()
        if stack and end > stack[-1]:
            err("%s tid %s: span %r (ts=%s) partially overlaps its parent"
                % (track, tid, ev["name"], ev["ts"]))
            return
        stack.append(end)


def check_device_serial(track, slices):
    """Device slices (launch overhead + kernel) must not overlap."""
    slices.sort(key=lambda e: e["ts"])
    prev_end, prev_name = 0.0, None
    for ev in slices:
        # The exporter rounds to 0.001 us; allow that much slack.
        if ev["ts"] < prev_end - 0.002:
            err("%s: %r (ts=%s) overlaps previous slice %r (ends %s)"
                % (track, ev["name"], ev["ts"], prev_name, prev_end))
            return
        prev_end, prev_name = ev["ts"] + ev["dur"], ev["name"]


def validate_trace(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            err("%s: invalid JSON: %s" % (path, e))
            return 0
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        err("%s: expected object with traceEvents" % path)
        return 0
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        err("%s: bad displayTimeUnit %r" % (path, doc.get("displayTimeUnit")))
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        err("%s: traceEvents empty" % path)
        return 0

    host_spans = {}   # (tid) -> [events]
    device = {}       # pid -> [events]
    kernels = 0
    for i, raw in enumerate(events):
        ev = check_event(i, raw)
        if ev is None:
            continue
        if ev["pid"] == 0:
            host_spans.setdefault(ev["tid"], []).append(ev)
        else:
            device.setdefault(ev["pid"], []).append(ev)
            if ev["cat"] == "kernel":
                kernels += 1
    for tid, spans in host_spans.items():
        check_nesting("host", tid, spans)
    for pid, slices in device.items():
        check_device_serial(TRACK_NAMES[pid], slices)
    if kernels == 0:
        err("%s: no kernel slices on any device track" % path)
    print("%s: %d events, %d kernel slices, %d host threads, %d device tracks"
          % (path, len(events), kernels, len(host_spans), len(device)))
    return kernels


def validate_serve_rec(where, rec):
    """One "type":"serve" line: class/provenance/latency for a served job."""
    for key in SERVE_KEYS:
        if key not in rec:
            err("%s: serve record missing key %r" % (where, key))
    extra = set(rec) - set(SERVE_KEYS) - {"type"}
    if extra:
        err("%s: unknown serve keys %s" % (where, sorted(extra)))
    if rec.get("class") not in SERVE_CLASSES:
        err("%s: bad serve class %r" % (where, rec.get("class")))
    if not isinstance(rec.get("kernel"), str) \
            or not isinstance(rec.get("device"), str):
        err("%s: serve kernel/device must be strings" % where)
    elif not rec["kernel"] and rec.get("class") != "SHED":
        err("%s: empty kernel on a non-SHED serve record" % where)
    for key, lo in (("job", 0), ("shard", -1), ("batch", 1),
                    ("queue_depth", 0), ("queue_ns", 0), ("total_ns", 0)):
        v = rec.get(key)
        if not is_num(v) or v < lo:
            err("%s: serve %r is %r (must be >= %s)" % (where, key, v, lo))
    if not isinstance(rec.get("cache_hit"), bool):
        err("%s: serve cache_hit is %r" % (where, rec.get("cache_hit")))
    if is_num(rec.get("queue_ns")) and is_num(rec.get("total_ns")) \
            and rec["queue_ns"] > rec["total_ns"]:
        err("%s: queue_ns %s exceeds total_ns %s"
            % (where, rec["queue_ns"], rec["total_ns"]))
    # A job shed at admission was never enqueued, so no queue provenance.
    if rec.get("shard") == -1 and rec.get("class") != "SHED":
        err("%s: shard -1 on a non-SHED serve record" % where)


def validate_counters(path, expect_lines):
    n = 0
    serve_n = 0
    recs = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            where = "%s:%d" % (path, lineno)
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                err("%s: invalid JSON: %s" % (where, e))
                continue
            if isinstance(rec, dict) and rec.get("type") == "serve":
                serve_n += 1
                validate_serve_rec(where, rec)
                continue
            n += 1
            recs.append(rec)
            for key in JSONL_KEYS:
                if key not in rec:
                    err("%s: missing key %r" % (where, key))
            if rec.get("runtime") not in ("CUDA", "OpenCL"):
                err("%s: bad runtime %r" % (where, rec.get("runtime")))
            counters = rec.get("counters")
            if not isinstance(counters, dict):
                err("%s: counters is not an object" % where)
                continue
            for key in COUNTER_KEYS:
                v = counters.get(key)
                if not is_num(v) or v < 0:
                    err("%s: counter %r is %r" % (where, key, v))
            extra = set(counters) - set(COUNTER_KEYS)
            if extra:
                err("%s: unknown counters %s" % (where, sorted(extra)))
            for obj_key, keys in (("xkind_issues", XKIND_KEYS),
                                  ("fused_exec", FUSED_KEYS)):
                obj = rec.get(obj_key)
                if not isinstance(obj, dict):
                    err("%s: %s is not an object" % (where, obj_key))
                    continue
                for key in keys:
                    v = obj.get(key)
                    if not is_num(v) or v < 0:
                        err("%s: %s[%r] is %r" % (where, obj_key, key, v))
            sf = rec.get("static_fusion")
            if not isinstance(sf, dict) or not isinstance(
                    sf.get("groups"), dict):
                err("%s: static_fusion malformed" % where)
            elif not all(is_num(sf.get(k)) for k in ("ops", "fused_ops")):
                err("%s: static_fusion ops counts malformed" % where)
            co = rec.get("cohort")
            if not isinstance(co, dict):
                err("%s: cohort is not an object" % where)
            else:
                for key in COHORT_KEYS:
                    v = co.get(key)
                    if not is_num(v) or v < 0:
                        err("%s: cohort[%r] is %r" % (where, key, v))
                extra = set(co) - set(COHORT_KEYS)
                if extra:
                    err("%s: unknown cohort keys %s" % (where, sorted(extra)))
                # A warp can only re-merge after a split, and a split always
                # leaves at least two live cohorts.
                if is_num(co.get("merges")) and is_num(co.get("splits")) \
                        and co["merges"] > 0 and co["splits"] == 0:
                    err("%s: cohort merges without splits" % where)
                if is_num(co.get("splits")) and co["splits"] > 0 \
                        and is_num(co.get("max_live")) and co["max_live"] < 2:
                    err("%s: cohort splits but max_live < 2" % where)
    if n == 0:
        err("%s: no launch records" % path)
    if expect_lines is not None and n != expect_lines:
        err("%s: %d launch lines but trace has %d kernel slices" %
            (path, n, expect_lines))
    print("%s: %d launch records, %d serve records" % (path, n, serve_n))
    return recs, serve_n


def check_entropy(where, name, h, outcomes):
    """0 <= H <= log2(n) for an entropy over n observed outcomes."""
    if not is_num(h):
        err("%s: feature %r is %r" % (where, name, h))
        return
    bound = math.log2(outcomes) if outcomes and outcomes > 0 else 0.0
    if h < -EPS or h > bound + EPS:
        err("%s: %s = %r outside [0, log2(%s) = %.4f]"
            % (where, name, h, outcomes, bound))


def validate_aiwc(path, counter_recs):
    n = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            n += 1
            where = "%s:%d" % (path, lineno)
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                err("%s: invalid JSON: %s" % (where, e))
                continue
            for key in AIWC_KEYS:
                if key not in rec:
                    err("%s: missing key %r" % (where, key))
            if rec.get("runtime") not in ("CUDA", "OpenCL"):
                err("%s: bad runtime %r" % (where, rec.get("runtime")))
            if not re.fullmatch(r"[0-9a-f]{16}", str(rec.get("digest"))):
                err("%s: digest %r is not 16 hex chars"
                    % (where, rec.get("digest")))

            feat = rec.get("features")
            if not isinstance(feat, dict):
                err("%s: features is not an object" % where)
                continue
            missing = [k for k in FEATURE_KEYS if k not in feat]
            extra = set(feat) - set(FEATURE_KEYS)
            if missing:
                err("%s: features missing %s" % (where, missing))
            if extra:
                err("%s: unknown features %s" % (where, sorted(extra)))
            for key in FRACTION_KEYS:
                v = feat.get(key)
                if not is_num(v) or v < -EPS or v > 1 + EPS:
                    err("%s: %s = %r outside [0, 1]" % (where, key, v))
            # Entropy bounds: H over n outcomes cannot exceed log2(n).
            check_entropy(where, "opcode_entropy",
                          feat.get("opcode_entropy"),
                          feat.get("opcode_unique"))
            check_entropy(where, "mem_entropy_l0",
                          feat.get("mem_entropy_l0"),
                          feat.get("global_unique_words"))
            # Decimation merges address groups, so entropy never increases
            # with the level (the AIWC locality curve is non-increasing).
            for lvl in range(1, 10):
                lo = feat.get("mem_entropy_l%d" % lvl)
                hi = feat.get("mem_entropy_l%d" % (lvl - 1))
                if is_num(lo) and is_num(hi) and lo > hi + EPS:
                    err("%s: mem_entropy_l%d (%r) > mem_entropy_l%d (%r)"
                        % (where, lvl, lo, lvl - 1, hi))

            hist = rec.get("histograms")
            tot = rec.get("totals")
            if not isinstance(hist, dict) or not isinstance(tot, dict):
                err("%s: histograms/totals malformed" % where)
                continue
            for key in AIWC_TOTAL_KEYS:
                v = tot.get(key)
                if not is_num(v) or v < 0:
                    err("%s: totals[%r] is %r" % (where, key, v))
            for key, length in (("occupancy", 65), ("reuse", 40),
                                ("stride", 4)):
                h = hist.get(key)
                if not isinstance(h, list) or len(h) != length \
                        or not all(is_num(v) and v >= 0 for v in h):
                    err("%s: histogram %r malformed" % (where, key))
            # Histogram sums must match the record's own totals.
            if isinstance(hist.get("occupancy"), list) \
                    and sum(hist["occupancy"]) != tot.get("issues"):
                err("%s: occupancy histogram sums to %s, issues = %s"
                    % (where, sum(hist["occupancy"]), tot.get("issues")))
            if isinstance(hist.get("reuse"), list) \
                    and is_num(tot.get("reuse_cold")) \
                    and sum(hist["reuse"]) + tot["reuse_cold"] \
                    != tot.get("global_accesses"):
                err("%s: reuse histogram + cold = %s, global_accesses = %s"
                    % (where, sum(hist["reuse"]) + tot["reuse_cold"],
                       tot.get("global_accesses")))
            if isinstance(hist.get("stride"), list) \
                    and sum(hist["stride"]) != tot.get("global_instrs"):
                err("%s: stride histogram sums to %s, global_instrs = %s"
                    % (where, sum(hist["stride"]), tot.get("global_instrs")))
            ws = rec.get("warp_size")
            if is_num(ws) and is_num(tot.get("issues")) \
                    and is_num(tot.get("lanes")):
                if tot["lanes"] > tot["issues"] * ws:
                    err("%s: lanes %s exceed issues * warp_size = %s"
                        % (where, tot["lanes"], tot["issues"] * ws))
                if isinstance(hist.get("occupancy"), list) and ws < 64 \
                        and sum(hist["occupancy"][ws + 1:]) != 0:
                    err("%s: occupancy above warp_size %s" % (where, ws))

            # Cross-exporter invariant: the counter stream's per-XKind issue
            # mix and this record describe the same scheduled-issue stream.
            if counter_recs is not None and n <= len(counter_recs):
                c = counter_recs[n - 1]
                if c.get("kernel") != rec.get("kernel"):
                    err("%s: kernel %r but counters line %d has %r"
                        % (where, rec.get("kernel"), n, c.get("kernel")))
                xk = c.get("xkind_issues")
                if isinstance(xk, dict) and is_num(tot.get("issues")):
                    xk_sum = sum(v for v in xk.values() if is_num(v))
                    if xk_sum != tot["issues"]:
                        err("%s: issues %s != counters xkind sum %s"
                            % (where, tot["issues"], xk_sum))
    if n == 0:
        err("%s: no aiwc records" % path)
    print("%s: %d aiwc records" % (path, n))


def main(argv):
    expect_serve = "--expect-serve" in argv
    argv = [a for a in argv if a != "--expect-serve"]
    if len(argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    aiwc = None
    if os.path.isdir(argv[1]):
        trace = os.path.join(argv[1], "trace.json")
        jsonl = os.path.join(argv[1], "counters.jsonl")
        candidate = os.path.join(argv[1], "aiwc.jsonl")
        if os.path.exists(candidate):
            aiwc = candidate
    else:
        trace = argv[1]
        jsonl = argv[2] if len(argv) == 3 else None
    kernels = validate_trace(trace)
    counter_recs = None
    if jsonl is not None:
        counter_recs, serve_n = validate_counters(
            jsonl, kernels if kernels else None)
        if expect_serve and serve_n == 0:
            err("%s: --expect-serve but no \"type\":\"serve\" records"
                % jsonl)
    elif expect_serve:
        err("--expect-serve requires counters.jsonl")
    if aiwc is not None:
        # The 1:1 cross-check against counters.jsonl only applies when
        # GPC_AIWC armed every launch of the run (equal line counts); a
        # partially-armed run still gets the per-record invariants.
        if not isinstance(counter_recs, list):
            counter_recs = None
        elif sum(1 for _ in open(aiwc)) != len(counter_recs):
            counter_recs = None
        validate_aiwc(aiwc, counter_recs)
    for msg in errors:
        sys.stderr.write("FAIL: %s\n" % msg)
    if errors:
        return 1
    print("OK: profiler exports conform to the DESIGN.md §11 schema")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
