#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout; builds the workload program like run.py.

1. paper_fig03 at reduced scale reaches the same simulated-outcome digest at
   GPC_SIM_THREADS=1 and at nproc, and for two seeds (two cell orders), with
   no failed op and no cell whose outcome varied between ops.
2. The digest does not depend on cell order, and a changed cell is named.
3. The workload program and run.py refuse to time a run with an outside
   GPC_* knob.
4. run.py exits non-zero without printing a result in a directory that holds
   only BENCHMARK.json and perfbench/.

Exits 0 when every check passes.
"""
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCALE = "0.25"
failures = []


def check(ok, what):
    print("%s: %s" % ("ok" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def fig03(exe, seed, threads):
    return run.run_workload(exe, "paper_fig03", seed, 60, 0,
                          ["--passes", "2", "--scale", SCALE,
                           "--sim-threads", str(threads)])


def main():
    exe = run.build()
    nproc = run.cpu_count()

    base = fig03(exe, 1, nproc)
    check(base["failed_ops"] == 0 and not base["unstable"],
          "paper_fig03 at scale %s: no failed op, no cell varied" % SCALE)
    for seed, threads in ((1, 1), (2, nproc)):
        other = fig03(exe, seed, threads)
        moved = run.moved_cells(other["cells"], base["cells"])
        check(not moved and other["failed_ops"] == 0 and not other["unstable"],
              "paper_fig03 digest at seed %d, %d simulator threads equals seed "
              "1 at %d threads%s" % (seed, threads, nproc,
                                     " (moved: %s)" % ", ".join(moved) if moved else ""))

    cells = dict(base["cells"])
    check(run.digest(dict(reversed(list(cells.items())))) == run.digest(cells),
          "digest is independent of cell order")
    name = sorted(cells)[0]
    changed = dict(cells, **{name: "0" * 16})
    check(run.moved_cells(changed, cells) == [name], "a changed cell is named")

    env = dict(os.environ, GPC_SIM_DISPATCH="switch")
    proc = subprocess.run([exe, "--workload", "paper_fig03", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "the workload program refuses an outside GPC_* knob")
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           "--workload", "paper_fig03", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py refuses an outside GPC_* knob")

    bare = os.path.join(run.BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "paper_fig03", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=170)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py fails without a result when the program sources are absent")

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
