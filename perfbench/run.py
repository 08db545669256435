#!/usr/bin/env python3
"""Run one benchmark workload from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (release profile, build directory
.bench_build/, traced-run spans in .perfbench_out/), then runs the
workload in a fresh process and relays its output.  The last stdout line
is the result object: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, without a result, when the checkout cannot be built or
ELASTIC_EVAL_MODE is set; exits 1 with correct=false on a wrong output.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ("spec-cycles", "wide-cycles", "secded-campaign")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    die("dune not found on PATH")


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it to end."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout), 3)
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if "ELASTIC_EVAL_MODE" in os.environ:
        die("ELASTIC_EVAL_MODE is set; the benchmark measures the default eval mode only")
    for need in ("dune-project", "lib", os.path.join("perfbench", "main.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s is not a source checkout (missing %s)" % (ROOT, need))

    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(
        dune_command()
        + ["build", "--root", ROOT, "--build-dir", BUILD_DIR, "--profile", "release",
           "./perfbench/main.exe"],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0 or not os.path.exists(EXE):
        die("build failed (dune exit %d)" % code)

    print("host: nproc=%d" % (os.cpu_count() or 0), flush=True)
    code, out = run(
        [EXE, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
         "--trace", str(a.trace), "--out", OUT_DIR],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write(out)
    sys.stdout.flush()
    if not lines or not lines[-1].startswith("{"):
        die("workload printed no result (exit %d)" % code, code or 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
