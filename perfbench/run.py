#!/usr/bin/env python3
"""Builds the FPTree perfbench from this checkout and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload lookup-fixed --seed 1 --seconds 25 \\
      --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) and the SCM pool
files to its pools/ directory, both inside the checkout. The last stdout line
is one JSON object: correct, attempted, failed, and the metrics that
BENCHMARK.json lists (end_to_end with --trace 0, per_layer with --trace 1).
The lines before it repeat every metric with its sample count.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark binary stops itself after --seconds plus one cycle; this only
# catches a hang.
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory or
    None. Compiler output goes to stderr so stdout stays the result."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target"] + targets)
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, env=env).returncode
        except OSError as e:
            log("cannot run %s: %s" % (cmd[0], e))
            return None
        if rc != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    return out


def run_bench(out, argv):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    pools = os.path.join(out, "pools")
    os.makedirs(pools, exist_ok=True)
    cmd = [os.path.join(out, "fptree_perfbench")] + argv + ["--pool-dir", pools]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 3, []
    return proc.returncode, stdout.splitlines()


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=["lookup-fixed", "ingest-var", "serve-wire"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    out = build(["fptree_perfbench"])
    if out is None:
        return 2
    rc, lines = run_bench(out, ["--workload", a.workload, "--seed", str(a.seed),
                                "--seconds", str(a.seconds),
                                "--trace", str(a.trace)])
    if not lines:
        log("benchmark printed no result (exit %d)" % rc)
        return rc or 4
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("benchmark's last line is not a result (exit %d): %s" %
            (rc, lines[-1]))
        return rc or 4
    wanted = listed_metrics(a.trace)
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        log("benchmark did not report " + ", ".join(missing))
        return 4
    result["metrics"] = {n: result["metrics"][n] for n in wanted}
    print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
