#!/usr/bin/env python3
"""The benchmark's own test: builds perfbench, runs the check unit tests
(each check must reject a corrupted value or row), then runs every workload
at toy size, untraced and traced, and checks each result line.

  python3 perfbench/test.py
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["lookup-fixed", "ingest-var", "serve-wire"]


def main():
    out = run.build(["fptree_perfbench", "perfbench_checks_test"])
    if out is None:
        return 1
    if subprocess.run([os.path.join(out, "perfbench_checks_test")]).returncode:
        print("FAIL perfbench_checks_test")
        return 1
    failures = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            rc, lines = run.run_bench(out, ["--workload", w, "--seed", "7",
                                            "--seconds", "1", "--trace",
                                            str(trace), "--toy"])
            problems = []
            if rc != 0:
                problems.append("exit %d" % rc)
            result = json.loads(lines[-1]) if lines else {}
            if not result.get("correct"):
                problems.append("not correct")
            if result.get("attempted", 0) < 1 or result.get("failed") != 0:
                problems.append("attempted %s failed %s" %
                                (result.get("attempted"), result.get("failed")))
            missing = [n for n in run.listed_metrics(trace)
                       if n not in result.get("metrics", {})]
            if missing:
                problems.append("missing " + ", ".join(missing))
            status = "FAIL" if problems else "ok"
            print("%-4s %s trace=%d %s" % (status, w, trace, "; ".join(problems)))
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
