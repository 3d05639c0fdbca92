"""Smoke self-test of the E19 benchmark: `python3 e2ebench/run.py --self-test`.

Runs every workload at tiny sizes, untraced and traced, and asserts that
each metric BENCHMARK.json names is printed with its unit and a sample
count. Then injects two faults and asserts the run catches them: a
corrupted session fingerprint, and a well-formed answer the service
refuses (its WAL append fails).
"""

import json
import os
import re
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["fleet_durable", "learn_wide", "churn"]


def run(binary, work_dir, workload, trace, inject=None):
    cmd = [binary, "--workload", workload, "--seed", "11", "--seconds", "0.2",
           "--trace", str(trace), "--tiny", "--work-dir", work_dir]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


def check(condition, what, failures):
    print("%s %s" % ("ok  " if condition else "FAIL", what))
    if not condition:
        failures.append(what)


def main(binary, work_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, out = run(binary, work_dir, workload, trace)
            what = "%s --trace %d" % (workload, trace)
            check(rc == 0 and result is not None and result["correct"],
                  what + ": runs and its output checks pass", failures)
            if result is None:
                continue
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  what + ": error rate is 0", failures)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, what + ": prints exactly the %s metrics with "
                  "their units" % key, failures)
            for name, unit in want.items():
                line = re.search(r"^# metric %s +\S+ %s +n=(\d+)$" %
                                 (re.escape(name), re.escape(unit)), out, re.M)
                if line is None or int(line.group(1)) < 1:
                    check(False, what + ": %s has a sample count" % name,
                          failures)
    for workload in ("fleet_durable", "learn_wide"):
        rc, result, _ = run(binary, work_dir, workload, 0, "corrupt-fingerprint")
        check(rc != 0 and result is not None and not result["correct"],
              workload + ": a corrupted fingerprint is caught", failures)
    rc, result, _ = run(binary, work_dir, "fleet_durable", 0, "refuse-answer")
    check(rc != 0 and result is not None and not result["correct"]
          and result["failed"] >= 1,
          "fleet_durable: a refused well-formed answer is caught and counted",
          failures)
    print("self-test %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0
