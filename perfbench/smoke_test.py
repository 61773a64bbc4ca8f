#!/usr/bin/env python3
"""Smoke test of the homets benchmark at tiny input sizes (about a minute).

    python3 perfbench/smoke_test.py

Run from the root of a checkout. For every workload it checks that
  - an untraced run (--trace 0) emits exactly the end-to-end metrics of
    BENCHMARK.json, each with its unit and a nonzero value, and a correct
    result with no failed operation;
  - a traced run (--trace 1) emits exactly the per-layer metrics, each with
    its unit, nonzero on the workloads perfbench/metrics.json says exercise
    it and zero on the others;
  - a perturbed reference makes the correctness gate fail every operation
    (error_rate = failed / attempted = 1);
and that the benchmark exits non-zero without a result when the homets
sources are absent. Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run(workload, trace, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


class Checker:
    def __init__(self):
        self.failures = 0

    def expect(self, condition, message):
        if not condition:
            self.failures += 1
            print("FAIL: " + message)


def main():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load(os.path.join(HERE, "metrics.json"))["per_layer"]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check = Checker()
    check.expect(set(layers) == set(per_layer),
                 "metrics.json and BENCHMARK.json list different per-layer "
                 "metrics: %s" % sorted(set(layers) ^ set(per_layer)))

    for workload in workloads:
        code, details, result = run(workload, 0)
        check.expect(result is not None, "%s: untraced run failed (%s)"
                     % (workload, code))
        if result is not None:
            check.expect(set(result) == {"correct", "attempted", "failed",
                                         "metrics"},
                         "%s: result keys %s" % (workload, sorted(result)))
            check.expect(result["correct"] and result["failed"] == 0,
                         "%s: incorrect untraced run: %s"
                         % (workload, details["mismatch"]))
            metrics = result["metrics"]
            check.expect(set(metrics) == set(e2e), "%s: end-to-end metrics %s"
                         % (workload, sorted(metrics)))
            for name, unit in e2e.items():
                got = metrics.get(name, {})
                check.expect(got.get("unit") == unit and got.get("value", 0) > 0,
                             "%s: %s = %s" % (workload, name, got))
            for key in ("seed", "nproc", "threads", "inputs", "units",
                        "error_rate"):
                check.expect(key in details, "%s: details lack %s"
                             % (workload, key))

        code, details, result = run(workload, 1)
        check.expect(result is not None, "%s: traced run failed (%s)"
                     % (workload, code))
        if result is not None:
            check.expect(result["correct"], "%s: incorrect traced run: %s"
                         % (workload, details["mismatch"]))
            metrics = result["metrics"]
            check.expect(set(metrics) == set(per_layer),
                         "%s: per-layer metrics differ: %s" % (
                             workload, sorted(set(metrics) ^ set(per_layer))))
            for name, unit in per_layer.items():
                got = metrics.get(name, {})
                value = got.get("value")
                check.expect(got.get("unit") == unit,
                             "%s: %s unit %s" % (workload, name, got))
                spec = layers.get(name, {})
                if workload in spec.get("workloads", []):
                    check.expect(value != 0 or spec.get("zero_is_normal"),
                                 "%s: %s not measured" % (workload, name))
                else:
                    check.expect(value == 0, "%s: %s = %s on a workload that "
                                 "does not exercise it" % (workload, name,
                                                           value))
            if workload == "fleet_analyze":
                check.expect(metrics["background.estimates_per_device_dir"]
                             ["value"] == 3.0,
                             "fleet_analyze: tau estimated %s times per "
                             "device direction, expected 3" % metrics[
                                 "background.estimates_per_device_dir"])

        code, details, result = run(workload, 0, ["--perturb-reference"])
        check.expect(result is not None and not result["correct"] and
                     result["attempted"] > 0 and
                     result["failed"] == result["attempted"] and
                     details["error_rate"] == 1,
                     "%s: a perturbed reference did not fail the run: %s"
                     % (workload, result))

    # Without the homets sources next to it the benchmark must refuse.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, _, result = run(workloads[0], 0, cwd=bare)
    check.expect(code != 0 and result is None,
                 "benchmark without sources exited %s" % code)
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke test: %s" % ("ok" if check.failures == 0 else
                              "%d failure(s)" % check.failures))
    return 0 if check.failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
