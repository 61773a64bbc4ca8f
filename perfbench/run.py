#!/usr/bin/env python3
"""The homets benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload fleet_analyze --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It builds the library and the measuring
program from source into .bench_build/ (perfbench/CMakeLists.txt), generates
the workload's inputs from --seed in one process, measures them in another
for --seconds, checks the outputs, and prints a details line (seed, input
sizes, nproc, threads, units, error_rate) followed by the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

as the last line of standard output. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a separate traced run.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "homets_perfbench")
WORKLOADS = ("fleet_analyze", "stream_motifs", "csv_convert")
# A run must end within 180 s, except the first one in a checkout, which
# compiles the library (about a minute on 4 cores) and may take 900 s.
BUILD_TIMEOUT_S = 850.0
DEADLINE_S = 170.0


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def run_quiet(cmd, timeout):
    """Runs a build or generate step with its output on stderr."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log("%s exceeded %.0f s" % (os.path.basename(cmd[0]), timeout))
        return False
    return proc.returncode == 0


def build(timeout):
    """Configures once, then (re)builds the measuring program."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no homets sources next to perfbench/ (expected src/)")
        return False
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            text = f.read()
        homes = {"CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % d
                 for d in (HERE, os.path.realpath(HERE))}
        if not any(home in text for home in homes):
            shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.isfile(cache):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"], timeout):
            return False
    jobs = str(min(4, nproc()))
    return run_quiet(["cmake", "--build", BUILD, "--target", "homets_perfbench",
                      "-j", jobs], timeout)


def inputs_dir(workload, seed, tiny, timeout):
    """Generates (or reuses) the inputs of one (workload, seed)."""
    parent = os.path.join(BUILD, "inputs", workload + ("-tiny" if tiny else ""))
    path = os.path.join(parent, "seed-%d" % seed)
    marker = os.path.join(path, ".complete")
    if os.path.isfile(marker):
        return path
    # Keep one seed per workload on disk: inputs are ~100-150 MB each.
    shutil.rmtree(parent, ignore_errors=True)
    os.makedirs(path)
    cmd = [BINARY, "generate", "--workload", workload, "--seed", str(seed),
           "--dir", path] + (["--tiny"] if tiny else [])
    if not run_quiet(cmd, timeout):
        return None
    open(marker, "w").close()
    return path


def reference_digest(workload, tiny):
    """The committed output digest of the workload (one for every seed)."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        table = json.load(f)
    return table["digests"]["tiny" if tiny else "full"][workload]


def measure(workload, seed, seconds, trace, tiny, expect, perturb, timeout,
            directory):
    """Runs the measuring process; returns its last two stdout lines (the
    details line and the result line) or None."""
    cmd = [BINARY, "run", "--workload", workload, "--seed", str(seed),
           "--dir", directory, "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    if expect:
        cmd += ["--expect", expect]
    if perturb:
        cmd.append("--perturb-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=timeout, check=False, text=True)
    except subprocess.TimeoutExpired:
        log("measuring process exceeded %.0f s" % timeout)
        return None
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        log("measuring process failed with code %d" % proc.returncode)
        return None
    json.loads(lines[-2])
    json.loads(lines[-1])
    return lines[-2], lines[-1]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes (no committed reference)")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="corrupt the reference: the run must fail")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")

    if not build(BUILD_TIMEOUT_S):
        log("build failed")
        return 1
    start = time.monotonic()

    def left():
        return max(1.0, DEADLINE_S - (time.monotonic() - start))

    directory = inputs_dir(args.workload, args.seed, args.tiny, left())
    if directory is None:
        log("input generation failed")
        return 1
    outcome = measure(args.workload, args.seed, args.seconds, args.trace,
                      args.tiny, reference_digest(args.workload, args.tiny),
                      args.perturb_reference, left(), directory)
    if outcome is None:
        return 1
    details, result = outcome
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = "%s-seed%d-trace%d.jsonl" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as f:
        f.write(details + "\n" + result + "\n")
    print(details)
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
