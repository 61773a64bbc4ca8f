#!/usr/bin/env python3
"""Regenerates perfbench/reference.json, the committed output references.

    python3 perfbench/make_reference.py

Run from the root of a checkout, only when an intended change alters the
analytical outputs (the references exist to catch every other change). For
every workload and size it runs one operation on several seeds and requires
the same output digest from each: the canonical outputs do not depend on the
seed's gateway order (perfbench/cc/workloads.h), so one digest serves every
seed.
"""

import json
import os
import sys

import run

SEEDS = (1, 2, 3)


def main():
    if not run.build(run.BUILD_TIMEOUT_S):
        return 1
    digests = {}
    for size in ("full", "tiny"):
        tiny = size == "tiny"
        digests[size] = {}
        for workload in run.WORKLOADS:
            seen = set()
            for seed in SEEDS:
                directory = run.inputs_dir(workload, seed, tiny, 600)
                outcome = run.measure(workload, seed, 0, False, tiny, None,
                                      False, 600, directory)
                if outcome is None:
                    return 1
                details = json.loads(outcome[0])
                if details["mismatch"]:
                    print("%s %s seed %d: %s" % (workload, size, seed,
                                                 details["mismatch"]))
                    return 1
                seen.add(details["output_digest"])
            if len(seen) != 1:
                print("%s %s: digests differ across seeds: %s"
                      % (workload, size, sorted(seen)))
                return 1
            digests[size][workload] = seen.pop()
            print("%s %s %s" % (size, workload, digests[size][workload]))
    with open(os.path.join(run.HERE, "reference.json"), "w",
              encoding="utf-8") as f:
        json.dump({"seeds_checked": list(SEEDS), "digests": digests}, f,
                  indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
