#!/usr/bin/env python3
"""Record the reference results every benchmark run is checked against.

    python3 bench/record_references.py

Runs each workload's experiments once per data variant at the current
commit and writes bench/references.json. Kinds whose results do not depend
on the seed are recorded once, under "fixed". Recording anew is a change to
the benchmark, not part of a change that claims a gain.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
FIXED = ("observability-sweep", "gcc-check", "resonance-sweep")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from b4nls import cli
    from workloads import N_VARIANTS, REFERENCE_PATH, WORKLOADS, read_results, render_configs

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    workdir = os.path.join(ROOT, ".bench_out", "record")
    refs = {"commit": commit, "fixed": {}, "variants": {}}
    try:
        for variant in range(N_VARIANTS):
            per_variant = {}
            for workload in WORKLOADS:
                for kind, path in render_configs(workload, variant, workdir).items():
                    if kind in FIXED and variant > 0:
                        continue
                    outdir = os.path.join(workdir, "out", kind)
                    shutil.rmtree(outdir, ignore_errors=True)
                    cli.run_config(path, outdir)
                    results = read_results(kind, outdir)
                    (refs["fixed"] if kind in FIXED else per_variant)[kind] = results
            refs["variants"][str(variant)] = per_variant
            print(f"variant {variant} recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
