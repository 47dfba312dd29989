"""Record the reference fingerprints the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Runs one op per input set (``workloads.BANK`` sets per workload) and writes
``perfbench/reference/<workload>.json``.  Re-record only in a change whose
purpose is to change the program's results, and say so in that change; a
change that claims a speed-up must pass against the existing references.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads
from run import HERE, ROOT, environment


def record_library(name: str, k: int) -> dict:
    out = workloads.run_op(workloads.build(name, k))
    bad = workloads.library_checks(name, out)
    if name == "kg_d3":
        bad += workloads.kg_cross_check(workloads.build(name, k), out)
    if bad:
        raise SystemExit(f"{name} input set {k} fails its checks: {bad}")
    return workloads.library_fingerprint(name, out)


def record_cli(k: int) -> dict:
    inputs = workloads.build("cli_desk", k)
    out = os.path.join(ROOT, workloads.CLI_OUT)
    shutil.rmtree(out, ignore_errors=True)
    reports = []
    for argv in (inputs["solve"], inputs["verify"]):
        subprocess.run([sys.executable, os.path.join(HERE, "cli_entry.py")] + argv,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        with open(os.path.join(ROOT, argv[argv.index("--out") + 1], "report.json")) as fh:
            reports.append(json.load(fh))
    if not all(r.get("passed") is True for r in reports):
        raise SystemExit(f"cli_desk input set {k} does not pass")
    return workloads.cli_fingerprint(os.path.join(out, "solve"), *reports)


def main() -> int:
    env = environment()
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name in workloads.NAMES:
        fps = {}
        for k in range(workloads.BANK):
            fps[str(k)] = record_cli(k) if name == "cli_desk" else record_library(name, k)
            print(f"{name} input set {k}: |D| = {fps[str(k)]['d_norm']:.6e}", flush=True)
        doc = {
            "workload": name,
            "bank": workloads.BANK,
            "d_rtol": workloads.D_RTOL,
            "scalar_rtol": workloads.SCALAR_RTOL,
            "recorded_with": {k: env[k] for k in ("git_revision", "source_sha256",
                                                  "python", "numpy", "scipy")},
            "inputs": fps,
        }
        with open(os.path.join(HERE, "reference", f"{name}.json"), "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
