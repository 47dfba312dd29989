"""Benchmark of the spintorus toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs in its own fresh worker process (``worker.py``), one at a
time, with the thread settings of the libraries left at their defaults.

``--trace 0`` reports the end-to-end metrics ``wall_s`` (median seconds per
op), ``peak_rss_mib`` and ``setup_s`` (median of fresh-process imports plus
input builds).  Both times are in reference seconds, scaled by a calibration
loop timed alongside them (``calibrate.py``), because the shared host's speed
drifts more than any useful bound; the raw seconds are printed and recorded.
``--trace 1`` reports the per-layer metrics of a traced pass (``spans.py``)
and an allocation pass under ``tracemalloc``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a full run record goes to
``perfbench/out/records/``.  ``--workload all`` runs every workload and
prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("picard_d3", "kg_d3", "rk4_long_d1", "cli_desk")
SETUP_REPEATS = 4  # timed set-up probes before the worker, and as many after
BUDGET_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _child(cmd: list[str], deadline: float, **kw) -> subprocess.CompletedProcess:
    """Run a child to completion; at the deadline kill it and everything it
    started (it leads its own process group)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "spintorus")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _caches() -> dict:
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in out.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
            sizes[parts[0].lower()] = int(parts[1])
    return sizes


def environment() -> dict:
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "absent"
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v, "unset (library default)") for v in THREAD_VARS},
        "caches": _caches(),
        "machine": platform.machine(),
    }


def record_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(HERE, "out", "records", f"{workload}-seed{seed}-trace{trace}.json")


def setup_times(workload: str, seed: int, deadline: float, warm: bool,
                loop_walls: list[float]) -> list[float]:
    """Wall seconds of fresh processes that import the package and build the
    inputs; unless ``warm``, one untimed probe first writes bytecode caches.
    The calibration loop is timed before the first timed probe and after
    each; the mean of the passes on either side of a probe is appended to
    ``loop_walls``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", "setup"]
    times = []
    for i in range(SETUP_REPEATS + (not warm)):
        timed = warm or i > 0
        if timed:
            before = after if times else calibrate.seconds(fresh=True)
        t0 = time.perf_counter()
        done = _child(cmd, deadline, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        t1 = time.perf_counter()
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.decode()[-500:]}")
        if timed:
            times.append(t1 - t0)
            after = calibrate.seconds(fresh=True)
            loop_walls.append((before + after) / 2.0)
    return times


def run_one(args, started: float) -> int:
    deadline = started + BUDGET_S
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "environment": environment()}
    if not args.trace:
        record["setup_loop_walls"] = []
        record["setup_walls"] = setup_times(args.workload, args.seed, deadline, False,
                                            record["setup_loop_walls"])
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        result_path = os.path.join(tmp, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", "trace" if args.trace else "plain", "--result", result_path]
        done = _child(cmd, deadline, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace")[-4000:])
            print(f"error: worker for {args.workload} exited {done.returncode}", file=sys.stderr)
            return 1
        with open(result_path) as fh:
            worker = json.load(fh)
    record.update(worker)
    if not args.trace:  # probes on both sides of the timed ops
        record["setup_walls"] += setup_times(args.workload, args.seed, deadline, True,
                                             record["setup_loop_walls"])

    units = declared_units("per_layer" if args.trace else "end_to_end")
    walls = worker["walls"]
    attempted, failed = worker["attempted"], len(worker["failures"])
    lines = [f"workload {args.workload}  seed {args.seed} (input set {worker['input_seed']})",
             f"  sizes {json.dumps(worker['sizes'])}"]
    if args.trace:
        values = worker["layer"]
    else:
        setups = record["setup_walls"]
        values = {"wall_s": calibrate.scale(walls, worker["loop_walls"], worker["loop_fresh"]),
                  "peak_rss_mib": worker["peak_rss_mib"],
                  "setup_s": calibrate.scale(setups, record["setup_loop_walls"], fresh=True)}
    if set(values) != set(units):
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1
    if args.trace:
        lines += [f"  {k:28s} {values[k]:.6g} {units[k]}" for k in units]
        lines.append(f"  traced ops {len(worker['traced_walls'])}, untraced ops {len(walls)}; "
                     f"absent names: {', '.join(worker['absent']) or 'none'}")
    else:
        lines += [
            f"  wall_s        {values['wall_s']:.4f} s   median of {len(walls)} ops, "
            f"reference seconds; raw {statistics.median(walls):.4f} s "
            f"(min {min(walls):.4f}, max {max(walls):.4f}), "
            f"cpu {statistics.median(worker['cpus']):.4f} s/op",
            f"  peak_rss_mib  {values['peak_rss_mib']:.1f} MiB",
            f"  setup_s       {values['setup_s']:.4f} s   median of {len(setups)}, "
            f"reference seconds; raw {statistics.median(setups):.4f} s",
            f"  calibration   {statistics.median(worker['loop_walls']):.4f} s per pass "
            f"next to the ops ({worker['loop_passes']} per op), "
            f"{statistics.median(record['setup_loop_walls']):.4f} s next to the probes "
            f"(reference {calibrate.REF_S} s, {calibrate.REF_FRESH_S} s with a fresh "
            f"interpreter)",
        ]
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    lines.append(f"  failed_frac   {failed / attempted:.4f}   ({failed} of {attempted} ops)")
    lines += [f"  FAILED op {i}: {msg}" for i, msg in list(worker["failures"].items())[:5]]
    path = record_path(args.workload, args.seed, args.trace)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    lines.append(f"  record {os.path.relpath(path, ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each through its own ``run.py`` process."""
    rows, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout if done.returncode == 0 else done.stderr)
        if done.returncode != 0:
            status = 1
            continue
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
    shown = () if args.trace else declared_units("end_to_end")
    print("\nworkload     " + "".join(f"{m:>22s}" for m in shown) + "   failed_frac")
    for name, row in rows.items():
        with open(record_path(name, args.seed, args.trace)) as fh:
            record = json.load(fh)
        counts = {"wall_s": len(record["walls"]),
                  "setup_s": len(record.get("setup_walls", []))}
        cells = []
        for key in shown:
            m = row["metrics"][key]
            n = f"(n={counts[key]})" if key in counts else ""
            cells.append(f"{m['value']:>10.4f} {m['unit']:<4s}{n:>7s}")
        frac = row["failed"] / row["attempted"]
        print(f"{name:12s} " + " ".join(cells)
              + f"   {frac:.4f} ({row['failed']}/{row['attempted']})")
    with open(os.path.join(HERE, "out", "summary.json"), "w") as fh:
        json.dump(rows, fh, indent=1)
    return status


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description="spintorus benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spintorus", "__init__.py")):
        print(f"error: no spintorus sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a spintorus checkout", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(HERE, "reference")):
        print("error: reference outputs missing; run perfbench/record_reference.py",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args, started)
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
