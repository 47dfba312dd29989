"""One workload in one fresh process: set-up probe, timed run or traced run.

Started by ``run.py``; writes its measurements as JSON to ``--result``.

Modes:
* ``setup``: import the package, build the inputs, exit (timed by the parent).
* ``plain``: one untimed op, then timed ops until ``--seconds`` have passed
  since the inputs were built (at least ``MIN_OPS``), with the calibration
  loop (``calibrate.py``) timed before the first and after each.
  Library ops are timed warm in this process; each ``cli_desk`` op is two
  fresh CLI processes.
* ``trace``: one untimed op, then untraced and traced ops alternately
  (``MIN_PAIRS`` to ``MAX_PAIRS`` pairs, within ``--seconds`` when the
  minimum allows), then one op under ``tracemalloc``.

Every op's output is checked outside the timed region; a check failure or
an exception counts the op as failed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback

import calibrate
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_OPS = 3
MIN_PAIRS, MAX_PAIRS = 2, 4  # traced runs: (untraced, traced) op pairs
CAL_SHARE = 0.1  # timed calibration passes per op, as a share of the op's time


class Run:
    """Op loop bookkeeping shared by the library and CLI workloads."""

    fresh = False  # whether an op runs in fresh processes (calibration kind)

    def __init__(self, name: str, seed: int):
        self.name = name
        self.inputs = workloads.build(name, seed)
        self.ref = workloads.load_reference(name)["inputs"][str(self.inputs["input_seed"])]
        self.attempted = 0
        self.failures: dict[int, str] = {}  # op index -> what failed
        self.extras: dict[str, list[float]] = {}

    def fail(self, index: int, messages: list[str]) -> None:
        if messages:
            prior = self.failures.get(index)
            text = "; ".join(messages[:3])
            self.failures[index] = f"{prior}; {text}" if prior else text

    def note(self, key: str, value: float) -> None:
        self.extras.setdefault(key, []).append(value)

    def loop(self, until: float, min_ops: int, mode: str, loop_walls: list[float] | None = None,
             passes: int = 1) -> tuple[list[float], list[float]]:
        """Ops until ``until`` (perf_counter) and at least ``min_ops`` of them.
        With ``loop_walls``, ``passes`` passes of the calibration loop are
        timed before the first op and after each, and for each successful op
        the mean pass time on either side of it is appended there."""
        walls, cpus = [], []
        first = self.attempted
        before = calibrate.seconds(passes, self.fresh) if loop_walls is not None else 0.0
        while self.attempted - first < min_ops or time.perf_counter() < until:
            index = self.attempted
            self.attempted += 1
            try:
                wall, cpu = self.op(index, mode)
            except Exception:  # the op is failed; later ops still run
                self.fail(index, [traceback.format_exc(limit=3).strip().splitlines()[-1]])
                wall = None
            if loop_walls is not None:
                after = calibrate.seconds(passes, self.fresh)
                if wall is not None:
                    loop_walls.append((before + after) / 2.0)
                before = after
            if wall is not None:
                walls.append(wall)
                cpus.append(cpu)
        return walls, cpus


# ---------------------------------------------------------------------------
# library workloads


class LibraryRun(Run):
    startup: list[float] = []  # only CLI processes have a start-up to report

    def __init__(self, name, seed):
        super().__init__(name, seed)
        self.last = None
        self.tracer = None
        self.alloc: dict = {}

    def op(self, index: int, mode: str = "plain"):
        self.last = None
        if mode == "trace":
            self.tracer.install()
        elif mode == "alloc":
            tracemalloc.start()
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            if mode == "trace":
                out = self.tracer.run(index, workloads.run_op, self.inputs)
            else:
                out = workloads.run_op(self.inputs)
            t1, c1 = time.perf_counter(), time.process_time()
            if mode == "alloc":
                traj = workloads.trajectory_of(self.name, out)
                self.alloc = {"peak_bytes": tracemalloc.get_traced_memory()[1],
                              "traj_bytes": traj.frames.nbytes}
        finally:
            if mode == "trace":
                self.tracer.uninstall()
            elif mode == "alloc":
                tracemalloc.stop()
        self.check(index, out)
        self.last = out
        return t1 - t0, c1 - c0

    def check(self, index: int, out) -> None:
        bad = workloads.library_checks(self.name, out)
        bad += workloads.compare(workloads.library_fingerprint(self.name, out), self.ref)
        self.fail(index, bad)
        if self.name == "picard_d3":
            self.note("picard_iterations", out.diagnostics["iterations"])

    def post_checks(self) -> None:
        if self.name == "kg_d3" and self.last is not None:
            self.fail(self.attempted - 1, workloads.kg_cross_check(self.inputs, self.last))


# ---------------------------------------------------------------------------
# CLI workload


class CliRun(Run):
    tracer = None
    fresh = True

    def __init__(self, name, seed):
        super().__init__(name, seed)
        self.first_report = None
        self.spans: list = []
        self.startup: list[float] = []
        self.absent: list[str] = []
        self.alloc: dict = {}

    def _spawn(self, argv, env_extra: dict, timeout: float):
        env = dict(os.environ)
        env.update(env_extra)
        cmd = [sys.executable, os.path.join("perfbench", "cli_entry.py")] + argv
        spawned = time.time()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, err.decode(errors="replace"), spawned

    def op(self, index: int, mode: str = "plain"):
        out = os.path.join(ROOT, workloads.CLI_OUT)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(os.path.join(out, "trace"), exist_ok=True)
        envs = [{}, {}]
        if mode == "trace":
            radii = json.dumps(workloads.RADIUS_BY_DIM[self.name])
            envs = [{"PERFBENCH_TRACE": os.path.join(out, "trace", f"{k}.json"),
                     "PERFBENCH_TRACE_ID": str(index), "PERFBENCH_RADII": radii}
                    for k in range(2)]
        elif mode == "alloc":
            envs[0] = {"PERFBENCH_ALLOC": os.path.join(out, "trace", "alloc.json")}
        codes, errs, spawned = [], [], []
        c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        for argv, env in zip((self.inputs["solve"], self.inputs["verify"]), envs):
            code, err, when = self._spawn(argv, env, timeout=120)
            codes.append(code)
            errs.append(err)
            spawned.append(when)
        t1 = time.perf_counter()
        c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (c1.ru_utime + c1.ru_stime) - (c0.ru_utime + c0.ru_stime)
        self.check(index, codes, errs)
        if mode == "trace":
            for k in range(2):
                with open(os.path.join(out, "trace", f"{k}.json")) as fh:
                    child = json.load(fh)
                # span ids restart in every process; keep them unique per file
                off = (2 * index + k + 1) * 10**8
                for sp in child["spans"]:
                    sp[spans.SID] += off
                    if sp[spans.PARENT] >= 0:
                        sp[spans.PARENT] += off
                self.spans.extend(child["spans"])
                self.absent = child["absent"]
                self.startup.append(child["entered"] - spawned[k])
        if mode == "alloc":
            with open(os.path.join(out, "trace", "alloc.json")) as fh:
                peak = json.load(fh)["peak_bytes"]
            sizes = workloads.sizes(self.name)
            self.alloc = {"peak_bytes": peak, "traj_bytes": 16 * sizes["M"]
                          * sizes["lattice_points"] * sizes["d0"]}
        return t1 - t0, cpu

    def check(self, index: int, codes, errs) -> None:
        bad = [f"{cmd} exited {code}: {err.strip()[-200:]}"
               for cmd, code, err in zip(("solve", "verify"), codes, errs) if code != 0]
        if bad:
            self.fail(index, bad)
            return
        out = os.path.join(ROOT, workloads.CLI_OUT)
        with open(os.path.join(out, "solve", "report.json"), "rb") as fh:
            raw = fh.read()
        with open(os.path.join(out, "verify", "report.json")) as fh:
            verify = json.load(fh)
        solve = json.loads(raw)
        if self.first_report is None:
            self.first_report = raw
        elif raw != self.first_report:
            bad.append("solve report.json differs between invocations")
        for label, rep in (("solve", solve), ("verify", verify)):
            if rep.get("passed") is not True:
                bad.append(f"{label} report has passed={rep.get('passed')!r}")
        solve_dir = os.path.join(out, "solve")
        bad += workloads.compare(workloads.cli_fingerprint(solve_dir, solve, verify), self.ref)
        self.fail(index, bad)
        self.note("picard_iterations", solve.get("diagnostics", {}).get("iterations", 0))
        frames = os.path.join(solve_dir, "frames")
        written = sum(os.path.getsize(os.path.join(frames, f)) for f in os.listdir(frames))
        written += os.path.getsize(os.path.join(solve_dir, "manifest.json"))
        self.note("mib_written", written / 2**20)


# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, mode: str) -> dict:
    run = (CliRun if name == "cli_desk" else LibraryRun)(name, seed)
    start = time.perf_counter()
    result: dict = {"input_seed": run.inputs["input_seed"], "sizes": workloads.sizes(name)}
    # untimed: warms file cache, bytecode, allocator
    first = run.loop(0.0, 1, "plain")[0] or [0.0]

    if mode == "plain":
        # calibration takes about CAL_SHARE of the time next to each op, so
        # it samples the host's speed as well for long ops as for short ones
        passes = max(1, round(CAL_SHARE * first[0] / calibrate.ref_s(run.fresh)))
        loop_walls: list[float] = []
        walls, cpus = run.loop(start + seconds, MIN_OPS, "plain", loop_walls, passes)
        who = resource.RUSAGE_CHILDREN if name == "cli_desk" else resource.RUSAGE_SELF
        peak_kib = resource.getrusage(who).ru_maxrss  # before the post-run checks
        if not walls:
            raise RuntimeError(f"no op succeeded: {list(run.failures.values())[:3]}")
        result.update(walls=walls, cpus=cpus, loop_walls=loop_walls, loop_passes=passes,
                      loop_fresh=run.fresh, peak_rss_mib=peak_kib / 1024.0)
        if isinstance(run, LibraryRun):
            run.post_checks()
    else:
        # untraced and traced ops alternate, so slow phases of the machine
        # fall on both sides of the overhead ratio alike
        if isinstance(run, LibraryRun):
            run.tracer = spans.Tracer(workloads.RADIUS_BY_DIM[name])
        walls, traced = [], []
        while len(traced) < MIN_PAIRS or (
                len(traced) < MAX_PAIRS and time.perf_counter() < start + seconds):
            walls += run.loop(0.0, 1, "plain")[0]
            traced += run.loop(0.0, 1, "trace")[0]
        run.loop(0.0, 1, "alloc")
        if not (walls and traced and run.alloc):
            raise RuntimeError(f"no op succeeded: {list(run.failures.values())[:3]}")
        all_spans = run.tracer.spans if run.tracer is not None else run.spans
        layer = spans.aggregate(all_spans, len(traced))
        op_wall = sum(traced) / len(traced)
        startup = sum(run.startup) / len(traced)
        accounted = spans.layer_self_total(layer) + startup
        layer.update({
            "cli.startup_s": startup,
            "solver.picard_iterations":
                statistics.median(run.extras.get("picard_iterations", [0])),
            "solver.alloc_peak_mib": run.alloc["peak_bytes"] / 2**20,
            "solver.alloc_over_traj": run.alloc["peak_bytes"] / run.alloc["traj_bytes"],
            "fieldio.mib_written": statistics.median(run.extras.get("mib_written", [0.0])),
            "trace.op_wall_s": op_wall,
            "trace.overhead": statistics.median(traced) / statistics.median(walls) - 1.0,
            "trace.unattributed_frac": 1.0 - accounted / op_wall,
        })
        os.makedirs(os.path.join(HERE, "out", "spans"), exist_ok=True)
        spans_path = os.path.join(HERE, "out", "spans", f"{name}-seed{seed}.json.gz")
        with gzip.open(spans_path, "wt", compresslevel=1) as fh:
            json.dump({"fields": spans.FIELDS, "spans": all_spans}, fh)
        absent = run.tracer.absent if run.tracer is not None else run.absent
        result.update(walls=walls, layer=layer, traced_walls=traced, absent=absent,
                      spans_file=os.path.relpath(spans_path, ROOT))
    result.update(attempted=run.attempted, failures=run.failures,
                  elapsed_s=time.perf_counter() - start)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--mode", choices=("setup", "plain", "trace"), required=True)
    ap.add_argument("--result")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        workloads.build(args.workload, args.seed)
        if args.workload == "cli_desk":
            from spintorus import cli  # noqa: F401  (the CLI's own import cost)
        return 0
    result = measure(args.workload, args.seed, args.seconds, args.mode)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
