"""Configuration-driven command line front end.

Commands: ``verify`` (invariant suites), ``solve`` (fixed-point Cauchy
solve), ``compare-kg`` (first-order vs second-order cross-check) and
``audit`` (nonlinearity coefficient-growth audit).  Options come from an
optional JSON config file plus the flags the command reads (flags win);
config keys a command does not read are ignored.  Every report embeds the
resolved configuration and runs are byte-deterministic for a fixed seed.
Each command is a setup, which does everything that can refuse the input,
and a run; ``main`` maps a refusal to exit 64 before anything is written.

Exit codes: 0 success, 1 invariant failure, 2 solver non-convergence or a
non-finite frame, 3 audit fail (an analytical outcome, not a tool error),
64 usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .clifford import anticommutator_defect, build_gamma
from .dyadic import (
    annulus_profile,
    build_cap_cover,
    cap_partition_sum,
    cube_partition_sum,
    radial_scale_range,
    radial_symbol,
    wide_radial_symbol,
)
from .nonlinear import (
    BUNDLED,
    PowerSeriesNonlinearity,
    growth_audit,
    load_nonlinearity_file,
)
from .norms import frame_norms, measure_bernstein_constant
from .spectral import (
    FrequencyLattice,
    japanese_bracket,
    projector_symbol,
    random_field,
)
from .solver import (
    PicardError,
    SolveConfig,
    dirac_residual,
    evolve_klein_gordon,
    gaussian_data,
    half_wave,
    kg_frequencies,
    picard_solve,
    second_order_data,
    sobolev_monitor,
    split,
)
from .fieldio import save_trajectory

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_SOLVER = 2
EXIT_AUDIT = 3
EXIT_USAGE = 64

_DEFAULT_RADIUS = {1: 32, 2: 10, 3: 6}


@dataclass
class RunConfig:
    """Resolved options of one command invocation; unknown keys rejected."""

    d: int = 1
    lattice_radius: int | None = None
    seed: int = 0
    out: str = "runs/latest"
    dims: tuple[int, ...] | None = None  # (9,) in structural mode, else (1, 2, 3)
    structural: bool = False
    n_random: int = 128
    dt: float = 1.0 / 256.0
    horizon: float = 1.0
    epsilon: float = 1e-3
    s: float | None = None
    nonlinearity: str = "cubic"
    mass: float = 1.0
    picard_tol: float = 1e-12
    max_iterations: int = 25
    defect_budget: float = 1e-6
    distance_budget: float = 1e-5
    refine: bool = False
    constant: float | None = None
    tail_ratio: float | None = None

    def __post_init__(self):
        radius = self.lattice_radius
        if radius is not None and radius < 1:
            raise ValueError(f"lattice_radius must be >= 1, got {radius}")
        for name in ("defect_budget", "distance_budget"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.out:
            raise ValueError("out must name a directory, got an empty path")
        if self.dims is None:
            self.dims = (9,) if self.structural else (1, 2, 3)
        if not self.dims:
            raise ValueError("dims must name at least one dimension")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"dims must not repeat a dimension, got {list(self.dims)}")
        if self.n_random < 1:
            raise ValueError(f"n_random must be >= 1, got {self.n_random}")
        tail = self.tail_ratio
        if tail is not None and not (math.isfinite(tail) and tail >= 0):
            raise ValueError(f"tail_ratio must be finite and >= 0, got {tail}")

    def radius_for(self, d: int) -> int:
        if self.lattice_radius is not None:
            return self.lattice_radius
        return _DEFAULT_RADIUS.get(d, 1)


def _has_type(value, tp) -> bool:
    """JSON-level type check: an int is a float, a bool is neither."""
    if get_origin(tp) is tuple:
        return (isinstance(value, (list, tuple))
                and all(_has_type(v, get_args(tp)[0]) for v in value))
    if get_args(tp):  # X | None
        return any(_has_type(value, t) for t in get_args(tp))
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


def _load_config(path: str | None, overrides: dict) -> RunConfig:
    declared = {f.name: f.type for f in fields(RunConfig)}  # annotation strings
    data: dict = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(raw) - set(declared)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data.update(raw)
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    hints = get_type_hints(RunConfig)
    for key, value in data.items():
        if not _has_type(value, hints[key]):
            raise TypeError(f"{key} must be of type {declared[key]}, got {value!r}")
    if data.get("dims") is not None:
        data["dims"] = tuple(data["dims"])
    return RunConfig(**data)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_report(cfg: RunConfig, payload: dict) -> str:
    payload = dict(payload)
    payload["config"] = _jsonable(asdict(cfg))
    payload["version"] = __version__
    path = os.path.join(cfg.out, "report.json")
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# verify


def _projector_identity_error(g, xi) -> float:
    """Largest violation of the projector and dispersion identities over the
    frequencies ``xi`` of shape (n, d)."""
    eye = np.eye(g.d0)
    h = g.dirac_symbol(xi)
    br = japanese_bracket(xi)[:, None, None]
    pip, pim = projector_symbol(g, xi, +1), projector_symbol(g, xi, -1)
    err = np.abs(pip @ pip - pip).max()
    err = max(err, np.abs(pip + pim - eye).max())
    err = max(err, np.abs(pip @ pim).max())
    err = max(err, np.abs(h @ h - br * br * eye).max())
    return float(err)


def _verify_checks(cfg: RunConfig, gammas: dict, rng):
    """The checks of verify in report order, each as (name, value, budget)
    or (name, skip reason).  A check may add a dict of extra report fields
    after its budget.  Checks draw from ``rng`` in the order they run.
    Structural mode puts every dimension on the radius-1 lattice."""
    radius_of = {d: 1 if cfg.structural else cfg.radius_for(d) for d in gammas}
    for d, g in gammas.items():
        yield f"clifford_defect_d{d}", anticommutator_defect(g), 1e-13
        radius = radius_of[d]
        pts = rng.integers(-radius, radius + 1, size=(max(cfg.n_random, 100), d))
        yield f"projector_identities_d{d}", _projector_identity_error(g, pts), 1e-12

    radii = np.exp(rng.uniform(np.log(2.0**-8), np.log(2.0**10), size=1000))
    total = np.zeros_like(radii)
    for j in range(-12, 14):
        total += annulus_profile(np.ldexp(radii, -j))
    yield "dyadic_telescoping", float(np.abs(total - 1.0).max()), 1e-12

    for d, g in gammas.items():
        radius = radius_of[d]
        lattice = FrequencyLattice(d, radius)
        # both blocks are diagonal, so P~_{j+1} P_j = P_j is this identity of symbols
        err = max(float(np.abs(radial_symbol(lattice, j)
                               * (wide_radial_symbol(lattice, j + 1) - 1.0)).max())
                  for j in range(radial_scale_range(lattice)))
        yield f"wide_block_absorbs_d{d}", err, 1e-12

        if cfg.structural:
            for kind in ("cube_partition", "cap_partition", "bernstein"):
                yield f"{kind}_d{d}", "structural mode"
        else:
            err = 0.0
            for k in (0, 1):
                margin = 2**k
                if margin > radius:  # the boundary margin leaves no interior
                    continue
                tot = cube_partition_sum(lattice, k)
                sl = tuple(slice(margin, 2 * radius + 1 - margin) for _ in range(d))
                err = max(err, float(np.abs(tot[sl] - 1.0).max()))
            yield f"cube_partition_d{d}", err, 1e-12

            if d <= 3:  # smooth covers for d in {2, 3}, the two half-lines for d = 1
                err = 0.0
                for l in (0,) if d == 1 else (0, 1, 2):
                    tot = cap_partition_sum(build_cap_cover(d, l), lattice)
                    mask = lattice.xi_norm_sq > 0
                    err = max(err, float(np.abs(tot[mask] - 1.0).max()))
                    err = max(err, float(np.abs(tot[~mask]).max()))
                yield f"cap_partition_d{d}", err, 1e-12
            else:
                yield f"cap_partition_d{d}", "caps need d <= 3"

            bern = measure_bernstein_constant(
                lattice, max_order=3, n_random=min(cfg.n_random, 200), seed=cfg.seed
            )
            yield f"bernstein_d{d}", float(bern["violations"]), 0.5, {"c_meas": bern["c_meas"]}

        f = random_field(lattice, g.d0, rng)
        drift = 0.0
        base = f.l2_norm()
        for t in rng.uniform(-5.0, 5.0, size=16):
            drift = max(drift, abs(half_wave(f, float(t), +1).l2_norm() - base) / base)
        yield f"half_wave_unitarity_d{d}", drift, 1e-13

    if cfg.structural:
        yield "free_flow_exactness", "structural mode"
        return
    lattice = FrequencyLattice(1, 8)
    g1 = build_gamma(1)
    psi0 = gaussian_data(lattice, g1.d0, 1e-3, 0.5, seed=cfg.seed)
    scfg = SolveConfig(
        d=1, radius=8, dt=0.05, horizon=0.5, epsilon=1e-3,
        nonlinearity=None, monitor_solution_norm=False,
    )
    res = picard_solve(scfg, psi0)
    sp = split(psi0, g1)
    err = 0.0
    for k, t in enumerate(res.trajectory.times):
        exact = half_wave(sp.plus, float(t), +1) + half_wave(sp.minus, float(t), -1)
        err = max(err, (res.trajectory.frame(k) - exact).l2_norm())
    yield "free_flow_exactness", err, 1e-12


def _verify_setup(cfg: RunConfig) -> dict:
    if cfg.structural and cfg.lattice_radius is not None:
        raise ValueError("structural mode runs at radius 1 and takes no lattice_radius")
    return {d: build_gamma(d) for d in cfg.dims}


def _verify_run(cfg: RunConfig, gammas: dict) -> int:
    checks = []
    for name, *result in _verify_checks(cfg, gammas, np.random.default_rng(cfg.seed)):
        if len(result) == 1:
            check = {"name": name, "status": "skipped", "reason": result[0]}
            detail = ""
        else:
            value, budget, *extra = result
            check = {"name": name, "status": "pass" if value <= budget else "fail",
                     "value": float(value), "budget": float(budget)}
            check.update(*extra)
            detail = f"  value={value:.3e} budget={budget:.0e}"
        print(f"[{check['status'].upper():7s}] {name}{detail}")
        checks.append(check)
    failed = any(c["status"] == "fail" for c in checks)
    _write_report(cfg, {"command": "verify", "checks": checks, "passed": not failed})
    return EXIT_INVARIANT if failed else EXIT_OK


# ---------------------------------------------------------------------------
# solve


def _resolve_nonlinearity(name: str, d0: int) -> PowerSeriesNonlinearity:
    """Bundled family (built for spinor dimension d0) or JSON file path."""
    if name in ("none", "zero", "free"):
        return PowerSeriesNonlinearity(d0, {})
    if name in BUNDLED:
        return BUNDLED[name](d0)
    return load_nonlinearity_file(name)


def _solve_setup(cfg: RunConfig):
    """Gamma set, solver configuration and initial data of solve and
    compare-kg."""
    if cfg.mass != 1.0:
        raise ValueError(f"mass {cfg.mass} is not supported: the split solver "
                         "is normalised to mass 1")
    d = cfg.d
    g = build_gamma(d)
    F = _resolve_nonlinearity(cfg.nonlinearity, g.d0)
    if not F.is_zero() and F.d0 != g.d0:
        raise ValueError(f"nonlinearity has d0={F.d0}, dimension d={d} needs {g.d0}")
    scfg = SolveConfig(
        d=d, radius=cfg.radius_for(d), dt=cfg.dt, horizon=cfg.horizon,
        epsilon=cfg.epsilon, s=cfg.s, picard_tol=cfg.picard_tol,
        max_iterations=cfg.max_iterations,
        nonlinearity=None if F.is_zero() else F,
    )
    if scfg.n_frames < 3:  # the residual needs an interior frame
        raise ValueError(f"horizon {cfg.horizon} must be at least two steps of {cfg.dt}")
    psi0 = gaussian_data(scfg.lattice(), g.d0, cfg.epsilon, scfg.s, seed=cfg.seed)
    return g, scfg, psi0


def _relative_defect(tr, F, g, mass: float) -> tuple[np.ndarray, np.ndarray, float]:
    times, values = dirac_residual(tr, F, g, mass)
    sup_sq = float((frame_norms(tr.frames) ** 2).max())
    return times, values, float(values.max() / max(sup_sq, 1e-300))


def _write_solve_csv(path: str, diagnostics: dict, defect, sobolev) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "index", "time", "value", "extra"])
        dists = diagnostics.get("distances", [])
        ratios = diagnostics.get("ratios", [])
        for i, v in enumerate(dists):
            ratio = repr(ratios[i - 1]) if 1 <= i <= len(ratios) else ""
            writer.writerow(["picard", i + 1, "", repr(float(v)), ratio])
        if defect is not None:
            for t, v in zip(*defect):
                writer.writerow(["defect", "", repr(float(t)), repr(float(v)), ""])
        if sobolev is not None:
            for t, v in zip(sobolev["times"], sobolev["values"]):
                writer.writerow(["sobolev", "", repr(float(t)), repr(float(v)), ""])


def _solve_run(cfg: RunConfig, setup) -> int:
    g, scfg, psi0 = setup
    res = picard_solve(scfg, psi0)
    times_in, values, rel_defect = _relative_defect(
        res.trajectory, scfg.nonlinearity, g, 1.0
    )
    mon = sobolev_monitor(res.trajectory, scfg.s)
    save_trajectory(res.trajectory, cfg.out, extra={
        "diagnostics": _jsonable(res.diagnostics),
        "command": "solve",
    })
    _write_solve_csv(os.path.join(cfg.out, "diagnostics.csv"),
                     res.diagnostics, (times_in, values), mon)
    ok = rel_defect <= cfg.defect_budget
    print(f"converged in {res.diagnostics['iterations']} iterations; "
          f"relative defect {rel_defect:.3e} (budget {cfg.defect_budget:.0e})")
    _write_report(cfg, {
        "command": "solve",
        "converged": True,
        "relative_defect": rel_defect,
        "sobolev_ratio": mon["ratio"],
        "diagnostics": _jsonable(res.diagnostics),
        "passed": bool(ok),
    })
    return EXIT_OK if ok else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# compare-kg


def _compare_once(cfg: RunConfig, g, scfg: SolveConfig, psi0):
    Fs = scfg.nonlinearity
    res = picard_solve(replace(scfg, monitor_solution_norm=False), psi0)
    state = second_order_data(psi0, Fs, g, cfg.mass)
    kg = evolve_klein_gordon(state, Fs, g, cfg.mass, scfg.dt, scfg.horizon)
    dist = float(frame_norms(kg.frames - res.trajectory.frames).max())
    _, _, defect_first = _relative_defect(res.trajectory, Fs, g, 1.0)
    _, _, defect_second = _relative_defect(kg, Fs, g, cfg.mass)
    return dist, defect_first, defect_second


def _compare_setup(cfg: RunConfig):
    setup = _solve_setup(cfg)
    kg_frequencies(setup[1].lattice(), cfg.mass, cfg.dt)  # the step guard
    return setup


def _compare_run(cfg: RunConfig, setup) -> int:
    g, scfg, psi0 = setup
    dist, defect_first, defect_second = _compare_once(cfg, g, scfg, psi0)
    payload = {
        "command": "compare-kg",
        "distance": dist,
        "defect_first_order": defect_first,
        "defect_second_order": defect_second,
    }
    if cfg.refine:
        dist_half, _, _ = _compare_once(cfg, g, replace(scfg, dt=scfg.dt / 2), psi0)
        payload["distance_refined"] = dist_half
        payload["refinement_factor"] = dist / dist_half if dist_half > 0 else np.inf
    ok = dist <= cfg.distance_budget
    payload["passed"] = bool(ok)
    print(f"route distance {dist:.3e} (budget {cfg.distance_budget:.0e}); "
          f"defects {defect_first:.3e} / {defect_second:.3e}")
    _write_report(cfg, payload)
    return EXIT_OK if ok else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# audit


def _audit_setup(cfg: RunConfig):
    """The whole audit: a bad series or constant is a usage error."""
    d = cfg.d
    g = build_gamma(d)
    F = _resolve_nonlinearity(cfg.nonlinearity, g.d0)
    constant = cfg.constant
    if constant is None:
        lattice = FrequencyLattice(d, cfg.radius_for(d))
        constant = measure_bernstein_constant(
            lattice, max_order=3, n_random=0, seed=cfg.seed
        )["c_meas"]
    # refuses an empty series, a wrong d0 and a constant that is not
    # positive and finite
    return growth_audit(F, g, constant, tail_ratio=cfg.tail_ratio)


def _audit_run(cfg: RunConfig, report) -> int:
    verdict = "pass" if report.passed else "fail"
    print(f"growth audit: {verdict} (proxy {report.proxy:.4g}, "
          f"threshold {report.threshold:.4g}, constant {report.constant:.4g})")
    _write_report(cfg, {"command": "audit", "audit": asdict(report),
                        "passed": report.passed})
    return EXIT_OK if report.passed else EXIT_AUDIT


# ---------------------------------------------------------------------------
# entry point

# argparse keywords of every flag; --a-b sets the RunConfig field a_b, and
# --config names the config file
_FLAGS = {
    "config": {"help": "JSON config file"},
    "out": {"help": "output directory"},
    "seed": {"type": int, "help": "seed for randomized suites"},
    "d": {"type": int, "help": "spatial dimension"},
    "lattice_radius": {"type": int},
    "dt": {"type": float, "help": "time step"},
    "horizon": {"type": float, "help": "final time"},
    "epsilon": {"type": float, "help": "initial data size"},
    "nonlinearity": {"help": "bundled name or JSON file path"},
    "dims": {"type": int, "nargs": "+", "help": "dimensions to check"},
    "n_random": {"type": int},
    "structural": {"action": "store_true", "default": None,
                   "help": "radius-1 high-dimension structural mode"},
    "picard_tol": {"type": float},
    "max_iterations": {"type": int},
    "defect_budget": {"type": float},
    "distance_budget": {"type": float},
    "refine": {"action": "store_true", "default": None,
               "help": "also run at dt/2 and report the shrink factor"},
    "mass": {"type": float},
    "constant": {"type": float, "help": "override the measured derivative constant"},
    "tail_ratio": {"type": float, "help": "declared geometric tail of a truncated series"},
}
_COMMON = ("config", "out", "seed")
_EVOLUTION = _COMMON + ("d", "lattice_radius", "dt", "horizon", "epsilon", "nonlinearity")

# command -> (help, flags it reads, setup, run).  The setup does everything
# that can refuse the input; the run gets the setup's result.
_COMMANDS = {
    "verify": ("run the invariant suites",
               _COMMON + ("lattice_radius", "dims", "n_random", "structural"),
               _verify_setup, _verify_run),
    "solve": ("fixed-point Cauchy solve",
              _EVOLUTION + ("picard_tol", "max_iterations", "defect_budget"),
              _solve_setup, _solve_run),
    "compare-kg": ("first vs second order cross-check",
                   _EVOLUTION + ("distance_budget", "refine", "mass"),
                   _compare_setup, _compare_run),
    "audit": ("coefficient growth audit",
              _COMMON + ("d", "lattice_radius", "nonlinearity", "constant", "tail_ratio"),
              _audit_setup, _audit_run),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintorus",
        description="Spectral Dirac simulation and verification on flat tori",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for name in flags:
            p.add_argument("--" + name.replace("_", "-"), **_FLAGS[name])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    _, _, setup, run = _COMMANDS[args.command]
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config")}
    try:
        cfg = _load_config(args.config, overrides)
        prepared = setup(cfg)
        os.makedirs(cfg.out, exist_ok=True)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run(cfg, prepared)
    except PicardError as exc:
        print(f"solver failed: {exc}")
        _write_report(cfg, {"command": args.command, "converged": False,
                            "diagnostics": exc.diagnostics, "passed": False})
        return EXIT_SOLVER
    except FloatingPointError as exc:
        print(f"solver failed: {exc}")
        _write_report(cfg, {"command": args.command, "error": str(exc),
                            "non_finite_time": getattr(exc, "time", None),
                            "passed": False})
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
