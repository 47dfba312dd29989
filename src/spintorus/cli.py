"""Configuration-driven command line front end.

Commands: ``verify`` (invariant suites), ``solve`` (fixed-point Cauchy
solve), ``compare-kg`` (first-order vs second-order cross-check) and
``audit`` (nonlinearity coefficient-growth audit).  Options come from an
optional JSON config file plus flag overrides (flags win); every report
embeds the resolved configuration and runs are byte-deterministic for a
fixed seed.

Exit codes: 0 success, 1 invariant failure, 2 solver non-convergence,
3 audit fail (an analytical outcome, not a tool error), 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .clifford import anticommutator_defect, build_gamma
from .dyadic import (
    annulus_profile,
    build_cap_cover,
    build_cube_cover,
    cap_symbols,
    cube_symbol,
    radial_symbol,
    wide_radial_symbol,
)
from .nonlinear import (
    BUNDLED,
    PowerSeriesNonlinearity,
    growth_audit,
    load_nonlinearity_file,
)
from .norms import measure_bernstein_constant
from .spectral import (
    FrequencyLattice,
    japanese_bracket,
    random_field,
)
from .solver import (
    PicardError,
    SolveConfig,
    dirac_residual,
    evolve_klein_gordon,
    gaussian_data,
    half_wave,
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
    dims: tuple = (1, 2, 3)
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
    inject_fault: str | None = None  # test hook, e.g. "gamma-scale"

    def radius_for(self, d: int) -> int:
        if self.structural:
            return 1
        if self.lattice_radius is not None:
            return self.lattice_radius
        return _DEFAULT_RADIUS.get(d, 1)


def _load_config(path: str | None, overrides: dict) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    data: dict = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data.update(raw)
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    if "dims" in data:
        data["dims"] = tuple(int(x) for x in data["dims"])
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
    os.makedirs(cfg.out, exist_ok=True)
    payload = dict(payload)
    payload["config"] = _jsonable(asdict(cfg))
    payload["version"] = __version__
    path = os.path.join(cfg.out, "report.json")
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
    return path


def _check(name: str, value: float, budget: float, status: str | None = None) -> dict:
    ok = value <= budget
    return {
        "name": name,
        "status": status or ("pass" if ok else "fail"),
        "value": float(value),
        "budget": float(budget),
    }


def _skipped(name: str, reason: str) -> dict:
    return {"name": name, "status": "skipped", "reason": reason}


# ---------------------------------------------------------------------------
# verify


def _projector_identity_error(g, xi) -> float:
    eye = np.eye(g.d0)
    h = g.dirac_symbol(xi)
    br = japanese_bracket(xi)
    pip = 0.5 * (eye + h / br)
    pim = 0.5 * (eye - h / br)
    err = np.abs(pip @ pip - pip).max()
    err = max(err, np.abs(pip + pim - eye).max())
    err = max(err, np.abs(pip @ pim).max())
    err = max(err, np.abs(h @ h - br * br * eye).max())
    return float(err)


def cmd_verify(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    checks: list[dict] = []
    dims = (9,) if cfg.structural and cfg.dims == (1, 2, 3) else cfg.dims
    try:
        gammas = {d: build_gamma(d) for d in dims}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    for d in dims:
        g = gammas[d]
        if cfg.inject_fault == "gamma-scale":
            bad = tuple(
                2.0 * a if j == 0 else a for j, a in enumerate(g.alpha)
            )
            g = replace(g, alpha=bad)
        checks.append(_check(f"clifford_defect_d{d}", anticommutator_defect(g), 1e-13))
        radius = cfg.radius_for(d)
        pts = rng.integers(-radius, radius + 1, size=(max(cfg.n_random, 100), d))
        err = max(_projector_identity_error(g, xi) for xi in pts)
        checks.append(_check(f"projector_identities_d{d}", err, 1e-12))

    radii = np.exp(rng.uniform(np.log(2.0**-8), np.log(2.0**10), size=1000))
    total = np.zeros_like(radii)
    for j in range(-12, 14):
        total += annulus_profile(np.ldexp(radii, -j))
    checks.append(_check("dyadic_telescoping", float(np.abs(total - 1.0).max()), 1e-12))

    for d in dims:
        radius = cfg.radius_for(d)
        lattice = FrequencyLattice(d, radius)
        d0 = gammas[d].d0
        err = 0.0
        jmax = max(int(np.ceil(np.log2(np.sqrt(d) * radius))), 1)
        for _ in range(50):
            f = random_field(lattice, d0, rng)
            for j in range(0, jmax):
                pj = f.coeffs * radial_symbol(lattice, j)[..., None]
                wide = pj * wide_radial_symbol(lattice, j + 1)[..., None]
                err = max(err, float(np.abs(wide - pj).max()))
        checks.append(_check(f"wide_block_absorbs_d{d}", err, 1e-12))

        if cfg.structural:
            checks.append(_skipped(f"cube_partition_d{d}", "structural mode"))
            checks.append(_skipped(f"cap_partition_d{d}", "structural mode"))
            checks.append(_skipped(f"bernstein_d{d}", "structural mode"))
        else:
            err = 0.0
            for k in (0, 1):
                margin = 2**k
                if margin > radius:  # the boundary margin leaves no interior
                    continue
                cover = build_cube_cover(lattice, k)
                tot = np.zeros(lattice.shape)
                for n in cover.centers:
                    tot += cube_symbol(cover, n)
                sl = tuple(slice(margin, 2 * radius + 1 - margin) for _ in range(d))
                err = max(err, float(np.abs(tot[sl] - 1.0).max()))
            checks.append(_check(f"cube_partition_d{d}", err, 1e-12))

            if 2 <= d <= 3:
                err = 0.0
                for l in (0, 1, 2):
                    cover = build_cap_cover(d, l)
                    table = cap_symbols(cover, lattice)
                    tot = table.sum(axis=0)
                    mask = lattice.xi_norm_sq > 0
                    err = max(err, float(np.abs(tot[mask] - 1.0).max()))
                    err = max(err, float(np.abs(tot[~mask]).max()))
                checks.append(_check(f"cap_partition_d{d}", err, 1e-12))
            elif d == 1:
                cover = build_cap_cover(1, 0)
                table = cap_symbols(cover, lattice)
                tot = table.sum(axis=0)
                mask = lattice.xi_norm_sq > 0
                err = max(
                    float(np.abs(tot[mask] - 1.0).max()), float(np.abs(tot[~mask]).max())
                )
                checks.append(_check(f"cap_partition_d{d}", err, 1e-12))
            else:
                checks.append(_skipped(f"cap_partition_d{d}", "caps need d <= 3"))

            bern = measure_bernstein_constant(
                lattice, max_order=3, n_random=min(cfg.n_random, 200), seed=cfg.seed
            )
            chk = _check(f"bernstein_d{d}", float(bern["violations"]), 0.5)
            chk["c_meas"] = bern["c_meas"]
            checks.append(chk)

        # half-wave unitarity
        f = random_field(lattice, d0, rng)
        drift = 0.0
        base = f.l2_norm()
        for t in rng.uniform(-5.0, 5.0, size=16):
            drift = max(drift, abs(half_wave(f, float(t), +1).l2_norm() - base) / base)
        checks.append(_check(f"half_wave_unitarity_d{d}", drift, 1e-13))

    if cfg.structural:
        checks.append(_skipped("free_flow_exactness", "structural mode"))
    else:
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
        checks.append(_check("free_flow_exactness", err, 1e-12))

    failed = [c for c in checks if c["status"] == "fail"]
    for c in checks:
        line = f"[{c['status'].upper():7s}] {c['name']}"
        if "value" in c:
            line += f"  value={c['value']:.3e} budget={c['budget']:.0e}"
        print(line)
    _write_report(cfg, {"command": "verify", "checks": checks,
                        "passed": not failed})
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


def _solve_setup(cfg: RunConfig, dt: float):
    """Gamma set, solver configuration and initial data of solve and
    compare-kg; raises OSError, ValueError, KeyError or TypeError on bad
    input."""
    if cfg.mass != 1.0:
        raise ValueError(f"mass {cfg.mass} is not supported: the split solver "
                         "is normalised to mass 1")
    d = cfg.d
    g = build_gamma(d)
    F = _resolve_nonlinearity(cfg.nonlinearity, g.d0)
    if not F.is_zero() and F.d0 != g.d0:
        raise ValueError(f"nonlinearity has d0={F.d0}, dimension d={d} needs {g.d0}")
    s = cfg.s if cfg.s is not None else d / 2.0
    scfg = SolveConfig(
        d=d, radius=cfg.radius_for(d), dt=dt, horizon=cfg.horizon,
        epsilon=cfg.epsilon, s=s, picard_tol=cfg.picard_tol,
        max_iterations=cfg.max_iterations,
        nonlinearity=None if F.is_zero() else F,
    )
    psi0 = gaussian_data(scfg.lattice(), g.d0, cfg.epsilon, s, seed=cfg.seed)
    return g, scfg, psi0


def _relative_defect(tr, F, g, mass: float) -> tuple[np.ndarray, np.ndarray, float]:
    times, values = dirac_residual(tr, F, g, mass)
    m = tr.n_frames
    sup_sq = float(
        (np.linalg.norm(tr.frames.reshape(m, -1), axis=1) ** 2).max()
    )
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


def cmd_solve(cfg: RunConfig) -> int:
    try:
        g, scfg, psi0 = _solve_setup(cfg, cfg.dt)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        res = picard_solve(scfg, psi0)
    except PicardError as exc:
        print(f"solver failed: {exc}")
        _write_report(cfg, {
            "command": "solve", "converged": False,
            "diagnostics": exc.diagnostics, "passed": False,
        })
        return EXIT_SOLVER
    times_in, values, rel_defect = _relative_defect(
        res.trajectory, scfg.nonlinearity, g, 1.0
    )
    mon = sobolev_monitor(res.trajectory, scfg.s)
    os.makedirs(cfg.out, exist_ok=True)
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
    m = res.trajectory.n_frames
    dist = float(
        np.linalg.norm(
            (kg.frames - res.trajectory.frames).reshape(m, -1), axis=1
        ).max()
    )
    _, _, defect_first = _relative_defect(res.trajectory, Fs, g, 1.0)
    _, _, defect_second = _relative_defect(kg, Fs, g, cfg.mass)
    return dist, defect_first, defect_second


def cmd_compare_kg(cfg: RunConfig) -> int:
    try:
        run = _solve_setup(cfg, cfg.dt)
        run_half = _solve_setup(cfg, cfg.dt / 2.0) if cfg.refine else None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        dist, defect_first, defect_second = _compare_once(cfg, *run)
    except PicardError as exc:
        print(f"solver failed: {exc}")
        _write_report(cfg, {"command": "compare-kg", "passed": False,
                            "diagnostics": exc.diagnostics})
        return EXIT_SOLVER
    payload = {
        "command": "compare-kg",
        "distance": dist,
        "defect_first_order": defect_first,
        "defect_second_order": defect_second,
    }
    if cfg.refine:
        dist_half, _, _ = _compare_once(cfg, *run_half)
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


def cmd_audit(cfg: RunConfig) -> int:
    d = cfg.d
    try:
        g = build_gamma(d)
        F = _resolve_nonlinearity(cfg.nonlinearity, g.d0)
        if F.is_zero():
            print("error: empty coefficient series", file=sys.stderr)
            return EXIT_USAGE
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if F.d0 != g.d0:
        print(f"error: nonlinearity d0={F.d0} incompatible with d={d}",
              file=sys.stderr)
        return EXIT_USAGE
    if cfg.constant is not None:
        constant = cfg.constant
    else:
        lattice = FrequencyLattice(d, cfg.radius_for(d))
        constant = measure_bernstein_constant(
            lattice, max_order=3, n_random=0, seed=cfg.seed
        )["c_meas"]
    report = growth_audit(F, g, constant, tail_ratio=cfg.tail_ratio)
    verdict = "pass" if report.passed else "fail"
    print(f"growth audit: {verdict} (proxy {report.proxy:.4g}, "
          f"threshold {report.threshold:.4g}, constant {constant:.4g})")
    _write_report(cfg, {"command": "audit", "audit": report.to_json_dict(),
                        "passed": report.passed})
    return EXIT_OK if report.passed else EXIT_AUDIT


# ---------------------------------------------------------------------------
# entry point


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="seed for randomized suites")
    p.add_argument("--d", type=int, help="spatial dimension")
    p.add_argument("--lattice-radius", type=int, dest="lattice_radius")
    p.add_argument("--dt", type=float, help="time step")
    p.add_argument("--horizon", type=float, help="final time")
    p.add_argument("--epsilon", type=float, help="initial data size")
    p.add_argument("--nonlinearity", help="bundled name or JSON file path")
    p.add_argument("--structural", action="store_true", default=None,
                   help="radius-1 high-dimension structural mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintorus",
        description="Spectral Dirac simulation and verification on flat tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--dims", type=int, nargs="+", help="dimensions to check")
    p_verify.add_argument("--n-random", type=int, dest="n_random")
    p_solve = sub.add_parser("solve", help="fixed-point Cauchy solve")
    p_solve.add_argument("--picard-tol", type=float, dest="picard_tol")
    p_solve.add_argument("--max-iterations", type=int, dest="max_iterations")
    p_solve.add_argument("--defect-budget", type=float, dest="defect_budget")
    p_kg = sub.add_parser("compare-kg", help="first vs second order cross-check")
    p_kg.add_argument("--distance-budget", type=float, dest="distance_budget")
    p_kg.add_argument("--refine", action="store_true", default=None,
                      help="also run at dt/2 and report the shrink factor")
    p_kg.add_argument("--mass", type=float)
    p_audit = sub.add_parser("audit", help="coefficient growth audit")
    p_audit.add_argument("--constant", type=float,
                         help="override the measured derivative constant")
    p_audit.add_argument("--tail-ratio", type=float, dest="tail_ratio",
                         help="declared geometric tail of a truncated series")
    for p in (p_verify, p_solve, p_kg, p_audit):
        _add_common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config")}
    if overrides.get("dims") is not None:
        overrides["dims"] = tuple(overrides["dims"])
    try:
        cfg = _load_config(args.config, overrides)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "verify": cmd_verify,
        "solve": cmd_solve,
        "compare-kg": cmd_compare_kg,
        "audit": cmd_audit,
    }
    return handlers[args.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
