"""Workloads of the spintorus benchmark: inputs from a seed, one op, checks.

Every input is made here from the run's seed with numpy's generator; the
package only receives the generated arrays (or, for the CLI, the generated
flags).  ``--seed n`` selects input set ``n % BANK``; each of the ``BANK``
sets has a reference fingerprint in ``reference/<workload>.json``, recorded
with ``record_reference.py`` at the commit that added the benchmark.

The reference check compares the nonlinear part of the trajectory,
D = trajectory - free Dirac flow of the same data, because at these data
sizes D is only 1e-8 .. 1e-6 of the trajectory: a fast map that gets the
nonlinearity wrong still passes any check on the whole trajectory or on a
fixed-point residual.  The free flow is computed here from the gamma matrices,
not by the package's solver.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from spintorus import clifford, nonlinear, solver, spectral  # noqa: E402

BANK = 32
D_RTOL = 1e-6       # on D; another FFT length moves D by ~1e-13 of itself
SCALAR_RTOL = 1e-8  # on norms and ratios
N_PROJ = 4
N_SAMPLED_FRAMES = 17
FINGERPRINT_SEED = 20220105

NAMES = ("picard_d3", "kg_d3", "rk4_long_d1", "cli_desk")
_SALT = {name: i for i, name in enumerate(NAMES)}

# Problem sizes (ROADMAP scenarios): d, lattice radius N, dt, horizon T.
SIZES = {
    "picard_d3": dict(d=3, radius=8, dt=1.0 / 32.0, horizon=1.0),
    "kg_d3": dict(d=3, radius=6, dt=1.0 / 16.0, horizon=1.0),
    "rk4_long_d1": dict(d=1, radius=16, dt=0.05, horizon=100.0),
    "cli_desk": dict(d=1, radius=32, dt=1.0 / 256.0, horizon=1.0),
}
EPSILON = 1e-3
# transformed-axis count -> lattice radius, for spectral.useful_frac; the CLI
# verify run covers d = 1, 2, 3 at the CLI's default radii.
RADIUS_BY_DIM = {
    "picard_d3": {3: 8},
    "kg_d3": {3: 6},
    "rk4_long_d1": {1: 16},
    "cli_desk": {1: 32, 2: 10, 3: 6},
}
CLI_OUT = os.path.join("perfbench", "out", "cli_desk")


def input_seed(seed: int) -> int:
    return seed % BANK


def gaussian_coeffs(d: int, radius: int, d0: int, s: float,
                    rng: np.random.Generator, width: float = 2.0) -> np.ndarray:
    """Complex Gaussian coefficients with Gaussian frequency decay, scaled so
    the H^s norm (sum <xi>^{2s} |c|^2)^{1/2} equals EPSILON."""
    axis = np.arange(-radius, radius + 1, dtype=float)
    norm_sq = sum(g * g for g in np.meshgrid(*([axis] * d), indexing="ij"))
    shape = norm_sq.shape + (d0,)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c *= np.exp(-norm_sq / (2.0 * width * width))[..., None]
    weight = (1.0 + norm_sq) ** s
    c *= EPSILON / math.sqrt(float(np.sum(weight[..., None] * np.abs(c) ** 2)))
    return c


def build(name: str, seed: int) -> dict:
    """Inputs of one run; every op of the run uses the same inputs."""
    k = input_seed(seed)
    if name == "cli_desk":
        sz = SIZES[name]
        common = ["--seed", str(k)]
        solve = ["solve", "--d", "1", "--lattice-radius", str(sz["radius"]),
                 "--dt", repr(sz["dt"]), "--horizon", repr(sz["horizon"]),
                 "--epsilon", repr(EPSILON), "--nonlinearity", "cubic",
                 "--out", os.path.join(CLI_OUT, "solve")] + common
        verify = ["verify", "--dims", "1", "2", "3",
                  "--out", os.path.join(CLI_OUT, "verify")] + common
        return {"name": name, "input_seed": k, "solve": solve, "verify": verify}
    sz = SIZES[name]
    d, radius = sz["d"], sz["radius"]
    g = clifford.build_gamma(d)
    rng = np.random.default_rng([k, _SALT[name]])
    lattice = spectral.FrequencyLattice(d, radius)
    psi0 = spectral.SpinorField(
        lattice, g.d0, gaussian_coeffs(d, radius, g.d0, d / 2.0, rng))
    F = nonlinear.bundled_cubic(g.d0)
    inputs = {"name": name, "input_seed": k, "g": g, "F": F, "psi0": psi0}
    if name == "picard_d3":
        inputs["cfg"] = solver.SolveConfig(
            d=d, radius=radius, dt=sz["dt"], horizon=sz["horizon"],
            epsilon=EPSILON, nonlinearity=F)
    return inputs


def run_op(inputs: dict):
    """One op of a library workload, called through module attributes so a
    tracer installed on them sees every layer call."""
    name, sz = inputs["name"], SIZES[inputs["name"]]
    psi0, F, g = inputs["psi0"], inputs["F"], inputs["g"]
    if name == "picard_d3":
        return solver.picard_solve(inputs["cfg"], psi0)
    if name == "kg_d3":
        state = solver.second_order_data(psi0, F, g, 1.0)
        return solver.evolve_klein_gordon(state, F, g, 1.0, sz["dt"], sz["horizon"])
    if name == "rk4_long_d1":
        tr = solver.evolve_dirac_rk4(psi0, F, g, sz["dt"], sz["horizon"])
        return tr, solver.sobolev_monitor(tr, sz["d"] / 2.0)
    raise ValueError(f"{name} is not a library workload")


def trajectory_of(name: str, out):
    if name == "picard_d3":
        return out.trajectory
    if name == "rk4_long_d1":
        return out[0]
    return out


def sizes(name: str) -> dict:
    """Sizes for the run record: frames M, lattice points, padded grid, d0."""
    sz = SIZES[name]
    d, radius = sz["d"], sz["radius"]
    lattice = spectral.FrequencyLattice(d, radius)
    degree = 3 if name != "kg_d3" else 2 * 3 - 1
    grid = nonlinear.padded_grid_size(lattice, degree)
    return {"M": int(round(sz["horizon"] / sz["dt"])) + 1,
            "lattice_points": lattice.size, "padded_grid": [grid] * d,
            "d0": clifford.build_gamma(d).d0, "d": d, "N": radius,
            "dt": sz["dt"], "T": sz["horizon"]}


# ---------------------------------------------------------------------------
# fingerprints


def free_flow(psi0: np.ndarray, times: np.ndarray, d: int) -> np.ndarray:
    """e^{-itH(xi)} psi0 with H = sum xi_j alpha_j + beta, i.e.
    cos(t<xi>) psi0 - i sin(t<xi>) H psi0 / <xi> (mass 1)."""
    g = clifford.build_gamma(d)
    radius = (psi0.shape[0] - 1) // 2
    axis = np.arange(-radius, radius + 1, dtype=float)
    xi = np.meshgrid(*([axis] * d), indexing="ij")
    bracket = np.sqrt(1.0 + sum(x * x for x in xi))[..., None]
    h_psi = psi0 @ g.beta.T
    for j in range(d):
        h_psi = h_psi + xi[j][..., None] * (psi0 @ g.alpha[j].T)
    t = times.reshape((-1,) + (1,) * (d + 1))
    return np.cos(t * bracket) * psi0 - 1j * np.sin(t * bracket) * (h_psi / bracket)


def fingerprint(frames: np.ndarray, times: np.ndarray, d: int, scalars: dict) -> dict:
    """Reduced record of the nonlinear part D of a trajectory: its norm,
    its norm at sampled frames, and fixed random projections."""
    D = frames - free_flow(frames[0], times, d)
    m = D.shape[0]
    per_frame = np.linalg.norm(D.reshape(m, -1), axis=1)
    picks = sorted(set(np.linspace(0, m - 1, N_SAMPLED_FRAMES).round().astype(int)))
    rng = np.random.default_rng(FINGERPRINT_SEED)
    proj = []
    for _ in range(N_PROJ):
        w = rng.standard_normal(D.shape) + 1j * rng.standard_normal(D.shape)
        z = complex(np.vdot(w, D)) / math.sqrt(2.0)
        proj.append([z.real, z.imag])
        del w  # one weight array at a time: the checks share the RSS peak
    return {
        "frames": int(m),
        "frame0_norm": float(np.linalg.norm(frames[0])),
        "d_norm": float(np.linalg.norm(per_frame)),
        "d_frames": [float(per_frame[i]) for i in picks],
        "d_proj": proj,
        "scalars": dict(scalars),
    }


def compare(fp: dict, ref: dict) -> list[str]:
    """Failures of a fingerprint against its reference (empty when it matches)."""
    bad = []
    if fp["frames"] != ref["frames"]:
        return [f"frame count {fp['frames']} != {ref['frames']}"]
    scale = ref["d_norm"]
    if not abs(fp["frame0_norm"] - ref["frame0_norm"]) <= SCALAR_RTOL * ref["frame0_norm"]:
        bad.append(f"initial data norm {fp['frame0_norm']!r} != {ref['frame0_norm']!r}")
    if not abs(fp["d_norm"] - scale) <= D_RTOL * scale:
        bad.append(f"nonlinear part norm {fp['d_norm']!r} != {scale!r}")
    for a, b in zip(fp["d_frames"], ref["d_frames"]):
        if not abs(a - b) <= D_RTOL * scale:
            bad.append(f"nonlinear part frame norm {a!r} != {b!r}")
            break
    for (ar, ai), (br, bi) in zip(fp["d_proj"], ref["d_proj"]):
        if not abs(complex(ar, ai) - complex(br, bi)) <= D_RTOL * scale:
            bad.append(f"nonlinear part projection {ar!r}{ai:+}j != {br!r}{bi:+}j")
            break
    for key, want in ref["scalars"].items():
        got = fp["scalars"].get(key)
        if isinstance(want, (int, float)) and not isinstance(want, bool):
            if got is None or not abs(got - want) <= SCALAR_RTOL * abs(want):
                bad.append(f"{key} {got!r} != {want!r}")
        elif got != want:
            bad.append(f"{key} {got!r} != {want!r}")
    return bad


def library_fingerprint(name: str, out) -> dict:
    tr = trajectory_of(name, out)
    scalars = {}
    if name == "picard_d3":
        for key in ("solution_norm_plus", "solution_norm_minus"):
            scalars[key] = float(out.diagnostics[key])
    elif name == "rk4_long_d1":
        scalars["sobolev_ratio"] = float(out[1]["ratio"])
    return fingerprint(tr.frames, tr.times, SIZES[name]["d"], scalars)


def library_checks(name: str, out) -> list[str]:
    """Workload-specific output checks other than the reference."""
    bad = []
    if name == "picard_d3":
        diag = out.diagnostics
        if not diag.get("converged"):
            bad.append("Picard iteration did not converge")
        if not diag.get("duhamel_residual", math.inf) <= 1e-8:
            bad.append(f"duhamel_residual {diag.get('duhamel_residual')!r} > 1e-8")
        if not diag.get("projector_range_defect", math.inf) <= 1e-12:
            bad.append(f"projector_range_defect {diag.get('projector_range_defect')!r} > 1e-12")
    elif name == "rk4_long_d1":
        if not out[1]["ratio"] <= 3.0:
            bad.append(f"Sobolev ratio {out[1]['ratio']!r} > 3")
    return bad


def kg_cross_check(inputs: dict, kg) -> list[str]:
    """Sup distance from the Klein-Gordon trajectory to the Picard trajectory
    of the same data, relative to the Picard trajectory's sup norm."""
    sz = SIZES["kg_d3"]
    cfg = solver.SolveConfig(d=sz["d"], radius=sz["radius"], dt=sz["dt"],
                             horizon=sz["horizon"], epsilon=EPSILON,
                             nonlinearity=inputs["F"], monitor_solution_norm=False)
    ref = solver.picard_solve(cfg, inputs["psi0"]).trajectory.frames
    m = ref.shape[0]
    dist = np.linalg.norm((kg.frames - ref).reshape(m, -1), axis=1).max()
    rel = float(dist / np.linalg.norm(ref.reshape(m, -1), axis=1).max())
    return [] if rel <= 1e-5 else [f"Klein-Gordon vs Picard distance {rel!r} > 1e-5"]


# ---------------------------------------------------------------------------
# CLI outputs


def read_spf(path: str) -> np.ndarray:
    """Coefficients of one .spf frame, read without the package."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        raw = np.frombuffer(fh.read(), dtype="<c16")
    shape = (2 * int(header["radius"]) + 1,) * int(header["d"]) + (int(header["d0"]),)
    return raw.reshape(shape)


def cli_fingerprint(solve_dir: str, solve_report: dict, verify_report: dict) -> dict:
    frames_dir = os.path.join(solve_dir, "frames")
    names = sorted(os.listdir(frames_dir))
    frames = np.stack([read_spf(os.path.join(frames_dir, n)) for n in names])
    sz = SIZES["cli_desk"]
    times = sz["dt"] * np.arange(frames.shape[0])
    diag = solve_report.get("diagnostics", {})
    scalars = {
        "sobolev_ratio": solve_report.get("sobolev_ratio"),
        "solution_norm_plus": diag.get("solution_norm_plus"),
        "solution_norm_minus": diag.get("solution_norm_minus"),
        "verify_checks": ",".join(f"{c['name']}:{c['status']}"
                                  for c in verify_report.get("checks", [])),
    }
    for c in verify_report.get("checks", []):
        if "c_meas" in c:
            scalars[f"{c['name']}.c_meas"] = c["c_meas"]
    return fingerprint(frames, times, sz["d"], scalars)


def load_reference(name: str) -> dict:
    with open(HERE / "reference" / f"{name}.json") as fh:
        return json.load(fh)
