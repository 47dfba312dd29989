"""Binary serialization of spinor fields and trajectories.

Binary field format (.spf): one JSON header line terminated by a newline,
followed by the raw little-endian complex128 coefficients in the lattice's
lexicographic enumeration order (C order of the coefficient array).
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

from .spectral import FrequencyLattice, SpinorField, Trajectory


def save_field(f: SpinorField, path: str) -> None:
    header = json.dumps(
        {"d": f.lattice.d, "radius": f.lattice.radius, "d0": f.d0,
         "dtype": "complex128-le", "order": "lexicographic"},
        sort_keys=True,
    )
    data = np.ascontiguousarray(f.coeffs).astype("<c16")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.write(data.tobytes())


def load_field(path: str) -> SpinorField:
    """Read a .spf file; raises ValueError when the payload length does not
    match the header or a coefficient is not finite."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        lattice = FrequencyLattice(int(header["d"]), int(header["radius"]))
        d0 = int(header["d0"])
        payload = fh.read()
    count = lattice.size * d0
    if len(payload) != 16 * count:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, the header "
                         f"needs {16 * count} ({count} complex128 coefficients)")
    raw = np.frombuffer(payload, dtype="<c16")
    if not np.isfinite(raw).all():
        raise ValueError(f"{path}: non-finite coefficient in the payload")
    return SpinorField(lattice, d0, raw.reshape(lattice.shape + (d0,)).copy())


def save_trajectory(tr: Trajectory, directory: str, extra: dict | None = None) -> None:
    """Directory layout: manifest.json plus frames/frame_NNNNN.spf.  Frame
    files of an earlier, longer run in the same directory are removed, so
    ``frames`` holds exactly ``n_frames`` of them; other files are kept."""
    frames_dir = os.path.join(directory, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    for name in os.listdir(frames_dir):
        match = re.fullmatch(r"frame_(\d{5,})\.spf", name)
        if match and int(match[1]) >= tr.n_frames:
            os.remove(os.path.join(frames_dir, name))
    manifest = {
        "d": tr.lattice.d,
        "radius": tr.lattice.radius,
        "d0": tr.d0,
        "n_frames": tr.n_frames,
        "times": [float(t) for t in tr.times],
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    for k in range(tr.n_frames):
        save_field(tr.frame(k), os.path.join(frames_dir, f"frame_{k:05d}.spf"))


def load_trajectory(directory: str) -> Trajectory:
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    times = np.array(manifest["times"], dtype=float)
    fields = [
        load_field(os.path.join(directory, "frames", f"frame_{k:05d}.spf"))
        for k in range(int(manifest["n_frames"]))
    ]
    frames = np.stack([f.coeffs for f in fields])
    return Trajectory(fields[0].lattice, fields[0].d0, times, frames)
