import json

import numpy as np
import pytest

from spintorus.fieldio import load_field, load_trajectory, save_field, save_trajectory
from spintorus.spectral import FrequencyLattice, Trajectory, random_field


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def test_field_binary_roundtrip(tmp_path, rng):
    f = random_field(FrequencyLattice(2, 4), 4, rng)
    path = tmp_path / "field.spf"
    save_field(f, str(path))
    g = load_field(str(path))
    assert np.array_equal(g.coeffs, f.coeffs)
    assert g.lattice == f.lattice and g.d0 == f.d0
    # enumeration order in the blob is the documented lexicographic one
    with open(path, "rb") as fh:
        fh.readline()
        raw = np.frombuffer(fh.read(), dtype="<c16")
    assert np.array_equal(raw, f.coeffs.reshape(-1))


def test_load_field_rejects_wrong_payload_length(tmp_path, rng):
    f = random_field(FrequencyLattice(2, 3), 2, rng)
    path = tmp_path / "field.spf"
    save_field(f, str(path))
    with open(path, "rb") as fh:
        blob = fh.read()
    path.write_bytes(blob[:-16])  # one coefficient short
    with pytest.raises(ValueError, match="payload"):
        load_field(str(path))


def test_load_field_rejects_non_finite_coefficients(tmp_path, rng):
    f = random_field(FrequencyLattice(2, 3), 2, rng)
    f.coeffs[1, 2, 0] = complex(np.nan, 0.0)
    path = tmp_path / "field.spf"
    save_field(f, str(path))
    with pytest.raises(ValueError, match="non-finite"):
        load_field(str(path))


def test_trajectory_roundtrip(tmp_path, rng):
    lat = FrequencyLattice(1, 5)
    frames = rng.standard_normal((4,) + lat.shape + (2,)) * (1 + 0j)
    tr = Trajectory(lat, 2, 0.25 * np.arange(4), frames)
    save_trajectory(tr, str(tmp_path / "run"), extra={"note": "test"})
    back = load_trajectory(str(tmp_path / "run"))
    assert np.array_equal(back.frames, tr.frames)
    assert np.allclose(back.times, tr.times)
    with open(tmp_path / "run" / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["note"] == "test"
    assert manifest["n_frames"] == 4


def test_shorter_trajectory_removes_stale_frames(tmp_path, rng):
    # a longer run, then a shorter one into the same directory: only the
    # package's own frame files past the new count go
    lat = FrequencyLattice(1, 3)
    run = tmp_path / "run"
    longer, shorter = (
        Trajectory(lat, 2, 0.5 * np.arange(m), rng.standard_normal((m,) + lat.shape + (2,)) + 0j)
        for m in (6, 3))
    save_trajectory(longer, str(run))
    (run / "frames" / "notes.txt").write_text("kept")
    save_trajectory(shorter, str(run))
    assert sorted(p.name for p in (run / "frames").iterdir()) == [
        "frame_00000.spf", "frame_00001.spf", "frame_00002.spf", "notes.txt"]
    assert np.array_equal(load_trajectory(str(run)).frames, shorter.frames)
