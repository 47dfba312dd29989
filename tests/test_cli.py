import json
import os

import pytest

from spintorus.cli import (
    EXIT_AUDIT,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    main,
)


def _read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def test_verify_default_passes(tmp_path):
    out = str(tmp_path / "v")
    assert main(["verify", "--out", out, "--seed", "5"]) == EXIT_OK
    rep = _read_report(out)
    assert rep["passed"] is True
    names = {c["name"] for c in rep["checks"]}
    assert {"clifford_defect_d1", "projector_identities_d2", "cap_partition_d3"} <= names
    assert rep["config"]["seed"] == 5  # resolved config is embedded


def test_verify_fault_injection_fails_named_check(tmp_path):
    out = str(tmp_path / "vf")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inject_fault": "gamma-scale", "dims": [2]}))
    assert main(["verify", "--config", str(cfg), "--out", out]) == EXIT_INVARIANT
    rep = _read_report(out)
    failing = [c["name"] for c in rep["checks"] if c["status"] == "fail"]
    assert "clifford_defect_d2" in failing


def test_verify_structural_mode(tmp_path):
    out = str(tmp_path / "vs")
    assert main(["verify", "--structural", "--out", out]) == EXIT_OK
    rep = _read_report(out)
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["clifford_defect_d9"]["status"] == "pass"
    assert by_name["projector_identities_d9"]["status"] == "pass"
    skipped = [c["name"] for c in rep["checks"] if c["status"] == "skipped"]
    assert "free_flow_exactness" in skipped


@pytest.mark.parametrize(
    "flags", [["--dims", "4"], ["--dims", "1", "--lattice-radius", "1"]]
)
def test_verify_at_radius_one(tmp_path, flags):
    # the cube-partition check skips scales whose boundary margin leaves no interior
    out = str(tmp_path / "v1")
    assert main(["verify", "--out", out] + flags) == EXIT_OK
    assert _read_report(out)["passed"] is True


def test_verify_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"not_a_key": 1}))
    assert main(["verify", "--config", str(cfg)]) == EXIT_USAGE


def test_solve_bundled_cubic(tmp_path):
    out = str(tmp_path / "s")
    code = main([
        "solve", "--out", out, "--seed", "2", "--d", "1",
        "--lattice-radius", "24", "--dt", str(1 / 256), "--horizon", "1.0",
        "--epsilon", "1e-3", "--nonlinearity", "cubic",
    ])
    assert code == EXIT_OK
    rep = _read_report(out)
    assert rep["converged"] is True
    assert all(r < 0.5 for r in rep["diagnostics"]["ratios"])
    assert rep["relative_defect"] <= 1e-6
    assert os.path.exists(os.path.join(out, "manifest.json"))
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))
    assert os.path.exists(os.path.join(out, "frames", "frame_00000.spf"))


def test_solve_d3_bundled_cubic(tmp_path):
    # the bundled families are built at the gamma set's spinor dimension (d0=4)
    out = str(tmp_path / "s3")
    code = main([
        "solve", "--out", out, "--d", "3", "--lattice-radius", "2",
        "--dt", str(1 / 64), "--horizon", "0.25",
    ])
    assert code == EXIT_OK
    rep = _read_report(out)
    assert rep["converged"] is True
    assert rep["relative_defect"] <= 1e-6


def test_solve_free_flow_defect(tmp_path):
    out = str(tmp_path / "sf")
    code = main([
        "solve", "--out", out, "--seed", "2", "--d", "1",
        "--lattice-radius", "16", "--dt", "0.001", "--horizon", "1.0",
        "--epsilon", "1e-3", "--nonlinearity", "none",
    ])
    assert code == EXIT_OK
    rep = _read_report(out)
    assert rep["relative_defect"] <= 1e-10


def test_solve_large_data_may_fail_with_diagnostics(tmp_path):
    out = str(tmp_path / "sl")
    cfg = tmp_path / "cfg.json"
    # an amplified cubic at large data size: the map stops contracting
    cfg.write_text(json.dumps({
        "d": 1, "lattice_radius": 12, "dt": 0.05, "horizon": 1.0,
        "epsilon": 0.9, "nonlinearity": "cubic", "max_iterations": 12,
    }))
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["solve", "--config", str(cfg), "--out", out,
                     "--epsilon", "0.9"])
    assert code in (EXIT_OK, EXIT_SOLVER)
    rep = _read_report(out)
    assert "diagnostics" in rep


def test_compare_kg_command(tmp_path):
    out = str(tmp_path / "k")
    code = main([
        "compare-kg", "--out", out, "--seed", "4", "--d", "1",
        "--lattice-radius", "16", "--dt", str(1 / 64), "--horizon", "1.0",
        "--epsilon", "1e-3", "--nonlinearity", "cubic", "--refine",
    ])
    assert code == EXIT_OK
    rep = _read_report(out)
    assert rep["distance"] <= 1e-5
    assert rep["refinement_factor"] >= 3.0


def test_compare_kg_free_flow(tmp_path):
    out = str(tmp_path / "kf")
    code = main([
        "compare-kg", "--out", out, "--d", "1", "--lattice-radius", "12",
        "--dt", "0.01", "--horizon", "0.5", "--epsilon", "1e-3",
        "--nonlinearity", "none",
    ])
    assert code == EXIT_OK
    assert _read_report(out)["distance"] <= 1e-10


def test_audit_exit_codes(tmp_path):
    out = str(tmp_path / "a")
    assert main(["audit", "--nonlinearity", "cubic", "--out", out]) == EXIT_OK
    assert _read_report(out)["audit"]["proxy"] == 0.0
    out2 = str(tmp_path / "a2")
    assert main(["audit", "--nonlinearity", "geometric", "--out", out2]) == EXIT_AUDIT
    rep = _read_report(out2)
    assert rep["audit"]["passed"] is False
    assert rep["audit"]["tail_ratio"] == 1.0


def test_audit_usage_errors(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert main(["audit", "--nonlinearity", str(empty)]) == EXIT_USAGE
    malformed = tmp_path / "bad.json"
    malformed.write_text("{\"oops\": 3}")
    assert main(["audit", "--nonlinearity", str(malformed)]) == EXIT_USAGE
    assert main(["audit", "--nonlinearity", "/does/not/exist.json"]) == EXIT_USAGE


def test_audit_custom_file_and_flags(tmp_path):
    series = [{"p": [2, 0], "c": [[1e-9, 0.0], [0.0, 0.0]]}]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(series))
    out = str(tmp_path / "a3")
    # without a declared tail the finite series passes
    assert main(["audit", "--nonlinearity", str(path), "--out", out]) == EXIT_OK
    # declaring a unit tail makes the represented roots decide
    out2 = str(tmp_path / "a4")
    code = main(["audit", "--nonlinearity", str(path), "--tail-ratio", "1.0",
                 "--constant", "2.83", "--out", out2])
    rep = _read_report(out2)
    assert rep["audit"]["proxy"] > 0.0
    assert code in (EXIT_OK, EXIT_AUDIT)


def test_reports_are_byte_deterministic(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        assert main(["verify", "--out", out, "--seed", "11", "--dims", "1"]) == EXIT_OK
        with open(os.path.join(out, "report.json"), "rb") as fh:
            raw = fh.read()
        outs.append(raw.replace(name.encode(), b"OUT"))
    assert outs[0] == outs[1]


def test_usage_exit_on_bad_flag():
    assert main(["solve", "--no-such-flag"]) == EXIT_USAGE
    assert main(["verify", "--config", "/missing/config.json"]) == EXIT_USAGE
    assert main(["solve", "--dt", "0.3"]) == EXIT_USAGE
    assert main(["solve", "--lattice-radius", "0"]) == EXIT_USAGE
    assert main(["solve", "--epsilon", "-1"]) == EXIT_USAGE
    assert main(["compare-kg", "--nonlinearity", "/missing.json"]) == EXIT_USAGE
    assert main(["compare-kg", "--mass", "2"]) == EXIT_USAGE
    assert main(["verify", "--dims", "0"]) == EXIT_USAGE
