import argparse
import json
import os
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from spintorus import cli, solver
from spintorus.cli import (
    EXIT_AUDIT,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    RunConfig,
    build_parser,
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


def test_verify_d3_memory_is_bounded(tmp_path):
    # dense (directions x caps) tables would take about 89 MiB here, and a
    # 10.8 MiB cap table kept alive across the later checks would break it too
    tracemalloc.start()
    try:
        code = main(["verify", "--dims", "3", "--out", str(tmp_path / "v"), "--seed", "5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak <= 12 * 2**20


def test_verify_fault_injection_fails_named_check(tmp_path, monkeypatch):
    # a gamma set whose first alpha is scaled by 2 breaks the Clifford relations
    build = cli.build_gamma

    def scaled(d):
        g = build(d)
        return replace(g, alpha=(2.0 * g.alpha[0],) + g.alpha[1:])

    monkeypatch.setattr(cli, "build_gamma", scaled)
    out = str(tmp_path / "vf")
    assert main(["verify", "--dims", "2", "--out", out]) == EXIT_INVARIANT
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
    assert rep["config"]["dims"] == [9]


def test_verify_structural_runs_the_given_dims(tmp_path):
    out = str(tmp_path / "vs3")
    assert main(["verify", "--structural", "--dims", "1", "2", "3", "--out", out]) == EXIT_OK
    rep = _read_report(out)
    assert rep["config"]["dims"] == [1, 2, 3]
    names = [c["name"] for c in rep["checks"]]
    assert names[:6] == [f"{kind}_d{d}" for d in (1, 2, 3)
                         for kind in ("clifford_defect", "projector_identities")]


@pytest.mark.parametrize(
    "flags", [["--dims", "4"], ["--dims", "1", "--lattice-radius", "1"]]
)
def test_verify_at_radius_one(tmp_path, flags):
    # the cube-partition check skips scales whose boundary margin leaves no interior
    out = str(tmp_path / "v1")
    assert main(["verify", "--out", out] + flags) == EXIT_OK
    assert _read_report(out)["passed"] is True


def test_verify_report_checks_are_pinned(tmp_path):
    out = str(tmp_path / "v0")
    assert main(["verify", "--dims", "1", "2", "3", "--seed", "0", "--out", out]) == EXIT_OK
    checks = _read_report(out)["checks"]
    names = [f"{kind}_d{d}" for d in (1, 2, 3) for kind in ("clifford_defect", "projector_identities")]
    names.append("dyadic_telescoping")
    for d in (1, 2, 3):
        names += [f"{kind}_d{d}" for kind in ("wide_block_absorbs", "cube_partition",
                                               "cap_partition", "bernstein", "half_wave_unitarity")]
    names.append("free_flow_exactness")
    assert [f"{c['name']}:{c['status']}" for c in checks] == [f"{n}:pass" for n in names]
    # the deterministic scan: max |xi_i| / 2^j = 8 at order 1, so 8^(1/2)
    assert [c["c_meas"] for c in checks if "c_meas" in c] == [2.8284271247461903] * 3


def test_verify_dims_nine(tmp_path):
    assert main(["verify", "--dims", "9", "--out", str(tmp_path / "v9")]) == EXIT_OK


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


def test_solve_long_non_dyadic_grid(tmp_path):
    # 0.05 * k rounds differently near t = 1,000 than near 0; the trajectory
    # stores dt, not its 20,481 frame times, so no rounding can fail a check
    out = str(tmp_path / "sd")
    code = main(["solve", "--out", out, "--lattice-radius", "1",
                 "--dt", "0.05", "--horizon", "1024"])
    assert code == EXIT_OK
    assert _read_report(out)["converged"] is True


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
    audit = _read_report(out)["audit"]
    assert audit["proxy"] == 0.0
    # the report holds the audit's fields; the per-degree tables are keyed
    # by the degree as a string
    assert sorted(audit) == ["constant", "d", "d0", "difference", "direct", "passed",
                             "proxy", "roots", "tail_ratio", "threshold"]
    assert (list(audit["direct"]), list(audit["difference"]), list(audit["roots"])) == (
        ["3"], ["2"], ["2", "3"])
    out2 = str(tmp_path / "a2")
    assert main(["audit", "--nonlinearity", "geometric", "--out", out2]) == EXIT_AUDIT
    rep = _read_report(out2)
    assert rep["audit"]["passed"] is False
    assert rep["audit"]["tail_ratio"] == 1.0
    assert sorted(rep["audit"]["roots"], key=int) == [str(r) for r in range(1, 31)]


def test_audit_at_radius_one_measures_scale_zero(tmp_path):
    # at d = 1, N = 1 the Bernstein scan still covers j = 0, where every
    # |xi^alpha| is 1, so the measured constant is 1
    out = str(tmp_path / "a1")
    assert main(["audit", "--d", "1", "--lattice-radius", "1", "--out", out]) == EXIT_OK
    assert _read_report(out)["audit"]["constant"] == 1.0


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


def test_usage_exit_on_bad_flag(tmp_path):
    assert main(["solve", "--no-such-flag"]) == EXIT_USAGE
    assert main(["verify", "--config", "/missing/config.json"]) == EXIT_USAGE
    assert main(["solve", "--dt", "0.3"]) == EXIT_USAGE
    assert main(["solve", "--lattice-radius", "0"]) == EXIT_USAGE
    assert main(["solve", "--epsilon", "-1"]) == EXIT_USAGE
    assert main(["compare-kg", "--nonlinearity", "/missing.json"]) == EXIT_USAGE
    assert main(["compare-kg", "--mass", "2"]) == EXIT_USAGE
    assert main(["verify", "--dims", "0"]) == EXIT_USAGE
    assert main(["compare-kg", "--dt", "0.5"]) == EXIT_USAGE
    assert main(["verify", "--lattice-radius", "-1"]) == EXIT_USAGE
    assert main(["verify", "--lattice-radius", "0"]) == EXIT_USAGE
    # structural mode runs on the radius-1 lattice, so it takes no radius
    assert main(["verify", "--structural", "--lattice-radius", "5", "--dims", "1"]) == EXIT_USAGE
    assert main(["verify", "--structural", "--lattice-radius", "0", "--dims", "1"]) == EXIT_USAGE
    assert main(["solve", "--horizon", "1e-9"]) == EXIT_USAGE
    assert main(["solve", "--horizon", "0.00390625"]) == EXIT_USAGE
    # horizon / dt overflows to inf: no finite frame count
    assert main(["solve", "--dt", "1e-300", "--horizon", "1e10"]) == EXIT_USAGE
    assert main(["compare-kg", "--dt", "1e-300", "--horizon", "1e10"]) == EXIT_USAGE
    assert main(["audit", "--lattice-radius", "0"]) == EXIT_USAGE
    assert main(["solve", "--max-iterations", "0"]) == EXIT_USAGE
    assert main(["solve", "--epsilon", "nan"]) == EXIT_USAGE
    assert main(["audit", "--constant", "-1"]) == EXIT_USAGE
    assert main(["audit", "--constant", "0"]) == EXIT_USAGE
    assert main(["audit", "--constant", "1e-300", "--d", "3"]) == EXIT_USAGE  # threshold overflows
    assert main(["verify", "--seed", "-1"]) == EXIT_USAGE
    assert main(["verify", "--n-random", "-3"]) == EXIT_USAGE
    assert main(["verify", "--n-random", "0"]) == EXIT_USAGE
    assert main(["audit", "--tail-ratio", "nan", "--constant", "2"]) == EXIT_USAGE
    assert main(["audit", "--tail-ratio", "-5", "--constant", "2"]) == EXIT_USAGE
    out = ["--out", str(tmp_path / "out")]
    config = tmp_path / "nan_s.json"
    config.write_text('{"s": NaN}')
    assert main(["solve", "--config", str(config), "--horizon", "0.0234375"]
                + out) == EXIT_USAGE
    assert main(["solve", "--defect-budget", "nan"] + out) == EXIT_USAGE
    assert main(["compare-kg", "--distance-budget", "nan"] + out) == EXIT_USAGE
    series = tmp_path / "nan_series.json"
    series.write_text('[{"p": [3, 0], "c": [[NaN, 0], [0, 0]]}]')
    assert main(["solve", "--nonlinearity", str(series)] + out) == EXIT_USAGE
    assert main(["audit", "--nonlinearity", str(series), "--constant", "2"]
                + out) == EXIT_USAGE
    for bad in ('[{"p": [2.5, 0], "c": [[1, 0], [0, 0]]}]',
                '[{"p": [true, 2], "c": [[1, 0], [0, 0]]}]',
                '[{"p": ["3", 0], "c": [[1, 0], [0, 0]]}]',
                '{"terms": [{"p": [3, 0], "c": [[1, 0], [0, 0]]}], "tail_ratio": true}',
                '[{"p": [0, 0], "c": [[1, 0], [0, 0]]}]'):  # a constant term
        series.write_text(bad)
        assert main(["audit", "--nonlinearity", str(series)] + out) == EXIT_USAGE, bad
    # a coefficient list shorter than d0, and a bool coefficient part
    for bad in ('[{"p": [3, 0], "c": [[1, 0]]}]',
                '[{"p": [3, 0], "c": [[true, 0], [0, 0]]}]'):
        series.write_text(bad)
        for command in ("solve", "compare-kg", "audit"):
            assert main([command, "--nonlinearity", str(series)] + out) == EXIT_USAGE, bad
    # data whose Sobolev norm overflows, and a draw whose norm is infinite
    config.write_text('{"s": 1e300}')
    for command in ("solve", "compare-kg"):
        assert main([command, "--epsilon", "1e200"] + out) == EXIT_USAGE, command
        assert main([command, "--config", str(config)] + out) == EXIT_USAGE, command
    assert main(["verify", "--dims", "1", "1"] + out) == EXIT_USAGE
    # a flag the command does not read, or an abbreviation of one it does
    for argv in (["verify", "--d", "2"], ["verify", "--dt", "0.1"], ["verify", "--dim", "2"],
                 ["audit", "--horizon", "1"], ["solve", "--structural"]):
        assert main(argv + out) == EXIT_USAGE, argv
    for command in ("verify", "solve", "compare-kg", "audit"):
        assert main([command, "--out", ""]) == EXIT_USAGE, command
    config.write_text('{"out": ""}')
    assert main(["audit", "--config", str(config)]) == EXIT_USAGE
    for command, bad in (("verify", '{"lattice_radius": 2.5}'),
                         ("verify", '{"seed": 1.5}'),
                         ("verify", '{"structural": "no"}'),
                         ("verify", '{"dims": [1, 2.0]}'),
                         ("verify", '{"dims": [1, 1]}'),
                         ("verify", '{"dims": []}'),
                         ("solve", '{"max_iterations": 2.5}'),
                         ("solve", '{"epsilon": true}'),
                         ("solve", '{"nonlinearity": 3}')):
        config.write_text(bad)
        assert main([command, "--config", str(config)] + out) == EXIT_USAGE, bad
    config.write_text('{"structural": true, "lattice_radius": 5}')
    assert main(["verify", "--config", str(config), "--dims", "1"] + out) == EXIT_USAGE
    # the refusal is verify's: solve does not read structural mode
    assert main(["solve", "--config", str(config), "--horizon", "0.0234375"] + out) == EXIT_OK


def test_each_command_declares_the_flags_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(s for a in p._actions for s in a.option_strings
                          if s not in ("-h", "--help"))
             for name, p in sub.choices.items()}
    common = ["--config", "--out", "--seed"]
    evolution = common + ["--d", "--dt", "--epsilon", "--horizon", "--lattice-radius",
                          "--nonlinearity"]
    assert flags == {
        "verify": sorted(common + ["--dims", "--lattice-radius", "--n-random",
                                   "--structural"]),
        "solve": sorted(evolution + ["--defect-budget", "--max-iterations",
                                     "--picard-tol"]),
        "compare-kg": sorted(evolution + ["--distance-budget", "--mass", "--refine"]),
        "audit": sorted(common + ["--constant", "--d", "--lattice-radius",
                                  "--nonlinearity", "--tail-ratio"]),
    }


@pytest.mark.parametrize("command", ["verify", "solve", "compare-kg", "audit"])
def test_out_under_a_file_is_a_usage_error(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    for out in (blocker, blocker / "sub"):
        assert main([command, "--out", str(out)]) == EXIT_USAGE, out
        assert capsys.readouterr().err.startswith("error: ")
    assert os.listdir(tmp_path) == ["file"]
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("command", ["solve", "compare-kg"])
def test_iteration_budget_failure_writes_diagnostics(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iterations": 1}))
    out = str(tmp_path / "fail")
    code = main([command, "--config", str(cfg), "--out", out, "--lattice-radius", "4",
                 "--dt", "0.0625", "--horizon", "0.25"])
    assert code == EXIT_SOLVER
    rep = _read_report(out)
    assert (rep["command"], rep["converged"], rep["passed"]) == (command, False, False)
    assert rep["diagnostics"]["iterations"] == 1


def test_non_finite_frame_exits_2_with_its_time(tmp_path, monkeypatch):
    # the second-order route raises at its first non-finite frame; the CLI
    # turns that into a failure report, not a traceback
    def blow_up(state, F, g, mass, dt, horizon):
        tr = solver.evolve_klein_gordon(state, F, g, mass, dt, horizon)
        tr.frames[3:] = np.nan
        return solver._finite(tr)

    monkeypatch.setattr(cli, "evolve_klein_gordon", blow_up)
    out = str(tmp_path / "nan")
    code = main(["compare-kg", "--out", out, "--lattice-radius", "4",
                 "--dt", "0.0625", "--horizon", "0.25"])
    assert code == EXIT_SOLVER
    rep = _read_report(out)
    assert (rep["command"], rep["passed"]) == ("compare-kg", False)
    assert rep["non_finite_time"] == 0.1875
    assert "t = 0.1875 (frame 3 of 5)" in rep["error"]


# a JSON value of a type that each annotation refuses
_WRONG_TYPE = {"int": 1.5, "float": "1.0", "bool": 0, "str": 3, "tuple[int, ...]": [1, "2"]}


@pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
def test_config_value_of_the_wrong_type_is_refused_before_setup(
        tmp_path, monkeypatch, field):
    def no_setup(d):
        raise AssertionError("setup ran")

    monkeypatch.setattr(cli, "build_gamma", no_setup)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field.name: _WRONG_TYPE[field.type.removesuffix(" | None")]}))
    assert main(["verify", "--config", str(cfg)]) == EXIT_USAGE
    assert os.listdir(tmp_path) == ["cfg.json"]
