import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cosmax.cli as cli
from cosmax.cli import main
from cosmax.errors import ToleranceUnreachable
from cosmax.verify import SCAN_KINDS, Report, Violation, default_grid


def run_main(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# eval


def test_eval_plain_anchor(capsys):
    code, out, err = run_main(["eval", "--x", "1", "--r", "1"], capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "value = 0.193147180559945"
    assert lines[1].startswith("error_bound = ")
    assert lines[2] == "route = closed_form"
    assert lines[3].startswith("work = ")


def test_eval_phi_matches_x_equivalent(capsys):
    code, out, _ = run_main(["eval", "--phi", "1.5707963267948966", "--r", "1"], capsys)
    assert code == 0
    assert "value = 0.153426409720027" in out


def test_eval_degrees(capsys):
    code_deg, out_deg, _ = run_main(["eval", "--phi", "90", "--degrees", "--r", "1"], capsys)
    code_rad, out_rad, _ = run_main(
        ["eval", "--phi", str(math.pi / 2.0), "--r", "1"], capsys
    )
    assert code_deg == code_rad == 0
    assert out_deg.splitlines()[0] == out_rad.splitlines()[0]


def test_eval_degrees_requires_phi(capsys):
    code, out, err = run_main(["eval", "--x", "0.5", "--degrees", "--r", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "--degrees is only meaningful together with --phi" in err


def test_eval_route_selection(capsys):
    for route, tag in [("series", "series"), ("quad", "quadrature"), ("closed", "closed_form")]:
        code, out, _ = run_main(
            ["eval", "--x", "0.3", "--r", "0.7", "--route", route], capsys
        )
        assert code == 0
        assert f"route = {tag}" in out


def test_eval_phi_series_route_uses_angle_form(capsys):
    # near pi the cosine collapses onto the excluded corner x = -1, but the
    # angle-domain series needs no cosine of the full angle
    phi = "3.14159265358979"
    code, out, _ = run_main(["eval", "--phi", phi, "--r", "0.5", "--route", "series"], capsys)
    assert code == 0
    assert "route = series" in out
    code, _, err = run_main(["eval", "--phi", phi, "--r", "0.5"], capsys)
    assert code == 2
    assert "x must lie in (-1, 1]" in err


def test_eval_rejects_domain_violations(capsys):
    code, out, err = run_main(["eval", "--x", "-1", "--r", "0.5"], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert "x must lie in (-1, 1], got -1.0" in err
    code, _, err = run_main(["eval", "--x", "0.5", "--r", "0"], capsys)
    assert code == 2
    assert "r must lie in (0, 1]" in err


def test_eval_argparse_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--x", "0.5"])  # missing --r
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--x", "0.5", "--phi", "1.0", "--r", "0.5"])  # exclusive
    assert exc.value.code == 2


def test_eval_tolerance_unreachable_exit_code(capsys):
    code, out, err = run_main(
        ["eval", "--x", "0.5", "--r", "0.999999", "--route", "series", "--tol", "1e-15"],
        capsys,
    )
    assert code == 3
    assert "error:" in err


def test_eval_csv_row_is_frozen(capsys):
    code, out, _ = run_main(
        ["eval", "--x", "0.3", "--r", "0.7", "--route", "series", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value,error_bound,route,work"
    assert lines[1] == "0.11901218002132,9.7144821490202e-13,series,68"


def test_eval_json_payload(capsys):
    code, out, _ = run_main(
        ["eval", "--x", "0.3", "--r", "0.7", "--format", "json", "--precision", "3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["value", "error_bound", "route", "work"]
    assert payload["value"] == 0.119
    assert payload["route"] == "closed_form"
    assert isinstance(payload["work"], int)


def test_eval_plain_and_csv_are_frozen_at_precision_3(capsys):
    argv = ["eval", "--x", "0.3", "--r", "0.7", "--precision", "3"]
    code, out, _ = run_main(argv, capsys)
    assert code == 0
    assert out == "value = 0.119\nerror_bound = 2.67e-15\nroute = closed_form\nwork = 0\n"
    code, out, _ = run_main([*argv, "--format", "csv"], capsys)
    assert code == 0
    assert out == "value,error_bound,route,work\n0.119,2.67e-15,closed_form,0\n"


def test_eval_precision_validation(capsys):
    code, out, err = run_main(["eval", "--x", "0.5", "--r", "0.5", "--precision", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: precision must be an integer in [1, 17], got 0\n"
    code, _, err = run_main(["eval", "--x", "0.5", "--r", "0.5", "--precision", "18"], capsys)
    assert code == 2


def test_eval_out_file(tmp_path, capsys):
    target = tmp_path / "result.csv"
    code, out, _ = run_main(
        ["eval", "--x", "1", "--r", "1", "--format", "csv", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("value,error_bound,route,work\n")


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "f.csv"
    code, out, err = run_main(["eval", "--x", "0.5", "--r", "0.5", "--out", str(missing)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err
    assert not missing.exists()
    code, out, err = run_main(["scan", "--kind", "identity", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


# ---------------------------------------------------------------------------
# scan


def test_scan_inequality_default_csv_is_frozen(capsys):
    code, out, _ = run_main(["scan", "--kind", "inequality", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,points_checked,violations,min_margin,worst_var,worst_r,pass"
    assert lines[1] == "inequality,10000,0,1.66040256793353e-10,0.001,0.001,true"


def test_scan_plain_report_fields(capsys):
    code, out, _ = run_main(
        ["scan", "--kind", "monotonicity", "--r-min", "0.5", "--r-max", "1.0",
         "--r-count", "2", "--var-count", "5"],
        capsys,
    )
    assert code == 0
    assert "kind = monotonicity" in out
    assert "points_checked = 10" in out
    assert "violations = 0" in out
    assert "pass = true" in out
    assert "elapsed_s = " in out


def test_scan_identity_json_keys(capsys):
    code, out, _ = run_main(["scan", "--kind", "identity", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "kind", "points_checked", "violations", "min_margin", "worst_point", "pass",
    ]
    assert payload["kind"] == "identity"
    assert payload["points_checked"] == 150
    assert payload["violations"] == []
    assert payload["pass"] is True
    assert "elapsed" not in payload


def test_scan_violations_exit_code(monkeypatch, capsys):
    def failing_scan(tol):
        return Report("identity", 4, (Violation(0.1, 0.2, 5.0, 1.0),), -4.0, (0.1, 0.2), 0.0)

    monkeypatch.setattr(cli, "identity_scan", failing_scan)
    code, out, _ = run_main(["scan", "--kind", "identity"], capsys)
    assert code == 1
    assert out == (
        "kind = identity\npoints_checked = 4\nviolations = 1\nmin_margin = -4\n"
        "worst_point = (0.1, 0.2)\npass = false\nelapsed_s = 0.000\n"
        "violation: var = 0.1, r = 0.2, observed = 5, bound = 1\n"
    )
    code, out, _ = run_main(["scan", "--kind", "identity", "--format", "csv"], capsys)
    assert code == 1
    assert out == (
        "kind,points_checked,violations,min_margin,worst_var,worst_r,pass\n"
        "identity,4,1,-4,0.1,0.2,false\n"
    )
    code, out, _ = run_main(["scan", "--kind", "identity", "--format", "json"], capsys)
    assert code == 1
    assert out == (
        '{"kind": "identity", "points_checked": 4, "violations": [{"point": [0.1, 0.2], '
        '"observed": 5.0, "bound": 1.0}], "min_margin": -4.0, "worst_point": [0.1, 0.2], '
        '"pass": false}\n'
    )


def test_scan_all_csv_is_frozen(capsys):
    code, out, _ = run_main(["scan", "--kind", "all", "--format", "csv"], capsys)
    assert code == 0
    assert out == (
        "kind,points_checked,violations,min_margin,worst_var,worst_r,pass\n"
        "consistency,800,0,4.64269635135657e-13,-0.332666666666667,0.01,true\n"
        "monotonicity,300,0,0.00099116820059357,0.931379310344828,0.05,true\n"
        "inequality,10000,0,1.66040256793353e-10,0.001,0.001,true\n"
        "identity,150,0,9.99777955395075e-13,-0.9,0.45,true\n"
    )


def test_scan_all_refuses_grid_flags_but_inset(capsys):
    code, out, err = run_main(["scan", "--kind", "all", "--r-count", "3"], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: --kind all runs each scan on its default grid; "
        "only --inset may be given, got --r-count\n"
    )


@pytest.mark.parametrize("flags", [["--r-count", "3"], ["--inset", "0.5"]],
                         ids=["r-count", "inset"])
def test_scan_identity_refuses_every_grid_flag(capsys, flags):
    code, out, err = run_main(["scan", "--kind", "identity", *flags], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: --kind identity runs on its fixed grid; "
        f"no grid flag may be given, got {flags[0]}\n"
    )


def test_scan_refuses_one_point_axis_spanning_a_range(capsys):
    # one r value cannot cover [inset, 1]: the scan must refuse, not keep r_min
    code, out, err = run_main(["scan", "--kind", "inequality", "--r-count", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: r_count 1 needs r_min == r_max, got [0.001, 1.0]\n"
    code, _, _ = run_main(
        ["scan", "--kind", "inequality", "--r-count", "1", "--r-min", "0.5", "--r-max", "0.5",
         "--format", "csv"], capsys,
    )
    assert code == 0


def fake_scans(monkeypatch, failing_identity=False):
    """Replace the four scanners with stubs; return the grids they are given."""
    grids = {}

    def fake(kind):
        def scan(*grid_and_tol):
            grids[kind] = grid_and_tol[:-1]
            if failing_identity and kind == "identity":
                return Report(kind, 4, (Violation(0.1, 0.2, 5.0, 1.0),), -4.0, (0.1, 0.2), 0.0)
            return Report(kind, 1, (), 1.0, (0.5, 0.5), 0.0)
        return scan

    for kind in SCAN_KINDS:
        monkeypatch.setattr(cli, f"{kind}_scan", fake(kind))
    return grids


def test_scan_all_runs_each_default_grid_at_inset(monkeypatch, capsys):
    grids = fake_scans(monkeypatch)
    code, _, _ = run_main(["scan", "--kind", "all", "--inset", "0.01"], capsys)
    assert code == 0
    assert grids == {
        kind: () if kind == "identity" else (default_grid(kind, 0.01),) for kind in SCAN_KINDS
    }


def test_scan_all_violations_exit_code(monkeypatch, capsys):
    fake_scans(monkeypatch, failing_identity=True)
    code, out, _ = run_main(["scan", "--kind", "all"], capsys)
    assert code == 1
    assert out.count("pass = true\n") == 3
    assert out.endswith(
        "kind = identity\npoints_checked = 4\nviolations = 1\nmin_margin = -4\n"
        "worst_point = (0.1, 0.2)\npass = false\nelapsed_s = 0.000\n"
        "violation: var = 0.1, r = 0.2, observed = 5, bound = 1\n"
    )
    code, out, _ = run_main(["scan", "--kind", "all", "--format", "csv"], capsys)
    assert code == 1
    assert out.splitlines()[1:] == [
        "consistency,1,0,1,0.5,0.5,true",
        "monotonicity,1,0,1,0.5,0.5,true",
        "inequality,1,0,1,0.5,0.5,true",
        "identity,4,1,-4,0.1,0.2,false",
    ]
    code, out, _ = run_main(["scan", "--kind", "all", "--format", "json"], capsys)
    assert code == 1
    assert [(rep["kind"], rep["pass"]) for rep in json.loads(out)] == [
        ("consistency", True), ("monotonicity", True), ("inequality", True), ("identity", False),
    ]


def test_scan_infinite_min_margin_bytes(capsys):
    # x spans less than the forward-difference spacing, so no difference is taken
    argv = ["scan", "--kind", "monotonicity", "--var-min", "0.5", "--var-max", "0.505",
            "--var-count", "3"]
    code, out, _ = run_main([*argv, "--format", "csv"], capsys)
    assert code == 0
    assert out == (
        "kind,points_checked,violations,min_margin,worst_var,worst_r,pass\n"
        "monotonicity,30,0,inf,0.5,0.05,true\n"
    )
    code, out, _ = run_main([*argv, "--format", "json"], capsys)
    assert code == 0
    assert out == (
        '{"kind": "monotonicity", "points_checked": 30, "violations": [], '
        '"min_margin": null, "worst_point": [0.5, 0.05], "pass": true}\n'
    )


def test_scan_grid_flag_validation(capsys):
    code, _, err = run_main(
        ["scan", "--kind", "inequality", "--var-min", "-1"], capsys
    )
    assert code == 2
    assert "phi grid" in err


def test_scan_refuses_x_grid_rounding_to_minus_one(capsys):
    # -1 + 1e-17 rounds to -1: the grid is refused before any evaluation
    code, _, err = run_main(
        ["scan", "--kind", "consistency", "--inset", "1e-17",
         "--var-count", "2", "--r-count", "2"], capsys,
    )
    assert code == 2
    assert "x grid" in err
    assert "[at grid point" not in err


@pytest.mark.parametrize("command", [["scan", "--kind", "consistency"], ["table", "--surface", "f"]],
                         ids=["scan", "table"])
def test_grid_flags_replace_defaults_before_validation(capsys, command):
    # at inset 1e-17 the default x range starts at -1 + 1e-17 == -1, so only
    # a grid whose flags replace that start is valid
    code, out, err = run_main(
        [*command, "--inset", "1e-17", "--var-min", "-0.5", "--var-count", "3", "--r-count", "2"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out
    code, out, err = run_main([*command, "--inset", "1e-17"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: x grid must lie in [-1.0, 1] above -1, got [-1.0, 1.0]\n"


def test_scan_csv_json_deterministic_in_process(capsys):
    argv = ["scan", "--kind", "identity", "--format", "json"]
    _, out1, _ = run_main(argv, capsys)
    _, out2, _ = run_main(argv, capsys)
    assert out1 == out2
    argv = ["scan", "--kind", "identity", "--format", "csv"]
    _, out1, _ = run_main(argv, capsys)
    _, out2, _ = run_main(argv, capsys)
    assert out1 == out2


# ---------------------------------------------------------------------------
# table


def test_table_f_csv_anchors(capsys):
    code, out, _ = run_main(
        ["table", "--surface", "f", "--var-min", "0", "--var-max", "1", "--var-count", "3",
         "--r-min", "1", "--r-max", "1", "--r-count", "1", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "var,r,value,error_bound,route"
    assert lines[1].startswith("0,1,0.153426409720027,")
    assert lines[2].startswith("0.5,1,0.178796768891527,")
    assert lines[3].startswith("1,1,0.193147180559945,")
    assert len(lines) == 4


def test_table_f_plain_and_json_are_frozen(capsys):
    argv = ["table", "--surface", "f", "--var-count", "2", "--r-count", "2"]
    code, out, _ = run_main(argv, capsys)
    assert code == 0
    assert out == (
        "var r value error_bound route\n"
        "-0.999 0.01 -0.00335509990652847 4.45873016507795e-13 closed_form\n"
        "-0.999 1 -1.73420408567837 1.05076038662907e-14 closed_form\n"
        "1 0.01 0.00330853168083136 4.41876110216912e-13 closed_form\n"
        "1 1 0.193147180559945 2.64931894324848e-15 closed_form\n"
    )
    code, out, _ = run_main([*argv, "--format", "json"], capsys)
    assert code == 0
    assert out == (
        '[{"var": -0.999, "r": 0.01, "value": -0.00335509990652847, '
        '"error_bound": 4.45873016507795e-13, "route": "closed_form"}, '
        '{"var": -0.999, "r": 1.0, "value": -1.73420408567837, '
        '"error_bound": 1.05076038662907e-14, "route": "closed_form"}, '
        '{"var": 1.0, "r": 0.01, "value": 0.00330853168083136, '
        '"error_bound": 4.41876110216912e-13, "route": "closed_form"}, '
        '{"var": 1.0, "r": 1.0, "value": 0.193147180559945, '
        '"error_bound": 2.64931894324848e-15, "route": "closed_form"}]\n'
    )


def test_table_dfdx_rows_positive(capsys):
    code, out, _ = run_main(
        ["table", "--surface", "dfdx", "--var-min", "-0.5", "--var-max", "0.5",
         "--var-count", "3", "--r-min", "0.5", "--r-max", "1", "--r-count", "2",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    for row in rows:
        assert list(row) == ["var", "r", "value", "error_bound", "route"]
        assert row["route"] == "quadrature"
        assert row["value"] > 0.0


def test_table_margin_anchor(capsys):
    phi = str(math.pi / 2.0)
    code, out, _ = run_main(
        ["table", "--surface", "margin", "--var-min", phi, "--var-max", phi,
         "--var-count", "1", "--r-min", "1", "--r-max", "1", "--r-count", "1",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["value"] == pytest.approx(0.039720770839917964, abs=1e-12)
    assert rows[0]["value"] > rows[0]["error_bound"]

    code, out, _ = run_main(
        ["table", "--surface", "margin", "--var-count", "3", "--r-count", "3", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out == (
        "var,r,value,error_bound,route\n"
        "0.001,0.001,1.66040256793353e-10,8.8795630096938e-12,closed_form\n"
        "0.001,0.5005,2.14926746122668e-08,1.60669389253372e-14,closed_form\n"
        "0.001,1,1.12943625840689e-08,7.51908169022289e-15,closed_form\n"
        "1.5707963267949,0.001,0.000332833533294532,4.44311328358878e-12,closed_form\n"
        "1.5707963267949,0.5005,0.0681445289019036,1.12446685849441e-14,closed_form\n"
        "1.5707963267949,1,0.039720770839918,6.74953597643561e-15,closed_form\n"
        "3.14059265358979,0.001,0.000666666899763277,8.88400390290252e-12,closed_form\n"
        "3.14059265358979,0.5005,0.3949933373146,2.08433255795465e-14,closed_form\n"
        "3.14059265358979,1,5.60402977627034,2.35456738024063e-14,closed_form\n"
    )


def test_table_margin_domain_error_names_grid_point(capsys):
    # cos(phi) rounds to -1 this close to pi, which EvalPoint refuses
    code, out, err = run_main(
        ["table", "--surface", "margin", "--inset", "1e-12", "--var-min", "3.14159265358",
         "--var-max", "3.14159265358", "--var-count", "1"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: x must lie in (-1, 1], got -1.0 "
        "[at grid point var = 3.14159265358, r = 1e-12]\n"
    )


def test_table_dfdx_tolerance_error_names_grid_point(capsys, monkeypatch):
    def unreachable(p, tol):
        raise ToleranceUnreachable("quadrature gave up")

    monkeypatch.setattr(cli, "dfdx_quad", unreachable)
    code, out, err = run_main(
        ["table", "--surface", "dfdx", "--var-count", "3", "--r-count", "2"], capsys
    )
    assert code == 3
    assert out == ""
    assert err.endswith("[at grid point var = -0.99, r = 0.05]\n")


def test_table_dfdx_default_grid_is_the_monotonicity_grid(capsys):
    # the consistency grid's first x, -0.999, is beyond quadrature at 1e-12
    code, out, err = run_main(["table", "--surface", "dfdx", "--format", "csv"], capsys)
    assert code == 0
    assert err == ""
    header, *lines = out.splitlines()
    assert header == "var,r,value,error_bound,route"
    rows = [line.split(",") for line in lines]
    assert len(rows) == 300
    assert rows[0][:2] == ["-0.99", "0.05"]
    for _, _, value, bound, route in rows:
        assert route == "quadrature"
        assert float(value) > float(bound)


def test_table_rejects_empty_grid(capsys):
    code, _, err = run_main(
        ["table", "--surface", "f", "--var-count", "0"], capsys
    )
    assert code == 2
    assert "var_count" in err


# ---------------------------------------------------------------------------
# module entry point, byte-level determinism across processes


def module_run(argv):
    # the child must import the cosmax under test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cosmax", *argv],
        capture_output=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = module_run(["eval", "--x", "1", "--r", "1"])
    assert proc.returncode == 0
    assert b"value = 0.193147180559945" in proc.stdout


def test_scan_output_bytes_identical_across_processes():
    a = module_run(["scan", "--kind", "identity", "--format", "csv"])
    b = module_run(["scan", "--kind", "identity", "--format", "csv"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.endswith(b"\n")
