import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from cli_matrix import compare, run_matrix
from conftest import GEODESIC_PINS, HYPERBOLIC_BANDS
from hypothesis import given, settings, strategies as st

import killing3
from killing3.cli import (_RUNNERS, RunConfig, build_parser, load_jsonl_report,
                          main, parse_metric_spec, render_report, run,
                          sample_points)
from killing3.errors import BadParams, ParseError, UnknownCatalogName
from killing3.metric_family import CATALOG_PARAMS


def _write_spec(tmp_path, text, name="m.spec"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- parser -------------------------------------------------------------------


def test_parse_flat():
    spec = parse_metric_spec("catalog = flat")
    assert spec.name == "flat"


def test_parse_hopf_with_comment_and_params():
    spec = parse_metric_spec("# round sphere\ncatalog = hopf\nR = 2  # radius")
    assert spec.name == "hopf"
    assert spec.params["R"] == 2.0
    from killing3.curvature_engine import curvature_packet
    from killing3.frame_calculus import Geometry

    pk = curvature_packet(Geometry(spec, 0.6, 0.1))
    assert pk.ric_of_T.t_component == pytest.approx(0.5, rel=1e-10)
    assert pk.scalar_S == pytest.approx(1.5, rel=1e-10)


def test_parse_rejects_bad_radius():
    with pytest.raises(BadParams):
        parse_metric_spec("catalog = hopf\nR = -1")


def test_parse_rejects_unknown_key_with_line():
    with pytest.raises(ParseError) as exc:
        parse_metric_spec("catalog = hopf\nwibble = 3")
    assert exc.value.line == 2


def test_parse_rejects_garbage_line():
    with pytest.raises(ParseError) as exc:
        parse_metric_spec("catalog = flat\nnot a key value line")
    assert exc.value.line == 2


def test_parse_unknown_catalog():
    with pytest.raises(UnknownCatalogName):
        parse_metric_spec("catalog = klein_bottle")


def test_parse_missing_catalog():
    with pytest.raises(ParseError):
        parse_metric_spec("R = 1")


def test_parse_duplicate_key():
    with pytest.raises(ParseError):
        parse_metric_spec("catalog = flat\ncatalog = flat")


def test_parse_lorentzian_signature():
    spec = parse_metric_spec("catalog = nil\nomega0 = 1\nsignature = lorentzian")
    assert spec.signature == "lorentzian"


@pytest.mark.parametrize("text", ["catalog = nil\nomega0 = nan",
                                  "catalog = hopf\nR = inf",
                                  "catalog = hopf\nR =",
                                  "grid_csv = x.csv\nR = 2"])
def test_parse_rejects_non_finite_with_line(tmp_path, capsys, text):
    with pytest.raises(ParseError) as exc:
        parse_metric_spec(text)
    assert exc.value.line == 2
    assert main(["analyze", "--spec", _write_spec(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("killing3: line 2: ") and len(err.strip().splitlines()) == 1


def _grid_spec_text(tmp_path, n_r=8, n_t=8, cell="0.0"):
    from killing3.metric_family import GRID_CSV_HEADER

    lines = [",".join(GRID_CSV_HEADER)]
    for r in np.linspace(0.2, 1.0, n_r):
        for t in np.linspace(0.0, 2.0, n_t):
            lines.append(f"{r},{t},1.0,0.0,{cell}")
    csv_path = tmp_path / "grid.csv"
    csv_path.write_text("\n".join(lines))
    return f"grid_csv = {csv_path}"


def test_parse_grid_csv(tmp_path):
    spec = parse_metric_spec(_grid_spec_text(tmp_path))
    assert spec.name == "grid"


@pytest.mark.parametrize("n_r, n_t, cell", [(8, 8, "abc"), (8, 8, "nan"),
                                            (4, 8, "0.0"), (8, 4, "0.0")])
def test_main_bad_grid_csv_exit_2(tmp_path, capsys, n_r, n_t, cell):
    spec = _write_spec(tmp_path, _grid_spec_text(tmp_path, n_r, n_t, cell))
    assert main(["analyze", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def _full_grid_lines(n_r=8, n_t=8):
    from killing3.metric_family import GRID_CSV_HEADER

    return [",".join(GRID_CSV_HEADER)] + [f"{r},{t},1.0,0.0,0.0"
                                          for r in np.linspace(0.2, 1.0, n_r)
                                          for t in np.linspace(0.0, 2.0, n_t)]


@pytest.mark.parametrize("case", ["header", "header_only", "non_numeric", "ragged_short",
                                  "ragged_long", "non_finite", "not_rectangular",
                                  "node_twice_node_missing", "too_few_nodes"])
def test_main_grid_csv_refusals_exit_2(tmp_path, capsys, case):
    lines = _full_grid_lines(*((4, 8) if case == "too_few_nodes" else ()))
    if case == "header":
        lines[0] = "r,theta,phi,h"
    elif case == "header_only":
        lines = lines[:1]
    elif case == "non_numeric":
        lines[5] = lines[5].replace("1.0", "one")
    elif case == "ragged_short":
        lines[5] = lines[5].rpartition(",")[0]
    elif case == "ragged_long":
        lines[5] += ",0.0"
    elif case == "non_finite":
        lines[5] = lines[5].replace("1.0", "inf")
    elif case == "not_rectangular":
        del lines[5]
    elif case == "node_twice_node_missing":  # as many rows as nodes, yet one node is absent
        lines[5] = lines[6]
    csv_path = tmp_path / "grid.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    spec = _write_spec(tmp_path, f"grid_csv = {csv_path}")
    assert main(["analyze", "--spec", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("killing3: grid CSV")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_grid_csv_five_nodes_accepted(tmp_path):
    spec = _write_spec(tmp_path, _grid_spec_text(tmp_path, 5, 5))
    assert main(["analyze", "--spec", spec, "--points", "4",
                 "--grid", "0.2:1.0,0:2"]) == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "--grid", "1.5:2.0,0:6"],
    ["geodesic"],
])
def test_grid_field_outside_nodes_exit_3(tmp_path, capsys, argv):
    # the CSV spans r in [0.2, 1.0], theta in [0, 2]: the analyze box lies
    # outside it, and the geodesic leaves it; the spline must not extrapolate
    spec = _write_spec(tmp_path, _grid_spec_text(tmp_path))
    assert main(argv[:1] + ["--spec", spec, "--points", "4"] + argv[1:]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert ("DomainError" if argv[0] == "analyze" else "BlowUp") in err


# -- sampling and reports -----------------------------------------------------


def test_sample_points_deterministic():
    grid = (0.2, 1.2, 0.0, 6.0)
    a = sample_points(grid, 32, seed=42)
    b = sample_points(grid, 32, seed=42)
    c = sample_points(grid, 32, seed=43)
    assert a.shape == (32, 2)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    rs = a[:, 0]
    assert rs.min() >= 0.2 and rs.max() <= 1.2


@pytest.mark.parametrize("seed", [0, 1, 42, 12345])
def test_sample_points_match_scipy_scrambled_halton(seed):
    from scipy.stats import qmc

    for n, grid in itertools.product([1, 7, 64, 1000], [(0.2, 1.2, 0.0, 6.0),
                                                       (-3.5, 0.7, 1.25, 9.9)]):
        u = qmc.Halton(d=2, scramble=True, seed=seed).random(n)
        ref = qmc.scale(u, [grid[0], grid[2]], [grid[1], grid[3]])
        assert sample_points(grid, n, seed).tolist() == ref.tolist(), (n, grid)


def test_jsonl_roundtrip(tmp_path):
    cfg = RunConfig(command="verify",
                    spec_path=_write_spec(tmp_path, "catalog = hopf\nR = 1"),
                    n_points=8)
    report, code = run(cfg)
    assert code == 0
    text = render_report(report, "jsonl")
    again = load_jsonl_report(text)
    assert again.summary == json.loads(json.dumps(report.summary))
    assert len(again.records) == len(report.records)
    assert again.verdict == report.verdict
    # blank and whitespace-only lines are skipped
    assert load_jsonl_report(text.replace("\n", "\n\n  \n")) == again


def test_report_summary_is_max_of_records(tmp_path):
    cfg = RunConfig(command="verify",
                    spec_path=_write_spec(tmp_path, "catalog = nil\nomega0 = 1"),
                    n_points=8)
    report, _ = run(cfg)
    for key, val in report.summary.items():
        if key.startswith("max_"):
            assert val == max(r[key[4:]] for r in report.records)


# -- end-to-end exit codes ----------------------------------------------------


def test_main_verify_pass(tmp_path, capsys):
    spec = _write_spec(tmp_path, "catalog = hopf\nR = 1")
    assert main(["verify", "--spec", spec, "--points", "8"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_main_flatness_expect_mismatch(tmp_path):
    spec = _write_spec(tmp_path, "catalog = nil\nomega0 = 1")
    assert main(["flatness", "--spec", spec, "--points", "8",
                 "--expect", "Flat"]) == 1
    assert main(["flatness", "--spec", spec, "--points", "8",
                 "--expect", "NotFlat"]) == 0
    assert main(["flatness", "--spec", spec, "--points", "8",
                 "--expect", "notflat"]) == 0


def test_main_parse_error_exit_2(tmp_path, capsys):
    spec = _write_spec(tmp_path, "catalog = hopf\nR = -1")
    assert main(["verify", "--spec", spec]) == 2
    spec2 = _write_spec(tmp_path, "catalog = wat", name="m2.spec")
    assert main(["verify", "--spec", spec2]) == 2


def test_main_domain_error_exit_3(tmp_path):
    # geodesic that exits the hopf chart maps to the numeric-error exit code
    spec = _write_spec(tmp_path, "catalog = hopf\nR = 1")
    code = main(["geodesic", "--spec", spec, "--length", "5",
                 "--init", "0,1.0,0,0,1,0"])
    assert code == 3


@pytest.mark.parametrize("direction", ["1e300,1,0", "1e-300,1e-300,0"])
def test_geodesic_huge_or_tiny_direction_runs(tmp_path, capsys, direction):
    # the normalisation of such a direction overflowed or underflowed (exit 3)
    spec = _write_spec(tmp_path, "catalog = hopf\nR = 2")
    assert main(["geodesic", "--spec", spec, "--length", "1",
                 "--init", f"0,0.5,0,{direction}"]) == 0
    assert capsys.readouterr().err == ""


def test_geodesic_zero_direction_exit_3(tmp_path, capsys):
    spec = _write_spec(tmp_path, "catalog = hopf\nR = 2")
    assert main(["geodesic", "--spec", spec, "--init", "0,0.5,0,0,0,0"]) == 3
    err = capsys.readouterr().err
    assert "non-positive g-norm" in err and len(err.strip().splitlines()) == 1


def test_geodesic_nan_g_norm_exit_3(tmp_path, capsys):
    # h alternating +-1e308 on the nodes makes the spline, and so the g-norm of the
    # start direction, NaN; solve_ivp would refuse the NaN initial state with a traceback
    from killing3.metric_family import GRID_CSV_HEADER

    lines = [",".join(GRID_CSV_HEADER)]
    for i, (r, t) in enumerate(itertools.product(np.linspace(0.2, 2.0, 8), np.linspace(0, 2, 8))):
        lines.append(f"{r},{t},1.0,{(-1) ** i * 1e308},0.0")
    (tmp_path / "grid.csv").write_text("\n".join(lines))
    spec = _write_spec(tmp_path, f"grid_csv = {tmp_path / 'grid.csv'}")
    assert main(["geodesic", "--spec", spec, "--grid", "0.5:1.5,0:1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("killing3: NotUnitLength: direction has NaN")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_main_bad_grid_argument(tmp_path, capsys):
    spec = _write_spec(tmp_path, "catalog = flat")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify", "--spec", spec, "--grid", "junk"])
    assert exc.value.code == 2


def test_grid_with_point_counts_names_the_box_form(tmp_path, capsys):
    # the sampling box has no point counts: --points sets how many points
    spec = _write_spec(tmp_path, "catalog = hopf\nR = 2")
    assert _exit_code(["analyze", "--spec", spec, "--grid", "0.2:1.2:8,0:6:8"]) == 2
    err = capsys.readouterr().err
    assert "rmin:rmax,tmin:tmax" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("points", ["0", "-3"])
def test_main_rejects_points_below_one(tmp_path, capsys, points):
    spec = _write_spec(tmp_path, "catalog = flat")
    assert main(["analyze", "--spec", spec, "--points", points]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def _exit_code(argv):
    """main(argv)'s exit code; argparse refusals exit through SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command, flags", [
    ("analyze", ["--grid", "1.2:0.2,0:6"]),
    ("geodesic", ["--length", "nan"]),
    ("geodesic", ["--length", "inf"]),
    ("verify", ["--tol", "residual=nan"]),
    ("analyze", ["--seed", "-1"]),
    ("geodesic", ["--init", "0,0.5,0,nan,1,0"]),
    ("verify", ["--tol", "bogus=1"]),
    ("flatness", ["--expect", "Flta"]),
    # flags the command never reads
    ("analyze", ["--expect", "NotFlat"]),
    ("lorentz", ["--expect", "Flat"]),
    ("verify", ["--tol", "drift=1e-30"]),
    ("geodesic", ["--tol", "residual=1e-6"]),
    ("analyze", ["--length", "5"]),
    ("analyze", ["--init", "0,0.5,0,1,0,0"]),
    # no residual or drift is below a tolerance <= 0
    ("verify", ["--tol", "residual=-1"]),
    ("verify", ["--tol", "residual=0"]),
    ("geodesic", ["--tol", "drift=0"]),
    ("geodesic", ["--tol", "drift=-1e-9"]),
    ("verify", ["--tol", "residual"]),
])
def test_main_rejects_bad_flag_values(tmp_path, capsys, command, flags):
    spec = _write_spec(tmp_path, "catalog = hopf\nR = 2")
    assert _exit_code([command, "--spec", spec, "--points", "4"] + flags) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, flag, value", [
    ("geodesic", "--init", "-1,0.7,0,0.3,0.8,0.4"),
    ("geodesic", "--init", "0,0.7,0,-.3,0.8,0.4"),
    ("analyze", "--grid", "-0.5:1.2,0:6"),
    ("analyze", "--grid", "-.5:1.2,0:6"),
])
def test_flag_value_with_a_leading_minus_in_either_spelling(tmp_path, capsys, command, flag,
                                                            value):
    # before Python 3.13, argparse took `--init -1,...` for a missing value (exit 2)
    spec = _write_spec(tmp_path, "catalog = nil")
    argv = [command, "--spec", spec, "--format", "jsonl"]
    reports = []
    for spelling in ([flag, value], [f"{flag}={value}"]):
        assert main(argv + spelling) == 0
        reports.append(capsys.readouterr())
    assert reports[0].err == reports[1].err == ""
    assert reports[0].out == reports[1].out != ""


@pytest.mark.parametrize("command", ["analyze", "geodesic"])
def test_analyze_and_geodesic_accept_seed_and_points(tmp_path, command):
    spec = _write_spec(tmp_path, "catalog = hopf\nR = 2")
    argv = [command, "--spec", spec, "--points", "4", "--seed", "7"]
    assert _exit_code(argv + (["--length", "0.5"] if command == "geodesic" else [])) == 0


@pytest.mark.parametrize("case", ["spec_not_utf8", "spec_is_directory", "grid_is_directory"])
def test_main_rejects_unreadable_spec_or_grid(tmp_path, capsys, case):
    if case == "spec_not_utf8":
        spec = tmp_path / "m.spec"
        spec.write_bytes(b"\xff\xfecatalog = flat\n")
    elif case == "spec_is_directory":
        spec = tmp_path
    else:
        spec = _write_spec(tmp_path, f"grid_csv = {tmp_path}")
    assert _exit_code(["analyze", "--spec", str(spec), "--points", "4"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


_VALUES = st.sampled_from(["0", "0.2", "1.2", "6", "-1", "1e-9", "nan", "inf", "-inf"])
# boxes inside, across and outside the R = 2 hopf domain r in (0, pi), then any box
_GRIDS = st.one_of(
    st.sampled_from(["0.2:1.2,0:6", "0:0.5,-1:1", "3:7,0:6", "1.2:0.2,0:6",
                     "0.5:0.5,0:6", "nan:1,0:6", "0.2:inf,0:6", "0.2:1.2:8,0:6:8"]),
    st.tuples(_VALUES, _VALUES, _VALUES, _VALUES).map(
        lambda b: "{}:{},{}:{}".format(*b)))
_LENGTHS = st.sampled_from(["1", "0.5", "-0.5", "0", "nan", "inf", "-inf"])
_TOLS = st.tuples(st.sampled_from(["residual", "drift"]), _VALUES).map("=".join)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(_RUNNERS)), grid=_flag("grid", _GRIDS),
       length=_flag("length", _LENGTHS), tol=_flag("tol", _TOLS),
       points=_flag("points", st.integers(-1, 4).map(str)))
def test_cli_contract_fuzz(tmp_path_factory, command, grid, length, tol, points):
    """Any flag values: exit 0-3, at most one stderr line, never a traceback."""
    spec = tmp_path_factory.getbasetemp() / "fuzz_hopf.spec"
    spec.write_text("catalog = hopf\nR = 2\n")
    argv = [command, "--spec", str(spec), "--points", "4"]
    if command == "geodesic":
        argv += ["--length", "1"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _exit_code(argv + grid + length + tol + points)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().strip().splitlines()) <= 1


@pytest.mark.parametrize("command", ["analyze", "family"])
@pytest.mark.parametrize("text", ["catalog = cf_family\nB = 1e200",
                                  "catalog = cf_family\nC = 1e300",
                                  "catalog = cf_family\nB = -1e4\nC = -99999999\n"
                                  "omega0 = 141.42135623730951"])
def test_cf_family_overflowing_or_huge_energy_exit_2(tmp_path, capsys, command, text):
    # B^2 overflows a float power, C = 1e300 would put ~1e76 periods into the
    # twist solve's span, and the well of B = -1e4 (C + B^2 = 1) ~4500 turning
    # points, 15 s of solving
    spec = _write_spec(tmp_path, text)
    assert main([command, "--spec", spec, "--points", "2"]) == 2
    err = capsys.readouterr().err
    assert "InadmissibleParams" not in err and "Traceback" not in err
    assert err.startswith("killing3: C + B^2") and len(err.strip().splitlines()) == 1


_SPEC_VALUES = st.sampled_from(["0", "1", "-1", "0.3", "1e-300", "1e200", "-1e200", "1e300",
                                "nan", "inf", "lorentzian"])
# each catalog's own keys, plus one it does not know and the signature
_SPEC_TEXTS = st.sampled_from(sorted(CATALOG_PARAMS) + ["klein"]).flatmap(
    lambda name: st.tuples(st.just(name), st.dictionaries(
        st.sampled_from(sorted(CATALOG_PARAMS.get(name, {})) + ["signature", "wibble"]),
        _SPEC_VALUES, max_size=3)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(text=_SPEC_TEXTS)
def test_spec_text_contract_fuzz(tmp_path_factory, text):
    """Any spec text: exit 0-3, at most one stderr line, never a traceback."""
    spec = tmp_path_factory.getbasetemp() / "fuzz_text.spec"
    name, entries = text
    spec.write_text("\n".join([f"catalog = {name}"]
                              + [f"{key} = {val}" for key, val in entries.items()]))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _exit_code(["analyze", "--spec", str(spec), "--points", "2"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().strip().splitlines()) <= 1


def test_main_writes_output_atomically(tmp_path):
    spec = _write_spec(tmp_path, "catalog = flat")
    out = tmp_path / "report.jsonl"
    code = main(["analyze", "--spec", spec, "--points", "8",
                 "--format", "jsonl", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["verdict"] == "pass"
    assert summary["summary"]["max_abs_omega"] == pytest.approx(0.0, abs=1e-12)
    assert not list(tmp_path.glob(".killing3-*"))


OVERFLOWING = ["catalog = nil\nomega0 = 1e200", "catalog = hopf\nR = 1e-300",
               "catalog = nil\nomega0 = 1e150"]


@pytest.mark.parametrize("command", ["analyze", "verify", "flatness", "lorentz"])
@pytest.mark.parametrize("text, fmt", [pytest.param(t, "text", id=t) for t in OVERFLOWING]
                         + [pytest.param(t, "jsonl", id=f"{t}-jsonl") for t in OVERFLOWING])
def test_main_overflowing_metric_exit_3(tmp_path, capsys, command, text, fmt):
    # finite parameters whose metric or curvature overflows: a one-line
    # numeric error, never a NaN report, a traceback or a RuntimeWarning,
    # whether the report shows its records (jsonl) or only its summary (text)
    spec = _write_spec(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--spec", spec, "--points", "8", "--format", fmt]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("killing3: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
@pytest.mark.parametrize("command", ["analyze", "verify", "flatness", "lorentz"])
def test_nan_field_grid_exit_3(tmp_path, capsys, command, fmt):
    # past r ~ 710 hyperbolic's phi = cosh r is inf, and the coframe refuses the point; just
    # below r = 355 phi^2 is finite and the curvature is not: flatness handed that to the
    # (B, C) fit and ended in LinAlgError's traceback
    spec = _write_spec(tmp_path, "catalog = hyperbolic")
    for band, errors in HYPERBOLIC_BANDS.items():
        assert main([command, "--spec", spec, "--grid", band, "--format", fmt]) == 3
        assert capsys.readouterr() == ("", f"killing3: {errors[command]}\n"), band


def _nan_in_first_state(integrate):
    def wrapped(*args):
        traj = integrate(*args)
        traj.states[0, 0] = np.nan
        return traj
    return wrapped


def _nan_in_first_omega(solve):
    def wrapped(params):
        sol = solve(params)
        sol.omega = np.concatenate([[np.nan], sol.omega[1:]])
        return sol
    return wrapped


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
@pytest.mark.parametrize("command, spec_text, target, poison", [
    pytest.param("geodesic", "catalog = hopf\nR = 2", "integrate_geodesic",
                 _nan_in_first_state, id="geodesic"),
    pytest.param("family", "catalog = cf_family\nB = 0.3\nC = 1", "solve_omega_ode",
                 _nan_in_first_omega, id="family"),
])
def test_nan_only_in_records_exit_3(tmp_path, capsys, monkeypatch, command, spec_text,
                                    target, poison, fmt):
    # the summary stays finite; a NaN in one record alone must still refuse the
    # report, in the text format too, which prints no record
    from killing3 import cli

    monkeypatch.setattr(cli, target, poison(getattr(cli, target)))
    spec = _write_spec(tmp_path, spec_text)
    argv = [command, "--spec", spec, "--format", fmt]
    if command == "geodesic":
        argv += ["--length", "1"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"killing3: NonFinite: the {command} report holds non-finite numbers\n"


def test_verify_rejects_lorentzian_spec(tmp_path, capsys):
    spec = _write_spec(tmp_path, "catalog = nil\nomega0 = 1\nsignature = lorentzian")
    assert main(["verify", "--spec", spec, "--points", "4"]) == 2
    err = capsys.readouterr().err
    assert "`lorentz`" in err and len(err.strip().splitlines()) == 1
    assert main(["lorentz", "--spec", spec, "--points", "4"]) == 2
    err = capsys.readouterr().err
    assert "already Lorentzian" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["analyze", "verify", "flatness"])
def test_riemannian_commands_refuse_a_lorentzian_spec(tmp_path, capsys, command):
    # the closed-form spectrum, the identities and the Cotton-York assembly hold for
    # g(T,T) = +1: on hopf's partner analyze reported the spectrum (1, 0.5, 1), where
    # diag(-1, 1, 1) Ric has the eigenvalues (-0.5, 1.5, 1.5)
    spec = _write_spec(tmp_path, "catalog = hopf\nR = 2\nsignature = lorentzian")
    assert main([command, "--spec", spec, "--points", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"killing3: {command} checks the Riemannian identities; run "
                                 "`lorentz` on the Riemannian spec for the Lorentzian relations\n")


def test_family_refuses_a_lorentzian_spec(tmp_path, capsys, monkeypatch):
    # family sweeps the built metric, which is Riemannian: on the Lorentzian spec it printed
    # that metric's audit, verdict Flat, and exited 0
    monkeypatch.setattr(killing3.cli, "solve_omega_ode",
                        lambda params: pytest.fail("the twist ODE was solved"))
    spec = _write_spec(tmp_path, "catalog = cf_family\nB = 0.3\nC = 1\nsignature = lorentzian")
    assert main(["family", "--spec", spec, "--points", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("killing3: family checks the Riemannian identities; run "
                                 "`lorentz` on the Riemannian spec for the Lorentzian relations\n")


def test_family_command(tmp_path):
    spec = _write_spec(tmp_path,
                       "catalog = cf_family\nB = 0\nC = 1\nomega0 = 0\nsign = 1")
    assert main(["family", "--spec", spec, "--points", "8",
                 "--grid", "0.1:1.0,0:6", "--expect", "Flat"]) == 0


@pytest.mark.parametrize("command", ["flatness", "family"])
def test_cf_family_is_flat_at_one_point(tmp_path, capsys, command):
    # a single sample has no twist spread, yet cf_family's twist is not constant
    spec = _write_spec(tmp_path, "catalog = cf_family\nB = 0.3\nC = 1")
    assert main([command, "--spec", spec, "--points", "1", "--expect", "Flat"]) == 0
    assert "verdict = Flat" in capsys.readouterr().out


def test_family_on_the_separatrix(tmp_path):
    # B = -1, C = 0 through omega0 = 1 is homoclinic: one turning point, no period
    spec = _write_spec(tmp_path, "catalog = cf_family\nB = -1\nC = 0\nomega0 = 1")
    report, code = run(RunConfig(command="family", spec_path=spec))
    assert code == 0
    summary = json.loads(render_report(report, "jsonl").splitlines()[-1])["summary"]
    assert summary["period"] is None and summary["n_turning_points"] == 1
    assert summary["verdict"] == "Flat"
    assert summary["B_fit"] == pytest.approx(-1.0, abs=1e-6)
    assert summary["C_fit"] == pytest.approx(0.0, abs=1e-6)


def test_family_too_near_the_separatrix_exit_2(tmp_path, capsys):
    # omega_r(0) = sqrt C > 0 at the hump omega0 = 0: refused, where it once exited 3 with a
    # PhiVanishes that said omega_r changes sign inside r range (0.0, 0.0)
    spec = _write_spec(tmp_path, "catalog = cf_family\nB = -1\nC = 1e-15")
    assert main(["family", "--spec", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert err.startswith("killing3: m1 = C/(C + s^2) = 2.4999999999999987e-16 is below "
                          "SEPARATRIX_GAP = 1e-15")


@pytest.mark.parametrize("command", ["family", "analyze"])
@pytest.mark.parametrize("sign", ["1.7", "-1.2", "0", "0.5"])
def test_cf_family_sign_other_than_one_or_minus_one_exit_2(tmp_path, capsys, command, sign):
    # int() of the parsed float would have run 1.7 as +1 and -1.2 as -1
    spec = _write_spec(tmp_path, f"catalog = cf_family\nB = 0.3\nC = 1\nsign = {sign}")
    assert main([command, "--spec", spec, "--points", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"killing3: cf_family sign must be 1 or -1, got {float(sign)}\n"


@pytest.mark.parametrize("command", ["family", "analyze"])
def test_cf_family_with_negative_omega_r_sign(tmp_path, command):
    # phi = sign h(theta) omega_r stays positive when omega_r(0) < 0
    spec = _write_spec(tmp_path, "catalog = cf_family\nB = 0.3\nC = 1\nsign = -1")
    report, code = run(RunConfig(command=command, spec_path=spec))
    assert code == 0
    if command == "family":
        summary = json.loads(render_report(report, "jsonl").splitlines()[-1])["summary"]
        assert summary["verdict"] == "Flat"
        assert summary["B_fit"] == pytest.approx(0.3, abs=1e-6)
        assert summary["C_fit"] == pytest.approx(1.0, abs=1e-6)


def test_default_hopf_geodesic_step_count(tmp_path, solver_nfev):
    # pins the right-hand side to the last bit: a mathematically equal but
    # reordered expression moves the adaptive steps and drifts
    spec = _write_spec(tmp_path, "catalog = hopf\nR = 2")
    report, code = run(RunConfig(command="geodesic", spec_path=spec))
    assert code == 0 and solver_nfev == [GEODESIC_PINS["hopf"]["nfev"]]
    assert tuple(report.records[-1]["state"]) == GEODESIC_PINS["hopf"]["last"]


@pytest.mark.parametrize("name", ["nil", "cf_family", "hopf_lorentzian"])
def test_default_geodesic_step_counts_and_drifts(tmp_path, solver_nfev, name):
    # the same last-bit pin on a constant, an elliptic and a Lorentzian field
    pin = GEODESIC_PINS[name]
    spec = _write_spec(tmp_path, pin["spec"])
    report, code = run(RunConfig(command="geodesic", spec_path=spec))
    assert code == 0 and solver_nfev == [pin["nfev"]]
    assert (report.summary["max_c_drift"], report.summary["max_speed_drift"]) == (
        pin["c_drift"], pin["speed_drift"])
    assert tuple(report.records[-1]["state"]) == pin["last"]


@pytest.mark.parametrize("out", ["missing/r.txt", "a_directory"])
def test_out_that_cannot_be_written_exits_2(tmp_path, capsys, out):
    spec = _write_spec(tmp_path, "catalog = hopf\nR = 2")
    (tmp_path / "a_directory").mkdir()
    assert main(["analyze", "--spec", spec, "--points", "4", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("killing3: ") and len(err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory", "m.spec"]


def test_geodesic_summary_reports_solver_statistics(tmp_path):
    spec = _write_spec(tmp_path, "catalog = hopf\nR = 2")
    report, code = run(RunConfig(command="geodesic", spec_path=spec))
    stats = {key: report.summary[key] for key in ("nfev", "steps", "rejected_steps")}
    assert code == 0 and stats["nfev"] == GEODESIC_PINS["hopf"]["nfev"]
    # 2 calls start the solve, 12 make a step try, 3 more a step's dense output
    dense, rest = divmod(stats["nfev"] - 2 - 12 * (stats["steps"] + stats["rejected_steps"]), 3)
    assert rest == 0 and 0 < dense <= stats["steps"]
    again = load_jsonl_report(render_report(report, "jsonl"))
    assert {key: again.summary[key] for key in stats} == stats


def test_geodesic_step_budget_ends_in_step_failure(tmp_path, capsys, monkeypatch):
    # nil at omega0 = 1e8 winds ~omega0 / 2 pi times per unit length: without the
    # budget the default length 20 would take ~1e9 right-hand-side calls
    from killing3 import completeness_probe

    monkeypatch.setattr(completeness_probe, "MAX_RHS_CALLS", 300)
    spec = _write_spec(tmp_path, "catalog = nil\nomega0 = 1e8")
    assert main(["geodesic", "--spec", spec]) == 3
    err = capsys.readouterr().err
    assert err.startswith("killing3: StepFailure: geodesic stopped at s = ")
    assert err.rstrip().endswith("over 300 rhs calls") and len(err.strip().splitlines()) == 1


def test_lorentz_command(tmp_path):
    spec = _write_spec(tmp_path, "catalog = nil\nomega0 = 1")
    assert main(["lorentz", "--spec", spec, "--points", "8"]) == 0


def test_cli_matrix_writes_each_run_of_a_spec(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_matrix(tmp_path / "runs", ["nil"])
    assert list(tmp_path.iterdir()) == [tmp_path / "runs"]  # the working directory is back
    runs = [f"nil.{command}.{fmt}" for command in sorted(_RUNNERS) for fmt in ("text", "jsonl")]
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == sorted(
        ["hopf.csv", "nil.spec"] + [f"{run}.{ext}" for run in runs for ext in ("out", "err", "code")])
    read = {run: [(tmp_path / "runs" / f"{run}.{ext}").read_text() for ext in ("out", "err", "code")]
            for run in runs}
    assert read["nil.family.text"] == ["", "killing3: `family` needs a cf_family spec\n", "2\n"]
    out, err, code = read["nil.analyze.jsonl"]
    assert (err, code) == ("", "0\n") and load_jsonl_report(out).summary["n_points"] == 64


def test_cli_matrix_compare_names_each_changed_field(tmp_path, capsys):
    runs = {"a": {"x.verify.jsonl": ['{"record": {"point": [0.5, 1.0], "s": 1.0}}',
                                     '{"summary": {"max_s": 1.0}, "verdict": "pass"}'],
                  "x.verify.text": ["killing3 verify: pass"], "x.lorentz.jsonl": ["{}"]},
            "b": {"x.verify.jsonl": ['{"record": {"point": [0.5, 1.0], "s": 1.25}}',
                                     '{"summary": {"max_s": 1.0}, "verdict": "fail"}'],
                  "x.verify.text": ["killing3 verify: fail"], "x.lorentz.jsonl": ["{}"]}}
    for side, files in runs.items():
        (tmp_path / side).mkdir()
        for stem, lines in files.items():
            for ext, text in (("out", "\n".join(lines) + "\n"), ("err", ""), ("code", "0\n")):
                (tmp_path / side / f"{stem}.{ext}").write_text(text)
    (tmp_path / "b" / "x.lorentz.jsonl.code").write_text("1\n")
    compare(tmp_path / "a", tmp_path / "b")
    assert capsys.readouterr().out.splitlines() == [
        "x.lorentz.jsonl: code differ", "x.verify.jsonl: record.s 0.25",
        "x.verify.jsonl: verdict differs", "x.verify.text: out differ", "3 runs compared"]


def test_cli_matrix_compare_exits_1_on_a_changed_or_missing_run(tmp_path):
    def write(side, stem, code="0\n", out="", exts=("out", "err", "code")):
        (tmp_path / side).mkdir(exist_ok=True)
        for ext, text in (("out", out), ("err", ""), ("code", code)):
            if ext in exts:
                (tmp_path / side / f"{stem}.{ext}").write_text(text)

    def gate():
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(killing3.__file__))}
        script = os.path.join(os.path.dirname(__file__), "cli_matrix.py")
        return subprocess.run([sys.executable, script, "--compare", str(tmp_path / "a"),
                               str(tmp_path / "b")], capture_output=True, text=True, env=env,
                              timeout=60)

    for side in "ab":
        write(side, "x.verify.text")
    same = gate()
    assert (same.returncode, same.stdout, same.stderr) == (0, "1 runs compared\n", "")
    write("a", "y.analyze.text")
    write("b", "z.lorentz.text")
    write("a", "w.flatness.text")
    write("b", "w.flatness.text", exts=("err", "code"))  # its stdout file is lacking
    a, b = tmp_path / "a", tmp_path / "b"
    missing = gate()
    assert (missing.returncode, missing.stdout.splitlines()) == (1, [
        f"w.flatness.text: missing from {b}", f"y.analyze.text: missing from {b}",
        f"z.lorentz.text: missing from {a}", "4 runs compared"])
    write("b", "x.verify.text", code="1\n")
    write("a", "v.analyze.jsonl", out='{"s": 1.0}\n')
    write("b", "v.analyze.jsonl", out='{"s": 1.00}\n')  # the same value, spelled otherwise
    summary = "killing3 flatness: pass\n  verdict = {}\n  B = {}\n  n_points = 64\n"
    write("a", "u.flatness.text", out=summary.format("Flat", "0.25"))
    write("b", "u.flatness.text", out=summary.format("NotFlat", "0.5"))
    write("a", "t.flatness.text", out=summary.format("Flat", "0.25"))
    write("b", "t.flatness.text", out=summary.format("Flat", "0.250"))
    for stem in ("w.flatness.text", "y.analyze.text", "z.lorentz.text"):
        for side in "ab":
            write(side, stem)
    changed = gate()
    assert (changed.returncode, changed.stdout.splitlines()) == (
        1, ["t.flatness.text: out differ", "u.flatness.text: verdict differs",
            "u.flatness.text: B 0.25", "v.analyze.jsonl: out differ",
            "x.verify.text: code differ", "7 runs compared"])
