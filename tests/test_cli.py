import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
                                  "catalog = hopf\nR = inf"])
def test_parse_rejects_non_finite_with_line(tmp_path, text):
    with pytest.raises(ParseError) as exc:
        parse_metric_spec(text)
    assert exc.value.line == 2
    assert main(["analyze", "--spec", _write_spec(tmp_path, text)]) == 2


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
    assert a == b
    assert a != c
    rs = np.array([p[0] for p in a])
    assert rs.min() >= 0.2 and rs.max() <= 1.2


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
])
def test_main_rejects_bad_flag_values(tmp_path, capsys, command, flags):
    spec = _write_spec(tmp_path, "catalog = hopf\nR = 2")
    assert _exit_code([command, "--spec", spec, "--points", "4"] + flags) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


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


@pytest.mark.parametrize("command", ["analyze", "verify", "flatness", "lorentz"])
@pytest.mark.parametrize("text", ["catalog = nil\nomega0 = 1e200",
                                  "catalog = hopf\nR = 1e-300",
                                  "catalog = nil\nomega0 = 1e150"])
def test_main_overflowing_metric_exit_3(tmp_path, capsys, command, text):
    # finite parameters whose metric or curvature overflows: a one-line
    # numeric error, never a NaN report, a traceback or a RuntimeWarning
    spec = _write_spec(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--spec", spec, "--points", "8"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("killing3: ") and len(err.strip().splitlines()) == 1


def test_verify_rejects_lorentzian_spec(tmp_path, capsys):
    spec = _write_spec(tmp_path, "catalog = nil\nomega0 = 1\nsignature = lorentzian")
    assert main(["verify", "--spec", spec, "--points", "4"]) == 2
    err = capsys.readouterr().err
    assert "`lorentz`" in err and len(err.strip().splitlines()) == 1
    assert main(["lorentz", "--spec", spec, "--points", "4"]) == 2
    err = capsys.readouterr().err
    assert "already Lorentzian" in err and len(err.strip().splitlines()) == 1


def test_family_command(tmp_path):
    spec = _write_spec(tmp_path,
                       "catalog = cf_family\nB = 0\nC = 1\nomega0 = 0\nsign = 1")
    assert main(["family", "--spec", spec, "--points", "8",
                 "--grid", "0.1:1.0,0:6", "--expect", "Flat"]) == 0


def test_lorentz_command(tmp_path):
    spec = _write_spec(tmp_path, "catalog = nil\nomega0 = 1")
    assert main(["lorentz", "--spec", spec, "--points", "8"]) == 0
