import json

import numpy as np
import pytest

from killing3.cli import (RunConfig, build_parser, load_jsonl_report, main,
                          parse_metric_spec, render_report, run, sample_points)
from killing3.errors import BadParams, ParseError, UnknownCatalogName


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

    pk = curvature_packet(spec, (0.6, 0.1))
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
    assert main(["analyze", "--spec", spec, "--points", "4"]) == 0


# -- sampling and reports -----------------------------------------------------


def test_sample_points_deterministic():
    grid = (0.2, 1.2, 8, 0.0, 6.0, 8)
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


def test_main_bad_grid_argument(tmp_path, capsys):
    spec = _write_spec(tmp_path, "catalog = flat")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify", "--spec", spec, "--grid", "junk"])
    assert exc.value.code == 2


@pytest.mark.parametrize("points", ["0", "-3"])
def test_main_rejects_points_below_one(tmp_path, capsys, points):
    spec = _write_spec(tmp_path, "catalog = flat")
    assert main(["analyze", "--spec", spec, "--points", points]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


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


def test_thread_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("KILLING3_THREADS", "1")
    spec = _write_spec(tmp_path, "catalog = hyperbolic")
    assert main(["verify", "--spec", spec, "--points", "8"]) == 0


def test_family_command(tmp_path):
    spec = _write_spec(tmp_path,
                       "catalog = cf_family\nB = 0\nC = 1\nomega0 = 0\nsign = 1")
    assert main(["family", "--spec", spec, "--points", "8",
                 "--grid", "0.1:1.0:4,0:6:4", "--expect", "Flat"]) == 0


def test_lorentz_command(tmp_path):
    spec = _write_spec(tmp_path, "catalog = nil\nomega0 = 1")
    assert main(["lorentz", "--spec", spec, "--points", "8"]) == 0
