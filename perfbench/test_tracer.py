"""Tests of the benchmark's tracing harness and result format.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import OdeIntegrate, PointwiseSweep  # noqa: E402


@pytest.fixture(autouse=True)
def default_threads(monkeypatch):
    monkeypatch.delenv("KILLING3_THREADS", raising=False)


def _bindings():
    """(owner, name) -> object for everything the tracer may replace."""
    import killing3  # noqa: F401
    from killing3 import fields, frame_calculus, jets

    owners = [m for n, m in sorted(sys.modules.items())
              if n == "killing3" or n.startswith("killing3.")]
    owners += [frame_calculus.Geometry, fields.ScalarField, jets.Jet2]
    return {(id(o), name): obj for o in owners for name, obj in vars(o).items()}


def _traced(workload):
    workload.write_inputs()
    workload.load()
    _, ops, metrics = run.traced_pass(workload, untraced_wall=0.0)
    assert [op.problems for op in ops if op.failed] == []
    return {name: m["value"] for name, m in metrics.items()}


def test_wrapped_functions_are_restored(tmp_path):
    from killing3 import catalog, cli, frame_calculus, jets

    before = _bindings()
    workload = PointwiseSweep(3, tmp_path, n_points=4)
    workload.write_inputs()
    with Tracer():
        assert cli.main is not before[(id(cli), "main")]
        assert jets.Jet2.__mul__ is not before[(id(jets.Jet2), "__mul__")]
        workload.run_pass()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, obj in before.items() if after[key] is not obj]
    assert changed == []

    with pytest.raises(RuntimeError):
        with Tracer():
            frame_calculus.Geometry(catalog("hopf", {"R": 2.0}), 0.5, 0.5)
            raise RuntimeError("inside the traced block")
    assert [k for k, obj in before.items() if _bindings()[k] is not obj] == []


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


SYNTHETIC = """
def leaf():
    busy(0.002)

def tick():
    busy(0.0005)

def middle():
    busy(0.001)
    leaf()
    tick()
    leaf()
    tick()
    busy(0.001)

def outer():
    busy(0.001)
    middle()
    leaf()
"""


def _coverage(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return total + (cur_end - cur_start if cur_end is not None else 0.0)


def test_self_time_is_duration_minus_child_coverage():
    mod = types.ModuleType("synthetic")
    mod.busy = _busy
    exec(SYNTHETIC, vars(mod))
    tracer = Tracer()
    for name in ("outer", "middle", "leaf"):
        tracer.patch(mod, name, tracer.span(f"syn.{name}", getattr(mod, name)))
    tracer.patch(mod, "tick", tracer.count("syn.tick", mod.tick))
    mod.outer()
    tracer.restore()

    spans = [(i, rec, self_s) for _, i, rec, self_s in tracer.spans()]
    assert [rec[0] for _, rec, _ in spans] == [
        "syn.outer", "syn.middle", "syn.leaf", "syn.leaf", "syn.leaf"]
    ticks = tracer.counters()["syn.tick"]
    assert ticks[0] == 2
    for i, rec, self_s in spans:
        children = [(c[2], c[3]) for _, c, _ in spans if c[1] == i]
        # the counted tick() calls are children of middle with no spans of their own
        counted = ticks[1] if rec[0] == "syn.middle" else 0.0
        expected = rec[3] - rec[2] - _coverage(children) - counted
        assert self_s == pytest.approx(expected, abs=1e-9)
        assert self_s > 0.0
    leaf_self = [self_s for _, rec, self_s in spans if rec[0] == "syn.leaf"]
    assert min(leaf_self) >= 0.002
    assert mod.outer.__name__ == "outer" and not hasattr(mod.outer, "__wrapped__")


COUNTS = ["jets.mul.calls", "jets.add.calls", "jets.elem.calls",
          "frame_calculus.geometry.builds", "frame_calculus.riem_ud.builds",
          "fields.analytic.calls", "fields.grid.calls",
          "curvature_engine.curvature_packet.calls",
          "conformal_family.solve_omega_ode.calls",
          "conformal_family.solve_omega_ode.nfev",
          "completeness_probe.integrate_geodesic.nfev"]


def test_counts_repeat_for_one_seed(tmp_path):
    # 8 points per command, so the CLI's thread pool runs the points
    first = _traced(PointwiseSweep(5, tmp_path, n_points=8))
    second = _traced(PointwiseSweep(5, tmp_path, n_points=8))
    assert first["jets.mul.calls"] > 0 and first["fields.grid.calls"] > 0
    assert first["frame_calculus.geometry.builds"] > 0
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}

    ode = [_traced(OdeIntegrate(5, tmp_path, length=2.0, n_points=8)) for _ in range(2)]
    assert ode[0]["conformal_family.solve_omega_ode.calls"] == 3
    assert ode[0]["completeness_probe.integrate_geodesic.nfev"] > 0
    assert ode[0]["frame_calculus.geometry.builds_per_point"] >= 1.0
    assert {k: ode[0][k] for k in COUNTS} == {k: ode[1][k] for k in COUNTS}


class _Failing(PointwiseSweep):
    """A workload whose every call raises inside the program."""

    def plan(self):
        def broken():
            raise TypeError("broken jet op")
        return [("analyze", 1, broken, lambda result, op: None)] * 2


def test_run_ends_when_every_call_raises(tmp_path):
    done = []
    worker = threading.Thread(
        target=lambda: done.append(run.run_calls(_Failing(1, tmp_path), 0.2)),
        daemon=True)
    worker.start()
    worker.join(30)
    assert done, "run_calls did not stop"
    ops = [op for ops in done[0] for op in ops]
    assert ops and all(op.failed for op in ops)
    assert all(op.seconds >= 0.0 for op in ops)
    figures = run.e2e_figures(done[0], [1.0])
    assert figures["wall_s"]["value"] == 0.0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in LAYER_METRICS]


def test_run_refuses_without_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ode-integrate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
