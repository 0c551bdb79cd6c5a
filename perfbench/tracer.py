"""In-memory call tracer for killing3, applied from outside the package.

``with Tracer() as tr:`` replaces, for the duration of the block,

* every public function of every killing3 module, in every namespace that
  binds it (so ``cli`` calling its imported ``cotton_york`` is traced too),
  plus ``cli._sweep``, the thread-pool boundary;
* ``Geometry.__init__`` and each cached stage of ``Geometry``;
* ``solve_ivp`` as bound in ``completeness_probe`` and ``conformal_family``,
  recording ``nfev`` and the exit status of each call;
* ``ScalarField.jet`` and the ring operations and elementary functions of
  ``jets``.

Leaving the block puts every original object back.  Nothing inside killing3
is edited.

Two kinds of record are kept, per thread, in memory:

* spans -- ``[name, parent, start, end, child_seconds, attrs]``, one per call
  of a wrapped function; ``parent`` is the index of the enclosing span on the
  same thread, or -1;
* counters -- ``[calls, self_seconds, extras...]`` for jet operations and
  field evaluations, which run about 1e6 times per pass and would swamp a span
  list.

A call's self time is its duration minus the time its traced children on the
same thread cover.  Children nest inside their parent and do not overlap, so
that coverage is the sum of their durations.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from functools import cached_property

_perf = time.perf_counter

#: useful multiply-adds of one order-n jet product (pairs of multi-indices
#: whose sum has total order <= n); the dense 10x10x10 table performs 1000
USEFUL_MULADDS = {0: 1, 1: 5, 2: 15, 3: 35}
DENSE_MULADDS = 1000

#: counter slots after [calls, self_seconds]
_WIDTH, _BYTES, _USEFUL, _PAIRS = 2, 3, 4, 5


class _ThreadLog:
    __slots__ = ("thread", "stack", "spans", "counters")

    def __init__(self):
        self.thread = threading.current_thread().name
        self.stack = []      # open calls: [child_seconds, enclosing span index]
        self.spans = []
        self.counters = {}


class Tracer:
    """Span and counter recorder; a context manager that installs itself."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []
        self.logs = []
        self.t0 = _perf()

    def _log(self):
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self.logs.append(log)
            return log

    # -- wrappers ---------------------------------------------------------------

    def span(self, name, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, result)`` adds data."""
        log_of = self._log

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = log_of()
            stack = log.stack
            rec = [name, stack[-1][1] if stack else -1, 0.0, 0.0, 0.0, None]
            frame = [0.0, len(log.spans)]
            log.spans.append(rec)
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                rec[2], rec[3], rec[4] = t0, t1, frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
            if attrs is not None:
                rec[5] = attrs(args, result)
            return result

        return traced

    def count(self, key, fn, extra=None):
        """``fn`` adding its calls and self time to counter ``key``.

        ``key`` is a name, or a function of the call's arguments giving one;
        ``extra(counter, args, result)`` adds to the counter's extra slots.
        """
        log_of = self._log
        keyed = callable(key)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            log = log_of()
            stack = log.stack
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                k = key(args) if keyed else key
                c = log.counters.get(k)
                if c is None:
                    c = log.counters[k] = [0, 0.0, 0, 0, 0, 0]
                c[0] += 1
                c[1] += dt - frame[0]
            if extra is not None:
                extra(c, args, result)
            return result

        return counted

    # -- installation -----------------------------------------------------------

    def patch(self, owner, name, new):
        """Set ``owner.name = new`` until :meth:`restore`."""
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def restore(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self):
        import killing3  # noqa: F401  (loads every submodule)
        from killing3 import cli, fields, frame_calculus, jets

        modules = sorted((m for n, m in sys.modules.items()
                          if n == "killing3" or n.startswith("killing3.")),
                         key=lambda m: m.__name__)
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for fname, obj in vars(mod).items():
                if (fname.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or obj is jets.variables):
                    continue
                if mod is jets:
                    wrapped[id(obj)] = (obj, self.count("jets.elem", obj))
                else:
                    wrapped[id(obj)] = (obj, self.span(f"{short}.{fname}", obj))
        wrapped[id(cli._sweep)] = (cli._sweep, self.span("cli.sweep", cli._sweep))
        for mod in modules:
            for fname, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.patch(mod, fname, hit[1])

        for mod_name in ("completeness_probe", "conformal_family"):
            mod = sys.modules[f"killing3.{mod_name}"]
            self.patch(mod, "solve_ivp", self.span(f"{mod_name}.solve_ivp",
                                                   mod.solve_ivp, _solver_attrs))

        geo = frame_calculus.Geometry
        self.patch(geo, "__init__", self.span("frame_calculus.init",
                                              geo.__init__, _geometry_attrs))
        for name, attr in list(vars(geo).items()):
            if isinstance(attr, cached_property):
                stage = cached_property(self.span(f"frame_calculus.{name}", attr.func))
                stage.__set_name__(geo, name)
                self.patch(geo, name, stage)

        field_keys = {fields.ANALYTIC: "fields.analytic",
                      fields.GRID_SAMPLED: "fields.grid"}
        self.patch(fields.ScalarField, "jet",
                   self.count(lambda args: field_keys[args[0].provenance],
                              fields.ScalarField.jet, _field_extra))

        jet = jets.Jet2
        mul = self.count("jets.mul", jet.__mul__, _mul_extra)
        add = self.count("jets.add", jet.__add__)
        for name, new in (("__mul__", mul), ("__rmul__", mul),
                          ("__add__", add), ("__radd__", add)):
            self.patch(jet, name, new)
        for name in ("__sub__", "__rsub__", "__neg__"):
            self.patch(jet, name, self.count("jets.add", vars(jet)[name]))

    # -- results ----------------------------------------------------------------

    def spans(self):
        """``(thread, index, rec, self_seconds)`` for every recorded span."""
        for log in self.logs:
            for i, rec in enumerate(log.spans):
                yield log.thread, i, rec, rec[3] - rec[2] - rec[4]

    def counters(self):
        """Counters merged over threads: key -> [calls, self_seconds, extras...]."""
        out = {}
        for log in self.logs:
            for key, c in log.counters.items():
                acc = out.setdefault(key, [0, 0.0, 0, 0, 0, 0])
                for i, v in enumerate(c):
                    acc[i] += v
        return out

    def by_name(self):
        """Span name -> {calls, total_s, self_s}, summed over threads."""
        out = {}
        for _, _, rec, self_s in self.spans():
            agg = out.setdefault(rec[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += rec[3] - rec[2]
            agg["self_s"] += self_s
        return out

    def under(self, ancestor):
        """Spans that are ``ancestor`` or run inside it: ``(thread, rec)``."""
        for log in self.logs:
            inside = []
            for rec in log.spans:
                hit = rec[0] == ancestor or (rec[1] >= 0 and inside[rec[1]])
                inside.append(hit)
                if hit:
                    yield log.thread, rec

    def self_seconds_by_thread(self):
        """Thread name -> summed self time of its spans and counters."""
        out = {}
        for log in self.logs:
            s = sum(r[3] - r[2] - r[4] for r in log.spans)
            out[log.thread] = s + sum(c[1] for c in log.counters.values())
        return out

    def write(self, path):
        """Spans as JSON lines (seconds since the tracer was made), then counters."""
        with open(path, "w") as fh:
            for thread, i, rec, self_s in self.spans():
                fh.write(json.dumps({
                    "name": rec[0], "thread": thread, "index": i,
                    "parent": rec[1], "start": rec[2] - self.t0,
                    "end": rec[3] - self.t0, "self": self_s, "attrs": rec[5],
                }) + "\n")
            for key, c in sorted(self.counters().items()):
                fh.write(json.dumps({"counter": key, "calls": c[0],
                                     "self": c[1], "extras": c[2:]}) + "\n")


def wrapper_costs(calls=20000, repeats=5):
    """Seconds a span wrapper and a counter wrapper add to one call.

    Measured on a no-op function, median of ``repeats`` loops of ``calls``
    calls; an estimate of the tracing overhead made apart from the traced pass.
    """
    def noop(a, b):
        return None

    tracer = Tracer()
    wrapped = {"none": noop, "span": tracer.span("noop", noop),
               "count": tracer.count("noop", noop)}
    per_call = {}
    for name, fn in wrapped.items():
        times = []
        for _ in range(repeats):
            t0 = _perf()
            for _ in range(calls):
                fn(1, 2)
            times.append((_perf() - t0) / calls)
        per_call[name] = sorted(times)[repeats // 2]
    return {"span": per_call["span"] - per_call["none"],
            "count": per_call["count"] - per_call["none"]}


def _solver_attrs(args, sol):
    return {"nfev": int(sol.nfev), "status": int(sol.status)}


def _geometry_attrs(args, result):
    return int(args[0].r.size)


def _field_extra(c, args, jet):
    c[_WIDTH] += jet.coeffs[0].size


def _mul_extra(c, args, out):
    a, b = args
    c[_WIDTH] += out.coeffs[0].size
    if hasattr(b, "coeffs"):
        c[_BYTES] += a.coeffs.nbytes + b.coeffs.nbytes + out.coeffs.nbytes
        c[_USEFUL] += USEFUL_MULADDS[out.order]
        c[_PAIRS] += 1
    else:
        c[_BYTES] += (a.coeffs.nbytes + out.coeffs.nbytes
                      + getattr(b, "nbytes", 16 if isinstance(b, complex) else 8))


# -- per-layer metrics ---------------------------------------------------------

_STAGES = ("g", "ginv", "gamma", "riem_ud", "ric", "scalar", "ric_frame",
           "omega", "spin", "cotton_york_matrix")

#: (metric, unit, better, source); source is ("span", name, field) with field
#: in calls/self_s/total_s, ("counter", key, slot), or a derived quantity.
#: Every ``.s`` figure is a self time summed over threads.
LAYER_METRICS = [
    ("jets.mul.calls", "count", "lower", ("counter", "jets.mul", 0)),
    ("jets.mul.s", "s", "lower", ("counter", "jets.mul", 1)),
    ("jets.mul.mean_width", "points", "higher", ("derived", "mul_width")),
    ("jets.mul.useful_frac", "ratio", "higher", ("derived", "mul_useful")),
    ("jets.mul.bytes", "B", "lower", ("counter", "jets.mul", _BYTES)),
    ("jets.add.calls", "count", "lower", ("counter", "jets.add", 0)),
    ("jets.add.s", "s", "lower", ("counter", "jets.add", 1)),
    ("jets.elem.calls", "count", "lower", ("counter", "jets.elem", 0)),
    ("jets.elem.s", "s", "lower", ("counter", "jets.elem", 1)),
    ("fields.analytic.calls", "count", "lower", ("counter", "fields.analytic", 0)),
    ("fields.analytic.s", "s", "lower", ("counter", "fields.analytic", 1)),
    ("fields.grid.calls", "count", "lower", ("counter", "fields.grid", 0)),
    ("fields.grid.s", "s", "lower", ("counter", "fields.grid", 1)),
    ("fields.points", "points", "lower", ("derived", "field_points")),
    ("metric_family.catalog.s", "s", "lower", ("span", "metric_family.catalog", "self_s")),
    ("metric_family.load_grid_csv.s", "s", "lower",
     ("span", "metric_family.load_grid_csv", "self_s")),
    ("metric_family.metric_components.calls", "count", "lower",
     ("span", "metric_family.metric_components", "calls")),
    ("metric_family.metric_components.s", "s", "lower",
     ("span", "metric_family.metric_components", "self_s")),
    ("tensor_core.sym_eig3.calls", "count", "lower", ("span", "tensor_core.sym_eig3", "calls")),
    ("tensor_core.sym_eig3.s", "s", "lower", ("span", "tensor_core.sym_eig3", "self_s")),
    ("frame_calculus.geometry.builds", "count", "lower", ("span", "frame_calculus.init", "calls")),
    ("frame_calculus.geometry.builds_per_point", "count", "lower", ("derived", "builds_per_point")),
    ("frame_calculus.geometry.mean_width", "points", "higher", ("derived", "geometry_width")),
    ("frame_calculus.init.s", "s", "lower", ("span", "frame_calculus.init", "self_s")),
    ("frame_calculus.riem_ud.builds", "count", "lower", ("span", "frame_calculus.riem_ud", "calls")),
] + [
    (f"frame_calculus.{stage}.s", "s", "lower", ("span", f"frame_calculus.{stage}", "self_s"))
    for stage in _STAGES
] + [
    ("curvature_engine.curvature_packet.calls", "count", "lower",
     ("span", "curvature_engine.curvature_packet", "calls")),
    ("curvature_engine.curvature_packet.s", "s", "lower",
     ("span", "curvature_engine.curvature_packet", "self_s")),
    ("curvature_engine.scalar_and_ric_tt.s", "s", "lower",
     ("span", "curvature_engine.scalar_and_ric_tt", "self_s")),
    ("curvature_engine.gaussian_identity_residual.s", "s", "lower",
     ("span", "curvature_engine.gaussian_identity_residual", "self_s")),
    ("curvature_engine.spectrum_vs_eigensolve_residual.s", "s", "lower",
     ("span", "curvature_engine.spectrum_vs_eigensolve_residual", "self_s")),
    ("np_formalism.structure_residuals.calls", "count", "lower",
     ("span", "np_formalism.structure_residuals", "calls")),
    ("np_formalism.structure_residuals.s", "s", "lower",
     ("span", "np_formalism.structure_residuals", "self_s")),
    ("np_formalism.kinematics.calls", "count", "lower", ("span", "np_formalism.kinematics", "calls")),
    ("np_formalism.kinematics.s", "s", "lower", ("span", "np_formalism.kinematics", "self_s")),
    ("cotton_york.cotton_york.calls", "count", "lower", ("span", "cotton_york.cotton_york", "calls")),
    ("cotton_york.cotton_york.s", "s", "lower", ("span", "cotton_york.cotton_york", "self_s")),
    ("cotton_york.flatness_verdict.s", "s", "lower", ("span", "cotton_york.flatness_verdict", "self_s")),
    ("conformal_family.solve_omega_ode.calls", "count", "lower",
     ("span", "conformal_family.solve_omega_ode", "calls")),
    ("conformal_family.solve_omega_ode.s", "s", "lower",
     ("span", "conformal_family.solve_omega_ode", "self_s")),
    ("conformal_family.solve_omega_ode.nfev", "count", "lower",
     ("derived", "nfev:conformal_family.solve_omega_ode")),
    ("conformal_family.solve_ivp.s", "s", "lower", ("span", "conformal_family.solve_ivp", "self_s")),
    ("conformal_family.build_cf_metric.s", "s", "lower",
     ("span", "conformal_family.build_cf_metric", "self_s")),
    ("completeness_probe.integrate_geodesic.s", "s", "lower",
     ("span", "completeness_probe.integrate_geodesic", "self_s")),
    ("completeness_probe.integrate_geodesic.nfev", "count", "lower",
     ("derived", "nfev:completeness_probe.integrate_geodesic")),
    ("completeness_probe.solve_ivp.s", "s", "lower", ("span", "completeness_probe.solve_ivp", "self_s")),
    ("completeness_probe.make_state.s", "s", "lower", ("span", "completeness_probe.make_state", "self_s")),
    ("lorentz_bridge.lorentz_relations_check.calls", "count", "lower",
     ("span", "lorentz_bridge.lorentz_relations_check", "calls")),
    ("lorentz_bridge.lorentz_relations_check.s", "s", "lower",
     ("span", "lorentz_bridge.lorentz_relations_check", "self_s")),
    ("cli.run.s", "s", "lower", ("span", "cli.run", "self_s")),
    ("cli.sweep.s", "s", "lower", ("span", "cli.sweep", "self_s")),
    ("cli.parse_metric_spec.s", "s", "lower", ("span", "cli.parse_metric_spec", "self_s")),
    ("cli.sample_points.s", "s", "lower", ("span", "cli.sample_points", "self_s")),
    ("cli.render_report.s", "s", "lower", ("span", "cli.render_report", "self_s")),
    ("solve_ivp.failed_calls", "count", "lower", ("derived", "solver_failures")),
    ("trace.wall_s", "s", "lower", ("run", "traced_wall_s")),
    ("trace.untraced_wall_s", "s", "lower", ("run", "untraced_wall_s")),
    ("trace.overhead_s", "s", "lower", ("run", "overhead_s")),
    ("trace.overhead_est_s", "s", "lower", ("run", "overhead_est_s")),
    ("trace.main_self_s", "s", "lower", ("run", "main_self_s")),
    ("trace.worker_self_s", "s", "lower", ("run", "worker_self_s")),
]


def _solver_spans(tracer, caller):
    mod = caller.partition(".")[0]
    return [rec for _, rec in tracer.under(caller)
            if rec[0] == f"{mod}.solve_ivp" and rec[5] is not None]


def layer_metrics(tracer, points, traced_wall_s, untraced_wall_s, costs):
    """Every LAYER_METRICS figure of one traced pass, 0 where a layer did not run.

    ``costs`` is :func:`wrapper_costs`; with the pass's span and counted-call
    counts it gives ``trace.overhead_est_s``, an overhead estimate that does
    not use the pass's own timings.

    ``points`` is the number of sampled points the pass evaluated; it is the
    divisor of ``frame_calculus.geometry.builds_per_point`` unless the pass
    integrated a geodesic, in which case the divisor is the geodesic's
    right-hand-side evaluations (``nfev``) and only builds made inside
    ``integrate_geodesic`` count.
    """
    spans = tracer.by_name()
    counters = tracer.counters()
    mul = counters.get("jets.mul", [0] * 6)
    geodesic_nfev = sum(r[5]["nfev"] for r in
                        _solver_spans(tracer, "completeness_probe.integrate_geodesic"))
    if geodesic_nfev:
        builds = sum(1 for _, r in tracer.under("completeness_probe.integrate_geodesic")
                     if r[0] == "frame_calculus.init")
        builds_per_point = builds / geodesic_nfev
    else:
        builds = spans.get("frame_calculus.init", {}).get("calls", 0)
        builds_per_point = builds / points if points else 0.0
    widths = [r[5] for _, _, r, _ in tracer.spans() if r[0] == "frame_calculus.init"]
    by_thread = tracer.self_seconds_by_thread()
    main = threading.main_thread().name
    derived = {
        "mul_width": mul[_WIDTH] / mul[0] if mul[0] else 0.0,
        "mul_useful": mul[_USEFUL] / (DENSE_MULADDS * mul[_PAIRS]) if mul[_PAIRS] else 0.0,
        "field_points": sum(counters.get(k, [0] * 6)[_WIDTH]
                            for k in ("fields.analytic", "fields.grid")),
        "builds_per_point": builds_per_point,
        "geometry_width": sum(widths) / len(widths) if widths else 0.0,
        "solver_failures": sum(1 for _, _, r, _ in tracer.spans()
                               if r[0].endswith(".solve_ivp")
                               and (r[5] is None or r[5]["status"] < 0)),
    }
    run = {
        "traced_wall_s": traced_wall_s,
        "untraced_wall_s": untraced_wall_s,
        "overhead_s": traced_wall_s - untraced_wall_s,
        "overhead_est_s": (costs["span"] * sum(len(log.spans) for log in tracer.logs)
                           + costs["count"] * sum(c[0] for c in counters.values())),
        "main_self_s": by_thread.get(main, 0.0),
        "worker_self_s": sum(v for k, v in by_thread.items() if k != main),
    }
    out = {}
    for name, unit, _, source in LAYER_METRICS:
        kind = source[0]
        if kind == "counter":
            value = counters.get(source[1], [0] * 6)[source[2]]
        elif kind == "span":
            value = spans.get(source[1], {}).get(source[2], 0)
        elif kind == "run":
            value = run[source[1]]
        elif source[1].startswith("nfev:"):
            value = sum(r[5]["nfev"] for r in _solver_spans(tracer, source[1][5:]))
        else:
            value = derived[source[1]]
        out[name] = {"value": value, "unit": unit}
    return out
