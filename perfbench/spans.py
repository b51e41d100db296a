"""Span tracing from outside the library.

``Tracer.install()`` replaces every public function of the traced modules,
plus ``GuidingField.__init__`` and ``GuidingField.velocity``, with a wrapper
that records a span (name, start, end, parent). A function is replaced in
every ``pilotwave`` module namespace that holds it, because modules import
each other's functions by name (``scenarios`` calls its own binding of
``propagate``). ``uninstall()`` puts the originals back, so untraced and
traced passes can alternate in one process.

Spans stay in memory; ``layer_metrics()`` turns one pass worth of them into
the per-layer figures named in BENCHMARK.json.
"""

import inspect
import os
import sys
import time
from functools import wraps

TRACED_MODULES = ("scenarios", "schrodinger", "trajectories", "fields",
                  "sampling", "stats", "reconstruction", "classical", "io")

WARNING_CATEGORIES = ("AliasingWarning", "StepSizeWarning", "EdgeLeakWarning",
                      "UnwrapResidueWarning")

SCENARIOS = ("continuity-residual", "holland-nonuniqueness", "p2-divergence",
             "reconstruction-bundle", "semiclassical-sweep")


class Span:
    __slots__ = ("name", "start", "end", "parent", "outermost", "info")

    def __init__(self, name, parent, outermost):
        self.name = name
        self.parent = parent
        self.outermost = outermost
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


def _arguments(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _propagate_info(fn):
    bind = _arguments(fn)

    def info(args, kwargs, result):
        a = bind(args, kwargs)
        steps = int(a["cfg"].steps)
        return {"steps": steps, "point_steps": steps * a["psi0"].grid.size}
    return info


def _integrate_info(fn):
    bind = _arguments(fn)

    def info(args, kwargs, result):
        a = bind(args, kwargs)
        span = float(a["t1"]) - float(a["t0"])
        n = result.status.shape[0]
        if span <= 0 or n == 0:
            return {"member_steps": 0, "halted": 0}
        n_steps = max(1, int(round(span / float(a["dt"]))))
        dt_eff = span / n_steps
        halted = result.status == 1
        # a halted member attempted every step up to and including its halt step
        halt_steps = [int(round((h - float(a["t0"])) / dt_eff)) + 1
                      for h in result.halt_times[halted]]
        steps = n_steps * int(n - halted.sum()) + sum(halt_steps)
        return {"member_steps": steps, "halted": int(halted.sum())}
    return info


def _guide_info(fn):
    bind = _arguments(fn)
    return lambda args, kwargs, result: {
        "snapshots": len(bind(args, kwargs)["snapshots"])}


def _velocity_info(fn):
    def info(args, kwargs, result):
        return {"points": int(result[0].shape[0])}
    return info


def _dump_info(fn):
    bind = _arguments(fn)
    return lambda args, kwargs, result: {
        "bytes": os.path.getsize(bind(args, kwargs)["path"])}


def _scenario_info(fn):
    bind = _arguments(fn)
    return lambda args, kwargs, result: {
        "scenario": bind(args, kwargs)["cfg"]["scenario"]}


_INFO = {
    "schrodinger.propagate": _propagate_info,
    "trajectories.integrate_ensemble": _integrate_info,
    "trajectories.GuidingField": _guide_info,
    "trajectories.velocity": _velocity_info,
    "io.dump": _dump_info,
    "scenarios.run_scenario": _scenario_info,
}


class Tracer:
    """Records spans of wrapped library calls; one instance per run."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._open_by_name = {}
        self._installed = []

    def _wrap(self, name, fn):
        make_info = _INFO.get(name)
        info = make_info(fn) if make_info else None
        spans, stack, open_by_name = self.spans, self._stack, self._open_by_name

        @wraps(fn)
        def traced(*args, **kwargs):
            depth = open_by_name.get(name, 0)
            span = Span(name, stack[-1] if stack else None, depth == 0)
            spans.append(span)
            stack.append(span)
            open_by_name[name] = depth + 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                open_by_name[name] = depth
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        return traced

    def _targets(self):
        """(span name, original function, [(owner, attribute)]) per layer."""
        pkg = self.package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        out = []
        for short in TRACED_MODULES:
            mod = sys.modules[f"{pkg}.{short}"]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if short == "io" and attr.startswith("dump_"):
                    name = "io.dump"
                owners = [(m, a) for m in modules
                          for a, v in list(vars(m).items()) if v is fn]
                out.append((name, fn, owners))
        guide = sys.modules[f"{pkg}.trajectories"].GuidingField
        out.append(("trajectories.GuidingField", guide.__init__,
                    [(guide, "__init__")]))
        out.append(("trajectories.velocity", guide.velocity,
                    [(guide, "velocity")]))
        return out

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for name, fn, owners in self._targets():
            wrapper = self._wrap(name, fn)
            for owner, attr in owners:
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans, warning_counts, scale):
    """Per-layer figures for one traced pass (see BENCHMARK.json).

    Span durations are multiplied by ``scale``, the pass's factor from raw to
    reference seconds (see pace.py).
    """
    total = {}     # inclusive time of outermost spans, by name
    calls = {}
    self_s = {}
    child = {}
    for s in spans:
        if s.parent is not None:
            key = id(s.parent)
            child[key] = child.get(key, 0.0) + s.duration * scale
    info = {}
    per_scenario = {}
    for s in spans:
        d = s.duration * scale
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.outermost:
            total[s.name] = total.get(s.name, 0.0) + d
        self_s[s.name] = self_s.get(s.name, 0.0) + d - child.get(id(s), 0.0)
        if s.info:
            acc = info.setdefault(s.name, {})
            for k, v in s.info.items():
                if k == "scenario":
                    per_scenario[v] = per_scenario.get(v, 0.0) + d
                else:
                    acc[k] = acc.get(k, 0) + v

    def t(name):
        return total.get(name, 0.0)

    def n(name, key):
        return info.get(name, {}).get(key, 0)

    def ratio(a, b, unit=1.0):
        return a / b * unit if b else 0.0

    prop, vel = "schrodinger.propagate", "trajectories.velocity"
    integ = "trajectories.integrate_ensemble"
    points = n(vel, "points")
    # velocity points requested from inside integrate_ensemble only
    in_integrate = sum(s.info["points"] for s in spans
                       if s.name == vel and s.info and _inside(s, integ))
    m = {
        f"{prop}.s": t(prop),
        f"{prop}.calls": calls.get(prop, 0),
        f"{prop}.us_per_step": ratio(t(prop), n(prop, "steps"), 1e6),
        f"{prop}.ns_per_point_step": ratio(t(prop), n(prop, "point_steps"), 1e9),
        "schrodinger.continuity_residual.s": t("schrodinger.continuity_residual"),
        f"{vel}.s": t(vel),
        f"{vel}.calls": calls.get(vel, 0),
        f"{vel}.points": points,
        f"{vel}.us_per_call": ratio(t(vel), calls.get(vel, 0), 1e6),
        f"{vel}.ns_per_point": ratio(t(vel), points, 1e9),
        "trajectories.GuidingField.s": t("trajectories.GuidingField"),
        "trajectories.GuidingField.snapshots": n("trajectories.GuidingField",
                                                 "snapshots"),
        f"{integ}.self_s": self_s.get(integ, 0.0),
        f"{integ}.member_steps": n(integ, "member_steps"),
        "trajectories.points_per_member_step": ratio(
            in_integrate, n(integ, "member_steps")),
        "trajectories.halted_members": n(integ, "halted"),
        "fields.to_polar.s": t("fields.to_polar"),
        "fields.to_polar.calls": calls.get("fields.to_polar", 0),
        "sampling.born_sample.s": t("sampling.born_sample"),
        "stats.ks_statistic.s": t("stats.ks_statistic"),
        "stats.ks_statistic.calls": calls.get("stats.ks_statistic", 0),
        "stats.chi_square_gof.s": t("stats.chi_square_gof"),
        "reconstruction.build_bundle.s": t("reconstruction.build_bundle"),
        "reconstruction.polar_along_trajectory.self_s": self_s.get(
            "reconstruction.polar_along_trajectory", 0.0),
        "reconstruction.reconstruct_along_center.s": t(
            "reconstruction.reconstruct_along_center"),
        "classical.classical_trajectory.s": t("classical.classical_trajectory"),
        "classical.hj_residual.s": t("classical.hj_residual"),
        "classical.hj_residual.calls": calls.get("classical.hj_residual", 0),
        "io.dump.s": t("io.dump"),
        "io.dump.bytes": n("io.dump", "bytes"),
        "io.dump.mb_per_s": ratio(n("io.dump", "bytes"), t("io.dump"), 1e-6),
        "scenarios.run_scenario.self_s": self_s.get("scenarios.run_scenario",
                                                    0.0),
    }
    for name in SCENARIOS:
        m[f"scenarios.{name}.s"] = per_scenario.get(name, 0.0)
    for cat in WARNING_CATEGORIES:
        m[f"warnings.{cat}.count"] = warning_counts.get(cat, 0)
    m["warnings.other.count"] = sum(
        c for cat, c in warning_counts.items() if cat not in WARNING_CATEGORIES)
    return m


def _inside(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False
