"""Span tracing of the gjet layers, installed from outside the package.

`install` replaces the public functions of the traced modules, and the
public methods of every built-in generating-function class that defines
them, with wrappers that record one span per call.  A wrapper is set
wherever a caller looks the name up: on the defining module and on every
gjet module that imported the function by name (``semidiscrete`` binds
``support_check`` and ``values_matrix`` from ``gconvex``, for example).

A span is ``[name, start, end, parent, rows, failed, info]``.  Spans stay
in memory and are written out once, when the traced process ends.
`aggregate` turns the spans of one or more processes into layer totals.

Everything runs in one thread, so time waiting on a layer is zero by
construction and a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("cli", "semidiscrete", "gconvex", "genfun", "conditions", "madiag")
GF_CLASSES = ("GeneratingFunction", "QuadraticOT", "ParallelBeam",
              "PointSourcePlane")

# Methods grouped under one span name.  A call nested directly in a span of
# the same name (``value`` -> ``value_batch``) is one logical call and is
# not recorded again.
METHOD_SPANS = {
    "value": "genfun.value",
    "value_batch": "genfun.value",
    "bundle": "genfun.bundle",
    "bundle_batch": "genfun.bundle",
    "admissible_pair": "genfun.admissibility",
    "admissible_pair_batch": "genfun.admissibility",
    "z_interval": "genfun.admissibility",
    "z_interval_batch": "genfun.admissibility",
}
KERNELS = ("genfun.bundle", "genfun.value")
INVERSE_MAPS = ("genfun.dual_H", "genfun.forward_YZ", "genfun.map_X")
CHECKS = ("conditions.check_injectivity", "conditions.check_G2",
          "conditions.check_G3_family", "conditions.check_G4w",
          "conditions.check_G5")


def _rows_of(name, result):
    if name == "genfun.bundle":
        return int(np.size(result.value))
    if name == "genfun.forward_yz_batch":
        return 0 if result is None else int(np.size(result[1]))
    if name in ("genfun.value", "genfun.h_batch"):
        return int(np.size(result))
    return 0


def _solve_info(state):
    hist = list(state.residual_history)
    best = min(range(len(hist)), key=hist.__getitem__)
    return {"sweeps": len(hist) - 1, "wasted_sweeps": len(hist) - 1 - best,
            "residual": float(state.residual)}


def _field_info(field):
    return {"masked": int(field.masked_count), "evaluated": int(field.mask.sum())}


def _result_info(name, result):
    if name == "semidiscrete.solve":
        return _solve_info(result)
    if name == "semidiscrete.range_diagnostic":
        return {"interfaces_checked": int(result.details["interfaces_checked"])}
    if name in CHECKS:
        return {"samples_used": int(result.samples_used),
                "skipped": int(result.details.get("skipped", 0))}
    if name in ("madiag.ma_residual", "madiag.dual_residual"):
        return _field_info(result)
    if name == "madiag.ellipticity_check":
        return _field_info(result[0])
    return None


def _error_info(name, exc):
    best = getattr(exc, "best", None)
    if name == "semidiscrete.solve" and best is not None:
        return _solve_info(best)
    return None


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._failures = ()

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if name in ("madiag.ma_residual", "madiag.pje_residual"):
                args, kwargs = tracer._wrap_psi(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer._failures as exc:
                rec[5] = 1
                rec[6] = _error_info(name, exc)
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            rec[4] = _rows_of(name, result)
            rec[6] = _result_info(name, result)
            if name == "genfun.piece_values_fn":
                result = tracer.wrap("genfun.value", result)
            return result

        return traced

    def _wrap_psi(self, args, kwargs):
        if "psi" in kwargs:
            kwargs = dict(kwargs, psi=self.wrap("madiag.psi", kwargs["psi"]))
        elif len(args) > 2:
            args = args[:2] + (self.wrap("madiag.psi", args[2]),) + args[3:]
        return args, kwargs

    def install(self):
        """Wrap the traced layers of the imported gjet package."""
        errors = importlib.import_module("gjet.errors")
        self._failures = (errors.GjetError, ValueError)
        mods = {m: importlib.import_module("gjet." + m) for m in MODULES}
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        # rebind every by-name import of a wrapped function
        for mod in [importlib.import_module("gjet"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])
        genfun = mods["genfun"]
        for cls_name in GF_CLASSES:
            cls = getattr(genfun, cls_name)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                span = METHOD_SPANS.get(attr, f"genfun.{attr}")
                setattr(cls, attr, self.wrap(span, obj))

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans), fh, separators=(",", ":"))


class Totals:
    """Per-span-name totals over the spans of one or more processes."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_s = Counter()
        self.rows = Counter()
        self.failed = Counter()
        self.info = defaultdict(Counter)   # name -> summed result info
        self.info_calls = Counter()        # spans that carried info
        self.kernel_evals = Counter()      # kernel calls per inverse map
        self.import_s = []

    def add(self, doc):
        spans = doc["spans"]
        if "import_s" in doc:
            self.import_s.append(doc["import_s"])
        child = [0.0] * len(spans)
        for name, start, end, parent, _rows, _failed, _info in spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, start, end, parent, rows, failed, info) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.total[name] += dur
            self.self_s[name] += dur - child[k]
            self.rows[name] += rows
            self.failed[name] += failed
            if info:
                self.info_calls[name] += 1
                self.info[name].update(info)
            if name in KERNELS:
                p = parent
                while p >= 0 and spans[p][0] not in INVERSE_MAPS:
                    p = spans[p][3]
                if p >= 0:
                    self.kernel_evals[spans[p][0]] += 1


def aggregate(docs) -> Totals:
    totals = Totals()
    for doc in docs:
        totals.add(doc)
    return totals


def layer_metrics(t: Totals, passes: int) -> dict:
    """Per-layer metric values; totals are reported per pass."""

    def per(x):
        return x / passes

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {}
    m["cli.import_s"] = ratio(sum(t.import_s), len(t.import_s))
    m["cli.resolve_config_s"] = per(t.total["cli.resolve_config"])
    m["cli.build_problem_s"] = per(t.total["cli.build_problem"])
    for cmd in ("solve", "transform", "report", "residual", "check"):
        m[f"cli.{cmd}.self_s"] = per(t.self_s[f"cli.cmd_{cmd}"])

    sd = "semidiscrete.solve"
    m["semidiscrete.validate_problem_s"] = per(t.total["semidiscrete.validate_problem"])
    m["semidiscrete.solve.self_s"] = per(t.self_s[sd])
    m["semidiscrete.solve.sweeps"] = per(t.info[sd]["sweeps"])
    m["semidiscrete.solve.ms_per_sweep"] = ratio(t.total[sd], t.info[sd]["sweeps"], 1e3)
    m["semidiscrete.solve.wasted_sweeps"] = per(t.info[sd]["wasted_sweeps"])
    # mean over the solves that returned a state (or NoConvergence.best)
    m["semidiscrete.solve.residual"] = ratio(t.info[sd]["residual"],
                                             t.info_calls[sd])
    rd = "semidiscrete.range_diagnostic"
    m["semidiscrete.range_diagnostic.self_s"] = per(t.self_s[rd])
    m["semidiscrete.range_diagnostic.interfaces_checked"] = per(
        t.info[rd]["interfaces_checked"])

    sc = "gconvex.support_check"
    m["gconvex.support_check.calls"] = per(t.calls[sc])
    m["gconvex.support_check.ms_per_call"] = ratio(t.total[sc], t.calls[sc], 1e3)
    m["gconvex.support_check.self_s"] = per(t.self_s[sc])
    m["gconvex.support_check.failed"] = per(t.failed[sc])
    m["gconvex.interface_point.calls"] = per(t.calls["gconvex.interface_point"])
    m["gconvex.interface_point.self_s"] = per(t.self_s["gconvex.interface_point"])
    m["gconvex.subdifferential.calls"] = per(t.calls["gconvex.subdifferential"])
    m["gconvex.eval_piecewise.calls"] = per(t.calls["gconvex.eval_piecewise"])
    m["gconvex.values_matrix.calls"] = per(t.calls["gconvex.values_matrix"])
    m["gconvex.values_matrix.s"] = per(t.total["gconvex.values_matrix"])
    for fn in ("g_transform", "dual_transform", "cell_masses", "interface_mask"):
        m[f"gconvex.{fn}_s"] = per(t.total[f"gconvex.{fn}"])

    for grp in ("bundle", "value"):
        n = f"genfun.{grp}"
        m[f"{n}.calls"] = per(t.calls[n])
        m[f"{n}.rows"] = per(t.rows[n])
        m[f"{n}.self_s"] = per(t.self_s[n])
    m["genfun.bundle.rows_per_call"] = ratio(t.rows["genfun.bundle"],
                                             t.calls["genfun.bundle"])
    m["genfun.value.ns_per_row"] = ratio(t.total["genfun.value"],
                                         t.rows["genfun.value"], 1e9)
    # computed from array sizes (8-byte doubles out), not measured traffic
    m["genfun.value.mb_computed"] = per(8e-6 * t.rows["genfun.value"])
    m["genfun.admissibility.calls"] = per(t.calls["genfun.admissibility"])
    m["genfun.admissibility.self_s"] = per(t.self_s["genfun.admissibility"])
    for n in INVERSE_MAPS:
        m[f"{n}.calls"] = per(t.calls[n])
        m[f"{n}.us_per_call"] = ratio(t.total[n], t.calls[n], 1e6)
        m[f"{n}.kernel_evals_per_call"] = ratio(t.kernel_evals[n], t.calls[n])
        m[f"{n}.fail_frac"] = ratio(t.failed[n], t.calls[n])
    for n in ("genfun.h_batch", "genfun.forward_yz_batch"):
        m[f"{n}.ns_per_point"] = ratio(t.total[n], t.rows[n], 1e9)
    m["genfun.matrix_A.calls"] = per(t.calls["genfun.matrix_A"])
    m["genfun.dual_Astar_Bstar.calls"] = per(t.calls["genfun.dual_Astar_Bstar"])

    for n in CHECKS:
        m[f"{n}.s"] = per(t.total[n])
    m["conditions.mtw_tensor.calls"] = per(t.calls["conditions.mtw_tensor"])
    m["conditions.mtw_tensor.us_per_call"] = ratio(
        t.total["conditions.mtw_tensor"], t.calls["conditions.mtw_tensor"], 1e6)
    samples = sum(t.info[n]["samples_used"] for n in CHECKS)
    m["conditions.samples_used"] = per(samples)
    m["conditions.skipped"] = per(sum(t.info[n]["skipped"] for n in CHECKS))
    m["conditions.ms_per_sample"] = ratio(sum(t.total[n] for n in CHECKS), samples, 1e3)

    m["madiag.ma_residual.self_s"] = per(t.self_s["madiag.ma_residual"])
    m["madiag.psi.calls"] = per(t.calls["madiag.psi"])
    dr = "madiag.dual_residual"
    m["madiag.dual_residual.self_s"] = per(t.self_s[dr])
    nodes = t.info[dr]["masked"] + t.info[dr]["evaluated"]
    m["madiag.dual_residual.us_per_node"] = ratio(t.total[dr], nodes, 1e6)
    m["madiag.ellipticity_check_s"] = per(t.total["madiag.ellipticity_check"])
    fields = ("madiag.ma_residual", "madiag.dual_residual")
    masked = sum(t.info[n]["masked"] for n in fields)
    m["madiag.masked_frac"] = ratio(masked, masked + sum(t.info[n]["evaluated"]
                                                         for n in fields))
    return m


def count_metrics(t: Totals) -> dict:
    """Counts that must repeat exactly between two traced runs of one input."""
    out = {f"{n}.calls": c for n, c in sorted(t.calls.items())}
    out.update({f"{n}.rows": r for n, r in sorted(t.rows.items()) if r})
    out.update({f"{n}.kernel_evals": c for n, c in sorted(t.kernel_evals.items())})
    for n in ("semidiscrete.solve", "semidiscrete.range_diagnostic", *CHECKS):
        for key in ("sweeps", "interfaces_checked", "samples_used", "skipped"):
            if key in t.info.get(n, {}):
                out[f"{n}.{key}"] = t.info[n][key]
    return out
