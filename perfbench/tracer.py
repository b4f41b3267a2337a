"""Spans around the calls into each gfloquet module, recorded from outside.

`instrument(tracer)` rebinds the public functions and callback methods listed
below, in every loaded gfloquet module that refers to them, to wrappers that
record a span (name, start, end, parent, job id) and restores the originals
on exit. The library itself is not modified. Spans stay in memory;
`layer_metrics` turns them into per-module numbers. Single-threaded use only
(the benchmark runs band scans with one job).
"""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import sys
import time
from collections import defaultdict

# (span name, module, attribute); span names are "<module>.<function>"
FUNCTIONS = (
    ("integrate.propagate_history", "gfloquet.integrate", "propagate_history"),
    ("system.validate_system", "gfloquet.system", "validate_system"),
    ("grid.interp_uniform", "gfloquet.grid", "interp_uniform"),
    ("monodromy.build_monodromy", "gfloquet.monodromy", "build_monodromy"),
    ("monodromy.floquet_spectrum", "gfloquet.monodromy", "floquet_spectrum"),
    ("monodromy.extract_mode", "gfloquet.monodromy", "extract_mode"),
    ("monodromy.verify_floquet_form", "gfloquet.monodromy", "verify_floquet_form"),
    ("perturbation.linearize", "gfloquet.perturbation", "linearize"),
    ("perturbation.stability_verdict", "gfloquet.perturbation", "stability_verdict"),
    ("bloch.validate_potential", "gfloquet.bloch", "validate_potential"),
    ("bloch.band_scan", "gfloquet.bloch", "band_scan"),
    ("bloch.propagating_multipliers", "gfloquet.bloch", "propagating_multipliers"),
    ("bloch.bloch_multipliers_collocation", "gfloquet.bloch", "bloch_multipliers_collocation"),
    ("bloch.cell_collocation_matrices", "gfloquet.bloch", "cell_collocation_matrices"),
    ("bloch.local_cell_monodromy", "gfloquet.bloch", "local_cell_monodromy"),
    ("bloch.detect_interior_extrema", "gfloquet.bloch", "detect_interior_extrema"),
    ("cli.main", "gfloquet.cli", "main"),
)
# (span name, module, class, method): per-call system and potential callbacks
METHODS = (
    ("system.eval_coefficient", "gfloquet.system", "LinearMemorySystem", "eval_coefficient"),
    ("system.eval_tap", "gfloquet.system", "LinearMemorySystem", "eval_tap"),
    ("system.eval_kernel", "gfloquet.system", "LinearMemorySystem", "eval_kernel"),
    ("bloch.eval_local", "gfloquet.bloch", "NonlocalPotential1D", "eval_local"),
)
# cli has one traced function, so its self time is cli.main.self_s
MODULES = ("integrate", "system", "grid", "monodromy", "perturbation", "bloch")


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, job, attrs];
    parent is the index of the enclosing span or -1."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.job = None
        self._stack = []

    def wrap(self, name, fn, on_return=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, self.clock(), None, parent, self.job, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    span[5] = on_return(args, kwargs, result)
                return result
            finally:
                self._stack.pop()
                span[2] = self.clock()

        traced.__wrapped__ = fn
        return traced


def _propagate_attrs(signature):
    def attrs(args, kwargs, hist):
        n_steps = signature.bind(*args, **kwargs).arguments["n_steps"]
        return {"column_steps": int(n_steps) * int(hist.shape[2])}
    return attrs


def _jacobians_traced(tracer, linearize):
    """`linearize` whose result has its Jacobian callbacks wrapped as
    `perturbation.jacobian` spans."""
    def traced_linearize(*args, **kwargs):
        system = linearize(*args, **kwargs)
        jac = lambda fn: tracer.wrap("perturbation.jacobian", fn)
        taps = tuple(dataclasses.replace(t, coefficient=jac(t.coefficient))
                     for t in system.delay_taps)
        kernel = jac(system.kernel) if system.kernel is not None else None
        return dataclasses.replace(system, coefficient=jac(system.coefficient),
                                   delay_taps=taps, kernel=kernel)
    return traced_linearize


def _hooks(originals):
    sig = inspect.signature(originals["integrate.propagate_history"])
    return {
        "integrate.propagate_history": _propagate_attrs(sig),
        "monodromy.build_monodromy": lambda a, k, op: {"size": op.size},
        "monodromy.floquet_spectrum": lambda a, k, dec: {
            "retained": int(dec.p_retained), "computed": len(dec.multipliers)},
        "bloch.bloch_multipliers_collocation": lambda a, k, mus: {"computed": len(mus)},
        "bloch.local_cell_monodromy": lambda a, k, u: {"computed": u.shape[0]},
        "bloch.propagating_multipliers": lambda a, k, ps: {
            "confirmed": len(ps.all_multipliers)},
    }


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind every traced name in the loaded gfloquet modules for the duration."""
    originals = {name: getattr(importlib.import_module(mod), attr)
                 for name, mod, attr in FUNCTIONS}
    hooks = _hooks(originals)
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "gfloquet" or key.startswith("gfloquet."))]
    restore = []
    for name, _, _ in FUNCTIONS:
        orig = originals[name]
        target = _jacobians_traced(tracer, orig) if name == "perturbation.linearize" else orig
        wrapper = tracer.wrap(name, target, hooks.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    restore.append((module, key, orig))
                    setattr(module, key, wrapper)
    for name, mod, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(mod), cls_name)
        orig = cls.__dict__[attr]
        restore.append((cls, attr, orig))
        setattr(cls, attr, tracer.wrap(name, orig))
    try:
        yield tracer
    finally:
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, child)]


def layer_metrics(spans) -> dict:
    """Per-module numbers of one traced repetition."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    module_self = defaultdict(float)
    for span, s in zip(spans, selfs):
        name = span[0]
        calls[name] += 1
        total[name] += span[2] - span[1]
        own[name] += s
        module_self[name.split(".")[0]] += s

    def attr_sum(name, key):
        return sum(s[5][key] for s in spans if s[0] == name and s[5])

    children = defaultdict(list)
    for span in spans:
        children[span[3]].append(span)
    # the first build inside floquet_spectrum is the operator, the second the
    # refined-grid one; the first solve inside propagating_multipliers is the
    # coarse grid whose multipliers the fine grid confirms
    sizes = {"operator": 0, "refined": 0}
    coarse_total = 0
    for i, span in enumerate(spans):
        kids = children[i]
        if span[0] == "monodromy.floquet_spectrum":
            builds = [s[5]["size"] for s in kids if s[0] == "monodromy.build_monodromy"]
            for key, size in zip(("operator", "refined"), builds):
                sizes[key] = max(sizes[key], size)
        elif span[0] == "bloch.propagating_multipliers":
            coarse_total += next((s[5]["computed"] for s in kids if s[5]), 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "integrate.propagate_history.self_s": own["integrate.propagate_history"],
        "integrate.propagate_history.calls": calls["integrate.propagate_history"],
        "integrate.column_steps": attr_sum("integrate.propagate_history", "column_steps"),
        "system.eval_kernel.calls": calls["system.eval_kernel"],
        "system.eval_coefficient.calls": calls["system.eval_coefficient"],
        "system.eval_tap.calls": calls["system.eval_tap"],
        "system.callback_s": sum(total[f"system.{m}"] for m in
                                 ("eval_coefficient", "eval_tap", "eval_kernel")),
        "system.validate_system.s": total["system.validate_system"],
        "grid.interp_uniform.calls": calls["grid.interp_uniform"],
        "grid.interp_uniform.s": total["grid.interp_uniform"],
        "monodromy.build_monodromy.s": total["monodromy.build_monodromy"],
        "monodromy.eigensolve_s": own["monodromy.floquet_spectrum"],
        "monodromy.verify_floquet_form.self_s": own["monodromy.verify_floquet_form"],
        "monodromy.extract_mode.s": total["monodromy.extract_mode"],
        "monodromy.operator_size": sizes["operator"],
        "monodromy.refined_size": sizes["refined"],
        "monodromy.retained_ratio": ratio(attr_sum("monodromy.floquet_spectrum", "retained"),
                                          attr_sum("monodromy.floquet_spectrum", "computed")),
        "perturbation.jacobian.calls": calls["perturbation.jacobian"],
        "perturbation.jacobian.s": total["perturbation.jacobian"],
        "perturbation.stability_verdict.s": total["perturbation.stability_verdict"],
        "bloch.cell_collocation_matrices.s": total["bloch.cell_collocation_matrices"],
        "bloch.cell_collocation_matrices.calls": calls["bloch.cell_collocation_matrices"],
        "bloch.pencil_eig_s": own["bloch.bloch_multipliers_collocation"],
        "bloch.confirm_s": own["bloch.propagating_multipliers"],
        "bloch.confirmed_ratio": ratio(attr_sum("bloch.propagating_multipliers", "confirmed"),
                                       coarse_total),
        "bloch.local_cell_monodromy.s": total["bloch.local_cell_monodromy"],
        "bloch.eval_local.calls": calls["bloch.eval_local"],
        "bloch.detect_interior_extrema.s": total["bloch.detect_interior_extrema"],
        "cli.main.self_s": own["cli.main"],
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = module_self[module]
    return metrics
