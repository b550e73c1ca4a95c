"""Span tracer that instruments `warpconv` from outside, for the traced run.

`install()` wraps the public functions and methods of each warpconv module
(plus the `verify` section helpers and the two scipy eigensolvers as
`spectra` calls them) so that every call records a span: name, start, end,
parent span and op id.  Spans live in flat arrays in memory and are written
out once, at the end.  `QC` arithmetic in `scalars` is only counted: a span
per exact scalar op would swamp the run.

`Tracer.metrics()` turns the spans into the per-layer metrics of
perfbench/NOTES.md.  A layer's self time is its span time minus the time
covered by its direct child spans; "outermost" sums count a span only when
no ancestor belongs to the same group, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

from workloads import VERIFY_SECTIONS

LAYERS = ("cli", "parsing", "scalars", "coords", "operators", "deform",
          "gauge", "models", "verify", "spectra")
SELF_TIME_LAYERS = tuple(layer for layer in LAYERS if layer != "scalars")
SPAN_DUNDERS = ("__mul__",)
QC_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__",
          "conjugate", "scale")
EIGENSOLVERS = (("scipy.linalg", "eigh"), ("scipy.sparse.linalg", "eigsh"))

# Metric groups: metric stem -> span names (outermost calls are counted).
GROUPS = {
    "parsing.parse": ("parsing.parse",),
    "coords.mul": ("coords.CoordFunction.__mul__",),
    "coords.partial": ("coords.CoordFunction.partial",),
    "coords.equality": ("coords.CoordFunction.is_zero",
                        "coords.CoordFunction.is_zero_detailed",
                        "coords.CoordFunction.equivalent"),
    "coords.evaluate_float": ("coords.CoordFunction.evaluate_float",),
    "operators.mul": ("operators.OperatorExpr.__mul__",),
    "operators.commutator": ("operators.OperatorExpr.commutator",),
    "operators.equals": ("operators.OperatorExpr.equals",
                         "operators.OperatorExpr.equals_detailed"),
    "deform.deform_operator": ("deform.deform_operator",),
    "deform.momentum_shift": ("deform.momentum_shift",),
    "gauge.field_strength": ("gauge.field_strength",),
    "gauge.extract": ("gauge.extract_gauge_field",),
    "gauge.bianchi": ("gauge.bianchi_check",),
    "models.get_preset": ("models.get_preset",),
    "spectra.discretize": ("spectra.discretize",),
    "spectra.eigenvalues": ("spectra.eigenvalues",),
    "spectra.holonomy": ("spectra.holonomy",),
    "eigensolve": tuple(f"{mod}.{fn}" for mod, fn in EIGENSOLVERS),
    "equality_points": ("coords.CoordFunction.evaluate",
                        "coords.CoordFunction._evaluate_mp"),
}
for _section, (_, _helper) in VERIFY_SECTIONS.items():
    GROUPS[f"verify.section.{_section}"] = (f"verify.{_helper}",)


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = ["cli.import_s", "cli.import_scipy_s", "cli.main_self_s",
             "parsing.parse_calls", "parsing.parse_s", "scalars.qc_ops",
             "coords.mul_calls", "coords.mul_s", "coords.partial_calls",
             "coords.equality_calls", "coords.equality_s",
             "coords.points_per_equality", "coords.evaluate_float_calls",
             "coords.evaluate_float_s", "operators.mul_calls",
             "operators.mul_s", "operators.commutator_calls",
             "operators.equals_calls", "operators.equals_s",
             "operators.peak_terms", "deform.deform_operator_calls",
             "deform.deform_operator_s", "deform.momentum_shift_calls",
             "deform.momentum_shift_s", "deform.momentum_shift_distinct_ratio",
             "gauge.field_strength_s", "gauge.extract_s", "gauge.bianchi_s",
             "models.get_preset_calls", "models.get_preset_s"]
    names += [f"verify.section.{s}_s" for s in VERIFY_SECTIONS]
    names += ["spectra.discretize_s", "spectra.sampling_s",
              "spectra.assembly_s", "spectra.eigensolve_s",
              "spectra.certify_s", "spectra.dense_solves",
              "spectra.sparse_solves", "spectra.unknowns", "spectra.nnz",
              "spectra.max_residual", "spectra.holonomy_s"]
    names += [f"{layer}.self_s" for layer in SELF_TIME_LAYERS]
    names += ["trace.overhead_ratio"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "coords.points_per_equality":
        return "points"
    if name == "operators.peak_terms":
        return "terms"
    if name == "spectra.max_residual":
        return "norm"
    return "count"


class Tracer:
    """In-memory span store plus the counters the metrics need."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.qc_ops = [0]
        self.unknowns = 0
        self.nnz = 0
        self.max_residual = 0.0
        self.peak_terms = 0
        self.shift_specs: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, observe=None):
        """`fn` wrapped to record one span per call."""
        nid = self._name_id(name)
        names, parent, ops = self.name, self.parent, self.op
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(start)
            names.append(nid)
            parent.append(stack[-1])
            ops.append(tracer.op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def counted(self, fn):
        box = self.qc_ops

        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- observers: values the spans alone do not carry -------------------

    def _observe_eigenvalues(self, args, result):
        matrix = args[0]
        self.unknowns += matrix.shape[0]
        self.nnz += matrix.nnz
        self.max_residual = max([self.max_residual, *result.residuals])

    def _observe_operator_mul(self, args, result):
        terms = sum(len(f.terms) for f in result.terms.values())
        self.peak_terms = max(self.peak_terms, terms)

    def _observe_momentum_shift(self, args, result):
        self.shift_specs.add(args[0])

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines: a header, then one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["id", "parent", "op", "name",
                                            "start", "end"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{i},{self.parent[i]},{self.op[i]},"
                         f"{self.name[i]},{self.start[i]!r},{self.end[i]!r}]\n")

    def metrics(self) -> dict[str, float]:
        n = len(self.start)
        names, parent, start, end = self.names, self.parent, self.start, self.end
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]

        # Bit g of bits[name] marks membership of metric group g; mask[i]
        # holds the groups of span i and all its ancestors.
        groups = list(GROUPS)
        bits = [0] * len(names)
        for g, stem in enumerate(groups):
            for span_name in GROUPS[stem]:
                if span_name in self._ids:
                    bits[self._ids[span_name]] |= 1 << g
        bit = {stem: 1 << g for g, stem in enumerate(groups)}
        calls = dict.fromkeys(groups, 0)
        seconds = dict.fromkeys(groups, 0.0)
        sampling = eigensolve = 0.0
        points = dense = sparse = 0
        eigh_id = self._ids.get("scipy.linalg.eigh", -1)
        in_discretize, in_eigenvalues = bit["spectra.discretize"], bit["spectra.eigenvalues"]
        in_equality = bit["coords.equality"]
        evaluate_float = bit["coords.evaluate_float"]
        solver, eq_points = bit["eigensolve"], bit["equality_points"]
        mask = [0] * n
        layer_self = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
        name_layer = [nm.split(".", 1)[0] for nm in names]
        name_self = [0.0] * len(names)
        for i in range(n):
            nid = self.name[i]
            p = parent[i]
            above = mask[p] if p >= 0 else 0
            own = bits[nid]
            mask[i] = above | own
            name_self[nid] += dur[i] - child[i]
            new = own & ~above
            if not new:
                continue
            for g, stem in enumerate(groups):
                if new >> g & 1:
                    calls[stem] += 1
                    seconds[stem] += dur[i]
            if new & evaluate_float and above & in_discretize:
                sampling += dur[i]
            if new & solver and above & in_eigenvalues:
                eigensolve += dur[i]
                if nid == eigh_id:
                    dense += 1
                else:
                    sparse += 1
            if own & eq_points and above & in_equality:
                points += 1
        for nid, layer in enumerate(name_layer):
            if layer in layer_self:
                layer_self[layer] += name_self[nid]

        def self_of(span_name: str) -> float:
            nid = self._ids.get(span_name)
            return name_self[nid] if nid is not None else 0.0

        m: dict[str, float] = {"cli.main_self_s": self_of("cli.main")}
        for stem in ("parsing.parse", "coords.mul", "coords.equality",
                     "coords.evaluate_float", "operators.mul",
                     "operators.equals", "deform.deform_operator",
                     "deform.momentum_shift", "models.get_preset"):
            m[f"{stem}_calls"] = calls[stem]
            m[f"{stem}_s"] = seconds[stem]
        m["coords.partial_calls"] = calls["coords.partial"]
        m["operators.commutator_calls"] = calls["operators.commutator"]
        m["scalars.qc_ops"] = self.qc_ops[0]
        m["coords.points_per_equality"] = (
            points / calls["coords.equality"] if calls["coords.equality"] else 0.0)
        m["operators.peak_terms"] = self.peak_terms
        shifts = calls["deform.momentum_shift"]
        m["deform.momentum_shift_distinct_ratio"] = (
            len(self.shift_specs) / shifts if shifts else 0.0)
        m["gauge.field_strength_s"] = seconds["gauge.field_strength"]
        m["gauge.extract_s"] = seconds["gauge.extract"]
        m["gauge.bianchi_s"] = seconds["gauge.bianchi"]
        for section, (_, helper) in VERIFY_SECTIONS.items():
            # A renamed helper was never wrapped: its metric reads as missing.
            if f"verify.{helper}" in self._ids:
                m[f"verify.section.{section}_s"] = seconds[f"verify.section.{section}"]
        m["spectra.discretize_s"] = seconds["spectra.discretize"]
        m["spectra.sampling_s"] = sampling
        m["spectra.assembly_s"] = self_of("spectra.discretize")
        m["spectra.eigensolve_s"] = eigensolve
        m["spectra.certify_s"] = self_of("spectra.eigenvalues")
        m["spectra.dense_solves"] = dense
        m["spectra.sparse_solves"] = sparse
        m["spectra.unknowns"] = self.unknowns
        m["spectra.nnz"] = self.nnz
        m["spectra.max_residual"] = self.max_residual
        m["spectra.holonomy_s"] = seconds["spectra.holonomy"]
        for layer, value in layer_self.items():
            m[f"{layer}.self_s"] = value
        return m


def _public_functions(module):
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_")):
            yield name, obj


def _wrap_class(tracer: Tracer, layer: str, cls, replaced: dict) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in SPAN_DUNDERS:
            continue
        label = f"{layer}.{cls.__name__}.{name}"
        if isinstance(attr, staticmethod):
            wrapped = tracer.span(label, attr.__func__)
            replaced[id(attr.__func__)] = wrapped
            setattr(cls, name, staticmethod(wrapped))
        elif inspect.isfunction(attr):
            observe = (tracer._observe_operator_mul
                       if label == "operators.OperatorExpr.__mul__" else None)
            setattr(cls, name, tracer.span(label, attr, observe))


def install() -> Tracer:
    """Instrument the imported warpconv package; returns the tracer."""
    tracer = Tracer()
    observers = {
        "spectra.eigenvalues": tracer._observe_eigenvalues,
        "deform.momentum_shift": tracer._observe_momentum_shift,
    }
    modules = {layer: importlib.import_module(f"warpconv.{layer}")
               for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, module in modules.items():
        if layer == "scalars":
            for name in QC_OPS:
                setattr(module.QC, name, tracer.counted(getattr(module.QC, name)))
            continue
        for name, fn in _public_functions(module):
            label = f"{layer}.{name}"
            replaced[id(fn)] = tracer.span(label, fn, observers.get(label))
        for obj in list(vars(module).values()):
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                _wrap_class(tracer, layer, obj, replaced)
    for _, helper in VERIFY_SECTIONS.values():
        fn = getattr(modules["verify"], helper, None)
        if fn is not None:
            replaced[id(fn)] = tracer.span(f"verify.{helper}", fn)
    coord = modules["coords"].CoordFunction
    if hasattr(coord, "_evaluate_mp"):
        coord._evaluate_mp = tracer.span("coords.CoordFunction._evaluate_mp",
                                         coord._evaluate_mp)
    for mod_name, fn_name in EIGENSOLVERS:
        solver_module = importlib.import_module(mod_name)
        setattr(solver_module, fn_name,
                tracer.span(f"{mod_name}.{fn_name}",
                            getattr(solver_module, fn_name)))

    # Point every reference in the package (imported names, and values of
    # module-level dicts such as cli.COMMANDS and models.PRESETS) at the
    # wrappers.
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "warpconv" and not mod_name.startswith("warpconv."):
            continue
        for name, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, name, replaced[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replaced:
                        value[key] = replaced[id(item)]
    return tracer
