"""In-memory spans around calls into torusdyn's layers.

The tracer wraps public functions under the names their callers look up:
every module attribute of the loaded ``torusdyn`` modules that is the
function (so ``survey.classify`` is caught as well as
``splitting.classify``), and the class attribute for methods.  No file of
the package changes.  A span records its name, its parent span, its start
and end, and a work count taken from the call (rows, points, candidates).
Spans stay in memory; ``write_jsonl`` stores them when the run ends.

A layer's self time is the length of its spans minus the time covered by
their child spans and by the speed probes (refclock.py) that ran inside
them.  Calls are only recorded while ``active`` is true, so
set-up and correctness checks outside the timed operation leave no spans.
"""
from __future__ import annotations

import bisect
import functools
import importlib
import json
import sys
from time import perf_counter

import numpy as np


def _rows(array) -> int:
    """Batch rows of an (..., n) array: the product of its leading axes."""
    shape = np.shape(array)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


# (module, attribute or Class.method, span name, work count or None).  The
# span name drops the package prefix; both directions of the difference
# propagation share one name, so its rows count all orbit-step work.
TARGETS = (
    ("intmatrix", "IntMatrix.char_poly", "intmatrix.IntMatrix.char_poly", None),
    ("zfactor", "factor_z", "zfactor.factor_z", None),
    ("zfactor", "is_irreducible_z", "zfactor.is_irreducible_z", None),
    ("intpoly", "count_unitary_roots", "intpoly.count_unitary_roots", None),
    ("splitting", "unit_disk_root_count", "splitting.unit_disk_root_count", None),
    ("splitting", "classify", "splitting.classify", None),
    ("lattice", "invariant_factors", "lattice.invariant_factors", None),
    ("survey", "classify_entry", "survey.classify_entry", None),
    ("splitting", "compute_splitting", "splitting.compute_splitting", None),
    ("splitting", "adapted_norm", "splitting.adapted_norm", None),
    ("pseudo_anosov", "pseudo_anosov_subspace", "pseudo_anosov.pseudo_anosov_subspace", None),
    ("diophantine", "lattice_ball", "diophantine.lattice_ball",
     lambda args, kwargs, out: int(out.norms.size)),
    ("diophantine", "center_norm_minimum", "diophantine.center_norm_minimum", None),
    ("diophantine", "badly_approximable_search_dim4",
     "diophantine.badly_approximable_search_dim4", None),
    ("cli", "cmd_dioph", "cli.cmd_dioph", None),
    ("manifolds", "LeafSolver.leaf_points", "manifolds.LeafSolver.leaf_points",
     lambda args, kwargs, out: _rows(_arg(args, kwargs, 3, "params"))),
    ("manifolds", "LeafSolver.intersection_batch", "manifolds.LeafSolver.intersection_batch",
     lambda args, kwargs, out: _rows(np.atleast_2d(_arg(args, kwargs, 1, "xs")))),
    ("perturbed", "PerturbedMap.diff_apply", "perturbed.PerturbedMap.diff_apply",
     lambda args, kwargs, out: _rows(_arg(args, kwargs, 2, "delta"))),
    ("perturbed", "PerturbedMap.diff_apply_inverse", "perturbed.PerturbedMap.diff_apply",
     lambda args, kwargs, out: _rows(_arg(args, kwargs, 2, "delta"))),
    ("manifolds", "measure_kappa", "manifolds.measure_kappa", None),
    ("holonomy", "deviation_profile", "holonomy.deviation_profile", None),
    ("holonomy", "holonomy_lipschitz_probe", "holonomy.holonomy_lipschitz_probe", None),
    ("holonomy", "deck_lipschitz_fit", "holonomy.deck_lipschitz_fit", None),
    ("holonomy", "commutation_defect", "holonomy.commutation_defect", None),
    ("experiments", "phi_bound_checks", "experiments.phi_bound_checks", None),
    ("saturation", "build_saturation_set", "saturation.build_saturation_set", None),
    ("saturation", "coverage_check", "saturation.coverage_check", None),
    ("saturation", "su_sheet_params", "saturation.su_sheet_params", None),
    ("saturation", "find_overlap_translation", "saturation.find_overlap_translation",
     lambda args, kwargs, out: int(out["candidates_checked"])),
)

# Per-layer metric -> (span name, quantity).  "per_call" divides the work
# count by the calls; "per_s" divides it by the self time.
LAYER_METRICS = {}
for _module, _attr, _span, _work in TARGETS:
    if f"{_span}.self_s" in LAYER_METRICS:
        continue
    LAYER_METRICS[f"{_span}.self_s"] = (_span, "self_s")
    LAYER_METRICS[f"{_span}.calls"] = (_span, "calls")
LAYER_METRICS.update({
    "diophantine.lattice_ball.points": ("diophantine.lattice_ball", "work"),
    "diophantine.lattice_ball.points_per_s": ("diophantine.lattice_ball", "per_s"),
    "manifolds.LeafSolver.leaf_points.rows": ("manifolds.LeafSolver.leaf_points", "work"),
    "manifolds.LeafSolver.intersection_batch.rows":
        ("manifolds.LeafSolver.intersection_batch", "work"),
    "perturbed.PerturbedMap.diff_apply.rows": ("perturbed.PerturbedMap.diff_apply", "work"),
    "perturbed.PerturbedMap.diff_apply.rows_per_call":
        ("perturbed.PerturbedMap.diff_apply", "per_call"),
    "saturation.find_overlap_translation.candidates":
        ("saturation.find_overlap_translation", "work"),
})


class Tracer:
    """Span recorder; each span is [name, parent index, start, end, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False

    def wrap(self, name, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, tracer._stack[-1] if tracer._stack else -1, perf_counter(), 0.0, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[3] = perf_counter()
            if work is not None:
                span[4] = work(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target under each name the package looks it up by."""
        for module_name, attr, span_name, work in TARGETS:
            module = importlib.import_module(f"torusdyn.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                setattr(owner, method, self.wrap(span_name, owner.__dict__[method], work))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(span_name, original, work)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "torusdyn" or mod_name.startswith("torusdyn.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _probe_time(self, probes) -> list[float]:
        """Per span: the time of the probes (start, end) it holds directly,
        not inside one of its children.  Spans are stored in start order, so
        the innermost span around a probe is the last one started before it,
        or the first of that span's ancestors still open at the probe's end."""
        held = [0.0] * len(self.spans)
        starts = [span[2] for span in self.spans]
        for p0, p1 in probes:
            k = bisect.bisect_right(starts, p0) - 1
            while k >= 0 and self.spans[k][3] < p1:
                k = self.spans[k][1]
            if k >= 0:
                held[k] += p1 - p0
        return held

    def totals(self, probes=()) -> dict[str, dict]:
        """Per span name: self time, calls and work count.  Self time leaves
        out the time of the (start, end) intervals in ``probes``."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for (name, _, t0, t1, work), covered, held in zip(self.spans, child,
                                                          self._probe_time(probes)):
            agg = out.setdefault(name, {"self_s": 0.0, "calls": 0, "work": 0})
            agg["self_s"] += (t1 - t0) - covered - held
            agg["calls"] += 1
            agg["work"] += work
        return out

    def covered_s(self, since: int = 0, probes=()) -> float:
        """Wall time covered by top-level spans of spans[since:], less the
        time of the ``probes`` inside them."""
        top = sum(t1 - t0 for _, parent, t0, t1, _ in self.spans[since:] if parent < since)
        return top - sum(self._probe_time(probes)[since:])

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, parent, t0, t1, work in self.spans:
                fh.write(json.dumps({"span": name, "parent": parent, "start": t0,
                                     "end": t1, "work": work}) + "\n")


def layer_metrics(totals: dict[str, dict], rounds: int) -> dict[str, float]:
    """The per-layer metrics, per round, from accumulated span totals."""
    out = {}
    for metric, (span, quantity) in LAYER_METRICS.items():
        agg = totals.get(span, {"self_s": 0.0, "calls": 0, "work": 0})
        if quantity == "per_call":
            value = agg["work"] / agg["calls"] if agg["calls"] else 0.0
        elif quantity == "per_s":
            value = agg["work"] / agg["self_s"] if agg["self_s"] > 0 else 0.0
        else:
            value = agg[quantity] / rounds
        out[metric] = value
    return out
