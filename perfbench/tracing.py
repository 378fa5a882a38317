"""Spans around calls into varprec, recorded from outside the package.

Each traced function is replaced, in every module that holds a reference
to it, by a wrapper that records one span: name, start, end, the span open
when it was called (its parent), and a work count (graph nodes for the
executor and the online planner). Spans stay in flat arrays until the run
ends; :meth:`Tracer.save` writes them out and :meth:`Tracer.layer_metrics`
reduces them to the per-layer figures.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from varprec import ebfp, errormodel, graph, mimo, optimizer
from varprec.graph import ExprGraph

ARITH_OPS = ("add", "sub", "mul", "div", "sqrt")

#: unit of every per-layer metric; totals are per measured round
UNITS = {
    "ebfp.arith.calls": "calls/round",
    **{f"ebfp.arith.{op}.us.p{q}": "us" for op in ARITH_OPS for q in (50, 99)},
    "ebfp.arith.self_s": "s/round",
    "ebfp.decode.calls": "calls/round",
    "ebfp.decode.self_s": "s/round",
    "ebfp.round_to_precision.self_s": "s/round",
    "errormodel.propagate_full_precision.calls": "calls/round",
    "errormodel.propagate_full_precision.self_s": "s/round",
    "errormodel.rounding_variance.calls": "calls/round",
    "errormodel.rounding_variance.self_s": "s/round",
    "errormodel.montecarlo.s": "s/round",
    "graph.execute.calls": "calls/round",
    "graph.execute.us_per_node": "us/node",
    "graph.execute.self_us_per_node": "us/node",
    "graph.record.us_per_node": "us/node",
    "optimizer.online_vpc.calls": "calls/round",
    "optimizer.online_vpc.us_per_node": "us/node",
    "optimizer.online_vpc.self_us_per_node": "us/node",
    "optimizer.offline_vpc.ms": "ms",
    "optimizer.plan_metrics.calls": "calls/round",
    "optimizer.plan_metrics.self_s": "s/round",
    "mimo.calibrate_alpha.evals_per_target": "evals/target",
    "mimo.calibrate_alpha.s": "s/round",
    "mimo.calibrate_alpha.in_window": "ratio",
    "mimo.calibrate_alpha.targets": "targets/round",
    "mimo.zf_reference.calls": "calls/round",
    "mimo.zf_reference.ms": "ms",
    "mimo.build_zf_graph.ms": "ms",
    "mimo.ber_sim.s": "s/round",
    "mimo.sum_rate.calls": "calls/round",
    "cli.pareto.s": "s/round",
    "cli.pareto.reference_recomputes": "refs.computed",
    "trace.spans": "spans/round",
    "trace.span_cost_us": "us",
    "trace.overhead_share": "ratio",
}


def _varprec_refs(fn) -> List[Tuple[object, str]]:
    """Every (module, attribute) of the varprec package bound to fn."""
    return [(m, k) for name, m in list(sys.modules.items())
            if name == "varprec" or name.startswith("varprec.")
            for k, v in list(vars(m).items()) if v is fn]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._restore: List[Tuple[object, str, object]] = []
        self._nodes: Dict[int, Tuple[ExprGraph, int]] = {}
        #: (span count at return, target, tol, evaluations, realized average)
        self.calibrations: List[Tuple[int, float, float, int, Optional[float]]] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn: Callable, name: str, name_of: Callable = None,
             work_of: Callable = None) -> Callable:
        """fn recording a span per call; name_of(args) refines the name."""
        fixed = self._id(name)

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(self._id(name_of(args)) if name_of else fixed)
            self.parent.append(self._stack[-1])
            self.work.append(work_of(args) if work_of else 0.0)
            self.end.append(0.0)
            self._stack.append(i)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
        return traced

    def _graph_nodes(self, args) -> float:
        g = args[0]
        hit = self._nodes.get(id(g))
        if hit is None or hit[0] is not g:
            hit = self._nodes[id(g)] = (g, len(g.non_input_ids()))
        return float(hit[1])

    def _calibration(self, fn: Callable) -> Callable:
        """calibrate_alpha, also recording its evaluations and the average
        realized at the alpha it returns."""
        span = self.wrap(fn, "mimo.calibrate_alpha")
        default_tol = inspect.signature(fn).parameters["tol"].default

        def calibrate_alpha(avg_of_alpha, target, tol=default_tol, *args, **kwargs):
            seen: Dict[float, float] = {}

            def probe(alpha):
                seen[alpha] = avg_of_alpha(alpha)
                return seen[alpha]
            alpha = span(probe, target, tol, *args, **kwargs)
            self.calibrations.append((len(self.start), target, tol, len(seen),
                                      seen.get(alpha)))
            return alpha
        return calibrate_alpha

    def install(self, own_spans: Dict[str, Tuple[object, str]]) -> None:
        """Wrap the traced varprec functions, plus the benchmark's own
        functions named in own_spans (span name -> (module, attribute))."""
        arith_name = lambda args: "ebfp.arith." + args[0]  # noqa: E731
        plain = [
            (ebfp.arith, "ebfp.arith", arith_name, None),
            (ebfp.decode, "ebfp.decode", None, None),
            (ebfp.round_to_precision, "ebfp.round_to_precision", None, None),
            (errormodel.propagate_full_precision, "errormodel.propagate_full_precision",
             None, None),
            (errormodel.rounding_variance, "errormodel.rounding_variance", None, None),
            (errormodel.montecarlo_arith_variance, "errormodel.montecarlo", None, None),
            (errormodel.w_moments, "errormodel.montecarlo", None, None),
            (graph.execute, "graph.execute", None, self._graph_nodes),
            (optimizer.online_vpc, "optimizer.online_vpc", None, self._graph_nodes),
            (optimizer.offline_vpc, "optimizer.offline_vpc", None, None),
            (optimizer.plan_metrics, "optimizer.plan_metrics", None, None),
            (mimo.zf_reference, "mimo.zf_reference", None, None),
            (mimo.build_zf_graph, "mimo.build_zf_graph", None, None),
            (mimo.ber_sim, "mimo.ber_sim", None, None),
            (mimo.sum_rate, "mimo.sum_rate", None, None),
        ]
        swaps = [(fn, self.wrap(fn, name, name_of, work_of))
                 for fn, name, name_of, work_of in plain]
        swaps.append((mimo.calibrate_alpha, self._calibration(mimo.calibrate_alpha)))
        for fn, wrapper in swaps:
            for m, attr in _varprec_refs(fn):
                self._restore.append((m, attr, fn))
                setattr(m, attr, wrapper)
        for name, (m, attr) in own_spans.items():
            fn = getattr(m, attr)
            self._restore.append((m, attr, fn))
            setattr(m, attr, self.wrap(fn, name))
        record = ExprGraph.record
        self._restore.append((ExprGraph, "record", record))
        ExprGraph.record = self.wrap(record, "graph.record")

    def uninstall(self) -> None:
        for obj, attr, fn in reversed(self._restore):
            setattr(obj, attr, fn)
        self._restore.clear()

    def mark(self) -> int:
        """Span count now; spans recorded later belong to the next phase."""
        return len(self.start)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end), work=np.asarray(self.work))

    def layer_metrics(self, since: int, rounds: int) -> Dict[str, float]:
        """Per-layer figures over the spans recorded from index ``since`` on.

        Totals are per round. Self time is a span's duration less the
        durations of its direct children.
        """
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        work = np.asarray(self.work)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        self_t = dur - child
        in_rounds = np.arange(len(dur)) >= since

        def pick(label: str, everywhere: bool = False) -> np.ndarray:
            ids = [i for i, n in enumerate(self.names)
                   if n == label or n.startswith(label + ".")]
            sel = np.isin(name, ids)
            return sel if everywhere else sel & in_rounds

        def mean(values: np.ndarray) -> float:
            return float(values.mean()) if values.size else 0.0

        out: Dict[str, float] = {}
        for label in ("ebfp.arith", "ebfp.decode", "errormodel.propagate_full_precision",
                      "errormodel.rounding_variance", "graph.execute",
                      "optimizer.online_vpc", "optimizer.plan_metrics",
                      "mimo.zf_reference", "mimo.sum_rate"):
            out[label + ".calls"] = int(pick(label).sum()) / rounds
        for label in ("ebfp.arith", "ebfp.decode", "ebfp.round_to_precision",
                      "errormodel.propagate_full_precision",
                      "errormodel.rounding_variance", "optimizer.plan_metrics"):
            out[label + ".self_s"] = float(self_t[pick(label)].sum()) / rounds
        for op in ARITH_OPS:
            us = dur[pick("ebfp.arith." + op)] * 1e6
            for q in (50, 99):
                out[f"ebfp.arith.{op}.us.p{q}"] = float(np.percentile(us, q)) if us.size else 0.0
        for label in ("errormodel.montecarlo", "mimo.calibrate_alpha", "mimo.ber_sim",
                      "cli.pareto"):
            out[label + ".s"] = float(dur[pick(label)].sum()) / rounds
        for label in ("graph.execute", "optimizer.online_vpc"):
            sel = pick(label)
            nodes = work[sel].sum() or 1.0
            out[label + ".us_per_node"] = float(dur[sel].sum() / nodes * 1e6)
            out[label + ".self_us_per_node"] = float(self_t[sel].sum() / nodes * 1e6)
        out["graph.record.us_per_node"] = mean(dur[pick("graph.record", True)]) * 1e6
        out["optimizer.offline_vpc.ms"] = mean(dur[pick("optimizer.offline_vpc")]) * 1e3
        out["mimo.zf_reference.ms"] = mean(dur[pick("mimo.zf_reference")]) * 1e3
        out["mimo.build_zf_graph.ms"] = mean(dur[pick("mimo.build_zf_graph", True)]) * 1e3

        cal = [c for c in self.calibrations if c[0] > since]
        hits = sum(1 for _, target, tol, _, got in cal
                   if got is not None and target <= got <= target + tol)
        out["mimo.calibrate_alpha.evals_per_target"] = (
            sum(c[3] for c in cal) / len(cal) if cal else 0.0)
        out["mimo.calibrate_alpha.in_window"] = hits / len(cal) if cal else 0.0
        out["mimo.calibrate_alpha.targets"] = len(cal) / rounds
        out["trace.spans"] = int(in_rounds.sum()) / rounds
        return out


def span_cost_us(samples: int = 20000) -> float:
    """Added cost of one span: a traced no-op against the bare no-op."""
    def noop(*args):
        return None
    traced = Tracer().wrap(noop, "noop")
    seconds = []
    for fn in (noop, traced):
        t0 = perf_counter()
        for _ in range(samples):
            fn(1)
        seconds.append(perf_counter() - t0)
    return (seconds[1] - seconds[0]) / samples * 1e6
