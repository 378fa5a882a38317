"""Reference routines the tests compare varprec against.

The library never runs these: each is a second, independent statement of
something the library computes or optimizes, kept here so that a test can
check the library's answer against it.
"""

from typing import Dict, Sequence

import numpy as np

from varprec.errormodel import input_error_variance, rounding_variance, speculation_factor
from varprec.graph import ExecutionResult, ExprGraph, OpKind
from varprec.mimo import ZfGraph
from varprec.optimizer import DEFAULT_WEIGHTS, GSIGMA_UNIT, ComplexityModel, UtilityConfig, XoptLut


def modeled_utility_batch(graph: ExprGraph, plans: np.ndarray, node_order: Sequence[int],
                          cfg: UtilityConfig, cm: ComplexityModel, e_b: int = 10,
                          input_precision: int = 53) -> np.ndarray:
    """Expected-utility objective the offline planner optimizes, for many
    plans at once: output error variances propagated with expectation
    backward factors, plus the weighted complexity total.

    ``plans`` has shape (n_plans, len(node_order)); column j is the
    precision of node ``node_order[j]``.
    """
    col = {nid: j for j, nid in enumerate(node_order)}
    back = {op: speculation_factor(op.value, "backward", e_b) for op in DEFAULT_WEIGHTS}
    in_var = input_error_variance(input_precision)
    var: Dict[int, np.ndarray] = {}
    cost = np.zeros(plans.shape[0])
    for node in graph.nodes:
        if node.op is OpKind.INPUT:
            var[node.id] = np.full(plans.shape[0], in_var)
            continue
        x = plans[:, col[node.id]].astype(float)
        f = back[node.op]
        if node.op is OpKind.SQRT:
            sc2 = f * var[node.operands[0]]
        else:
            sc2 = f * (var[node.operands[0]] + var[node.operands[1]])
        var[node.id] = rounding_variance(sc2, x)
        cost += cm.weight(node.op) * x
    err = sum(var[oid] for oid in graph.outputs)
    return err + cfg.alpha * cost


def final_step_precision(graph: ExprGraph, cfg: UtilityConfig,
                         cm: ComplexityModel) -> Dict[int, int]:
    """Optimal precision of every output node, whose G_sigma seed is
    ``-GSIGMA_UNIT``: the anchors of the online plan, by a lookup per output."""
    lut = XoptLut(cm, cfg)
    return {oid: lut.lookup(GSIGMA_UNIT / cfg.alpha, graph.nodes[oid].op) for oid in graph.outputs}


def gram_inverse_residual(zfg: ZfGraph, result: ExecutionResult) -> float:
    """max |G Ginv - I| from the executed node values."""
    G = zfg.matrix(result, zfg.gram_refs)
    Gi = zfg.matrix(result, zfg.ginv_refs)
    return float(np.abs(G @ Gi - np.eye(zfg.k_users)).max())
