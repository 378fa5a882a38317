"""The names the benchmark in ``perfbench/`` hooks into still exist.

The benchmark wraps varprec's public functions from outside the package
and swaps the CLI's pool cell function by name, so deleting or reshaping
one of them would break ``perfbench/run.py --trace 1`` or the fan-out
timing without any other test failing.
"""

import dataclasses
import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from varprec import cli, ebfp, errormodel, graph, mimo, optimizer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    # install looks up every traced function and calibrate_alpha's tol
    # default, and raises if one has gone
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    calibrate = mimo.calibrate_alpha
    tracer = tracing.Tracer()
    try:
        tracer.install({})
        assert mimo.calibrate_alpha is not calibrate
    finally:
        tracer.uninstall()
    assert mimo.calibrate_alpha is calibrate


def test_pool_cell_takes_one_argument():
    # perfbench/fanout_cli.py replaces cli._run_cell with a one-argument
    # wrapper that logs one cell per call
    assert len(inspect.signature(cli._run_cell).parameters) == 1


_ = object()  # any argument

#: every call shape perfbench/slices.py makes into varprec:
#: (function, positional arguments, keyword arguments)
SLICE_CALLS = [
    (mimo.SimConfig, (), dict(n_t=_, k_users=_, trials=_, seed=_, sweep=_, ber_symbols=_)),
    (mimo.SimConfig, (), dict(n_t=_, k_users=_, trials=_, seed=_, sweep=_, schemes=_)),
    (mimo.build_zf_graph, (_, _), {}),
    (mimo.gen_channel, (_, _, _), {}),
    (mimo.ChannelMatrix, (_, _), {}),
    (mimo.ZfGraph.input_values, (_, _), {}),    # zfg.input_values(h)
    (mimo.ZfGraph.input_precisions, (_,), {}),
    (mimo.ZfGraph.w_matrix, (_, _), {}),
    (mimo.pareto_sweep, (_,), {}),
    (optimizer.UtilityConfig, (), dict(alpha=_, x_min=_)),
    (optimizer.ComplexityModel, (), {}),
    (optimizer.offline_vpc, (_, _, _), {}),
    (optimizer.online_vpc, (_, _, _, _, _, _), {}),
    (optimizer.plan_metrics, (_, _, _), {}),
    (optimizer.fixed_plan, (_, _), {}),
    (graph.execute, (_, _, _, _), {}),
    (graph.execute, (_, _, _, _, _), {}),
    (graph.ExecutionResult.output_fractions, (_,), {}),
    (ebfp.EbfpParams, (_, _, _), {}),
    (ebfp.EbfpNumber, (_, _, _, _, _), {}),
    (ebfp.arith, (_, _, _, _), {}),
    (errormodel.w_moments, (_,), dict(samples=_, seed=_)),
    (errormodel.montecarlo_arith_variance, (_, _, _, _, _, _), {}),
]

#: the fields perfbench/slices.py reads off varprec's configs and results
SLICE_FIELDS = [
    (mimo.SimConfig, {"n_t", "k_users", "snr_db", "trials", "seed", "sweep", "schemes",
                      "x_min", "x_max", "e_b", "storage_bits", "ber_symbols"}),
    (mimo.SweepPoint, {"scheme", "target_avg_bits", "realized_avg_bits", "total_complexity",
                       "sum_rate_mean", "sum_rate_stderr", "ber", "trials", "seed",
                       "failures", "rates"}),
    (ebfp.EbfpNumber, {"sign", "block_exp", "field", "n_blocks", "flags", "params"}),
    (ebfp.EbfpParams, {"block_bits", "exponent_bits"}),
]


@pytest.mark.parametrize("fn, args, kwargs", SLICE_CALLS,
                         ids=[f"{i}-{c[0].__qualname__}" for i, c in enumerate(SLICE_CALLS)])
def test_slice_call_shapes_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


@pytest.mark.parametrize("cls, names", SLICE_FIELDS, ids=[c.__name__ for c, _ in SLICE_FIELDS])
def test_slice_fields_exist(cls, names):
    assert names <= {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_traced_run_is_correct(tmp_path, trace):
    # one short round of the smallest workload (about 5 s), untraced as the
    # benchmark is scored and traced: a traced hook or a slice that no longer
    # fits varprec fails here, not in the benchmark.  It runs from a copy of
    # perfbench/ beside a link to src/, so the checkout's perfbench/out/ is
    # left as it is.
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    (tmp_path / "src").symlink_to(PERFBENCH.parent / "src")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar-kernel", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    if trace == "1":
        assert (tmp_path / "perfbench" / "out" / "trace-scalar-kernel.npz").exists()
    else:
        spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
        for name in (m["name"] for m in spec["end_to_end"]):
            value = result["metrics"][name]["value"]
            assert math.isfinite(value) and value > 0, (name, value)
