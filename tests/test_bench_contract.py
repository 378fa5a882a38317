"""The names the benchmark in ``perfbench/`` hooks into still exist.

The benchmark wraps varprec's public functions from outside the package
and swaps the CLI's pool cell function by name, so deleting or reshaping
one of them would break ``perfbench/run.py --trace 1`` or the fan-out
timing without any other test failing.
"""

import inspect
from pathlib import Path

from varprec import cli, mimo

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
