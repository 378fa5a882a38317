"""``python -m varprec.cli`` with the core-speed probe of ``speed.py`` in
the CLI process and in each pool worker.

    PYTHONPATH=src PERFBENCH_SPEED_LOG=log.jsonl VARPREC_THREADS=2 \\
        python3 perfbench/fanout_cli.py --out-dir D pareto --config C

With ``PERFBENCH_SPEED_LOG`` set, each pareto cell a worker runs appends
``{"pid", "cell_s"}`` to that file, and the CLI process appends
``{"pid", "main_s"}`` (its main thread, from interpreter start) before it
exits, both in CPU seconds at the reference speed. Without it, this is the
plain CLI.
"""

import json
import os
import sys

import speed

LOG = os.environ.get("PERFBENCH_SPEED_LOG")
if LOG:
    speed.start()  # before the import, which is most of the CLI process's time

from varprec import cli  # noqa: E402

run_cell = cli._run_cell


def _record(**fields) -> None:
    with open(LOG, "a") as fh:
        fh.write(json.dumps(dict(pid=os.getpid(), **fields)) + "\n")


def _run_cell(cfg_dict: dict) -> list:
    speed.start()  # again in each forked worker
    window = speed.Window()
    points = run_cell(cfg_dict)
    _record(cell_s=window.seconds())
    return points


if __name__ == "__main__":
    if LOG:
        # the pool pickles the cell function by the name the CLI gives it
        _run_cell.__module__, _run_cell.__qualname__ = cli.__name__, "_run_cell"
        cli._run_cell = _run_cell
    code = cli.main()
    if LOG:
        _record(main_s=speed.Window(0.0).seconds())
    sys.exit(code)
