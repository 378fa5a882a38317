"""Tests for the command-line runner."""

import csv
import hashlib
import json
import math
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from varprec import cli, mimo
from varprec.cli import main, parse_config, sim_config_from_args
from varprec.graph import GraphExecutionError


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestValidateErrorModel:
    def test_default_run(self, tmp_path):
        rc = main(["--out-dir", str(tmp_path), "validate-error-model",
                   "--samples", "200000"])
        assert rc == 0
        rows = read_csv(tmp_path / "validate_error_model.csv")
        assert rows[0] == ["arithmetic", "formula_variance", "empirical_variance",
                           "rel_dev", "samples", "seed"]
        assert [r[0] for r in rows[1:]] == ["add", "sub", "mul", "div", "sqrt"]
        assert all(float(r[3]) < 0.03 for r in rows[1:])

    def test_zero_samples_usage_error(self, tmp_path):
        rc = main(["--out-dir", str(tmp_path), "validate-error-model",
                   "--samples", "0"])
        assert rc == 2

    def test_reruns_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["--out-dir", str(d), "validate-error-model",
                         "--samples", "50000", "--seed", "3"]) == 0
        assert (a / "validate_error_model.csv").read_bytes() == \
            (b / "validate_error_model.csv").read_bytes()

    def test_manifest_written(self, tmp_path):
        main(["--out-dir", str(tmp_path), "validate-error-model",
              "--samples", "50000"])
        m = json.loads((tmp_path / "validate-error-model.manifest.json").read_text())
        assert m["params"]["samples"] == 50000
        assert "validate_error_model.csv" in m["outputs"]
        assert len(m["outputs"]["validate_error_model.csv"]) == 64


class TestTables:
    def test_unknown_table_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--out-dir", str(tmp_path), "tables", "bogus"])
        assert exit_.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_spec_table(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "tables", "spec"]) == 0
        rows = read_csv(tmp_path / "table_spec.csv")
        data = {r[0]: r for r in rows[1:]}
        assert data["N3"][1:4] == ["24", "7", "16"]
        assert float(data["N3"][4]) == pytest.approx(154.13, abs=0.01)
        assert all(float(r[7]) < 0.05 for r in rows[1:])

    def test_ops_per_bit_table(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "tables", "ops_per_bit"]) == 0
        rows = read_csv(tmp_path / "table_ops_per_bit.csv")
        assert all(int(r[4]) <= 1 for r in rows[1:])

    def test_w_moments_table(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "tables", "w_moments",
                     "--samples", "50000"]) == 0
        rows = read_csv(tmp_path / "table_w_moments.csv")
        assert [int(r[0]) for r in rows[1:]] == [1, 3, 5, 7, 9, 11, 13]


class TestConfig:
    def test_parse_config(self, tmp_path):
        cfgf = tmp_path / "sim.cfg"
        cfgf.write_text("# desk run\nnt = 2\nk = 2\nsnr_db = 12.5\n"
                        "trials = 3\nsweep = 6,12\nschemes = fixed,online\n")
        raw = parse_config(cfgf)
        assert raw["nt"] == "2" and raw["sweep"] == "6,12"

    def test_bad_key_rejected(self, tmp_path):
        cfgf = tmp_path / "sim.cfg"
        cfgf.write_text("bogus = 1\n")

        class A:
            config = str(cfgf)
            nt = k = snr_db = trials = seed = sweep = scheme = None
        with pytest.raises(ValueError):
            sim_config_from_args(A)

    def test_cli_overrides_config(self, tmp_path):
        cfgf = tmp_path / "sim.cfg"
        cfgf.write_text("nt = 4\nk = 4\ntrials = 9\n")

        class A:
            config = str(cfgf)
            nt = 2
            k = 2
            snr_db = None
            trials = None
            seed = 11
            sweep = "8"
            scheme = "fixed"
        cfg = sim_config_from_args(A)
        assert cfg.n_t == 2 and cfg.k_users == 2
        assert cfg.trials == 9
        assert cfg.seed == 11
        assert cfg.sweep == (8.0,) and cfg.schemes == ("fixed",)


class TestPareto:
    def test_smoke_run(self, tmp_path):
        rc = main(["--out-dir", str(tmp_path), "pareto", "--nt", "2", "--k", "2",
                   "--trials", "1", "--seed", "3", "--sweep", "8",
                   "--scheme", "fixed,online"])
        assert rc == 0
        rows = read_csv(tmp_path / "pareto.csv")
        assert rows[0][0] == "scheme"
        assert {r[0] for r in rows[1:]} == {"fixed", "online"}
        m = json.loads((tmp_path / "pareto.manifest.json").read_text())
        assert m["params"]["n_t"] == 2

    def test_rerun_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["pareto", "--nt", "2", "--k", "2", "--trials", "2", "--seed", "5",
                "--sweep", "6", "--scheme", "fixed,offline"]
        for d in (a, b):
            assert main(["--out-dir", str(d)] + args) == 0
        assert (a / "pareto.csv").read_bytes() == (b / "pareto.csv").read_bytes()

    def test_workers_match_serial(self, tmp_path, monkeypatch, capsys):
        # every scheme, two targets: random-blockwise draws depend on the
        # target's index; either way, one progress line per finished cell
        serial, two = tmp_path / "serial", tmp_path / "two"
        args = ["pareto", "--nt", "2", "--k", "2", "--trials", "3", "--sweep", "4,8"]
        cells = [f"  {s} @ {t} bits" for s in mimo.SCHEMES for t in (4, 8)]
        monkeypatch.delenv("VARPREC_THREADS", raising=False)
        assert main(["--out-dir", str(serial)] + args) == 0
        assert capsys.readouterr().out.splitlines()[:-1] == cells
        monkeypatch.setenv("VARPREC_THREADS", "2")
        assert main(["--out-dir", str(two)] + args) == 0
        assert capsys.readouterr().out.splitlines()[:-1] == cells
        assert (serial / "pareto.csv").read_bytes() == (two / "pareto.csv").read_bytes()

    def test_bad_thread_count_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VARPREC_THREADS", "two")
        rc = main(["--out-dir", str(tmp_path), "pareto", "--nt", "2", "--k", "2",
                   "--trials", "1", "--sweep", "8", "--scheme", "fixed"])
        assert rc == 2
        assert "VARPREC_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "pareto.csv").exists()

    @pytest.mark.parametrize("threads, schemes, sweep, workers", [
        ("5000", "fixed,offline", "4,8", 4), ("3", "fixed,offline", "4,8", 3),
        ("5000", "fixed", "4,8", 2), ("5000", "fixed", "8", None)])
    def test_pool_has_no_more_workers_than_cells(self, tmp_path, monkeypatch,
                                                 threads, schemes, sweep, workers):
        # a process pool starts all its workers when it starts: it gets one
        # per cell (scheme and target) at most, and one cell runs in this
        # process.  The stand-in pool records its size and maps serially
        import concurrent.futures

        sizes = []

        class Pool:
            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        args = ["pareto", "--nt", "2", "--k", "2", "--trials", "1", "--sweep", sweep,
                "--scheme", schemes]
        monkeypatch.setenv("VARPREC_THREADS", threads)
        assert main(["--out-dir", str(tmp_path / "pool")] + args) == 0
        assert sizes == ([] if workers is None else [workers])
        monkeypatch.setenv("VARPREC_THREADS", "1")
        assert main(["--out-dir", str(tmp_path / "serial")] + args) == 0
        assert (tmp_path / "pool" / "pareto.csv").read_bytes() == \
            (tmp_path / "serial" / "pareto.csv").read_bytes()

    @pytest.mark.parametrize("config, flags", [
        ("bogus = 1\n", []),
        ("", ["--nt", "2", "--k", "3"]),
        ("", ["--nt", "0", "--k", "0"]),
        ("", ["--scheme", "bogus"]),
        ("", ["--trials", "0"]),
        ("nt 2\n", []),
        ("x_min = 10\nx_max = 4\n", []),
        ("x_min = 0\n", []),
        ("x_min = 10\n", []),
        ("", ["--sweep", "8,200"]),
        ("snr_db = nan\n", []),
        ("ber_symbols = -1\n", []),
        ("e_b = 1\n", []),
        # the backward sub factor is negative below e_b = 4: no planner runs
        ("e_b = 2\nschemes = offline,online\n", []),
        ("e_b = 3\nschemes = offline,online\n", []),
        ("storage_bits = 0\n", []),
        # the default geometry stores at most 79 bits: every trial would fail
        ("storage_bits = 80\n", []),
        ("x_max = 80\n", []),
        ("n_t = 2\n", []),
    ], ids=["unknown-key", "k-above-nt", "no-users", "unknown-scheme", "zero-trials",
            "line-without-equals", "x-min-above-x-max", "x-min-below-1",
            "target-below-x-min", "target-above-x-max", "snr-nan", "negative-ber-symbols",
            "e-b-below-2", "e-b-2", "e-b-3", "storage-bits-below-1", "storage-bits-80",
            "x-max-80", "n-t-spelling"])
    def test_bad_config_usage_error(self, tmp_path, monkeypatch, capsys, config, flags):
        monkeypatch.delenv("VARPREC_THREADS", raising=False)
        cfgf = tmp_path / "sim.cfg"
        cfgf.write_text("nt = 2\nk = 2\ntrials = 1\nsweep = 8\nschemes = fixed\n" + config)
        rc = main(["--out-dir", str(tmp_path), "pareto", "--config", str(cfgf)] + flags)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "pareto.csv").exists()

    def test_one_rung_ladder_runs(self, tmp_path, monkeypatch):
        # x_min == x_max: every rho maps to the one precision, so every
        # scheme's plan is the fixed plan at it
        monkeypatch.delenv("VARPREC_THREADS", raising=False)
        cfgf = tmp_path / "sim.cfg"
        cfgf.write_text("nt = 2\nk = 2\ntrials = 2\nsweep = 8\nx_min = 8\nx_max = 8\n")
        assert main(["--out-dir", str(tmp_path), "pareto", "--config", str(cfgf)]) == 0
        rows = read_csv(tmp_path / "pareto.csv")[1:]
        assert [r[0] for r in rows] == list(mimo.SCHEMES)
        assert len({tuple(r[1:]) for r in rows}) == 1 and rows[0][2] == "8.0000"

    def test_unparsable_value_names_key(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("VARPREC_THREADS", raising=False)
        cfgf = tmp_path / "sim.cfg"
        cfgf.write_text("nt = two\nk = 2\n")
        assert main(["--out-dir", str(tmp_path), "pareto", "--config", str(cfgf)]) == 2
        assert "'nt'" in capsys.readouterr().err
        assert not (tmp_path / "pareto.csv").exists()

    def test_cells_share_references(self, monkeypatch):
        # the cells a pool worker runs on one config build the channels and
        # the reference precoders once (the BER reads the references), and
        # give the serial sweep's points
        calls = []
        zf_reference = mimo.zf_reference

        def counted(*args, **kwargs):
            calls.append(1)
            return zf_reference(*args, **kwargs)

        monkeypatch.setattr(mimo, "zf_reference", counted)
        monkeypatch.setattr(cli, "_cell_inputs", None)
        cfg = mimo.SimConfig(n_t=2, k_users=2, trials=3, sweep=(4.0, 8.0),
                             schemes=("fixed", "offline"), ber_symbols=16)
        cells = [(asdict(cfg), "fixed", 1), (asdict(cfg), "offline", 0)]
        points = [cli._run_cell(cell) for cell in cells]
        assert len(calls) == cfg.trials
        serial = mimo.pareto_sweep(cfg)
        assert repr(points) == repr([serial[1], serial[2]])

    @staticmethod
    def desk_config():
        class A:
            config = str(Path(__file__).resolve().parents[1] / "demos" / "desk.cfg")
            nt = k = snr_db = trials = seed = sweep = scheme = None
        return sim_config_from_args(A)

    def test_online_cells_reuse_probe_runs(self, monkeypatch):
        # the online cells of demos/desk.cfg run 48 probe lanes in their
        # anchor walks; a trial channel the walk probed (the first 4 of 20)
        # takes the walk's run at the calibrated alpha: 48 + 6 * 16 lanes
        cfg = self.desk_config()
        inputs = mimo.sweep_inputs(cfg)
        calls = []
        online_lanes = mimo.online_lanes

        def counted(graph, ucfg, cm, lanes, *args):
            return online_lanes(graph, ucfg, cm, (calls.append(1) or v for v in lanes), *args)

        monkeypatch.setattr(mimo, "online_lanes", counted)
        for ti in range(len(cfg.sweep)):
            mimo.sweep_cell(cfg, inputs, "online", ti)
        assert (cfg.trials, len(cfg.sweep), len(calls)) == (20, 6, 144)

    def test_random_blockwise_follows_target(self):
        # each part draws around its cell's target, so the realized average
        # of demos/desk.cfg rises with the target
        cfg = self.desk_config()
        inputs = mimo.sweep_inputs(cfg)
        avgs = [mimo.sweep_cell(cfg, inputs, "random-blockwise", ti).realized_avg_bits
                for ti in range(len(cfg.sweep))]
        assert avgs == sorted(avgs) and len(set(avgs)) == len(avgs), avgs


@st.composite
def _pareto_configs(draw):
    """A small pareto config inside SimConfig's bounds; in about half the
    draws one key is moved just past them."""
    nt, x_min = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    x_max = draw(st.integers(x_min, 20))
    config = {
        "nt": nt, "k": draw(st.integers(1, nt)), "trials": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 9)), "snr_db": draw(st.sampled_from([10.0, -5.0, 40.0])),
        "x_min": x_min, "x_max": x_max, "e_b": draw(st.integers(4, 14)),
        "storage_bits": draw(st.integers(1, 90)), "ber_symbols": draw(st.integers(0, 8)),
        "sweep": draw(st.lists(st.integers(x_min, x_max), min_size=1, max_size=2)),
        "schemes": draw(st.lists(st.sampled_from(mimo.SCHEMES), min_size=1, max_size=4,
                                 unique=True)),
    }
    if draw(st.booleans()):
        key, bad = draw(st.sampled_from([
            ("k", nt + 1), ("k", 0), ("trials", 0), ("snr_db", math.nan),
            ("snr_db", math.inf), ("x_min", 0), ("x_min", x_max + 1), ("e_b", 3),
            ("e_b", 1), ("storage_bits", 0), ("storage_bits", 80), ("ber_symbols", -1),
            ("sweep", [x_max + 1]), ("sweep", [x_min - 1]), ("schemes", ["bogus"])]))
        config[key] = bad
    return config


class TestEveryAcceptedConfig:
    @given(_pareto_configs())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_runs_and_every_other_exits_2(self, monkeypatch, config):
        # the failure contract through the CLI: a config SimConfig accepts
        # runs to its pareto.csv, and any other is a usage error
        monkeypatch.delenv("VARPREC_THREADS", raising=False)
        fields = {cli.CONFIG_KEYS[k][0]: v for k, v in config.items()}
        try:
            mimo.SimConfig(**fields)
            want = 0
        except ValueError:
            want = 2
        text = "".join(f"{k} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
                       for k, v in config.items())
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "sim.cfg").write_text(text)
            rc = main(["--out-dir", tmp, "pareto", "--config", str(Path(tmp) / "sim.cfg")])
            assert rc == want
            assert (Path(tmp) / "pareto.csv").exists() == (want == 0)


class TestPinnedOutputs:
    """Digests of the desk sweep and of a 4x4 histogram: a change that
    means to keep every output must keep these bytes."""

    # the desk configuration of perfbench/README.md
    DESK = ("nt = 4\nk = 4\nsnr_db = 10.0\ntrials = 1\nseed = 2\n"
            "schemes = fixed,offline,online,random-blockwise\nsweep = 4,32\n"
            "x_min = 2\nx_max = 64\ne_b = 10\nstorage_bits = 53\nber_symbols = 256\n")

    @staticmethod
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_desk_pareto(self, tmp_path, monkeypatch):
        monkeypatch.delenv("VARPREC_THREADS", raising=False)
        cfgf = tmp_path / "desk.cfg"
        cfgf.write_text(self.DESK)
        assert main(["--out-dir", str(tmp_path), "pareto", "--config", str(cfgf)]) == 0
        assert self.digest(tmp_path / "pareto.csv") == \
            "b7dc8983ec2a2e9847065d4ae517470e4b6565d8b045cbb365f91474b95e4062"

    def test_histogram_4x4(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "histogram", "--nt", "4", "--k", "4",
                     "--seed", "3"]) == 0
        assert {name: self.digest(tmp_path / name) for name in
                ("histogram.csv", "histogram_plan.csv", "histogram_graph.jsonl")} == {
            "histogram.csv":
                "99d4ee6a040b2c8e33deefe40fbc527e8b676f57cf2ccf54c3524a9814881c70",
            "histogram_plan.csv":
                "14ac1d52739d611c0cb5eee6856afc5e21b3b80db3ab72fc74acf92db914edd5",
            "histogram_graph.jsonl":
                "10b5752a68a647415b86125d478862671eb69da5c116ee3586754b064effc769"}

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_full_desk_pareto(self, tmp_path, monkeypatch, threads):
        # demos/desk.cfg as README runs it: 20 trials at six targets, so six
        # offline calibrations over the whole ladder and six online walks
        monkeypatch.setenv("VARPREC_THREADS", threads)
        desk = Path(__file__).resolve().parents[1] / "demos" / "desk.cfg"
        assert main(["--out-dir", str(tmp_path), "pareto", "--config", str(desk)]) == 0
        assert self.digest(tmp_path / "pareto.csv") == \
            "44251a7c3d685f271125589d5885d44d5019babebd7c92b230050a529dace9b1"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_trials(self, tmp_path, monkeypatch, threads):
        # every scheme fails at least one trial (online at 1 bit included),
        # with BER on: pins how a failed trial is scored
        monkeypatch.setenv("VARPREC_THREADS", threads)
        cfgf = tmp_path / "fail.cfg"
        cfgf.write_text("nt = 2\nk = 2\ntrials = 3\nseed = 4\nsweep = 1,2,6\n"
                        "x_min = 1\nx_max = 40\nber_symbols = 32\n")
        assert main(["--out-dir", str(tmp_path), "pareto", "--config", str(cfgf)]) == 0
        rows = read_csv(tmp_path / "pareto.csv")[1:]
        assert {r[0] for r in rows if int(r[-1]) > 0} == set(mimo.SCHEMES)
        assert self.digest(tmp_path / "pareto.csv") == \
            "789a624deef204030b4f0a9dc15bf7b5d7bbb557c9407623a26dc32ba4bae578"


class TestHistogram:
    def test_small_histogram(self, tmp_path):
        rc = main(["--out-dir", str(tmp_path), "histogram", "--nt", "2", "--k", "2",
                   "--seed", "1"])
        assert rc == 0
        rows = read_csv(tmp_path / "histogram.csv")
        assert rows[0] == ["x_bits", "op_kind", "count"]
        assert sum(int(r[2]) for r in rows[1:]) > 0

    def test_dims_required(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "histogram"]) == 2
        assert main(["--out-dir", str(tmp_path), "histogram", "--nt", "2",
                     "--k", "3"]) == 2

    def test_failed_online_run_exits_1(self, tmp_path, monkeypatch, capsys):
        def fails(graph, ucfg, cm, lanes, *args):
            for _ in lanes:
                yield GraphExecutionError(graph.outputs[0], "division by zero")

        monkeypatch.setattr(mimo, "online_lanes", fails)
        assert main(["--out-dir", str(tmp_path), "histogram", "--nt", "2", "--k", "2"]) == 1
        assert "online plan cannot be computed" in capsys.readouterr().err
        assert not (tmp_path / "histogram.csv").exists()

    @pytest.mark.parametrize("target", ["1", "200"])
    def test_target_outside_bounds_usage_error(self, tmp_path, capsys, target):
        # the histogram plans over [4, 64] bits
        assert main(["--out-dir", str(tmp_path), "histogram", "--nt", "2", "--k", "2",
                     "--target-avg", target]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "histogram.csv").exists()

    def test_final_anchor_run_reused(self, tmp_path, monkeypatch):
        # the walk probes two anchors on the histogram's one channel; the
        # histogram is the run at the second, not a third run: lanes count runs
        calls = []
        online_lanes = mimo.online_lanes

        def counted(graph, ucfg, cm, lanes, *args):
            return online_lanes(graph, ucfg, cm, (calls.append(ucfg.alpha) or v for v in lanes),
                                *args)

        for module in (mimo, cli):  # wherever the histogram might call it from
            monkeypatch.setattr(module, "online_lanes", counted, raising=False)
        assert main(["--out-dir", str(tmp_path), "histogram", "--nt", "4", "--k", "4",
                     "--seed", "3"]) == 0
        assert len(calls) == 2

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["--out-dir", str(d), "histogram", "--nt", "2",
                         "--k", "2", "--seed", "2"]) == 0
        assert (a / "histogram.csv").read_bytes() == (b / "histogram.csv").read_bytes()
