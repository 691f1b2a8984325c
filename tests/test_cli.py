"""Command-line front-end tests: exit codes, reproducible outputs, and the
sweep harness."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from tdthr import cli, metrics
from tdthr.cli import (EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, config_hash,
                       load_config, load_sweep_spec, main)
from tdthr.simkernel import SimConfig

from helpers import RETIRED_FIELDS, mini_config


def _write_config(path, cfg: SimConfig):
    path.write_text(yaml.safe_dump(cfg.to_dict()))
    return str(path)


def _fast_cfg(**overrides):
    overrides.setdefault("duration", 22.0)
    return mini_config(**overrides)


# ---- validate ------------------------------------------------------------

def test_validate_accepts_shipped_configs(capsys):
    for name in ("configs/default.yaml", "configs/desk.yaml"):
        assert main(["validate", "--config", name]) == EXIT_OK
    echoed = yaml.safe_load(capsys.readouterr().out)
    assert echoed["network"]["node_count"] == 100  # desk echoed last


def test_validate_rejects_bad_values(tmp_path, capsys):
    cfg = _fast_cfg()
    cfg.prr_beta = 1.5
    path = _write_config(tmp_path / "bad.yaml", cfg)
    assert main(["validate", "--config", path]) == EXIT_VALIDATION
    assert "prr_beta" in capsys.readouterr().err


def _assert_rejected(tmp_path, capsys, section, key, value, message,
                     commands=("validate", "run")):
    """`section.key: value` on a fast config exits 1 with `message`, no
    traceback and no CSV."""
    data = _fast_cfg().to_dict()
    data[section][key] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    argvs = {"validate": ["validate", "--config", str(path)],
             "run": ["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]}
    for command in commands:
        assert main(argvs[command]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("section, key, value", [
    ("network", "node_count", "100"),
    ("mac", "max_retries", 2.5),
    ("protocol", "duplicate", "no"),
    ("energy", "tx", "x"),
])
def test_validate_rejects_mistyped_values(tmp_path, capsys, section, key, value):
    _assert_rejected(tmp_path, capsys, section, key, value,
                     f"{section}.{key} must be")


@pytest.mark.parametrize("section, key, value", [
    ("energy", "initial", -1.0),
    ("network", "field_width", 0.0),      # the density check divided by it
    ("network", "field_height", 0.0),
])
def test_validate_rejects_out_of_range_values(tmp_path, capsys, section, key,
                                              value):
    _assert_rejected(tmp_path, capsys, section, key, value,
                     f"{section}.{key} must be positive, got {value}")


@pytest.mark.parametrize("section, key, value", [
    ("traffic", "rate_bytes_per_s", float("inf")),  # a zero CBR interval
    ("traffic", "deadline", float("inf")),
    ("network", "tx_range", float("inf")),
    ("protocol", "hello_period", float("inf")),
    ("run", "audit_period", float("inf")),
    ("energy", "tx", float("-inf")),
    ("run", "duration", float("nan")),
])
def test_validate_rejects_non_finite_values(tmp_path, capsys, section, key,
                                            value):
    # validate only: a run with some of these values never ends
    _assert_rejected(tmp_path, capsys, section, key, value,
                     f"{section}.{key} must be finite", commands=("validate",))


@pytest.mark.parametrize("key", ["initial", "tx"])
def test_energies_that_overflow_in_nanojoules_are_rejected(tmp_path, capsys,
                                                           key):
    # finite in joules, infinite once converted: the run would fail on it
    _assert_rejected(tmp_path, capsys, "energy", key, 1.0e+300,
                     f"energy.{key} must be finite in nanojoules")


def test_validate_rejects_missing_and_malformed_files(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.yaml")]) \
        == EXIT_VALIDATION
    garbled = tmp_path / "garbled.yaml"
    garbled.write_text("- just\n- a\n- list\n")
    assert main(["validate", "--config", str(garbled)]) == EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize("text", ["- just\n- a\n- list\n",
                                  "warp: {factor: 9}\n",
                                  "network: [1, 2]\n",
                                  # too long for PyYAML to convert
                                  "network: {node_count: 1%s}\n" % ("0" * 5000)]
                         + [f"{section}: {{{key}: 1}}\n"
                            for section, key in RETIRED_FIELDS],
                         ids=["list_root", "unknown_section", "list_section",
                              "int_of_5001_digits"]
                         + [f"retired_{key}" for _, key in RETIRED_FIELDS])
def test_load_errors_name_the_file_once(tmp_path, capsys, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    for argv in (["validate", "--config", str(bad)],
                 ["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]):
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.count(str(bad)) == 1
    # a sweep over that file as its base config names the base file once
    spec = tmp_path / "sp.yaml"
    spec.write_text(yaml.safe_dump({"base_config": "bad.yaml",
                                    "parameter": "critical_rate",
                                    "values": [0.5]}))
    assert main(["sweep", "--spec", str(spec),
                 "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.count(str(bad)) == 1
    # and an error in the spec itself names the spec once
    spec.write_text(yaml.safe_dump({"base_config": "bad.yaml",
                                    "parameter": "critical_rate"}))
    assert main(["sweep", "--spec", str(spec),
                 "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count(str(spec)) == 1 and "missing 'values'" in err


# ---- run -----------------------------------------------------------------

def test_run_writes_csv_and_respects_seed_flag(tmp_path):
    path = _write_config(tmp_path / "cfg.yaml", _fast_cfg())
    out = tmp_path / "metrics.csv"
    assert main(["run", "--config", path, "--seed", "9",
                 "--out", str(out)]) == EXIT_OK
    header, row = out.read_text().splitlines()
    assert header == metrics.csv_header()
    rec = dict(zip(header.split(","), row.split(",")))
    assert rec["seed"] == "9"
    assert rec["protocol"] == "tdthr"
    assert int(rec["generated"]) > 0


def test_run_validates_the_seed_flag_with_the_config(tmp_path, capsys):
    # argparse takes any int, and one beyond the largest float is no seed
    path = _write_config(tmp_path / "cfg.yaml", _fast_cfg())
    out = tmp_path / "x.csv"
    assert main(["run", "--config", path, "--seed", str(10 ** 309),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{path}: run.rng_seed must be finite" in err
    assert not out.exists()


def test_run_is_reproducible_byte_for_byte(tmp_path):
    path = _write_config(tmp_path / "cfg.yaml", _fast_cfg(rng_seed=3))
    outputs, traces = [], []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        trace = tmp_path / f"{tag}.trace"
        assert main(["run", "--config", path, "--out", str(out),
                     "--trace", str(trace)]) == EXIT_OK
        outputs.append(out.read_bytes())
        traces.append(trace.read_bytes())
    assert outputs[0] == outputs[1]
    assert traces[0] == traces[1] and len(traces[0]) > 1000


def test_run_propagates_validation_failure(tmp_path, capsys):
    cfg = _fast_cfg()
    cfg.max_retries = -1
    path = _write_config(tmp_path / "bad.yaml", cfg)
    assert main(["run", "--config", path,
                 "--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION
    capsys.readouterr()


def _no_runs(monkeypatch):
    """Record each simulation the CLI would start, and start none."""
    started = []
    monkeypatch.setattr(cli, "execute_run",
                        lambda cfg, trace_path=None: started.append(cfg))
    return started


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_run_rejects_a_directory_as_output_before_running(tmp_path, capsys,
                                                         monkeypatch, flag):
    path = _write_config(tmp_path / "cfg.yaml", _fast_cfg())
    taken = tmp_path / "taken"
    taken.mkdir()
    out = taken if flag == "--out" else tmp_path / "x.csv"
    started = _no_runs(monkeypatch)
    argv = ["run", "--config", path, "--out", str(out)]
    if flag == "--trace":
        argv += ["--trace", str(taken)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count(str(taken)) == 1 and "Traceback" not in err
    assert started == [] and not (tmp_path / "x.csv").exists()


def test_run_creates_the_trace_directory(tmp_path):
    path = _write_config(tmp_path / "cfg.yaml", _fast_cfg())
    trace = tmp_path / "new" / "dir" / "run.trace"
    assert main(["run", "--config", path, "--out", str(tmp_path / "x.csv"),
                 "--trace", str(trace)]) == EXIT_OK
    assert trace.stat().st_size > 1000


# ---- config hashing ------------------------------------------------------

def test_config_hash_tracks_content():
    a = _fast_cfg()
    b = _fast_cfg()
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    b.critical_rate = 0.9
    assert config_hash(a) != config_hash(b)


def test_load_config_matches_builder(tmp_path):
    cfg = _fast_cfg(critical_rate=0.4)
    path = _write_config(tmp_path / "cfg.yaml", cfg)
    assert load_config(path) == cfg


# ---- sweep ---------------------------------------------------------------

def test_sweep_runs_grid_and_writes_outputs(tmp_path, capsys):
    base = _write_config(tmp_path / "base.yaml", _fast_cfg(duration=20.0))
    spec = tmp_path / "sweep.yaml"
    spec.write_text(yaml.safe_dump({
        "base_config": "base.yaml",
        "parameter": "critical_rate",
        "values": [0.2, 0.8],
        "seeds": 2,
        "protocols": ["tdthr", "greedy_geo"],
    }))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec),
                 "--out", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == metrics.csv_header()
    assert len(lines) == 1 + 2 * 2 * 2  # values x seeds x protocols
    recs = [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]
    assert {r["protocol"] for r in recs} == {"tdthr", "greedy_geo"}
    assert {r["critical_rate"] for r in recs} == {"0.2", "0.8"}
    assert {r["seed"] for r in recs} == {"1", "2"}
    assert not (out_dir / "failures.txt").exists()
    plot = (out_dir / "plot_prr_critical.csv").read_text().splitlines()
    assert plot[0] == "critical_rate,protocol,mean,min,max"
    assert len(plot) == 1 + 4  # one line per (protocol, value)


def test_a_parallel_sweep_writes_what_a_serial_one_does(tmp_path, capsys):
    # the workers get each run's config, positions included, by pickling
    _write_config(tmp_path / "base.yaml", _fast_cfg(duration=20.0))
    spec = tmp_path / "sweep.yaml"
    spec.write_text(yaml.safe_dump({
        "base_config": "base.yaml",
        "parameter": "critical_rate",
        "values": [0.2, 0.8],
        "seeds": 2,
        "protocols": ["tdthr", "greedy_geo"],
    }))
    outputs = []
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--spec", str(spec), "--out", str(out_dir),
                     "--jobs", jobs]) == EXIT_OK
        outputs.append({f.name: f.read_bytes() for f in out_dir.iterdir()})
    capsys.readouterr()
    serial, parallel = outputs
    assert len(serial["sweep.csv"].splitlines()) == 1 + 2 * 2 * 2
    assert parallel == serial
    # the grid itself: the same ledgers on one worker and two, in input order
    configs = cli._sweep_configs(load_sweep_spec(spec))
    rows = [[cli._csv_row(cfg, ledger)
             for cfg, ledger in zip(configs, cli.run_grid(configs, jobs))]
            for jobs in (1, 2)]
    assert rows[1] == rows[0]
    assert [row.split(",")[1:4] for row in rows[0]] == [
        [str(cfg.rng_seed), cfg.protocol, str(cfg.critical_rate)]
        for cfg in configs]


@pytest.mark.parametrize("runs, jobs, workers", [
    (3, "500", 3), (3, "2", 2), (3, "1", None), (1, "500", None),
], ids=["more_jobs_than_runs", "fewer_jobs_than_runs", "one_job", "one_run"])
def test_a_sweep_starts_no_more_workers_than_runs(tmp_path, capsys, monkeypatch,
                                                  runs, jobs, workers):
    # A forked pool starts every worker at its first submit, so `--jobs 500`
    # must not size the pool for a 3-run sweep; a pool of one is the serial
    # path. The stand-in pool records its size and maps in this process, so
    # the test starts no process.
    import concurrent.futures
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    _write_config(tmp_path / "base.yaml", _fast_cfg(duration=20.0))
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump({
        "base_config": "base.yaml", "parameter": "critical_rate",
        "values": [0.2, 0.5, 0.8][:runs], "protocols": ["greedy_geo"]}))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec), "--out", str(out_dir),
                 "--jobs", jobs]) == EXIT_OK
    capsys.readouterr()
    assert sizes == ([] if workers is None else [workers])
    assert len((out_dir / "sweep.csv").read_text().splitlines()) == 1 + runs


def test_importing_the_cli_loads_no_worker_pool():
    # the pool, and `multiprocessing` with it, is imported by a sweep that
    # runs more than one job, not by every process that imports the CLI
    src = Path(cli.__file__).resolve().parents[1]
    shown = subprocess.run(
        [sys.executable, "-c",
         "import sys, tdthr.cli; print('concurrent.futures' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=True)
    assert shown.stdout == "False\n"


def test_sweep_plots_group_by_the_swept_parameter(tmp_path, capsys):
    # `deadline` is no CSV column: each value still gets its own plot row
    _write_config(tmp_path / "base.yaml", _fast_cfg(duration=20.0))
    spec = tmp_path / "sweep.yaml"
    spec.write_text(yaml.safe_dump({"base_config": "base.yaml",
                                    "parameter": "deadline",
                                    "values": [0.5, 0.1],
                                    "protocols": ["greedy_geo"]}))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec),
                 "--out", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    plot = (out_dir / "plot_prr_regular.csv").read_text().splitlines()
    assert plot[0] == "deadline,protocol,mean,min,max"
    assert [line.split(",")[:2] for line in plot[1:]] == [
        ["0.1", "greedy_geo"], ["0.5", "greedy_geo"]]


def test_sweep_spec_validation(tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump({"parameter": "critical_rate",
                                    "values": [0.1]}))
    assert main(["sweep", "--spec", str(spec),
                 "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    _write_config(tmp_path / "base.yaml", _fast_cfg())
    spec.write_text(yaml.safe_dump({"base_config": "base.yaml",
                                    "parameter": "does_not_exist",
                                    "values": [1]}))
    assert main(["sweep", "--spec", str(spec),
                 "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


def test_sweep_reports_runtime_failures(tmp_path, capsys):
    _write_config(tmp_path / "base.yaml", _fast_cfg())
    spec = tmp_path / "spec.yaml"
    # a 5 m range is valid, but no placement of the field connects the
    # source to the sinks, so that run fails; the 100 m run still completes
    spec.write_text(yaml.safe_dump({"base_config": "base.yaml",
                                    "parameter": "tx_range",
                                    "values": [5.0, 100.0],
                                    "protocols": ["greedy_geo"]}))
    configs = cli._sweep_configs(load_sweep_spec(spec))
    for jobs in (1, 2):
        out_dir = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--spec", str(spec), "--out", str(out_dir),
                     "--jobs", str(jobs)]) == EXIT_RUNTIME
        capsys.readouterr()
        failures = (out_dir / "failures.txt").read_text()
        assert "tx_range=5.0" in failures
        assert "could not generate a topology" in failures
        assert len((out_dir / "sweep.csv").read_text().splitlines()) == 1 + 1
        failed, done = cli.run_grid(configs, jobs)
        assert failed.startswith("ValueError: could not generate a topology")
        assert isinstance(done, metrics.MetricsLedger)


@pytest.mark.parametrize("point, field", [
    ({"parameter": "duration", "values": [20.0, -5.0]}, "run.duration"),
    ({"parameter": "max_retries", "values": [2.5]}, "mac.max_retries"),
    ({"parameter": "critical_rate", "values": [0.5],
      "protocols": ["tdthr", "flooding"]}, "protocol.protocol"),
    ({"parameter": "critical_rate", "values": 0.5}, "non-empty list"),
    ({"parameter": "protocol", "values": ["greedy_geo", "one_hop_velocity"]},
     "'protocols:'"),
    ({"parameter": "rng_seed", "values": [1, 2]}, "'seeds:'"),
    ({"parameter": "critical_rate", "values": [0.5], "seeds": [1, "x"]},
     "run.rng_seed"),
    ({"parameter": "critical_rate", "values": [0.5], "seeds": 2.5},
     "seeds must be a positive int"),
    ({"parameter": "critical_rate", "values": [0.5], "seeds": True},
     "seeds must be a positive int"),
    ({"parameter": "critical_rate", "values": [0.5], "protocols": "tdthr"},
     "protocols must be a list"),
    ({"parameter": "critical_rate", "values": [0.5], "protocols": []},
     "protocols must be a list of one or more"),
    ({"base_config": [1], "parameter": "critical_rate", "values": [0.5]},
     "base_config must be a string"),
    ({"base_config": 5, "parameter": "critical_rate", "values": [0.5]},
     "base_config must be a string"),
    ({"parameter": [1], "values": [0.5]}, "parameter must be a string"),
    # a repeated entry would rerun the same runs and weight the plot means
    ({"parameter": "critical_rate", "values": [0.1, 0.1]}, "values repeats 0.1"),
    ({"parameter": "critical_rate", "values": [0.5], "seeds": [1, 1]},
     "seeds repeats 1"),
    ({"parameter": "critical_rate", "values": [0.5],
      "protocols": ["greedy_geo", "greedy_geo"]},
     "protocols repeats 'greedy_geo'"),
])
def test_sweep_rejects_invalid_points_at_load(tmp_path, capsys, point, field):
    _write_config(tmp_path / "base.yaml", _fast_cfg())
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump({"base_config": "base.yaml", **point}))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec),
                 "--out", str(out_dir)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert field in err
    assert err.count(str(spec)) == 1
    assert not out_dir.exists()


def _small_spec(tmp_path):
    _write_config(tmp_path / "base.yaml", _fast_cfg(duration=20.0))
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump({"base_config": "base.yaml",
                                    "parameter": "critical_rate",
                                    "values": [0.5],
                                    "protocols": ["greedy_geo"]}))
    return str(spec)


def test_sweep_rejects_a_file_as_output_directory_before_running(
        tmp_path, capsys, monkeypatch):
    spec = _small_spec(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    started = _no_runs(monkeypatch)
    assert main(["sweep", "--spec", spec, "--out", str(taken)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count(str(taken)) == 1 and "Traceback" not in err
    assert started == [] and taken.read_text() == "keep me\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_job(tmp_path, capsys, monkeypatch, jobs):
    spec = _small_spec(tmp_path)
    started = _no_runs(monkeypatch)
    assert main(["sweep", "--spec", spec, "--out", str(tmp_path / "o"),
                 "--jobs", jobs]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"--jobs must be at least 1, got {jobs}" in err
    assert started == [] and not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--spec", "x.yaml", "--jobs", "abc"],
     "argument --jobs: invalid int value: 'abc'"),
    (["run", "--config", "configs/desk.yaml"],
     "the following arguments are required: --out"),
    (["simulate"], "invalid choice: 'simulate'"),
], ids=["invalid_int", "missing_option", "unknown_command"])
def test_usage_errors_exit_1(capsys, monkeypatch, argv, message):
    # a mistyped command line is a validation failure, not a runtime one
    started = _no_runs(monkeypatch)
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert message in err and err.startswith("usage: tdthr")
    assert out == "" and started == []


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: tdthr")


def test_sweep_reads_no_environment_knobs(tmp_path, capsys, monkeypatch):
    # the options' defaults hold whatever the environment says
    spec = _small_spec(tmp_path)
    monkeypatch.setenv("TDTHR_JOBS", "abc")
    monkeypatch.setenv("TDTHR_OUT_DIR", str(tmp_path / "from_env"))
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--spec", spec]) == EXIT_OK
    capsys.readouterr()
    assert len((tmp_path / "sweep_out" / "sweep.csv").read_text().splitlines()) == 2
    assert not (tmp_path / "from_env").exists()


def test_sweep_seed_list_normalization(tmp_path):
    _write_config(tmp_path / "base.yaml", _fast_cfg())
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump({"base_config": "base.yaml",
                                    "parameter": "critical_rate",
                                    "values": [0.5],
                                    "seeds": [4, 8]}))
    loaded = load_sweep_spec(spec)
    assert loaded["seeds"] == [4, 8]
    spec.write_text(yaml.safe_dump({"base_config": "base.yaml",
                                    "parameter": "critical_rate",
                                    "values": [0.5],
                                    "seeds": 3}))
    assert load_sweep_spec(spec)["seeds"] == [1, 2, 3]
