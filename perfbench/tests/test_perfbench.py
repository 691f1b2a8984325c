"""Tests of the benchmark itself, on tiny configs so they finish in seconds.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import hostspeed
import tracer
import workloads
from tdthr.core import PacketClass
from tdthr.simkernel import SimConfig, Simulation

ROOT = Path(__file__).resolve().parents[2]


def tiny_config(**overrides) -> SimConfig:
    cfg = SimConfig(node_count=60, field_width=450.0, field_height=450.0,
                    node_density=60 / (450.0 * 450.0), sink_inset=60.0,
                    traffic_start=15.0, critical_rate=0.3,
                    delay_responsive_rate=0.3, rate_bytes_per_s=3000.0,
                    max_retries=4, min_delivery_prob=0.6, duration=22.0,
                    rng_seed=3)
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


def tiny_bench() -> harness.Bench:
    return harness.Bench([workloads.Job("tiny", tiny_config())])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builders_produce_valid_configs(name):
    jobs = workloads.build(name, ROOT / "configs", 7)
    assert jobs
    for job in jobs:
        assert job.cfg.validate() == [], job.label
    seeds = [job.cfg.rng_seed for job in jobs]
    assert len(set(seeds)) == len(seeds)
    again = workloads.build(name, ROOT / "configs", 7)
    assert [j.cfg for j in again] == [j.cfg for j in jobs]
    other = workloads.build(name, ROOT / "configs", 8)
    assert not set(seeds) & {j.cfg.rng_seed for j in other}


def test_self_time_of_nested_spans():
    now = [0.0]
    t = tracer.Tracer([], clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    def middle():
        now[0] += 1.0
        leaf()
        leaf()

    def outer():
        now[0] += 0.5
        middle()
        leaf()

    leaf = t.wrap("leaf", leaf)
    middle = t.wrap("middle", middle)
    outer = t.wrap("outer", outer)
    outer()
    stats = t.stats
    assert stats["leaf"].calls == 3
    assert stats["leaf"].total == pytest.approx(6.0)
    assert stats["leaf"].self_time == pytest.approx(6.0)
    assert stats["middle"].total == pytest.approx(5.0)
    assert stats["middle"].self_time == pytest.approx(1.0)
    assert stats["outer"].total == pytest.approx(7.5)
    assert stats["outer"].self_time == pytest.approx(0.5)


def test_span_counts_calls_that_raise():
    t = tracer.Tracer([], clock=lambda: 0.0)

    def boom():
        raise ValueError("no")

    boom = t.wrap("boom", boom)
    with pytest.raises(ValueError):
        boom()
    assert (t.stats["boom"].calls, t.stats["boom"].errors) == (1, 1)
    assert t._stack == []


def test_gate_accepts_a_clean_run_and_flags_broken_ledgers():
    cfg = tiny_config()
    sim = Simulation(cfg)
    ledger = sim.run()
    assert ledger.generated_total > 0
    assert harness.check_run(sim, ledger) == []

    ledger.total_energy_nj += 1
    assert any("energy" in p for p in harness.check_run(sim, ledger))
    ledger.total_energy_nj -= 1

    ledger.per_class[PacketClass.CRITICAL].generated += 1
    assert any("accounting" in p for p in harness.check_run(sim, ledger))


def test_gate_flags_a_run_without_packets_and_a_changed_row():
    bench = harness.Bench([workloads.Job("silent", tiny_config(traffic_start=30.0))])
    bench.operate(0)
    assert bench.failed == 1 and "no packets generated" in bench.failures[0]

    bench = tiny_bench()
    bench.operate(0)
    bench.rows[0] = bench.rows[0] + "0"
    bench.operate(0)
    assert bench.attempted == 2 and bench.failed == 1
    assert "CSV row differs" in bench.failures[0]


def test_slowdown_comes_from_the_bracketing_kernel_times():
    ref = hostspeed.REFERENCE_S
    out = harness.Outcome([0.1], 1.0, 0.0, "", 1, 0, kernel_s=[ref, 3 * ref, 2 * ref])
    assert out.slowdown("setup") == pytest.approx(2.0 ** hostspeed.EXPONENT["setup"])
    assert out.slowdown("run") == pytest.approx(2.5 ** hostspeed.EXPONENT["run"])
    assert out.slowdown("csv") == out.slowdown("run")


def test_measure_scales_host_time_by_the_kernel():
    bench = tiny_bench()
    timed = bench.measure(0.0)
    assert bench.attempted == 1 and bench.failures == []
    assert timed["runs_per_job"] == [1, 1]
    for part in ("setup_s", "run_s", "wall_s"):
        assert timed[part] > 0
        assert timed[part] == pytest.approx(timed[f"raw_{part}"], rel=0.8)


def test_traced_run_is_transparent():
    bench = tiny_bench()
    bench.operate(0)
    before = Simulation.__dict__["_ev_hello"]
    layers = tracer.Tracer(tracer.layer_targets(), warn=pytest.fail)
    bench.traced_pass(layers)
    assert bench.failures == []          # traced row equals the untraced one
    assert Simulation.__dict__["_ev_hello"] is before
    values = tracer.layer_metrics(layers)
    assert values["simkernel.dispatch.events"] == sum(
        values[f"simkernel.dispatch.events.{k}"] for k in tracer.EVENT_KINDS)
    assert values["neighborhood.pairs_calls"] > 0
    assert values["simkernel.setup.topology_attempts"] >= 1
    assert 0 < values["simkernel.mac.attempts_per_hop"]


def test_missing_wrap_target_drops_only_its_metrics():
    targets = [tg if tg.span != "hello.build"
               else tracer.Target("hello.build", tracer.SIM, "Simulation._gone")
               for tg in tracer.layer_targets()]
    warnings = []
    layers = tracer.Tracer(targets, warn=warnings.append)
    bench = tiny_bench()
    bench.traced_pass(layers)
    assert bench.failures == []
    assert len(warnings) == 1 and "Simulation._gone" in warnings[0]
    values = tracer.layer_metrics(layers)
    assert "simkernel.hello.build_s" not in values
    assert "simkernel.hello.beacons" not in values
    assert values["simkernel.hello.send_self_s"] > 0


def test_fingerprint_is_stable_and_counts_events():
    first = tiny_bench().fingerprint(tracer.event_targets())
    second = tiny_bench().fingerprint(tracer.event_targets())
    assert first == second
    assert first["events"] > 0

    layers = tracer.Tracer(tracer.layer_targets())
    tiny_bench().traced_pass(layers)
    assert tracer.layer_metrics(layers)["simkernel.dispatch.events"] == first["events"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
