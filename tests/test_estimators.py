"""Estimator unit tests: hand-computed update values to 1e-12, error paths,
and the blending/isolation properties the rest of the stack relies on."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdthr.core import PacketClass
from tdthr.estimators import DelayEstimator, PrrEstimator

from helpers import line_pairs, reference_gap_rule

EPS = 1e-12


# ---- link reliability ----------------------------------------------------

def test_reliability_update_hand_computed():
    est = PrrEstimator(prr=0.5, window=30, beta=0.6)
    for _ in range(27):
        est.record(True)
    for _ in range(3):
        fired = est.record(False)
    assert fired
    assert abs(est.prr - 0.66) <= EPS
    assert est.received == est.missed == 0  # window resets after the update


def test_reliability_update_full_history_weight_is_inert():
    est = PrrEstimator(prr=0.42, window=10, beta=1.0)
    for _ in range(10):
        est.record(False)
    assert abs(est.prr - 0.42) <= EPS


def test_reliability_perfect_link_fixed_point():
    est = PrrEstimator(prr=1.0, window=30, beta=0.6)
    for _ in range(30):
        est.record(True)
    assert abs(est.prr - 1.0) <= EPS


def test_reliability_update_requires_observations():
    with pytest.raises(ValueError):
        PrrEstimator().update()


def test_reliability_fires_exactly_at_window_boundary():
    est = PrrEstimator(window=5)
    fired = [est.record(True) for _ in range(12)]
    assert fired == [False] * 4 + [True] + [False] * 4 + [True] + [False] * 2


class _RecordLog(PrrEstimator):
    """Logs every outcome that reaches `record` through the instance."""

    def record(self, delivered: bool) -> bool:
        self.log.append(delivered)
        return PrrEstimator.record(self, delivered)


# Steps between successive frame numbers: 1 is in order, above 1 a gap,
# 0 a repeat and below 0 a late frame.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(steps=st.lists(st.integers(-4, 6), max_size=60),
       window=st.integers(1, 8))
def test_observe_keeps_the_old_gap_rule(steps, window):
    est = _RecordLog(window=window, beta=0.6)
    est.log = []
    ref = PrrEstimator(window=window, beta=0.6)
    mark, expected, seq = 0, [], 0
    for step in steps:
        seq = max(1, seq + step)
        mark, outcomes = reference_gap_rule(mark, seq)
        for delivered in outcomes:
            ref.record(delivered)
        expected += outcomes
        est.observe(seq)
        assert est.last_seq == mark
    assert est.log == expected
    assert (est.prr, est.received, est.missed) == (ref.prr, ref.received,
                                                   ref.missed)


def test_observe_counts_a_gap_and_ignores_a_late_frame():
    est = PrrEstimator(window=30)
    for seq in (1, 2, 5, 3, 6):
        est.observe(seq)
    # 3 and 4 were skipped; the late 3 is one more reception, not a loss
    assert (est.received, est.missed, est.last_seq) == (5, 2, 6)


@settings(max_examples=200, deadline=None)
@given(prr=st.floats(0, 1), beta=st.floats(0, 1),
       received=st.integers(0, 30), missed=st.integers(0, 30))
def test_reliability_update_is_a_contraction(prr, beta, received, missed):
    """Each update pulls the estimate toward the window mean by at least a
    factor of the history weight."""
    if received + missed == 0:
        return
    est = PrrEstimator(prr=prr, window=received + missed, beta=beta)
    est.received, est.missed = received, missed
    target = received / (received + missed)
    before = abs(est.prr - target)
    est.update()
    assert abs(est.prr - target) <= beta * before + EPS
    assert 0.0 <= est.prr <= 1.0


# ---- queuing delay -------------------------------------------------------

def test_queue_delay_update_hand_computed():
    est = DelayEstimator(gamma=0.5)
    est.dq[PacketClass.CRITICAL] = 0.010
    assert abs(est.dq_update(PacketClass.CRITICAL, 0.030) - 0.020) <= EPS


def test_queue_delay_first_sample_blends_with_zero_prior():
    est = DelayEstimator(gamma=0.5)
    assert abs(est.dq_update(PacketClass.REGULAR, 0.040) - 0.020) <= EPS


def test_queue_delay_full_history_weight_is_inert():
    est = DelayEstimator(gamma=1.0)
    est.dq[PacketClass.REGULAR] = 0.007
    assert abs(est.dq_update(PacketClass.REGULAR, 0.5) - 0.007) <= EPS


def test_queue_delay_rejects_negative_samples():
    with pytest.raises(ValueError):
        DelayEstimator().dq_update(PacketClass.REGULAR, -0.001)


def test_queue_delay_classes_are_isolated():
    est = DelayEstimator(gamma=0.5)
    est.dq_update(PacketClass.CRITICAL, 0.100)
    assert est.dq[PacketClass.REGULAR] == 0.0
    assert est.dq[PacketClass.DELAY_RESPONSIVE] == 0.0


def test_queue_delay_update_replaces_the_sent_snapshot():
    # HELLOs and ACKs carry `dq` itself, and tables keep it by reference,
    # so an update must leave every dict already handed out unchanged.
    est = DelayEstimator(gamma=0.5)
    sent = est.dq
    before = dict(sent)
    assert before == dict.fromkeys(PacketClass, 0.0)
    est.dq_update(PacketClass.CRITICAL, 0.100)
    assert est.dq is not sent and sent == before
    assert est.dq == {**before, PacketClass.CRITICAL: 0.050}
    assert list(est.dq) == list(PacketClass)
    assert DelayEstimator().dq is not DelayEstimator().dq


# ---- transmission delay --------------------------------------------------

def test_tx_delay_update_hand_computed():
    # acknowledgment serialization: 12 B at 250 kbit/s = 0.000384 s, so the
    # sample is 0.0105 - 0.000384 = 0.010116 and the blend gives 0.007058
    est = DelayEstimator(gamma=0.5)
    est.dt[5] = 0.004
    new = est.dt_update(5, t_s=10.000, t_ack=10.0105,
                        ack_airtime=12 * 8 / 250000.0)
    assert abs(new - 0.007058) <= EPS


def test_tx_delay_rejects_time_travel():
    est = DelayEstimator()
    with pytest.raises(ValueError):
        est.dt_update(5, t_s=10.0, t_ack=10.0, ack_airtime=0.000384)
    with pytest.raises(ValueError):
        # ack arrives before it could even have been serialized
        est.dt_update(5, t_s=10.0, t_ack=10.0001, ack_airtime=0.000384)


def test_tx_delay_prior_used_for_unknown_neighbor():
    est = DelayEstimator(dt_prior=0.0048)
    assert est.dt_for(99) == 0.0048


# ---- combined nodal delay ------------------------------------------------

def test_nodal_delay_hand_computed():
    # a node's delay dq + dt is the first hop's share of a pair's denominator
    [pair] = line_pairs(dq_x=0.020, dt_xy=0.007)
    assert abs(pair.denominator - 0.027) <= EPS
    [pair] = line_pairs(dq_x=0.015, dt_xy=0.010116)
    assert abs(pair.denominator - 0.025116) <= EPS


@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(0, 1),
       prior=st.floats(0, 1), sample=st.floats(0, 1))
def test_exponential_blend_stays_between_prior_and_sample(gamma, prior, sample):
    est = DelayEstimator(gamma=gamma)
    est.dq[PacketClass.REGULAR] = prior
    new = est.dq_update(PacketClass.REGULAR, sample)
    lo, hi = min(prior, sample), max(prior, sample)
    assert lo - EPS <= new <= hi + EPS


def test_long_run_convergence_to_constant_sample():
    rng = random.Random(1)
    est = DelayEstimator(gamma=0.5)
    for _ in range(60):
        est.dq_update(PacketClass.CRITICAL, 0.030 + rng.uniform(-1e-9, 1e-9))
    assert abs(est.dq[PacketClass.CRITICAL] - 0.030) < 1e-6
