"""The beacon plane: one heap entry per HELLO must run its receptions in the
order of one event per reception (`helpers.ReferenceSimulation`); every
frame, beacon or data attempt, carries its link's count of frames sent,
checked by an observer that restates no kernel rule (`Observed`); and a
failed hop leaves the table until its next HELLO."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdthr import metrics
from tdthr.cli import config_hash
from tdthr.neighborhood import NeighborTable
from tdthr.simkernel import Simulation

from helpers import ReferenceSimulation, mini_config

PROTOCOLS = ("tdthr", "one_hop_velocity", "greedy_geo")


class Observed:
    """Mixin for a `Simulation` class that watches the frames of a run from
    outside. It keeps every `_ev_hello_rx` call as `(now, receiver, sender,
    seq)` in `hello_rx_calls`, and counts the frames that actually go out on
    each directed link: each built beacon is one frame to every peer in
    `links` (a beacon is built only once it is paid for), and each
    `_begin_attempt` call that raised `state.attempts` is one data frame.
    Every reception must carry its link's count from when its frame was
    sent; `checked` counts the receptions checked, by kind."""

    def __init__(self, cfg, trace=None):
        self.hello_rx_calls = []
        self.frames = {}           # (sender, receiver) -> frames sent
        self.beacon_numbers = {}   # id(hello) -> (hello, {peer: number})
        self.attempt_numbers = {}  # tx state -> its last attempt's number
        self.checked = {"hello": 0, "data": 0, "retry": 0}
        super().__init__(cfg, trace)

    def _sent(self, sender, receiver):
        n = self.frames[sender, receiver] = \
            self.frames.get((sender, receiver), 0) + 1
        return n

    def _build_hello(self, node, live):
        hello = super()._build_hello(node, live)
        self.beacon_numbers[id(hello)] = (hello, {
            peer: self._sent(node.id, peer) for peer in self.links[node.id]})
        return hello

    def _begin_attempt(self, node, state):
        attempts = state.attempts
        super()._begin_attempt(node, state)
        if state.attempts > attempts:
            self.attempt_numbers[state] = self._sent(node.id, state.next_hop)

    def _ev_hello_rx(self, receiver_id, hello, seq):
        self.hello_rx_calls.append((self.now, receiver_id, hello.sender, seq))
        assert seq == self.beacon_numbers[id(hello)][1][receiver_id]
        self.checked["hello"] += 1
        super()._ev_hello_rx(receiver_id, hello, seq)

    def _ev_data_rx(self, state, seq):
        assert seq == self.attempt_numbers[state]
        self.checked["data" if state.attempts == 1 else "retry"] += 1
        super()._ev_data_rx(state, seq)


class Logged(Observed, Simulation):
    pass


class LoggedReference(Observed, ReferenceSimulation):
    pass


class Synchronised:
    """Mixin: every node sends its first beacon at 1 s, so that the
    receptions of many beacons interleave, and tie where they arrive at one
    time (the two directions of a link share their propagation delay)."""

    def _schedule_initial(self):
        for nid in sorted(self.nodes):
            self._schedule(1.0, self._ev_hello, nid)
        self._schedule(self.cfg.traffic_start, self._ev_cbr)
        self._schedule(self.cfg.audit_period, self._ev_audit)


class SynchronisedLogged(Synchronised, Logged):
    pass


class SynchronisedLoggedReference(Synchronised, LoggedReference):
    pass


def _outcome(sim_class, cfg):
    """(trace text, CSV row, `_ev_hello_rx` calls) of one run."""
    buf = io.StringIO()
    sim = sim_class(cfg, trace=buf)
    ledger = sim.run()
    row = metrics.csv_row(ledger, config_hash(cfg), cfg.rng_seed, cfg.protocol,
                          cfg.critical_rate, cfg.duration)
    return buf.getvalue(), row, sim.hello_rx_calls


def _assert_same_run(cfg, synchronised=False):
    ours, reference = ((SynchronisedLogged, SynchronisedLoggedReference)
                       if synchronised else (Logged, LoggedReference))
    outcome = _outcome(ours, cfg)
    assert outcome == _outcome(reference, cfg)
    return outcome


@settings(max_examples=100, deadline=None, derandomize=True)
@given(protocol=st.sampled_from(PROTOCOLS),
       seed=st.integers(1, 10_000),
       duration=st.floats(2.0, 14.0),
       traffic_start=st.one_of(st.floats(0.0, 6.0), st.just(100.0)),
       energy_initial=st.floats(0.02, 0.4),
       energy_idle=st.sampled_from([0.000003, 0.005]),
       stop_energy_fraction=st.sampled_from([0.0, 0.2]),
       drain_window=st.sampled_from([0.0, 1e-7, 0.5]),
       stop_at_first_death=st.booleans(),
       critical_rate=st.sampled_from([0.0, 0.5]),
       synchronised=st.booleans())
def test_one_heap_entry_per_beacon_keeps_the_event_order(
        protocol, seed, duration, traffic_start, energy_initial, energy_idle,
        stop_energy_fraction, drain_window, stop_at_first_death,
        critical_rate, synchronised):
    # Low batteries kill nodes and start drains. Where traffic never starts
    # and beacons are costly (no audit runs), that happens while a beacon's
    # receptions are still pending, and a zero or tiny drain window then
    # ends the run between two receptions of one beacon.
    cfg = mini_config(protocol=protocol, rng_seed=seed, duration=duration,
                      traffic_start=traffic_start, energy_initial=energy_initial,
                      energy_idle=energy_idle, audit_period=100.0,
                      stop_energy_fraction=stop_energy_fraction,
                      drain_window=drain_window,
                      stop_at_first_death=stop_at_first_death,
                      critical_rate=critical_rate)
    _assert_same_run(cfg, synchronised)


def test_the_reference_replaces_only_the_beacon_batching():
    # the oracle differs from the kernel in the one decision it checks;
    # every other rule it runs is the kernel's own
    assert {name for name, value in vars(ReferenceSimulation).items()
            if callable(value) or not name.startswith("__")} == {
                "_deliver_hellos"}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_frame_carries_its_link_number(protocol):
    # four classes at 4 kB/s and no energy stop: each link carries beacons,
    # first attempts and retries, and every reception is checked against
    # the observer's count of the frames sent on its link
    cfg = mini_config(protocol=protocol, rng_seed=1, rate_bytes_per_s=4000.0,
                      critical_rate=0.25, delay_responsive_rate=0.25,
                      reliability_responsive_rate=0.25, traffic_start=11.0,
                      duration=20.0, energy_initial=1000.0,
                      stop_energy_fraction=0.0)
    sim = Logged(cfg)
    sim.run()
    assert sim.now == cfg.duration
    assert sim.checked["hello"] > 1000
    assert sim.checked["data"] > 200 and sim.checked["retry"] > 100


def test_a_run_can_end_between_two_receptions_of_one_beacon():
    cfg = mini_config(rng_seed=3, duration=17.0)
    calls = _outcome(LoggedReference, cfg)[2]
    # two receptions of one beacon at distinct times, the last such pair
    # before the run ends, with no other reception between them
    cut = None
    for (t_a, _, sender_a, _), (t_b, _, sender_b, _) in zip(calls, calls[1:]):
        if sender_a == sender_b and t_a < (t_a + t_b) / 2 < t_b < t_a + 1e-3:
            cut = (t_a, t_b)
    assert cut is not None
    t_a, t_b = cut
    cfg.duration = (t_a + t_b) / 2
    assert _assert_same_run(cfg)[2][-1][0] == t_a


def test_a_drain_begun_by_a_reception_ends_the_run_mid_beacon():
    # Beacons are the only cost, and the first node to fall below the energy
    # floor does so at a reception: with no drain window the run ends there,
    # before the rest of that beacon's receptions.
    cfg = mini_config(rng_seed=2, traffic_start=100.0, energy_initial=0.05,
                      energy_idle=0.005, stop_energy_fraction=0.2,
                      drain_window=0.0, audit_period=100.0)
    trace, _, calls = _assert_same_run(cfg)
    t_a, receiver, sender, _ = calls[-1]
    assert trace.splitlines()[-1].split()[:3] == [f"{t_a:.9f}", str(receiver),
                                                  "energy_low"]
    cfg.drain_window = 1e-3
    assert [c for c in _outcome(Logged, cfg)[2]
            if c[2] == sender and t_a < c[0] < t_a + 1e-3]


def test_a_failed_hop_is_forgotten_until_its_next_hello(monkeypatch):
    # after `hop_failed` the sender holds no record of the hop: no ACK
    # revives it and neither a forwarding decision nor a beacon sees it,
    # until the hop's next HELLO reaches the sender
    forgotten = set()      # (owner, hop)
    revived = []
    blind_beacons = []     # beacons built while their owner had forgotten a hop
    timeout = Simulation._ev_ack_timeout
    live_records = NeighborTable.live_records
    evict_stale = NeighborTable.evict_stale
    process_hello = NeighborTable.process_hello
    process_ack_info = NeighborTable.process_ack_info

    def timed_out(self, state):
        attempts = state.attempts
        timeout(self, state)
        sender = self.nodes[state.sender]
        if (state.attempts == attempts and sender.alive
                and attempts > self.cfg.max_retries):
            assert state.next_hop not in sender.table.records
            forgotten.add((state.sender, state.next_hop))

    def live(self, now):
        records = live_records(self, now)
        assert not {(self.owner, r.neighbor) for r in records} & forgotten
        return records

    def evict(self, now):
        # the survivors are the whole table, none of them a forgotten hop
        records = evict_stale(self, now)
        assert records == list(self.records.values())
        if any(owner == self.owner for owner, _ in forgotten):
            assert not {(self.owner, r.neighbor) for r in records} & forgotten
            blind_beacons.append(self.owner)
        return records

    def hello_heard(self, hello, now):
        if (self.owner, hello.sender) in forgotten:
            forgotten.discard((self.owner, hello.sender))
            revived.append((self.owner, hello.sender))
        process_hello(self, hello, now)

    def ack_heard(self, sender, *args):
        assert (self.owner, sender) not in forgotten
        process_ack_info(self, sender, *args)

    monkeypatch.setattr(Simulation, "_ev_ack_timeout", timed_out)
    monkeypatch.setattr(NeighborTable, "live_records", live)
    monkeypatch.setattr(NeighborTable, "evict_stale", evict)
    monkeypatch.setattr(NeighborTable, "process_hello", hello_heard)
    monkeypatch.setattr(NeighborTable, "process_ack_info", ack_heard)
    cfg = mini_config(rng_seed=1, rate_bytes_per_s=2000.0, traffic_start=11.0,
                      duration=40.0, energy_initial=1000.0,
                      stop_energy_fraction=0.0)
    buf = io.StringIO()
    Simulation(cfg, trace=buf).run()
    assert buf.getvalue().count(" hop_failed ") > 20
    assert len(revived) > 10
    assert len(blind_beacons) > 10
