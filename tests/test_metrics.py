"""Metrics-ledger tests: logical-packet delivery accounting, drop causes,
deadline misses, lifetime definitions, and the CSV schema."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tdthr.core import PacketClass
from tdthr.metrics import (CSV_COLUMNS, DROP_CAUSES, MetricsLedger, csv_header,
                           csv_row)

from helpers import ReferenceLedger

C = PacketClass.CRITICAL
R = PacketClass.REGULAR


def _gen(ledger, lid, cls=C, creation=0.0, copies=(0,)):
    ledger.record_generated(lid, cls, creation, copies)


# ---- delivery accounting -------------------------------------------------

def test_duplicate_copies_count_one_delivery():
    ledger = MetricsLedger()
    _gen(ledger, lid=1, copies=(10, 11))
    ledger.record_delivery(1, 10, arrival=0.10, deadline=0.3)
    ledger.record_delivery(1, 11, arrival=0.25, deadline=0.3)
    assert ledger.per_class[C].delivered == 1
    assert ledger.per_class[C].delays == [0.10]  # first arrival only
    assert ledger.prr(C) == 1.0


def test_late_delivery_scores_a_deadline_miss():
    ledger = MetricsLedger()
    _gen(ledger, lid=1)
    ledger.record_delivery(1, 0, arrival=0.45, deadline=0.3)
    assert ledger.per_class[C].delivered == 1
    assert ledger.per_class[C].deadline_misses == 1
    assert ledger.deadline_miss_ratio() == 1.0


def test_drop_charged_to_last_copy_lost():
    ledger = MetricsLedger()
    _gen(ledger, lid=1, copies=(10, 11))
    ledger.record_copy_lost(1, 10, "void")
    assert ledger.per_class[C].drops["void"] == 0  # one copy still out
    ledger.record_copy_lost(1, 11, "retries_exhausted")
    assert ledger.per_class[C].drops["retries_exhausted"] == 1
    assert ledger.prr(C) == 0.0


def test_lost_copy_after_delivery_is_not_a_drop():
    ledger = MetricsLedger()
    _gen(ledger, lid=1, copies=(10, 11))
    ledger.record_delivery(1, 10, arrival=0.1, deadline=0.3)
    ledger.record_copy_lost(1, 11, "void")
    assert sum(ledger.per_class[C].drops.values()) == 0
    assert ledger.accounting_closed()


def test_expired_copy_counts_miss_even_before_last_loss():
    ledger = MetricsLedger()
    _gen(ledger, lid=1, copies=(10, 11))
    ledger.record_copy_lost(1, 10, "deadline")
    assert ledger.per_class[C].deadline_misses == 1
    ledger.record_copy_lost(1, 11, "deadline")
    assert ledger.per_class[C].deadline_misses == 1  # only once per packet
    assert ledger.per_class[C].drops["deadline"] == 1


def test_accounting_closure_tracks_in_flight():
    ledger = MetricsLedger()
    _gen(ledger, lid=1)
    _gen(ledger, lid=2)
    assert ledger.accounting_closed()  # both still in flight
    ledger.record_delivery(1, 0, arrival=0.1, deadline=0.3)
    assert ledger.accounting_closed()


def test_loss_reported_after_the_last_copy_changes_nothing():
    ledger = MetricsLedger()
    _gen(ledger, lid=1, copies=(10,))
    ledger.record_copy_lost(1, 10, "void")
    ledger.record_copy_lost(1, 10, "void")
    assert ledger.per_class[C].drops["void"] == 1
    assert ledger.accounting_closed()


@st.composite
def _ledger_reports(draw):
    """Logical packets of 1-2 copies, each copy settling once, delivered
    or lost to any cause, reported in any order, some reports repeated.
    Returns (packets, reports): lid -> (class, creation, copy ids), and
    ("delivery", lid, copy, arrival, deadline) / ("lost", lid, copy, cause)."""
    packets, reports = {}, []
    next_copy = 0
    for lid in range(draw(st.integers(1, 8))):
        cls = draw(st.sampled_from(list(PacketClass)))
        creation = draw(st.floats(0.0, 100.0))
        copies = list(range(next_copy, next_copy + draw(st.integers(1, 2))))
        next_copy += len(copies)
        packets[lid] = (cls, creation, copies)
        for copy in copies:
            if draw(st.booleans()):
                report = ("delivery", lid, copy,
                          creation + draw(st.floats(0.0, 1.0)),
                          draw(st.sampled_from([0.05, 0.3])))
            else:
                report = ("lost", lid, copy, draw(st.sampled_from(DROP_CAUSES)))
            reports += [report] * draw(st.integers(1, 2))
    return packets, draw(st.permutations(reports))


def _counters(ledger):
    return {cls: (c.generated, c.delivered, c.deadline_misses, c.delays,
                  c.drops) for cls, c in ledger.per_class.items()}


def _reference_counters(ref):
    out = {}
    for cls in PacketClass:
        c = ref._counters(cls)
        out[cls] = (c["generated"], c["delivered"], c["deadline_misses"],
                    c["delays"], c["drops"])
    return out


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_ledger_reports())
def test_ledger_matches_the_four_container_reference(case):
    packets, reports = case
    ledger, ref = MetricsLedger(), ReferenceLedger(DROP_CAUSES)
    generated = set()
    for kind, lid, copy, *rest in reports:
        if lid not in generated:   # a packet is generated before its reports
            generated.add(lid)
            for book in (ledger, ref):
                book.record_generated(lid, *packets[lid])
        if kind == "delivery":
            ledger.record_delivery(lid, copy, *rest)
            ref.record_delivery(lid, copy, *rest)
        elif not ref.closed_by_loss(lid):
            # the reference would charge a drop again for a report that
            # follows the last copy's loss; the kernel reports each loss once
            ledger.record_copy_lost(lid, copy, *rest)
            ref.record_copy_lost(lid, copy, packets[lid][0], *rest)
        assert set(ledger._open) == ref.open_ids()
        assert ledger.accounting_closed() == ref.accounting_closed() is True
    assert _counters(ledger) == _reference_counters(ref)
    assert ledger._open == {}   # every copy has settled


# ---- derived metrics -----------------------------------------------------

def test_rates_undefined_without_traffic():
    ledger = MetricsLedger()
    assert ledger.prr(C) is None
    assert ledger.mean_delay(C) is None
    assert ledger.delay_p95(C) is None
    assert ledger.ecpp() is None
    assert ledger.deadline_miss_ratio() is None


def test_delay_statistics():
    ledger = MetricsLedger()
    for lid, delay in enumerate([0.1, 0.2, 0.3, 0.4]):
        _gen(ledger, lid=lid, copies=(lid,))
        ledger.record_delivery(lid, lid, arrival=delay, deadline=1.0)
    assert abs(ledger.mean_delay(C) - 0.25) < 1e-12
    assert ledger.delay_p95(C) == 0.4


def test_energy_and_ecpp():
    ledger = MetricsLedger()
    ledger.record_energy(500_000_000)
    ledger.record_energy(250_000_000)
    assert ledger.total_energy_j == 0.75
    _gen(ledger, lid=1)
    ledger.record_delivery(1, 0, arrival=0.1, deadline=0.3)
    assert ledger.ecpp() == 0.75


def test_lifetime_definitions():
    ledger = MetricsLedger()
    assert ledger.lifetime(120.0) == 120.0  # nobody died
    ledger.record_death(40.0)
    ledger.record_death(40.5)   # later deaths do not move the mark
    ledger.record_partition(55.0)
    ledger.record_partition(60.0)   # the partition keeps its first mark too
    assert ledger.partition_time == 55.0
    assert ledger.lifetime(120.0) == 40.0   # lifetime is the first death


# ---- CSV schema ----------------------------------------------------------

def test_csv_header_matches_columns():
    assert csv_header() == ",".join(CSV_COLUMNS)
    assert CSV_COLUMNS[:4] == ["config_hash", "seed", "protocol",
                               "critical_rate"]
    for cause in DROP_CAUSES:
        assert f"drops_{cause}" in CSV_COLUMNS


def test_csv_row_field_count_and_blanks():
    ledger = MetricsLedger()
    _gen(ledger, lid=1, cls=R)
    ledger.record_delivery(1, 0, arrival=0.123456789, deadline=0.3)
    row = csv_row(ledger, "abc123", seed=7, protocol="tdthr",
                  critical_rate=0.2, duration=120.0)
    fields = row.split(",")
    assert len(fields) == len(CSV_COLUMNS)
    rec = dict(zip(CSV_COLUMNS, fields))
    assert rec["config_hash"] == "abc123"
    assert rec["seed"] == "7"
    assert rec["prr_regular"] == "1"
    assert rec["prr_critical"] == ""          # no critical traffic generated
    assert rec["generated"] == "1" and rec["delivered"] == "1"
    assert float(rec["mean_delay_regular"]) == 0.123457  # 6 significant digits
