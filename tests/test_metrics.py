"""Metrics-ledger tests: logical-packet delivery accounting, drop causes,
deadline misses, lifetime definitions, and the CSV schema."""

from tdthr.core import PacketClass
from tdthr.metrics import (CSV_COLUMNS, DROP_CAUSES, MetricsLedger, csv_header,
                           csv_row)

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
    ledger.record_copy_lost(1, 10, C, "void")
    assert ledger.per_class[C].drops["void"] == 0  # one copy still out
    ledger.record_copy_lost(1, 11, C, "retries_exhausted")
    assert ledger.per_class[C].drops["retries_exhausted"] == 1
    assert ledger.prr(C) == 0.0


def test_lost_copy_after_delivery_is_not_a_drop():
    ledger = MetricsLedger()
    _gen(ledger, lid=1, copies=(10, 11))
    ledger.record_delivery(1, 10, arrival=0.1, deadline=0.3)
    ledger.record_copy_lost(1, 11, C, "void")
    assert sum(ledger.per_class[C].drops.values()) == 0
    assert ledger.accounting_closed()


def test_expired_copy_counts_miss_even_before_last_loss():
    ledger = MetricsLedger()
    _gen(ledger, lid=1, copies=(10, 11))
    ledger.record_copy_lost(1, 10, C, "deadline")
    assert ledger.per_class[C].deadline_misses == 1
    ledger.record_copy_lost(1, 11, C, "deadline")
    assert ledger.per_class[C].deadline_misses == 1  # only once per packet
    assert ledger.per_class[C].drops["deadline"] == 1


def test_accounting_closure_tracks_in_flight():
    ledger = MetricsLedger()
    _gen(ledger, lid=1)
    _gen(ledger, lid=2)
    assert ledger.accounting_closed()  # both still in flight
    ledger.record_delivery(1, 0, arrival=0.1, deadline=0.3)
    assert ledger.accounting_closed()


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
    assert ledger.lifetime(120.0) == 40.0
    ledger.lifetime_metric = "partition"
    assert ledger.lifetime(120.0) == 55.0


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
