"""Record codec, CRC, redundant flash, and link arithmetic."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsat import telemetry
from pairsat.telemetry import (
    FLAG_PRESENT,
    FLAG_SCAN_COMMIT,
    RECORD_BYTES,
    SECTOR_BYTES,
    SECTOR_CAPACITY,
    CorruptRecordError,
    FlashImage,
    LinkBudget,
    TelemetryRecord,
    crc8,
    decode,
    downlink_time,
    encode,
    load_image,
    read_records,
    save_image,
    sectors_identical,
    session_volume,
    table_from_records,
    write_redundant,
)

BLANK = b"\xff" * RECORD_BYTES


def make_record(i=0, **overrides):
    fields = dict(
        time_ms=i * 125,
        scan_id=1 + (i % 500),
        step=i % 36,
        pair_sel=i % 2,
        lc_signal_mv=(i * 37) % 8001,
        lc_idler_mv=0,
        singles_1=18000 + i,
        singles_2=16500 + i,
        coinc_raw=200 + (i % 100),
        temp_centi_c=2200,
        laser_power_10uw=900,
        bias_1_decivolt=1150,
        bias_2_decivolt=1152,
        flags=FLAG_PRESENT,
    )
    fields.update(overrides)
    return TelemetryRecord(**fields)


def test_record_is_32_bytes():
    assert RECORD_BYTES == 32
    assert len(encode(make_record())) == 32


def test_round_trip_identity():
    r = make_record(5)
    assert decode(encode(r)) == r


def test_round_trip_randomized():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        r = TelemetryRecord(
            time_ms=int(rng.integers(0, 2**32)),
            scan_id=int(rng.integers(0, 2**16)),
            step=int(rng.integers(0, 2**8)),
            pair_sel=int(rng.integers(0, 2)),
            lc_signal_mv=int(rng.integers(0, 2**16)),
            lc_idler_mv=int(rng.integers(0, 2**16)),
            singles_1=int(rng.integers(0, 2**32)),
            singles_2=int(rng.integers(0, 2**32)),
            coinc_raw=int(rng.integers(0, 2**16)),
            temp_centi_c=int(rng.integers(-2**15, 2**15)),
            laser_power_10uw=int(rng.integers(0, 2**16)),
            bias_1_decivolt=int(rng.integers(0, 2**16)),
            bias_2_decivolt=int(rng.integers(0, 2**16)),
            flags=int(rng.integers(0, 2**8)),
        )
        assert decode(encode(r)) == r


def test_crc_detects_single_bit_flips():
    data = bytearray(encode(make_record(3)))
    rng = np.random.default_rng(9)
    for _ in range(300):
        flipped = bytearray(data)
        bit = int(rng.integers(0, 256))
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(CorruptRecordError):
            decode(bytes(flipped))


def test_decode_length_check():
    with pytest.raises(CorruptRecordError):
        decode(b"\x00" * 31)


def test_all_zero_record_crc():
    # frozen oracle: CRC-8 poly 0x07 init 0x00 over 31 zero bytes is zero
    assert crc8(b"\x00" * 31) == 0x00
    # and a known nonzero vector
    assert crc8(b"123456789") == 0xF4


def test_field_range_validation_on_encode():
    with pytest.raises(ValueError):
        encode(make_record(coinc_raw=2**16))
    with pytest.raises(ValueError):
        encode(make_record(temp_centi_c=2**15))
    with pytest.raises(ValueError):
        encode(make_record(step=-1))


def test_flags_are_distinct_bits():
    flags = [
        telemetry.FLAG_PRESENT, telemetry.FLAG_LASER_ON, telemetry.FLAG_COUNTING,
        telemetry.FLAG_HEATER_ON, telemetry.FLAG_FAULT_HOLD, telemetry.FLAG_SCAN_COMMIT,
        telemetry.FLAG_WRAPPED, telemetry.FLAG_BIAS_RAILED,
    ]
    assert len(set(flags)) == 8
    combined = 0
    for f in flags:
        assert f & combined == 0
        combined |= f
    assert combined == 0xFF


def test_write_redundant_mirrors_sectors():
    flash = FlashImage()
    write_redundant(flash, [make_record(i) for i in range(10)])
    assert sectors_identical(flash)
    assert flash.bytes_used == 10 * 32
    start = flash.sector_a[:32]
    assert decode(bytes(start)) == make_record(0)


def test_ring_wrap_at_capacity():
    flash = FlashImage()
    batch = [make_record(i) for i in range(100)]
    # fill to one slot short of capacity, then push over the edge
    flash.cursor = SECTOR_CAPACITY - 1
    write_redundant(flash, batch[:3])
    assert flash.wrapped
    assert flash.cursor == SECTOR_CAPACITY + 2
    # slot 0 and 1 now hold the two wrapped records
    assert decode(bytes(flash.sector_a[0:32])) == batch[1]
    assert decode(bytes(flash.sector_a[32:64])) == batch[2]
    assert sectors_identical(flash)


def test_read_records_skips_blank_and_sorts():
    flash = FlashImage()
    write_redundant(flash, [make_record(i) for i in range(5)])
    out = read_records(flash)
    assert [r.time_ms for r in out] == [0, 125, 250, 375, 500]


def test_read_records_repairs_from_sector_b():
    flash = FlashImage()
    recs = [make_record(i) for i in range(4)]
    write_redundant(flash, recs)
    # trash one record in sector A only; B copy must win
    flash.sector_a[32:64] = b"\x55" * 32
    out = read_records(flash)
    assert len(out) == 4
    assert out[1] == recs[1]


def test_read_records_drops_doubly_corrupt_slot():
    flash = FlashImage()
    recs = [make_record(i) for i in range(4)]
    write_redundant(flash, recs)
    flash.sector_a[0:32] = b"\x55" * 32
    flash.sector_b[0:32] = b"\xaa" * 32
    out = read_records(flash)
    assert len(out) == 3
    assert out[0] == recs[1]


def test_save_load_round_trip(tmp_path):
    flash = FlashImage()
    write_redundant(flash, [make_record(i) for i in range(17)])
    path = tmp_path / "flash.bin"
    save_image(flash, str(path))
    assert path.stat().st_size == 2 * SECTOR_BYTES
    loaded = load_image(str(path))
    assert loaded.sector_a == flash.sector_a
    assert loaded.sector_b == flash.sector_b
    assert [r.time_ms for r in read_records(loaded)] == [i * 125 for i in range(17)]


def test_session_volume():
    assert session_volume(480.0, 8.0) == 122880
    assert session_volume(0.0, 8.0) == 0
    assert session_volume(480.0, 8.533) == 131066
    with pytest.raises(ValueError):
        session_volume(-1.0, 8.0)


def test_session_fits_sector_with_headroom():
    used = session_volume(480.0, 8.0)
    assert used / SECTOR_BYTES < 0.15  # at least 85 percent headroom


def test_downlink_time():
    assert downlink_time(LinkBudget(131072)) == pytest.approx(104.8576)
    assert downlink_time(LinkBudget(0)) == 0.0
    assert downlink_time(LinkBudget(1250)) == 1.0
    with pytest.raises(ValueError):
        LinkBudget(-1)
    with pytest.raises(ValueError):
        LinkBudget(100, rate_bytes_per_s=0)


def test_commit_flag_round_trips():
    r = make_record(flags=FLAG_PRESENT | FLAG_SCAN_COMMIT)
    assert decode(encode(r)).flags & FLAG_SCAN_COMMIT


def per_slot_read(flash):
    """Reference reader: decode each slot on its own, A first, then B."""
    records = []
    counts = dict(valid_a=0, repaired_from_b=0, doubly_corrupt=0, blank=0)
    a, b = bytes(flash.sector_a), bytes(flash.sector_b)
    for off in range(0, SECTOR_BYTES, RECORD_BYTES):
        raws = (a[off : off + RECORD_BYTES], b[off : off + RECORD_BYTES])
        if raws == (BLANK, BLANK):
            counts["blank"] += 1
            continue
        for raw, outcome in zip(raws, ("valid_a", "repaired_from_b")):
            try:
                records.append(decode(raw))
            except CorruptRecordError:
                continue
            counts[outcome] += 1
            break
        else:
            counts["doubly_corrupt"] += 1
    records.sort(key=lambda r: r.time_ms)
    return records, counts


def field_values(lo, hi):
    return st.sampled_from([lo, lo + 1, hi - 1, hi]) | st.integers(lo, hi)


RECORD_FIELDS = {
    name: field_values(lo, hi)
    for name, (lo, hi) in TelemetryRecord._RANGES.items() if name != "time_ms"
}


@st.composite
def damaged_ring(draw):
    """A flash image with records written from a drawn cursor (past the
    sector end for some draws) and damaged slots, plus the records written
    with their slots and the damage done to each damaged slot."""
    n = draw(st.integers(1, 30))
    times = np.cumsum(draw(st.lists(st.integers(0, 300), min_size=n, max_size=n)))
    records = [
        TelemetryRecord(time_ms=int(t), **draw(st.fixed_dictionaries(RECORD_FIELDS)))
        for t in times
    ]
    flash = FlashImage()
    flash.cursor = draw(st.sampled_from([0, SECTOR_CAPACITY - n // 2, 2 * SECTOR_CAPACITY - 1]))
    first = flash.cursor
    write_redundant(flash, records)
    slots = [(first + i) % SECTOR_CAPACITY for i in range(n)]
    used = sorted(slots)
    harm = st.sampled_from([None, "flip", "erase"])
    damage = draw(st.lists(
        st.tuples(st.sampled_from(used), harm, harm, st.integers(0, 8 * RECORD_BYTES - 1)),
        max_size=n, unique_by=lambda d: d[0],
    ))
    for slot, *harms, bit in damage:
        off = slot * RECORD_BYTES
        for sector, what in zip((flash.sector_a, flash.sector_b), harms):
            if what == "flip":
                sector[off + bit // 8] ^= 1 << (bit % 8)
            elif what == "erase":
                sector[off : off + RECORD_BYTES] = BLANK
    return flash, list(zip(slots, records)), {slot: (a, b) for slot, a, b, _ in damage}


@settings(max_examples=40, deadline=None)
@given(damaged_ring())
def test_columnar_read_matches_per_slot_reference(ring):
    flash, written, damage = ring
    expected, counts = per_slot_read(flash)
    read = read_records(flash, as_table=True)
    table, health = read.rows, read.health
    assert len(read) == len(expected)
    assert read_records(flash) == expected
    assert [TelemetryRecord(*row[:-1]) for row in table.tolist()] == expected
    assert asdict(health) == counts
    # Only damage to both copies loses a record. Across the wrap the newest
    # records sit in the lowest slots, and the read still returns the
    # survivors in time order, ties in slot order.
    survivors = sorted(
        ((slot, r) for slot, r in written if None in damage.get(slot, (None, None))),
        key=lambda sr: (sr[1].time_ms, sr[0]),
    )
    assert expected == [r for _, r in survivors]
    harms = list(damage.values())
    lost = sum(a is not None and b is not None for a, b in harms)
    blank = harms.count(("erase", "erase"))
    assert counts == dict(
        valid_a=len(written) - sum(a is not None for a, _ in harms),
        repaired_from_b=sum(a is not None and b is None for a, b in harms),
        doubly_corrupt=lost - blank,
        blank=SECTOR_CAPACITY - len(written) + blank,
    )


RECORDS_AT_EDGES = st.lists(
    st.builds(TelemetryRecord, **RECORD_FIELDS, time_ms=field_values(0, 2**32 - 1)),
    min_size=1, max_size=20,
)


@settings(max_examples=40, deadline=None)
@given(RECORDS_AT_EDGES, st.sampled_from(sorted(TelemetryRecord._RANGES)))
def test_round_trip_at_field_range_edges(records, outside):
    for r in records:
        assert decode(encode(r)) == r
    flash = FlashImage()
    write_redundant(flash, records)
    in_time_order = sorted(records, key=lambda r: r.time_ms)
    read = read_records(flash, as_table=True)
    table, health = read.rows, read.health
    assert table["crc8"].tolist() == [encode(r)[-1] for r in in_time_order]
    assert [row[:-1] for row in table.tolist()] == \
        [row[:-1] for row in table_from_records(in_time_order).tolist()]
    assert read_records(flash) == in_time_order
    assert (health.valid_a, health.blank) == (len(records), SECTOR_CAPACITY - len(records))
    r = records[0]
    lo, hi = TelemetryRecord._RANGES[outside]
    for bad in (lo - 1, hi + 1):
        with pytest.raises(ValueError):
            encode(TelemetryRecord(**{**asdict(r), outside: bad}))
