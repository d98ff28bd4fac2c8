"""Record codec, CRC, redundant flash, and link arithmetic."""

from dataclasses import asdict, astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairsat import telemetry
from pairsat.telemetry import (
    FLAG_PRESENT,
    FLAG_SCAN_COMMIT,
    FLAG_WRAPPED,
    RECORD_BYTES,
    SECTOR_BYTES,
    SECTOR_CAPACITY,
    CorruptRecordError,
    RANGES,
    FlashImage,
    TelemetryRecord,
    centi_c,
    crc8,
    decode,
    downlink_time,
    encode,
    fixed_point,
    load_image,
    read_records,
    save_image,
    table_from_rows,
    write_redundant,
)

BLANK = b"\xff" * RECORD_BYTES


def table_of(records):
    """The `RECORD_DTYPE` table of a record list, in list order."""
    return table_from_rows([astuple(r) for r in records])


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
    table = table_of([make_record(i) for i in range(10)])
    # the writer computes the CRC column in its own copy of the rows
    table["crc8"] = np.arange(0xA0, 0xAA)
    before = table.tobytes()
    write_redundant(flash, table)
    assert table.tobytes() == before
    assert flash.sector_a == flash.sector_b
    assert flash.cursor == 10
    start = flash.sector_a[:32]
    assert decode(bytes(start)) == make_record(0)


@pytest.mark.parametrize("view", [np.s_[::2], np.s_[::-3], np.s_[1:5]])
def test_write_redundant_takes_strided_views(view):
    # a view writes the slots its contiguous copy writes
    table = table_of([make_record(i) for i in range(10)])
    flashes = FlashImage(cursor=SECTOR_CAPACITY - 2), FlashImage(cursor=SECTOR_CAPACITY - 2)
    write_redundant(flashes[0], table[view])
    write_redundant(flashes[1], table[view].copy())
    assert flashes[0].cursor == flashes[1].cursor == SECTOR_CAPACITY - 2 + len(table[view])
    assert flashes[0].sector_a == flashes[1].sector_a == flashes[0].sector_b
    assert flashes[0].sector_b == flashes[1].sector_b


def test_ring_wrap_at_capacity():
    flash = FlashImage()
    batch = [make_record(i) for i in range(100)]
    # fill to one slot short of capacity, then push over the edge
    flash.cursor = SECTOR_CAPACITY - 1
    write_redundant(flash, table_of(batch[:3]))
    assert flash.cursor == SECTOR_CAPACITY + 2
    # slot 0 and 1 now hold the two wrapped records
    assert decode(bytes(flash.sector_a[0:32])) == batch[1]
    assert decode(bytes(flash.sector_a[32:64])) == batch[2]
    assert flash.sector_a == flash.sector_b


@settings(max_examples=100, deadline=None)
@given(st.lists(st.binary(min_size=RECORD_BYTES, max_size=RECORD_BYTES)
                | st.sampled_from([bytes(RECORD_BYTES), b"\xff" * RECORD_BYTES]), max_size=33))
@example([])
@example([bytes(RECORD_BYTES)])
@example([b"\xff" * RECORD_BYTES] * 2)
def test_two_byte_crc_matches_bytewise_crc(rows):
    # the column CRC takes two bytes per lookup: it must read as crc8, one
    # byte at a time, for any count of rows, odd or even, 0 and 1 too
    table = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), RECORD_BYTES)
    assert telemetry._crc8_rows(table).tolist() == [crc8(row[:31]) for row in rows]


def test_read_records_skips_blank_and_sorts():
    flash = FlashImage()
    write_redundant(flash, table_of([make_record(i) for i in range(5)]))
    out = read_records(flash)
    assert [r.time_ms for r in out] == [0, 125, 250, 375, 500]


def test_read_records_repairs_from_sector_b():
    flash = FlashImage()
    recs = [make_record(i) for i in range(4)]
    write_redundant(flash, table_of(recs))
    # trash one record in sector A only; B copy must win
    flash.sector_a[32:64] = b"\x55" * 32
    out = read_records(flash)
    assert len(out) == 4
    assert out[1] == recs[1]


def test_read_records_drops_doubly_corrupt_slot():
    flash = FlashImage()
    recs = [make_record(i) for i in range(4)]
    write_redundant(flash, table_of(recs))
    flash.sector_a[0:32] = b"\x55" * 32
    flash.sector_b[0:32] = b"\xaa" * 32
    out = read_records(flash)
    assert len(out) == 3
    assert out[0] == recs[1]


def test_save_load_round_trip(tmp_path):
    flash = FlashImage()
    write_redundant(flash, table_of([make_record(i) for i in range(17)]))
    path = tmp_path / "flash.bin"
    save_image(flash, str(path))
    assert path.stat().st_size == 2 * SECTOR_BYTES
    loaded = load_image(str(path))
    assert loaded.sector_a == flash.sector_a
    assert loaded.sector_b == flash.sector_b
    assert [r.time_ms for r in read_records(loaded)] == [i * 125 for i in range(17)]
    # the benchmark damages sector A of a loaded image in place, and
    # repairs from sector B
    for sector in (loaded.sector_a, loaded.sector_b):
        assert type(sector) is bytearray and len(sector) == SECTOR_BYTES
    loaded.sector_a[RECORD_BYTES + 5] ^= 0x10
    assert loaded.sector_b == flash.sector_b
    assert read_records(loaded) == [make_record(i) for i in range(17)]


@pytest.mark.parametrize("size", [2 * SECTOR_BYTES - 1, 2 * SECTOR_BYTES + 1, SECTOR_BYTES, 0])
def test_load_image_names_a_wrong_size(tmp_path, size):
    path = tmp_path / "flash.bin"
    path.write_bytes(b"\xff" * size)
    with pytest.raises(ValueError, match=f"got {size}$"):
        load_image(str(path))


def test_downlink_time():
    assert downlink_time(131072) == pytest.approx(104.8576)
    assert downlink_time(0) == 0.0
    assert downlink_time(1250) == 1.0
    with pytest.raises(ValueError):
        downlink_time(-1)


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
    for name, (lo, hi) in RANGES.items() if name != "time_ms"
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
    write_redundant(flash, table_of(records))
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
@given(RECORDS_AT_EDGES, st.sampled_from(sorted(RANGES)))
def test_round_trip_at_field_range_edges(records, outside):
    for r in records:
        assert decode(encode(r)) == r
    flash = FlashImage()
    write_redundant(flash, table_of(records))
    in_time_order = sorted(records, key=lambda r: r.time_ms)
    read = read_records(flash, as_table=True)
    table, health = read.rows, read.health
    assert table["crc8"].tolist() == [encode(r)[-1] for r in in_time_order]
    assert [row[:-1] for row in table.tolist()] == \
        [row[:-1] for row in table_of(in_time_order).tolist()]
    assert read_records(flash) == in_time_order
    assert (health.valid_a, health.blank) == (len(records), SECTOR_CAPACITY - len(records))
    r = records[0]
    lo, hi = RANGES[outside]
    for bad in (lo - 1, hi + 1):
        with pytest.raises(ValueError):
            encode(TelemetryRecord(**{**asdict(r), outside: bad}))


@st.composite
def record_batches(draw):
    """A start cursor and batches of records at field-range edges, some
    crossing the end of the ring and some longer than it. As in flight, a record carries
    FLAG_WRAPPED exactly when it is written at cursor SECTOR_CAPACITY or
    later."""
    pool = draw(st.lists(
        st.builds(TelemetryRecord, **RECORD_FIELDS, time_ms=field_values(0, 2**32 - 1)),
        min_size=1, max_size=6,
    ))
    variants = {
        (j, wrapped): replace(r, flags=r.flags & ~FLAG_WRAPPED | (FLAG_WRAPPED if wrapped else 0))
        for j, r in enumerate(pool) for wrapped in (False, True)
    }
    start = draw(st.sampled_from([0, SECTOR_CAPACITY - 3, 2 * SECTOR_CAPACITY - 1])
                 | st.integers(0, 3 * SECTOR_CAPACITY))
    small = st.integers(0, 12)
    sizes = draw(st.lists(small | small | small | st.just(2 * SECTOR_CAPACITY + 1),
                          min_size=1, max_size=3))
    batches = []
    cursor = start
    for n in sizes:
        batches.append([variants[(i % len(pool), i >= SECTOR_CAPACITY)]
                        for i in range(cursor, cursor + n)])
        cursor += n
    return start, batches


@settings(max_examples=20, deadline=None)
@given(record_batches(), st.sampled_from(sorted(RANGES)))
def test_batched_writer_matches_per_record_encode(batches, outside):
    start, batches = batches
    written = [r for batch in batches for r in batch]
    distinct = {id(r): r for r in written}.values()  # a batch repeats a few records
    rows = {id(r): astuple(r) for r in distinct}
    flash = FlashImage()
    flash.cursor = start
    for batch in batches:
        table = table_from_rows([rows[id(r)] for r in batch])
        if len(batch) < SECTOR_CAPACITY:
            # the (n, 14) integer array the engine's recorder builds gives the same table
            wide = np.array([rows[id(r)] for r in batch], dtype=np.int64)
            assert table_from_rows(wide).tobytes() == table.tobytes()
        write_redundant(flash, table)
    # reference: each record encoded on its own into the next ring slot
    expected = bytearray(BLANK * SECTOR_CAPACITY)
    blobs = {id(r): encode(r) for r in distinct}
    for i, r in enumerate(written):
        slot = (start + i) % SECTOR_CAPACITY
        expected[slot * RECORD_BYTES : (slot + 1) * RECORD_BYTES] = blobs[id(r)]
    assert flash.cursor == start + len(written)
    assert flash.sector_a == expected
    assert flash.sector_b == expected
    # the ring keeps the newest records; of those, the ones written at
    # cursor SECTOR_CAPACITY or later carry the wrap flag
    kept = range(max(start, flash.cursor - SECTOR_CAPACITY), flash.cursor)
    rows = read_records(flash, as_table=True).rows
    assert len(rows) == len(kept)
    assert int((rows["flags"] & FLAG_WRAPPED != 0).sum()) == \
        sum(i >= SECTOR_CAPACITY for i in kept)

    # a batch holding one value outside its field's range, or not an
    # integer, fails where its rows become a table and writes nothing; the
    # writer takes nothing but a RECORD_DTYPE table
    before = (bytes(flash.sector_a), bytes(flash.sector_b), flash.cursor)
    lo, hi = RANGES[outside]
    for bad in (lo - 1, hi + 1, lo + 0.5):
        batch = [astuple(written[0] if written else make_record()),
                 astuple(make_record(**{outside: bad}))]
        for form in (batch, np.array(batch)):  # row tuples, and one array
            with pytest.raises(ValueError, match=outside if bad != lo + 0.5 else "integer"):
                write_redundant(flash, table_from_rows(form))
        assert (bytes(flash.sector_a), bytes(flash.sector_b), flash.cursor) == before
    for not_a_table in (np.zeros(2, dtype=np.int64), [make_record()]):
        with pytest.raises(TypeError, match="RECORD_DTYPE"):
            write_redundant(flash, not_a_table)
        assert (bytes(flash.sector_a), bytes(flash.sector_b), flash.cursor) == before


@settings(max_examples=300, deadline=None)
# any float but NaN, and multiples of 0.005 up to past the clamp, whose
# scaled values sit on or next to a half
@given(st.lists(st.floats(allow_nan=False) | st.integers(-70_000, 70_000).map(lambda i: i / 200),
                min_size=1, max_size=8))
def test_record_conversions_match_scalar_round(values):
    # the engine recorder's column conversions equal the scalar expressions
    # they replace, for finite and infinite floats; where the scalar `round`
    # raises or leaves int64, the column value is outside every field
    column = np.array(values)
    assert centi_c(column).tolist() == \
        [int(round(max(-327.68, min(327.67, t)) * 100)) for t in values]
    for scale in (100, 10):  # laser mW in 10 uW, bias V in 0.1 V
        with np.errstate(over="ignore"):
            converted = fixed_point(column, scale).tolist()
        for v, got in zip(values, converted):
            try:
                expected = round(v * scale)
            except OverflowError:
                expected = None
            if expected is not None and abs(expected) < 2**63:
                assert got == expected, v
            else:
                assert got == -(2**63), v
