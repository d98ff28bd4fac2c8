"""Fixed 32-byte telemetry records, redundant flash storage, link arithmetic.

Record layout (little-endian, 32 bytes total):

    offset  size  field
    0       4     time_ms         u32   milliseconds since power-up
    4       2     scan_id         u16   current scan attempt, 0 when idle
    6       1     step            u8    LC step index within the scan
    7       1     pair_sel        u8    0 = detector pair 1&4, 1 = pair 2&3
    8       2     lc_signal_mv    u16   signal-arm LC drive voltage
    10      2     lc_idler_mv     u16   idler-arm LC drive voltage
    12      4     singles_1       u32   counts this record period
    16      4     singles_2       u32   counts this record period
    20      2     coinc_raw       u16   counts this record period
    22      2     temp_centi_c    i16   housing temperature, 0.01 C units
    24      2     laser_power_10uw u16  pump power, 10 uW units
    26      2     bias_1_decivolt u16   active signal APD bias, 0.1 V units
    28      2     bias_2_decivolt u16   active idler APD bias, 0.1 V units
    30      1     flags           u8
    31      1     crc8            u8    poly 0x07, init 0x00, over bytes 0..30

Records are written identically to two 1 MiB flash sectors; each sector is
a ring of 32768 record slots and wraps silently (the wrap is visible only
as a flag bit on later records). Erased flash reads 0xFF, which can never
carry a valid CRC (the CRC of 31 0xFF bytes is 0xFC), so blank slots are
self-identifying.

Records are written in batches (`write_redundant`), each batch already a
`RECORD_DTYPE` table, a structured dtype with the same layout as the
record. Each field's range (`RANGES`) is that of its column's integer
type, so a table cannot carry an out-of-range value. Row tuples, or the
integer columns of the engine's pending block (scaled and rounded by
`fixed_point` and `centi_c`), become such a table in `table_from_rows`, the
one place where a table's field values are checked against those ranges.
The writer takes one C-contiguous byte copy of the table's rows, strided
views included, and never writes into the table it is given. It computes
the CRC column into that copy, with the same column-wise CRC-8 as the read
below, and copies the rows into consecutive ring slots of both sectors.

The ground side reads the whole ring at once (`read_records`): each sector
is viewed as a (32768, 32) byte array, and the CRC-8 runs over a whole
column of slots at a time, as 15 lookups of two bytes each in a 65 536-entry
table and one of byte 30 in the 256-entry table. Every slot takes its
sector-A row when that passes, else its sector-B row. Slots that pass in
neither sector are dropped. The kept slots' sector-A byte rows are gathered,
the repaired ones overwritten from sector B, and the rows put in time order
by a stable sort of their `time_ms` bytes, so ties keep slot order; only
then are they viewed as `RECORD_DTYPE`. Ground analysis keeps them as that
table (`as_table=True` gives a `RecordTable`, which also counts the slots
by outcome in `FlashHealth`); the list of `TelemetryRecord` that the read
gives by default stays for the benchmark, which compares and times it.
`load_image` reads each sector of a saved image straight into its own
bytearray.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

SECTOR_BYTES = 1_048_576
RECORD_BYTES = 32
SECTOR_CAPACITY = SECTOR_BYTES // RECORD_BYTES
RECORD_PERIOD_MS = 125  # 8 Hz records

_RECORD_STRUCT = struct.Struct("<IHBBHHIIHhHHHBB")
assert _RECORD_STRUCT.size == RECORD_BYTES

FLAG_PRESENT = 0x01
FLAG_LASER_ON = 0x02
FLAG_COUNTING = 0x04
FLAG_HEATER_ON = 0x08
FLAG_FAULT_HOLD = 0x10
FLAG_SCAN_COMMIT = 0x20
FLAG_WRAPPED = 0x40
FLAG_BIAS_RAILED = 0x80


class CorruptRecordError(Exception):
    """Record bytes failed the length or CRC check."""


def _crc8_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07 if crc & 0x80 else crc << 1) & 0xFF
        table.append(crc)
    return table


_CRC8_TABLE = _crc8_table()
_CRC8_LUT = np.array(_CRC8_TABLE, dtype=np.uint8)
# two bytes per lookup: entry b0 | b1 << 8 is the CRC after b0 then b1 from
# state 0, so a word XORed with the state (< 256) indexes the next state; in
# the state's own type, so a lookup writes the state in place, and indexed by
# uint8 arrays, as int64 temporaries raise the import's peak memory
_CRC8_WORD_LUT16 = _CRC8_LUT.astype(np.uint16)[
    _CRC8_LUT[None, :] ^ np.arange(256, dtype=np.uint8)[:, None]].ravel()


def crc8(data: bytes) -> int:
    crc = 0x00
    for b in data:
        crc = _CRC8_TABLE[crc ^ b]
    return crc


@dataclass
class TelemetryRecord:
    time_ms: int
    scan_id: int = 0
    step: int = 0
    pair_sel: int = 0
    lc_signal_mv: int = 0
    lc_idler_mv: int = 0
    singles_1: int = 0
    singles_2: int = 0
    coinc_raw: int = 0
    temp_centi_c: int = 0
    laser_power_10uw: int = 0
    bias_1_decivolt: int = 0
    bias_2_decivolt: int = 0
    flags: int = FLAG_PRESENT

    def validate(self) -> None:
        for name, (lo, hi) in RANGES.items():
            v = getattr(self, name)
            if not lo <= v <= hi:
                raise ValueError(f"{name}={v} outside [{lo}, {hi}]")


def encode(record: TelemetryRecord) -> bytes:
    """Serialize to 32 bytes with the CRC in the final byte."""
    record.validate()
    body = _RECORD_STRUCT.pack(
        record.time_ms,
        record.scan_id,
        record.step,
        record.pair_sel,
        record.lc_signal_mv,
        record.lc_idler_mv,
        record.singles_1,
        record.singles_2,
        record.coinc_raw,
        record.temp_centi_c,
        record.laser_power_10uw,
        record.bias_1_decivolt,
        record.bias_2_decivolt,
        record.flags,
        0,
    )[:-1]
    return body + bytes([crc8(body)])


def decode(data: bytes) -> TelemetryRecord:
    """Parse 32 bytes back into a record, verifying length and CRC."""
    if len(data) != RECORD_BYTES:
        raise CorruptRecordError(f"record must be {RECORD_BYTES} bytes, got {len(data)}")
    if crc8(data[:-1]) != data[-1]:
        raise CorruptRecordError("CRC mismatch")
    fields = _RECORD_STRUCT.unpack(data)
    return TelemetryRecord(*fields[:-1])


@dataclass
class FlashImage:
    """Two redundant ring-buffer sectors of 32-byte record slots."""

    # erased flash reads 0xFF; repeating a one-byte bytearray builds it
    # without a sector-sized bytes temporary
    sector_a: bytearray = field(default_factory=lambda: bytearray(b"\xff") * SECTOR_BYTES)
    sector_b: bytearray = field(default_factory=lambda: bytearray(b"\xff") * SECTOR_BYTES)
    cursor: int = 0  # total records ever written; slot = cursor % capacity


# The record layout as a numpy dtype: one field per struct code, CRC last.
RECORD_DTYPE = np.dtype([
    (name, "<" + code)
    for name, code in zip([f.name for f in fields(TelemetryRecord)] + ["crc8"],
                          _RECORD_STRUCT.format.lstrip("<"), strict=True)
])
assert RECORD_DTYPE.itemsize == RECORD_BYTES
_FIELD_NAMES = RECORD_DTYPE.names[:-1]
# (lowest, highest) value of each record field: its column's integer type
RANGES = {name: (np.iinfo(RECORD_DTYPE[name]).min, np.iinfo(RECORD_DTYPE[name]).max)
          for name in _FIELD_NAMES}
# the same bounds as one int64 array each, in field order
_LO, _HI = np.array(list(RANGES.values()), dtype=np.int64).T


@dataclass(frozen=True)
class FlashHealth:
    """How the slots of one flash read fared, one count per slot."""

    valid_a: int  # sector-A copy passes its CRC
    repaired_from_b: int  # sector A fails, sector B passes
    doubly_corrupt: int  # neither passes, and not both erased
    blank: int  # both sectors erased (all 0xFF)


def _slots(sector: bytes | bytearray) -> np.ndarray:
    return np.frombuffer(sector, dtype=np.uint8).reshape(SECTOR_CAPACITY, RECORD_BYTES)


def _crc8_rows(rows: np.ndarray) -> np.ndarray:
    """Per 32-byte row of a C-contiguous (n, 32) uint8 array, the CRC-8 of
    its first 31 bytes: 15 little-endian word columns, then byte 30."""
    words = rows.view("<u2")
    crc = np.zeros(len(rows), dtype=np.uint16)
    for j in range(RECORD_BYTES // 2 - 1):
        np.bitwise_xor(crc, words[:, j], out=crc)
        # every uint16 indexes the 65 536 entries, so "clip" never clips;
        # unlike "raise" it writes `out` unbuffered
        _CRC8_WORD_LUT16.take(crc, out=crc, mode="clip")
    return _CRC8_LUT[crc ^ rows[:, RECORD_BYTES - 2]]


def _crc_ok(rows: np.ndarray) -> np.ndarray:
    """Per row: does the last byte hold the CRC-8 of the first 31?"""
    return _crc8_rows(rows) == rows[:, -1]


@dataclass(frozen=True)
class RecordTable:
    """The records of one flash read as one array, and how its slots fared."""

    rows: np.ndarray  # RECORD_DTYPE, in time order
    health: FlashHealth

    def __len__(self) -> int:
        return len(self.rows)


def fixed_point(values: np.ndarray, scale: int) -> np.ndarray:
    """`round(v * scale)` of each value, as Python rounds: halves to even.
    The laser power field is mW at scale 100, a bias field V at scale 10.

    A value that is not finite, or whose rounding is past the int64 range,
    becomes -2**63, outside every record field, so `table_from_rows`
    refuses it where the scalar `round` raised or gave a too-large int.
    """
    scaled = np.rint(values * scale)
    return np.where(np.abs(scaled) < 2.0**63, scaled, -(2.0**63)).astype(np.int64)


def centi_c(temp_c: np.ndarray) -> np.ndarray:
    """The temp_centi_c field of each housing temperature, clamped to its
    range: for every finite or infinite t,
    `int(round(max(-327.68, min(327.67, t)) * 100))`."""
    return fixed_point(np.clip(temp_c, -327.68, 327.67), 100)


def table_from_rows(rows: list[tuple[int, ...]] | np.ndarray) -> np.ndarray:
    """The `RECORD_DTYPE` array of rows that each hold the 14 record fields
    in `TelemetryRecord` order, in row order (CRC byte 0).

    The rows are a list of tuples, or an (n, 14) integer array, as the
    engine's recorder builds a pending block column by column. Raises
    ValueError for a value outside its field's range in `RANGES`, naming
    the field, or for a non-integer value.
    """
    table = np.zeros(len(rows), dtype=RECORD_DTYPE)
    if len(rows) == 0:
        return table
    wide = np.asarray(rows)
    if wide.dtype.kind != "i" or wide.shape != (len(rows), len(_FIELD_NAMES)):
        raise ValueError(
            f"records need {len(_FIELD_NAMES)} integer fields within their ranges, "
            f"got {wide.dtype} rows of shape {wide.shape[1:]}"
        )
    # one min and one max per column; only a failing column is searched
    failing = (wide.min(axis=0) < _LO) | (wide.max(axis=0) > _HI)
    if failing.any():
        j = int(np.argmax(failing))
        name, (lo, hi), column = _FIELD_NAMES[j], RANGES[_FIELD_NAMES[j]], wide[:, j]
        bad = (column < lo) | (column > hi)
        raise ValueError(f"{name}={column[bad][0]} outside [{lo}, {hi}]")
    for j, name in enumerate(_FIELD_NAMES):
        table[name] = wide[:, j]
    return table


def write_redundant(flash: FlashImage, table: np.ndarray) -> FlashImage:
    """Append a `RECORD_DTYPE` table to both sectors identically, wrapping
    when full.

    The CRC column is computed into a byte copy of the rows, over the whole
    batch a byte column at a time, and the table itself is left as it is;
    row i goes to slot (cursor + i) mod capacity, so of a batch
    longer than the ring only the last `SECTOR_CAPACITY` rows remain. The
    cursor advances by the batch length. Raises TypeError for anything but
    a `RECORD_DTYPE` array.
    """
    if not isinstance(table, np.ndarray) or table.dtype != RECORD_DTYPE:
        got = getattr(table, "dtype", type(table).__name__)
        raise TypeError(f"records must be a RECORD_DTYPE table, got {got}")
    # one C-contiguous byte copy of the rows, strided tables too: a
    # structured copy would go field by field
    rows = table[:, None].view(np.uint8).copy()
    rows[:, -1] = _crc8_rows(rows)
    kept = rows[-SECTOR_CAPACITY:]
    slot = (flash.cursor + len(rows) - len(kept)) % SECTOR_CAPACITY
    # up to the sector's end, then on from slot 0
    head, tail = kept[: SECTOR_CAPACITY - slot], kept[SECTOR_CAPACITY - slot :]
    for sector in (flash.sector_a, flash.sector_b):
        slots = _slots(sector)
        slots[slot : slot + len(head)] = head
        slots[: len(tail)] = tail
    flash.cursor += len(rows)
    return flash


def read_records(
    flash: FlashImage, *, as_table: bool = False
) -> list[TelemetryRecord] | RecordTable:
    """Recover all valid records, using sector_b to repair bad sector_a slots.

    A slot takes its sector-A record if that passes the CRC, else its
    sector-B record; slots that decode in neither sector (blank or doubly
    corrupt) are skipped. Records come back in time order regardless of
    ring position, ties in `time_ms` in slot order. With `as_table`, the
    result is the `RecordTable` the record list would be built from.
    """
    a = _slots(flash.sector_a)
    b = _slots(flash.sector_b)
    ok_a = _crc_ok(a)
    failed_a = np.flatnonzero(~ok_a)
    ok_b = _crc_ok(b[failed_a])
    repaired = failed_a[ok_b]
    lost = failed_a[~ok_b]
    blank = int(((a[lost] == 0xFF).all(axis=1) & (b[lost] == 0xFF).all(axis=1)).sum())
    keep = ok_a.copy()
    keep[repaired] = True
    kept = np.flatnonzero(keep)
    # each kept slot's time_ms from the sector it is taken from, then the
    # slots in time order, ties in slot order
    times = a.view("<u4")[kept, 0]
    times[np.searchsorted(kept, repaired)] = b.view("<u4")[repaired, 0]
    order = kept[np.argsort(times, kind="stable")]
    # one gather in that order, the repaired rows from B, viewed as records once
    rows = a.take(order, axis=0)
    from_b = np.flatnonzero(~ok_a[order])
    rows[from_b] = b.take(order[from_b], axis=0)
    table = rows.view(RECORD_DTYPE).reshape(-1)
    if not as_table:
        return [TelemetryRecord(*row[:-1]) for row in table.tolist()]
    health = FlashHealth(
        valid_a=int(ok_a.sum()),
        repaired_from_b=len(repaired),
        doubly_corrupt=len(lost) - blank,
        blank=blank,
    )
    return RecordTable(table, health)


def save_image(flash: FlashImage, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(flash.sector_a)
        fh.write(flash.sector_b)


def load_image(path: str) -> FlashImage:
    """Read a `save_image` file: each sector straight into its own bytearray."""
    flash = FlashImage(sector_a=bytearray(SECTOR_BYTES), sector_b=bytearray(SECTOR_BYTES))
    with open(path, "rb") as fh:
        size = fh.readinto(flash.sector_a) + fh.readinto(flash.sector_b) + len(fh.read())
    if size != 2 * SECTOR_BYTES:
        raise ValueError(f"flash image must be {2 * SECTOR_BYTES} bytes, got {size}")
    return flash


# the downlink's data rate
LINK_RATE_BYTES_PER_S = 1250.0


def downlink_time(volume_bytes: float) -> float:
    """Seconds to downlink `volume_bytes` at `LINK_RATE_BYTES_PER_S`."""
    if not 0 <= volume_bytes < math.inf:
        raise ValueError(f"volume must be finite and nonnegative, got {volume_bytes}")
    return volume_bytes / LINK_RATE_BYTES_PER_S
