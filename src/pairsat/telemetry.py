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

The ground side reads the whole ring at once (`read_records`): each sector
is viewed as a (32768, 32) byte array, the CRC-8 runs as 31 table lookups
over a whole column of slots, and every slot takes its sector-A row when
that passes, else its sector-B row. Slots that pass in neither sector are
dropped. The surviving rows are viewed as `RECORD_DTYPE`, a structured
dtype with the same layout as the record, and put in time order. Ground
analysis keeps them as that array (`as_table=True` gives a `RecordTable`,
which also counts the slots by outcome in `FlashHealth`); otherwise they
become a list of `TelemetryRecord`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields

import numpy as np

SECTOR_BYTES = 1_048_576
RECORD_BYTES = 32
SECTOR_CAPACITY = SECTOR_BYTES // RECORD_BYTES

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

    _RANGES = {
        "time_ms": (0, 2**32 - 1),
        "scan_id": (0, 2**16 - 1),
        "step": (0, 2**8 - 1),
        "pair_sel": (0, 2**8 - 1),
        "lc_signal_mv": (0, 2**16 - 1),
        "lc_idler_mv": (0, 2**16 - 1),
        "singles_1": (0, 2**32 - 1),
        "singles_2": (0, 2**32 - 1),
        "coinc_raw": (0, 2**16 - 1),
        "temp_centi_c": (-(2**15), 2**15 - 1),
        "laser_power_10uw": (0, 2**16 - 1),
        "bias_1_decivolt": (0, 2**16 - 1),
        "bias_2_decivolt": (0, 2**16 - 1),
        "flags": (0, 2**8 - 1),
    }

    def validate(self) -> None:
        for name, (lo, hi) in self._RANGES.items():
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

    sector_a: bytearray = field(default_factory=lambda: bytearray(b"\xff" * SECTOR_BYTES))
    sector_b: bytearray = field(default_factory=lambda: bytearray(b"\xff" * SECTOR_BYTES))
    cursor: int = 0  # total records ever written; slot = cursor % capacity

    @property
    def wrapped(self) -> bool:
        return self.cursor > SECTOR_CAPACITY

    @property
    def bytes_used(self) -> int:
        return min(self.cursor, SECTOR_CAPACITY) * RECORD_BYTES


def write_redundant(flash: FlashImage, records: list[TelemetryRecord]) -> FlashImage:
    """Append records to both sectors identically, wrapping when full."""
    for record in records:
        blob = encode(record)
        off = (flash.cursor % SECTOR_CAPACITY) * RECORD_BYTES
        flash.sector_a[off : off + RECORD_BYTES] = blob
        flash.sector_b[off : off + RECORD_BYTES] = blob
        flash.cursor += 1
    return flash


def sectors_identical(flash: FlashImage) -> bool:
    return flash.sector_a == flash.sector_b


# The record layout as a numpy dtype: one field per struct code, CRC last.
RECORD_DTYPE = np.dtype([
    (name, "<" + code)
    for name, code in zip([f.name for f in fields(TelemetryRecord)] + ["crc8"],
                          _RECORD_STRUCT.format.lstrip("<"), strict=True)
])
assert RECORD_DTYPE.itemsize == RECORD_BYTES


@dataclass(frozen=True)
class FlashHealth:
    """How the slots of one flash read fared, one count per slot."""

    valid_a: int  # sector-A copy passes its CRC
    repaired_from_b: int  # sector A fails, sector B passes
    doubly_corrupt: int  # neither passes, and not both erased
    blank: int  # both sectors erased (all 0xFF)


def _slots(sector: bytes | bytearray) -> np.ndarray:
    return np.frombuffer(sector, dtype=np.uint8).reshape(SECTOR_CAPACITY, RECORD_BYTES)


def _crc_ok(rows: np.ndarray) -> np.ndarray:
    """Per row: does the last byte hold the CRC-8 of the first 31?"""
    crc = np.zeros(len(rows), dtype=np.uint8)
    for j in range(RECORD_BYTES - 1):
        crc = _CRC8_LUT[crc ^ rows[:, j]]
    return crc == rows[:, -1]


@dataclass(frozen=True)
class RecordTable:
    """The records of one flash read as one array, and how its slots fared."""

    rows: np.ndarray  # RECORD_DTYPE, in time order
    health: FlashHealth

    def __len__(self) -> int:
        return len(self.rows)


def table_from_records(records: list[TelemetryRecord]) -> np.ndarray:
    """The `RECORD_DTYPE` array of a record list, in list order (CRC byte 0)."""
    names = RECORD_DTYPE.names[:-1]
    return np.array(
        [tuple(getattr(r, name) for name in names) + (0,) for r in records],
        dtype=RECORD_DTYPE,
    )


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
    rows = np.where(ok_a[:, None], a, b)[keep]
    table = rows.view(RECORD_DTYPE).reshape(-1)
    table = table[np.argsort(table["time_ms"], kind="stable")]
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
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) != 2 * SECTOR_BYTES:
        raise ValueError(f"flash image must be {2 * SECTOR_BYTES} bytes, got {len(blob)}")
    return FlashImage(
        sector_a=bytearray(blob[:SECTOR_BYTES]),
        sector_b=bytearray(blob[SECTOR_BYTES:]),
    )


def session_volume(duration_s: float, record_rate_hz: float) -> int:
    """Telemetry bytes generated by an uninterrupted session."""
    if duration_s < 0 or record_rate_hz <= 0:
        raise ValueError("duration must be nonnegative and rate positive")
    return int(duration_s * record_rate_hz * RECORD_BYTES)


@dataclass
class LinkBudget:
    volume_bytes: float
    rate_bytes_per_s: float = 1250.0

    def __post_init__(self) -> None:
        if self.rate_bytes_per_s <= 0:
            raise ValueError("rate must be positive")
        if self.volume_bytes < 0:
            raise ValueError("volume must be nonnegative")


def downlink_time(budget: LinkBudget) -> float:
    return budget.volume_bytes / budget.rate_bytes_per_s
