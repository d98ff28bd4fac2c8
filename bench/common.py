"""Shared pieces of the benchmark: where the package lives, and checks on
flash images written against the record format rather than through the
package's own decoder, so a change to the decoder cannot hide a fault."""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

RECORD_BYTES = 32
CRC_POLY = 0x07
# Sector-A slots the ground workload damages, one flipped bit each: 1 024 of
# the ring's 32 768 slots (3.1 %). The rate is synthetic; no flash upset rate
# is measured or cited for this mission. It makes the repair path a visible
# share of read_records time while the clean path still does most of it.
CORRUPT_SLOTS = 1024


def use_source_tree() -> None:
    """Import pairsat from this checkout's src/ and nowhere else.

    Raises SystemExit(2) when the checkout holds no package source.
    """
    if not (SRC / "pairsat" / "__init__.py").is_file():
        print(f"error: no pairsat package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def check_source_import() -> None:
    """Fail unless the imported pairsat is the one under src/."""
    import pairsat

    if Path(pairsat.__file__).resolve().parent != (SRC / "pairsat").resolve():
        print(f"error: pairsat imported from {pairsat.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _crc_table() -> np.ndarray:
    table = np.zeros(256, dtype=np.uint8)
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ CRC_POLY if crc & 0x80 else crc << 1) & 0xFF
        table[byte] = crc
    return table


_CRC_TABLE = _crc_table()


def slots(sector: bytes | bytearray) -> np.ndarray:
    """View a sector as one row of 32 bytes per record slot."""
    return np.frombuffer(sector, dtype=np.uint8).reshape(-1, RECORD_BYTES)


def crc_ok(rows: np.ndarray) -> np.ndarray:
    """Per slot: does the last byte hold the CRC-8 of the first 31?

    Erased slots (all 0xFF) never pass.
    """
    crc = np.zeros(len(rows), dtype=np.uint8)
    for j in range(RECORD_BYTES - 1):
        crc = _CRC_TABLE[crc ^ rows[:, j]]
    return crc == rows[:, -1]


def flash_digest(flash) -> str:
    h = hashlib.sha256()
    h.update(flash.sector_a)
    h.update(flash.sector_b)
    return h.hexdigest()[:16]


def unreadable_records(flash, written: int) -> int:
    """Written records that do not read back CRC-valid and identical from
    both sectors. Valid only for images that have not wrapped."""
    a = slots(flash.sector_a)[:written]
    b = slots(flash.sector_b)[:written]
    good = crc_ok(a) & crc_ok(b) & (a == b).all(axis=1)
    return written - int(good.sum())


def repaired_slots(flash) -> int:
    """Slots that sector A cannot serve but sector B can."""
    return int((~crc_ok(slots(flash.sector_a)) & crc_ok(slots(flash.sector_b))).sum())


def flip_bits(sector: bytearray, used: int, rng: np.random.Generator,
              n_slots: int) -> list[int]:
    """Flip one seeded bit in each of n_slots distinct slots among the
    first `used` (the slots that hold records)."""
    chosen = rng.choice(used, size=n_slots, replace=False)
    bits = rng.integers(0, 8 * RECORD_BYTES, size=n_slots)
    for slot, bit in zip(chosen.tolist(), bits.tolist()):
        sector[slot * RECORD_BYTES + bit // 8] ^= 1 << (bit % 8)
    return sorted(chosen.tolist())
