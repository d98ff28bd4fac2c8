"""Re-fit the scans in a saved flash image with the ground analysis.

    python3 bench/refit.py .bench_work/flash.bin .bench_work/out

It runs in a process of its own, so the analysis of the correctness gate
does not count in the peak memory of the process that times the simulation.
The last line of stdout is one JSON object: scan_id -> visibility, as the
hex form of the float, so that equality is bit for bit.
"""

from __future__ import annotations

import json
import sys

import common


def main(argv: list[str]) -> int:
    image, out_dir = argv
    common.use_source_tree()
    from pairsat import analysis

    common.check_source_import()
    rows = analysis.analyze_flash(image, out_dir)
    print(json.dumps({str(r["scan_id"]): r["visibility"].hex() for r in rows}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
