"""Record the reference series the benchmark's correctness gate compares to.

    python3 bench/make_reference.py

Each table covers every input a seed can draw for its workload: all quench
times of the lattice and all kick counts of the sparse schedule.  Takes
about four minutes on one core.  Re-record only when the physics is meant
to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import (  # noqa: E402
    REFERENCE_PATH,
    KickSparse,
    QuenchSeries,
    driver_key,
    reference_rows,
)


def write_tables(tables):
    """JSON with one ``[x, mx, my, mz]`` row per line."""
    blocks = [json.dumps(key) + ": [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
              for key, rows in tables.items()]
    REFERENCE_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


def main() -> int:
    quench, sparse = QuenchSeries(0), KickSparse(0)
    jobs = [(quench.driver, quench.n_sites, QuenchSeries.reference_schedule()),
            (sparse.driver, sparse.n_sites, KickSparse.reference_schedule())]
    tables = {}
    for driver, n_sites, schedule in jobs:
        key = driver_key(driver, n_sites)
        print(key, flush=True)
        tables[key] = reference_rows(driver, n_sites, list(schedule))
    write_tables(tables)
    return 0


if __name__ == "__main__":
    sys.exit(main())
