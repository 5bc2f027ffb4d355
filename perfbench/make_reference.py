"""Regenerate ``perfect_oracle.json``: enumeration answers for every
distinct pair query of the synthetic PERFECT suite.

The suite is fixed (it takes no seed), so its answers are computed once
and committed; every workload seed draws from this universe.  Run from
the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from inputs import perfect_universe, query_key  # noqa: E402
from reference import indexed_answer  # noqa: E402

TABLE = HERE / "perfect_oracle.json"


def main() -> int:
    start = time.perf_counter()
    answers = {}
    for query in perfect_universe():
        key = query_key(query.ref1, query.nest1, query.ref2, query.nest2)
        if key not in answers:
            answers[key] = indexed_answer(
                query.ref1, query.nest1, query.ref2, query.nest2
            )
    TABLE.write_text(json.dumps(answers, sort_keys=True, indent=0) + "\n")
    print(
        f"{len(answers)} answers in {time.perf_counter() - start:.1f} s -> {TABLE}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
