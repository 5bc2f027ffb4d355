"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import ledger  # noqa: E402
import reference  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

from repro.fuzz.edits import storm_program  # noqa: E402
from repro.fuzz.generator import generate_cases  # noqa: E402
from repro.ir.program import reference_pairs  # noqa: E402

WORKLOADS = ("query-hot", "query-fresh", "programs-cold", "edit-session")


def _bench(workload: str, trace: int, seed: int = 3, seconds: float = 0.4, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_prints_every_metric_with_unit(workload, trace):
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = bench_run.PER_LAYER if trace else bench_run.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        if trace:
            assert metric["unit"] == bench_run.PER_LAYER[name]
    if trace:
        # The layer self-times plus the unattributed time make up the
        # operation time.
        shares = sum(
            m["value"] for n, m in result["metrics"].items() if n.startswith("share.")
        )
        assert shares + result["metrics"]["unattributed_frac"]["value"] == pytest.approx(1.0)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_span_self_times_sum_to_the_root():
    tracer = ledger.Tracer()
    root = tracer.begin("op")
    child = tracer.begin("child")
    tracer.call("grandchild", sum, range(1000))
    tracer.end(child)
    tracer.call("sibling", sorted, range(1000))
    tracer.end(root)
    self_ns = tracer.self_ns()
    assert sum(self_ns.values()) == tracer.total_ns("op")
    assert all(value >= 0 for value in self_ns.values())


def test_gate_flags_an_injected_wrong_reference():
    query = inputs.hot_queries(0)[0]
    key = inputs.query_key(query.ref1, query.nest1, query.ref2, query.nest2)
    table = json.loads((BENCH / "perfect_oracle.json").read_text())
    right = table[key]
    wrong = dict(right, dependent=not right["dependent"],
                 vectors=[] if right["vectors"] else ["="])
    from repro.api import AnalysisSession
    from repro.serve.protocol import report_to_wire

    wire = report_to_wire(AnalysisSession().analyze(
        query.ref1, query.nest1, query.ref2, query.nest2, want_directions=True))
    assert reference.check(wire, right) is None
    assert reference.check(wire, wrong) is not None


def test_workload_counts_wrong_answers_against_a_corrupted_table(tmp_path):
    table = json.loads((BENCH / "perfect_oracle.json").read_text())
    corrupted = {
        key: dict(answer, dependent=not answer["dependent"],
                  vectors=[] if answer["vectors"] else ["="])
        for key, answer in table.items()
    }
    run = workloads.Run("programs-cold", 5, 0.3, False, ROOT, tmp_path)
    workloads.programs_cold(run, corrupted)
    assert run.wrong > 0
    clean = workloads.Run("programs-cold", 5, 0.3, False, ROOT, tmp_path)
    workloads.programs_cold(clean, table)
    assert clean.wrong == 0


def test_indexed_enumeration_matches_the_oracle():
    for case in generate_cases(11, 300):
        args = (case.ref1, case.nest1, case.ref2, case.nest2, case.env)
        assert reference.indexed_answer(*args) == reference.oracle_answer(*args)
    program = storm_program(4, statements=10, arrays=3)
    for site1, site2 in reference_pairs(program):
        args = (site1.ref, site1.nest, site2.ref, site2.nest)
        assert reference.indexed_answer(*args) == reference.oracle_answer(*args)


def test_committed_table_covers_the_perfect_universe():
    table = json.loads((BENCH / "perfect_oracle.json").read_text())
    keys = {
        inputs.query_key(q.ref1, q.nest1, q.ref2, q.nest2)
        for q in inputs.perfect_universe()
    }
    assert keys == set(table)


def test_one_seed_repeats_its_inputs_and_counts():
    records = []
    for _ in range(2):
        done = _bench("query-hot", 0, seed=9, seconds=0.3)
        assert done.returncode == 0, done.stderr[-3000:]
        records.append(json.loads((ROOT / ".bench_out" / "query-hot-seed9-trace0.json").read_text()))
    keys = ("inputs_digest", "counts", "distinct_queries", "fastlane_hits_verification")
    assert [records[0][k] for k in keys] == [records[1][k] for k in keys]
    assert records[0]["fastlane_hits_verification"] == records[0]["distinct_queries"]


def test_fails_without_the_analyzer_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("query-hot", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
