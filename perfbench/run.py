"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload query-hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The analyzer is imported from the
checkout's ``src`` tree (pure Python: nothing to build).  The last line
of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a
separate run that reports the per-layer ledger instead.  Server logs,
spans and a per-run record (input digest, exact counts, failures) are
written under ``.bench_out/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEADLINE_S = 170

END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")

#: Every per-layer metric with its unit.  A layer a workload never
#: reaches reports 0.
PER_LAYER = {
    "client.cpu_us_per_op": "us",
    "server.cpu_us_per_op": "us",
    "server.fastlane_hit_frac": "frac",
    "wire.health_rtt_us": "us",
    "protocol.decode_us": "us",
    "protocol.canonical_us": "us",
    "protocol.encode_us": "us",
    "router.hop_us": "us",
    "router.cpu_us_per_op": "us",
    "worker.cpu_us_per_op": "us",
    "worker.op_share_max": "frac",
    "serde.query_from_dict_us": "us",
    "system.build_problem_us": "us",
    "memo.hit_frac_bounds": "frac",
    "memo.hit_frac_no_bounds": "frac",
    "cascade.tests_run": "count",
    "cascade.tests.svpc": "count",
    "cascade.tests.acyclic": "count",
    "cascade.tests.loop_residue": "count",
    "cascade.tests.fourier_motzkin": "count",
    "cascade.analyze_us": "us",
    "directions.us_per_pair": "us",
    "directions.tests_run": "count",
    "engine.batch_ms_per_file": "ms",
    "engine.overhead_frac": "frac",
    "engine.dedup_frac": "frac",
    "frontend.extract_ms.loop": "ms",
    "frontend.extract_ms.python": "ms",
    "frontend.extract_ms.c": "ms",
    "lang.compile_ms_per_edit": "ms",
    "incremental.update_ms": "ms",
    "incremental.requery_frac": "frac",
    "incremental.requeried_pairs": "count",
    "session.open_ms": "ms",
    "share.serve.client": "frac",
    "share.serve.server": "frac",
    "share.serve.router": "frac",
    "share.analysis": "frac",
    "share.core.directions": "frac",
    "share.core.engine": "frac",
    "share.frontends": "frac",
    "share.core.incremental": "frac",
    "unattributed_frac": "frac",
    "trace.op_us": "us",
    "trace.overhead_frac": "frac",
    "failed_frac": "frac",
    "wrong_answers": "count",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no analyzer source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # A run that has not finished by then is broken: end it without a
    # result (served workloads catch this to stop their servers first).
    signal.alarm(DEADLINE_S)

    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(expected one of {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, out_dir)
    table = json.loads((HERE / "perfect_oracle.json").read_text())
    WORKLOADS[args.workload](run, table)

    if args.trace:
        layers = dict(run.layers)
        layers["failed_frac"] = run.failed / run.attempted
        layers["wrong_answers"] = run.wrong
        metrics = {
            name: {"value": layers.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": run.e2e[name][0], "unit": run.e2e[name][1]}
            for name in END_TO_END
        }
    run.record.update(
        failures=dict(run.failures),
        wrong_notes=run.wrong_notes,
        metrics=metrics,
    )
    record_path = out_dir / f"{run.tag}.json"
    record_path.write_text(json.dumps(run.record, indent=1, sort_keys=True) + "\n")
    print(f"record: {record_path}", file=sys.stderr)
    for note in run.wrong_notes:
        print(f"wrong: {note}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": run.wrong == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if run.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
