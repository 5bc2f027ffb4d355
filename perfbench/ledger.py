"""Spans and layer replays for the traced run.

Spans are recorded in memory around each call the benchmark makes into
a layer's public functions, and written out when the run ends.  A
span's self time is its duration minus the time its child spans cover.
The program itself carries no spans yet, so time spent inside a served
process is split by replaying that layer's public functions in-process
on the workload's own inputs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.api import AnalysisConfig, AnalysisSession
from repro.core.analyzer import DependenceAnalyzer
from repro.core.memo import Memoizer
from repro.core.stats import TEST_ORDER
from repro.ir.serde import query_from_dict
from repro.serve import protocol
from repro.system.depsystem import build_problem


class Tracer:
    """In-memory spans: ``(name, start_ns, end_ns, parent)`` tuples."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> int:
        end = time.perf_counter_ns()
        self.spans[index][2] = end
        self._stack.pop()
        return end - self.spans[index][1]

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, int] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0) + (end - start) - child_ns[index]
        return out

    def total_ns(self, name: str) -> int:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _mean_us(tracer: Tracer, name: str) -> float:
    n = tracer.count(name)
    return tracer.total_ns(name) / n / 1000.0 if n else 0.0


def cascade_counts(session_stats) -> dict[str, float]:
    counts = session_stats.test_counts()
    out = {f"cascade.tests.{name}": counts.get(name, 0) for name in TEST_ORDER}
    out["cascade.tests_run"] = sum(counts.values())
    out["directions.tests_run"] = sum(session_stats.direction_test_counts().values())
    return out


def memo_fracs(session_stats) -> dict[str, float]:
    def frac(hits: int, queries: int) -> float:
        return hits / queries if queries else 0.0

    return {
        "memo.hit_frac_bounds": frac(
            session_stats.memo_hits_bounds, session_stats.memo_queries_bounds
        ),
        "memo.hit_frac_no_bounds": frac(
            session_stats.memo_hits_no_bounds, session_stats.memo_queries_no_bounds
        ),
    }


def replay_protocol(tracer: Tracer, frames: list[bytes], results: list) -> dict:
    """The workload's request frames through the server's codec."""
    for request_id, (frame, result) in enumerate(zip(frames, results)):
        request = tracer.call("protocol.decode_request", protocol.decode_request, frame)
        tracer.call("protocol.canonical_json", protocol.canonical_json, request.params)
        tracer.call(
            "protocol.encode_response",
            protocol.encode_response,
            protocol.ok_response(request_id, result),
        )
    return {
        "protocol.decode_us": _mean_us(tracer, "protocol.decode_request"),
        "protocol.canonical_us": _mean_us(tracer, "protocol.canonical_json"),
        "protocol.encode_us": _mean_us(tracer, "protocol.encode_response"),
    }


def replay_queries(tracer: Tracer, params_list: list[dict]) -> dict:
    """The server's miss path for ``analyze`` requests, layer by layer.

    One analyzer with a memo shared across the replay, as a server
    shares one memo across requests; a separate memo-less analyzer
    gives the cold cascade cost.
    """
    session = AnalysisSession(AnalysisConfig(want_witness=False, jobs=1))
    analyzer = session.analyzer
    cold = DependenceAnalyzer(memoizer=None, want_witness=False)
    for params in params_list:
        index = tracer.begin("ledger.query")
        ref1, nest1, ref2, nest2 = tracer.call(
            "serde.query_from_dict", query_from_dict, params["query"]
        )
        result = tracer.call("deptests.analyze", analyzer.analyze, ref1, nest1, ref2, nest2)
        if result.dependent:
            tracer.call("directions", analyzer.directions, ref1, nest1, ref2, nest2)
        tracer.end(index)
        tracer.call("system.build_problem", build_problem, ref1, nest1, ref2, nest2)
        tracer.call("cascade.cold_analyze", cold.analyze, ref1, nest1, ref2, nest2)
    n = len(params_list)
    out = {
        "serde.query_from_dict_us": _mean_us(tracer, "serde.query_from_dict"),
        "system.build_problem_us": _mean_us(tracer, "system.build_problem"),
        "cascade.analyze_us": _mean_us(tracer, "cascade.cold_analyze"),
        "directions.us_per_pair": _mean_us(tracer, "directions"),
        # Per request, as the server would spend it on a miss.
        "_analysis_us_per_op": (
            tracer.total_ns("serde.query_from_dict") + tracer.total_ns("deptests.analyze")
        ) / n / 1000.0 if n else 0.0,
        "_directions_us_per_op": tracer.total_ns("directions") / n / 1000.0 if n else 0.0,
    }
    out.update(cascade_counts(session.stats))
    out.update(memo_fracs(session.stats))
    return out


def replay_pairs(tracer: Tracer, pairs: list) -> dict:
    """Serial replay of program pairs (sites) through the cascade, with
    one memo across them, as a session keeps one."""
    analyzer = DependenceAnalyzer(memoizer=Memoizer())
    cold = DependenceAnalyzer(memoizer=None, want_witness=False)
    for site1, site2 in pairs:
        args = (site1.ref, site1.nest, site2.ref, site2.nest)
        result = tracer.call("deptests.analyze", analyzer.analyze, *args)
        if result.dependent:
            tracer.call("directions", analyzer.directions, *args)
        tracer.call("system.build_problem", build_problem, *args)
        tracer.call("cascade.cold_analyze", cold.analyze, *args)
    out = {
        "system.build_problem_us": _mean_us(tracer, "system.build_problem"),
        "cascade.analyze_us": _mean_us(tracer, "cascade.cold_analyze"),
        "directions.us_per_pair": _mean_us(tracer, "directions"),
    }
    out.update(cascade_counts(analyzer.stats))
    out.update(memo_fracs(analyzer.stats))
    return out
