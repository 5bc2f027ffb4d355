"""The four workloads: a closed timed loop, a correctness gate, and (in
the traced run) the per-layer ledger.

Each workload has one client.  Its next operation starts only after
the previous one answered (closed loop): the callers modelled are
compilers and editors, which wait for each answer.  A loop runs until
its operations have taken the run's ``seconds`` of wall time in total;
making the inputs between operations is not timed.

The two query workloads split their time over ``SETUPS`` server
launches.  On a shared host, the speed of one client/server pair is
set largely at launch (where the scheduler places the processes) and
differs by up to half from launch to launch, so one launch per run
would make each run a draw of one placement.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from repro.api import AnalysisConfig, AnalysisSession
from repro.frontends import extract_source
from repro.ir.arrays import AccessKind, ArrayRef
from repro.ir.program import reference_pairs
from repro.opt import compile_source
from repro.serve import protocol
from repro.serve.client import Client, ServeError, TransportError
from repro.serve.protocol import ProtocolError

import inputs
import ledger
import reference
from procs import Served, checkout_env, peak_rss_mb

#: The tail percentile per workload, fixed so that a 10 s run has at
#: least ten samples beyond it.  ``query-hot`` could support p99.9, but
#: from seed to seed its p99.9 spread over twice the widest bound the
#: benchmark may set, so it reports p99, and as the median over its
#: launches of each launch's p99: one launch that meets a burst of host
#: noise moved a whole-run p99 by a third.
TAIL_PCT = {
    "query-hot": 99.0,  # ~40k ops
    "query-fresh": 99.0,  # ~2.5k ops
    "programs-cold": 90.0,  # ~130 files
    "edit-session": 80.0,  # ~100 edits
}
TAIL_PER_LOOP = {"query-hot"}
SETUPS = 10  # set-ups per run; setup_s is their median
#: Inputs over which the exact counts of a run are taken.
LEDGER_PREFIX = {"query-fresh": 400, "programs-cold": 40, "edit-session": 10}
HEALTH_PROBES = 200
OP_ERRORS = (ServeError, TransportError, ProtocolError, OSError, ValueError)

PROBE = """
from repro.api import AnalysisConfig, AnalysisSession
from repro.frontends import extract_source
session = AnalysisSession(AnalysisConfig())
session.analyze_program(extract_source("for i = 1 to 4 do\\n  a[i] = a[i - 1]\\nend\\n").program)
print("ready", flush=True)
"""

SHARE_LAYERS = (
    "serve.client",
    "serve.server",
    "serve.router",
    "analysis",
    "core.directions",
    "core.engine",
    "frontends",
    "core.incremental",
)


def percentile(sorted_values: list, pct: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def _registry_value(registry: dict, name: str, key: str | None = None) -> int:
    if key is None:
        return registry.get("scalars", {}).get(name, 0)
    return registry.get("families", {}).get(name, {}).get(key, 0)


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


class Run:
    """One run of one workload: counters, latencies, spans, results."""

    def __init__(self, name, seed, seconds, trace, root: Path, out_dir: Path):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.out_dir = out_dir
        self.tag = f"{name}-seed{seed}-trace{int(trace)}"
        self.latencies_ns: list[int] = []
        self.traced_ns: list[int] = []
        self.untraced_ns: list[int] = []
        self.busy_ns = 0
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.wrong = 0
        self.wrong_notes: list[str] = []
        self.setups: list[float] = []
        self.peak_rss = 0.0
        self.cpu: Counter = Counter()  # CPU seconds of the timed loops
        self.e2e: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, float] = {}
        self.record: dict = {"workload": name, "seed": seed, "trace": trace}
        self.tracer = ledger.Tracer()
        self.tracing = False  # spans around timed ops (traced halves only)
        self.broken = False

    # -- operations ---------------------------------------------------------

    def call(self, fn, *args):
        """One untimed operation (warm-up, open, verification)."""
        self.attempted += 1
        try:
            result = fn(*args)
        except OP_ERRORS as err:
            self._fail(err)
            return None
        if isinstance(result, dict) and result.get("degraded"):
            self._fail("degraded")
        return result

    def op(self, fn, *args):
        """One timed operation of the closed loop."""
        self.attempted += 1
        span = self.tracer.begin("op") if self.tracing else None
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        except OP_ERRORS as err:
            result = None
            self._fail(err)
        finally:
            elapsed = time.perf_counter_ns() - start
            if span is not None:
                self.tracer.end(span)
            self.latencies_ns.append(elapsed)
            if self.trace:
                (self.traced_ns if self.tracing else self.untraced_ns).append(elapsed)
            self.busy_ns += elapsed
        if isinstance(result, dict) and result.get("degraded"):
            self._fail("degraded")
        return result

    def _fail(self, why) -> None:
        self.failed += 1
        if isinstance(why, TransportError):
            self.broken = True
        label = why if isinstance(why, str) else f"{type(why).__name__}: {why}"
        self.failures[label[:200]] += 1

    def wrong_answer(self, note: str) -> None:
        self.wrong += 1
        if len(self.wrong_notes) < 20:
            self.wrong_notes.append(note[:500])

    def timed_loop(self, step, seconds: float, served: Served | None = None) -> None:
        """Call ``step()`` until this loop's operations have taken
        ``seconds``.  A traced run traces every other operation, so its
        own tracing overhead can be measured against the operations in
        between (alternating, not halves: served edits slow down over a
        session).  CPU of this process (and of ``served``) over the loop
        is accounted in ``self.cpu``."""
        # Inputs and results held by the benchmark are not the program's
        # garbage: keep the collector from walking them during the loop.
        gc.collect()
        gc.freeze()
        server0 = served.cpu_seconds() if served else {}
        client0 = time.process_time()
        start = self.busy_ns
        first = len(self.latencies_ns)
        while self.busy_ns - start < seconds * 1e9:
            self.tracing = self.trace and not self.tracing
            step()
        self.tracing = False
        loop = sorted(self.latencies_ns[first:])
        self.record.setdefault("loops", []).append(
            {"ops": len(loop), "p50_ms": statistics.median(loop) / 1e6,
             "tail_ms": percentile(loop, TAIL_PCT[self.name]) / 1e6}
        )
        self.cpu["client"] += time.process_time() - client0
        for name, value in (served.cpu_seconds() if served else {}).items():
            self.cpu[name] += value - server0[name]

    # -- set-up -------------------------------------------------------------

    def launches(self, cluster: int = 0):
        """``SETUPS`` server launches in turn, each stopped and reaped
        before the next; yields ``(index, served, client)``.

        From here on SIGTERM (and the run's SIGALRM deadline) unwinds the
        run, so the server is stopped.  Only served workloads install
        this: a Python-level handler would be inherited by the engine's
        forked pool workers, which must die on SIGTERM at once.
        """
        signal.signal(signal.SIGTERM, _on_sigterm)
        signal.signal(signal.SIGALRM, _on_sigterm)
        for index in range(SETUPS):
            served = Served(self.root, self.out_dir, f"{self.tag}-server{index}", cluster)
            try:
                client = served.start()
                self.setups.append(served.setup_s)
                self.record.setdefault("server_logs", []).append(str(served.stderr_path))
                yield index, served, client
                self.peak_rss = max(self.peak_rss, served.peak_rss_mb())
            finally:
                served.stop()

    # -- results ------------------------------------------------------------

    def finish_e2e(self) -> None:
        ops = len(self.latencies_ns)
        ordered = sorted(self.latencies_ns)
        pct = TAIL_PCT[self.name]
        tail = percentile(ordered, pct)
        if self.name in TAIL_PER_LOOP:
            tail = statistics.median(loop["tail_ms"] for loop in self.record["loops"]) * 1e6
        self.e2e = {
            "setup_s": (statistics.median(self.setups), "s"),
            "ops_per_s": (ops / (self.busy_ns / 1e9), "1/s"),
            "op_p50_ms": (statistics.median(ordered) / 1e6, "ms"),
            "op_tail_ms": (tail / 1e6, "ms"),
            "peak_rss_mb": (self.peak_rss, "MiB"),
        }
        self.record.update(
            ops=ops,
            tail_percentile=pct,
            samples_beyond_tail=sum(1 for v in ordered if v > tail),
            setups_s=self.setups,
        )

    def cpu_layers(self) -> dict:
        """CPU per timed op: this client, and each served process."""
        ops = len(self.latencies_ns)
        cpu = dict(self.cpu)
        out = {"client.cpu_us_per_op": cpu.pop("client") / ops * 1e6}
        if "router" in cpu:
            out["router.cpu_us_per_op"] = cpu.pop("router") / ops * 1e6
            out["worker.cpu_us_per_op"] = sum(cpu.values()) / ops * 1e6
            out["server.cpu_us_per_op"] = out["worker.cpu_us_per_op"]
        else:
            out["server.cpu_us_per_op"] = cpu.get("server", 0.0) / ops * 1e6
        return out

    def traced_op_us(self) -> float:
        return statistics.fmean(self.traced_ns) / 1000.0 if self.traced_ns else 0.0

    def finish_trace(self, shares: dict[str, float]) -> None:
        """Layer shares of the traced operation time, plus what is left."""
        if self.untraced_ns and self.traced_ns:
            self.layers["trace.overhead_frac"] = (
                statistics.fmean(self.traced_ns) / statistics.fmean(self.untraced_ns) - 1.0
            )
        for layer in SHARE_LAYERS:
            self.layers[f"share.{layer}"] = shares.get(layer, 0.0)
        self.layers["unattributed_frac"] = 1.0 - sum(shares.values())
        self.layers["trace.op_us"] = self.traced_op_us()
        self.tracer.write(self.out_dir / f"{self.tag}.spans.jsonl")


def _health_rtt_us(client: Client) -> float:
    samples = []
    for _ in range(HEALTH_PROBES):
        start = time.perf_counter_ns()
        client.health()
        samples.append(time.perf_counter_ns() - start)
    return statistics.median(samples) / 1000.0


def _served_shares(run: Run, server_inner: dict[str, float]) -> dict:
    """Shares of one served operation: client and router CPU, the
    server's CPU less the analysis layers replayed in-process, and those
    layers themselves."""
    op_us = run.traced_op_us()
    layers = run.layers
    shares = {name: us / op_us for name, us in server_inner.items()}
    shares["serve.client"] = layers["client.cpu_us_per_op"] / op_us
    shares["serve.router"] = layers.get("router.cpu_us_per_op", 0.0) / op_us
    shares["serve.server"] = (
        layers["server.cpu_us_per_op"] - sum(server_inner.values())
    ) / op_us
    return shares


def _take_replay(run: Run, replay: dict) -> None:
    run.layers.update({k: v for k, v in replay.items() if not k.startswith("_")})


def _miss_path_inner(replay: dict, miss: float) -> dict:
    return {
        "analysis": replay["_analysis_us_per_op"] * miss,
        "core.directions": replay["_directions_us_per_op"] * miss,
    }


def _perfect_answer(table: dict, query) -> dict:
    key = inputs.query_key(query.ref1, query.nest1, query.ref2, query.nest2)
    answer = table.get(key)
    if answer is None:  # the suite changed since the table was made
        answer = table[key] = reference.indexed_answer(
            query.ref1, query.nest1, query.ref2, query.nest2
        )
    return answer


def _local_wire(session: AnalysisSession, ref1, nest1, ref2, nest2) -> dict:
    return protocol.report_to_wire(
        session.analyze(ref1, nest1, ref2, nest2, want_directions=True)
    )


# -- query-hot ------------------------------------------------------------------


def query_hot(run: Run, table: dict) -> None:
    digest = inputs.Digest()
    queries = inputs.hot_queries(run.seed)
    params = [inputs.analyze_params(q.ref1, q.nest1, q.ref2, q.nest2) for q in queries]
    texts = [inputs.canonical(p) for p in params]
    first: dict[str, int] = {}
    for index, text in enumerate(texts):
        digest.add(text)
        first.setdefault(text, index)
    distinct = sorted(first.values())
    run.record["inputs_digest"] = digest.hexdigest()
    run.record["distinct_queries"] = len(distinct)

    expected: dict[str, dict] = {}
    position = 0
    hits = sent = 0
    for launch, served, client in run.launches():
        for index in distinct:  # pre-warm: every timed request is a repeat
            result = run.call(client.call, "analyze", params[index])
            seen = expected.setdefault(texts[index], result)
            if result is not None and result != seen:
                run.wrong_answer(f"query {index} answered differently after a restart")
        stats0 = client.stats()["registry"]

        def step():
            nonlocal position
            index = position % len(params)
            position += 1
            result = run.op(client.call, "analyze", params[index])
            if result is not None and result != expected[texts[index]]:
                run.wrong_answer(f"repeat of query {index} answered differently")

        run.timed_loop(step, run.seconds / SETUPS, served)
        stats1 = client.stats()["registry"]
        hits += _registry_value(stats1, "serve.fastlane.hits") - _registry_value(
            stats0, "serve.fastlane.hits"
        )
        sent += _registry_value(stats1, "serve.requests", "analyze") - _registry_value(
            stats0, "serve.requests", "analyze"
        )
        if launch == SETUPS - 1:
            # One more pass over the distinct queries: all hits, a count
            # that repeats exactly for a seed.
            for index in distinct:
                result = run.call(client.call, "analyze", params[index])
                if result is not None and result != expected[texts[index]]:
                    run.wrong_answer(f"verification of query {index} differs")
            stats2 = client.stats()["registry"]
            run.record["fastlane_hits_verification"] = _registry_value(
                stats2, "serve.fastlane.hits"
            ) - _registry_value(stats1, "serve.fastlane.hits")
            if run.trace:
                run.layers["wire.health_rtt_us"] = _health_rtt_us(client)
        client.close()
    run.finish_e2e()

    # Correctness: served ≡ in-process report_to_wire ≡ enumeration.
    session = AnalysisSession(AnalysisConfig(want_witness=False, jobs=1))
    for index in distinct:
        query = queries[index]
        served_wire = expected[texts[index]]
        local = _local_wire(session, query.ref1, query.nest1, query.ref2, query.nest2)
        if served_wire is None:
            continue
        if protocol.canonical_json(local) != protocol.canonical_json(served_wire):
            run.wrong_answer(f"query {index}: served bytes differ from in-process")
        why = reference.check(served_wire, _perfect_answer(table, query))
        if why:
            run.wrong_answer(f"query {index}: {why}")
    run.record["counts"] = ledger.cascade_counts(session.stats)

    if run.trace:
        run.layers.update(run.cpu_layers())
        run.layers["server.fastlane_hit_frac"] = hits / sent if sent else 0.0
        frames = [
            protocol.encode_request("analyze", params[i], request_id=i) for i in distinct
        ]
        run.layers.update(
            ledger.replay_protocol(run.tracer, frames, [expected[texts[i]] for i in distinct])
        )
        replay = ledger.replay_queries(run.tracer, [params[i] for i in distinct])
        _take_replay(run, replay)
        miss = 1.0 - run.layers["server.fastlane_hit_frac"]
        run.finish_trace(_served_shares(run, _miss_path_inner(replay, miss)))


# -- query-fresh ----------------------------------------------------------------


def query_fresh(run: Run, table: dict) -> None:
    digest = inputs.Digest()
    cases = inputs.fresh_cases(run.seed)
    sent: list = []  # (case index, served wire as canonical JSON or None)
    per_worker: Counter = Counter()
    hits = 0
    for launch, served, client in run.launches(cluster=2):
        stats0 = client.stats()

        def step():
            nonlocal client
            case, params, text = next(cases)
            digest.add(text)
            result = run.op(client.call, "analyze", params)
            sent.append((case.index, None if result is None else protocol.canonical_json(result)))
            if run.broken:
                client.close()
                client = Client(served.endpoint, timeout=30.0)
                run.broken = False

        run.timed_loop(step, run.seconds / SETUPS, served)
        stats1 = client.stats()
        for worker_id, worker in stats1["workers"].items():
            before = stats0["workers"][worker_id]["registry"]
            per_worker[worker_id] += _registry_value(
                worker["registry"], "serve.requests", "analyze"
            ) - _registry_value(before, "serve.requests", "analyze")
            hits += _registry_value(worker["registry"], "serve.fastlane.hits") - (
                _registry_value(before, "serve.fastlane.hits")
            )
        if run.trace and launch == SETUPS - 1:
            router_rtt = _health_rtt_us(client)
            direct = [Client(ep, timeout=30.0) for ep in served.worker_endpoints]
            try:
                worker_rtt = statistics.median(_health_rtt_us(c) for c in direct)
            finally:
                for c in direct:
                    c.close()
            run.layers["wire.health_rtt_us"] = worker_rtt
            run.layers["router.hop_us"] = router_rtt - worker_rtt
        client.close()
    run.finish_e2e()
    run.record["inputs_digest"] = digest.hexdigest()

    # Correctness, after the timed loop: in-process bytes and enumeration.
    session = AnalysisSession(AnalysisConfig(want_witness=False, jobs=1))
    prefix = LEDGER_PREFIX["query-fresh"]
    for number, (index, served_text) in enumerate(sent):
        if number == prefix:
            run.record["counts"] = ledger.cascade_counts(session.stats)
        case = inputs.fresh_case(run.seed, index)
        local = _local_wire(session, case.ref1, case.nest1, case.ref2, case.nest2)
        if served_text is None:
            continue
        if protocol.canonical_json(local) != served_text:
            run.wrong_answer(f"case {case.index}: served bytes differ from in-process")
        served_wire = json.loads(served_text)
        answer = reference.oracle_answer(case.ref1, case.nest1, case.ref2, case.nest2, case.env)
        why = reference.check(served_wire, answer, one_sided=case.has_symbols)
        if why:
            run.wrong_answer(f"case {case.tier}/{case.index}: {why}")
    run.record.setdefault("counts", ledger.cascade_counts(session.stats))
    run.record["counts_over_cases"] = min(prefix, len(sent))

    if run.trace:
        run.layers.update(run.cpu_layers())
        total = sum(per_worker.values())
        run.layers["worker.op_share_max"] = max(per_worker.values()) / total if total else 0.0
        run.layers["server.fastlane_hit_frac"] = hits / total if total else 0.0
        head = [(inputs.fresh_case(run.seed, i), text) for i, text in sent[:prefix]]
        params = [inputs.analyze_params(c.ref1, c.nest1, c.ref2, c.nest2) for c, _ in head]
        frames = [
            protocol.encode_request("analyze", p, request_id=i) for i, p in enumerate(params)
        ]
        results = [None if text is None else json.loads(text) for _, text in head]
        run.layers.update(ledger.replay_protocol(run.tracer, frames, results))
        replay = ledger.replay_queries(run.tracer, params)
        _take_replay(run, replay)
        miss = 1.0 - run.layers["server.fastlane_hit_frac"]
        run.finish_trace(_served_shares(run, _miss_path_inner(replay, miss)))


# -- programs-cold --------------------------------------------------------------


def _probe_setup(run: Run) -> None:
    """Launch → analysis stack imported, session built, first answer."""
    env = checkout_env(run.root, run.out_dir)
    for _ in range(SETUPS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE], stdout=subprocess.PIPE, env=env, cwd=run.root
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        run.setups.append(elapsed)


def programs_cold(run: Run, table: dict) -> None:
    digest = inputs.Digest()
    _probe_setup(run)
    files = inputs.cold_files(run.seed)
    session = AnalysisSession(AnalysisConfig())  # library defaults
    done: list = []  # (lang, queries, compact pairs or None, traced text or None)

    def one_file(lang, text):
        if run.tracing:
            extraction = run.tracer.call(
                f"frontends.extract.{lang}", extract_source, text, lang=lang
            )
            report = run.tracer.call(
                "core.engine.analyze_program", session.analyze_program, extraction.program
            )
        else:
            extraction = extract_source(text, lang=lang)
            report = session.analyze_program(extraction.program)
        return extraction, report

    def step():
        lang, text, queries = next(files)
        digest.add(lang + "\n" + text)
        traced = run.tracing
        outcome = run.op(one_file, lang, text)
        if outcome is None:
            done.append((lang, queries, None, None))
            return
        extraction, report = outcome
        pairs = [
            (p.ref1, p.ref2, p.degraded, p.deduped,
             protocol.canonical_json(protocol.report_to_wire(p)))
            for p in report.pairs
        ]
        done.append((lang, queries, pairs, text if traced else None))
        if len(done) == LEDGER_PREFIX["programs-cold"]:
            run.record["counts"] = ledger.cascade_counts(session.stats)

    run.timed_loop(step, run.seconds)
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    run.peak_rss = peak_rss_mb() + children
    run.finish_e2e()
    run.record["inputs_digest"] = digest.hexdigest()
    run.record.setdefault("counts", ledger.cascade_counts(session.stats))

    for number, (lang, queries, compact, _) in enumerate(done):
        if compact is None:
            continue
        by_array: dict[str, list] = {}
        for pair in compact:
            by_array.setdefault(pair[0].split("[")[0], []).append(pair)
        for index, query in enumerate(queries):
            array = f"q{index}_a"
            pairs = by_array.get(array, [])
            want1 = str(ArrayRef(array, query.ref1.subscripts, AccessKind.WRITE))
            want2 = str(ArrayRef(array, query.ref2.subscripts, AccessKind.READ))
            if len(pairs) != 1 or pairs[0][:2] != (want1, want2):
                run.wrong_answer(f"file {number} ({lang}): query {index} not analyzed as one pair")
                continue
            if pairs[0][2]:
                run._fail("degraded")
                continue
            why = reference.check(json.loads(pairs[0][4]), _perfect_answer(table, query))
            if why:
                run.wrong_answer(f"file {number} ({lang}) query {index}: {why}")

    if run.trace:
        traced = [(lang, text, pairs) for lang, _, pairs, text in done if text is not None]
        for lang in inputs.FILE_LANGS:
            name = f"frontends.extract.{lang}"
            n = run.tracer.count(name)
            run.layers[f"frontend.extract_ms.{lang}"] = (
                run.tracer.total_ns(name) / n / 1e6 if n else 0.0
            )
        batch_ns = run.tracer.total_ns("core.engine.analyze_program")
        run.layers["engine.batch_ms_per_file"] = batch_ns / max(1, len(traced)) / 1e6
        pairs = [p for _, _, compact in traced for p in compact]
        run.layers["engine.dedup_frac"] = sum(p[3] for p in pairs) / max(1, len(pairs))
        site_pairs = [
            sp
            for lang, text, _ in traced
            for sp in reference_pairs(extract_source(text, lang=lang).program)
        ]
        replay_tracer = ledger.Tracer()
        _take_replay(run, ledger.replay_pairs(replay_tracer, site_pairs))
        analysis_ns = replay_tracer.total_ns("deptests.analyze")
        directions_ns = replay_tracer.total_ns("directions")
        engine_ns = batch_ns - analysis_ns - directions_ns
        run.layers["engine.overhead_frac"] = engine_ns / batch_ns if batch_ns else 0.0
        op_ns = sum(run.traced_ns)
        extract_ns = sum(
            run.tracer.total_ns(f"frontends.extract.{lang}") for lang in inputs.FILE_LANGS
        )
        run.finish_trace(
            {
                "frontends": extract_ns / op_ns,
                "analysis": analysis_ns / op_ns,
                "core.directions": directions_ns / op_ns,
                "core.engine": engine_ns / op_ns,
            }
        )


# -- edit-session ---------------------------------------------------------------

_VOLATILE = ("elapsed_ms", "session", "degraded")


def _summary(update: dict) -> dict:
    return {k: v for k, v in update.items() if k not in _VOLATILE}


def edit_session(run: Run, table: dict) -> None:
    """One session on the last of the ``SETUPS`` launches (an edit costs
    tens of milliseconds of server CPU, so placement matters little)."""
    digest = inputs.Digest()
    edits = inputs.edit_texts(run.seed)
    history: list = []  # (text, served summary or None)
    graph = None
    open_ms = 0.0
    for launch, served, client in run.launches():
        if launch < SETUPS - 1:
            client.close()
            continue
        text = next(edits)
        digest.add(text)
        start = time.perf_counter_ns()
        opened = run.call(client.call, "open_session", {"source": text})
        open_ms = (time.perf_counter_ns() - start) / 1e6
        if opened is None:
            raise RuntimeError(f"open_session failed: {dict(run.failures)}")
        sid = opened["session"]
        history.append((text, opened.get("update")))

        def step():
            text = next(edits)
            digest.add(text)
            result = run.op(client.call, "update_source", {"session": sid, "source": text})
            history.append((text, result))

        run.timed_loop(step, run.seconds, served)
        graph = run.call(client.call, "graph", {"session": sid})
        if run.trace:
            run.layers["wire.health_rtt_us"] = _health_rtt_us(client)
        client.close()
    run.finish_e2e()
    run.record["inputs_digest"] = digest.hexdigest()
    prefix = LEDGER_PREFIX["edit-session"]
    run.record["requeried_pairs_prefix"] = sum(
        (s or {}).get("requeried", 0) for _, s in history[1 : prefix + 1]
    )

    # Correctness: every served summary ≡ an in-process replay of the
    # same texts; the final graph ≡ that replay's and a cold full one's;
    # every pair of the final program ≡ enumeration.
    local = AnalysisSession(AnalysisConfig(jobs=1))
    tracer = run.tracer
    for number, (text, served_summary) in enumerate(history):
        compiled = tracer.call("lang.compile_source", compile_source, text, strict=False)
        update = tracer.call("core.incremental.update", local.update, compiled.program)
        if served_summary is not None and _summary(served_summary) != _summary(update.summary()):
            run.wrong_answer(f"edit {number}: served update summary differs from in-process")
    final = compile_source(history[-1][0], strict=False).program
    cold = AnalysisSession(AnalysisConfig(jobs=1))
    cold.update(final)
    if graph is not None:
        if graph["edges"] != local.graph.edge_dicts():
            run.wrong_answer("final served graph differs from the in-process session's")
        if graph["edges"] != cold.graph.edge_dicts():
            run.wrong_answer("final served graph differs from a cold full analysis")
    checker = AnalysisSession(AnalysisConfig(jobs=1))
    for site1, site2 in reference_pairs(final):
        wire = protocol.report_to_wire(checker.analyze_sites(site1, site2, want_directions=True))
        answer = reference.indexed_answer(site1.ref, site1.nest, site2.ref, site2.nest)
        why = reference.check(wire, answer)
        if why:
            run.wrong_answer(f"final program {wire['ref1']} vs {wire['ref2']}: {why}")
    # Exact counts: a cold analysis of the opening program.
    opening = ledger.replay_pairs(
        ledger.Tracer(), reference_pairs(compile_source(history[0][0], strict=False).program)
    )
    run.record["counts"] = {
        k: v for k, v in opening.items() if k.startswith("cascade.tests") or k == "directions.tests_run"
    }

    if run.trace:
        run.layers.update(run.cpu_layers())
        run.layers["session.open_ms"] = open_ms
        compile_us = tracer.total_ns("lang.compile_source") / len(history) / 1000.0
        update_us = tracer.total_ns("core.incremental.update") / len(history) / 1000.0
        run.layers["lang.compile_ms_per_edit"] = compile_us / 1000.0
        run.layers["incremental.update_ms"] = update_us / 1000.0
        summaries = [s for _, s in history[1:] if s]
        run.layers["incremental.requery_frac"] = (
            statistics.fmean(s["requery_fraction"] for s in summaries) if summaries else 0.0
        )
        run.layers["incremental.requeried_pairs"] = run.record["requeried_pairs_prefix"]
        head = history[1 : prefix + 1]
        frames = [
            protocol.encode_request("update_source", {"session": "s1", "source": t}, request_id=i)
            for i, (t, _) in enumerate(head)
        ]
        run.layers.update(ledger.replay_protocol(tracer, frames, [s for _, s in head]))
        _take_replay(run, opening)
        inner = {"frontends": compile_us, "core.incremental": update_us}
        run.finish_trace(_served_shares(run, inner))


WORKLOADS = {
    "query-hot": query_hot,
    "query-fresh": query_fresh,
    "programs-cold": programs_cold,
    "edit-session": edit_session,
}
