"""Seeded inputs for the four workloads.

Every generator is a pure function of the workload seed, so one seed
always yields the same inputs, in the same order, in any process.  The
program under test receives only what these produce: wire params or
source text.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from itertools import count

from repro.fuzz.edits import mutate, storm_program
from repro.fuzz.generator import TIERS, generate_case
from repro.frontends.emit import program_to_c, program_to_python
from repro.ir.arrays import AccessKind, ArrayRef
from repro.ir.program import Program, Statement
from repro.ir.serde import query_to_dict
from repro.lang.unparse import program_to_source
from repro.perfect import load_suite
from repro.perfect.source_gen import queries_to_source

HOT_DRAW = 512  # PERFECT queries drawn per query-hot run (repeats included)
FILE_QUERIES = 30  # PERFECT queries per programs-cold source file
FILE_LANGS = ("loop", "python", "c")
STORM_STATEMENTS = 100
STORM_ARRAYS = 12  # as BENCH_incremental: ~1.6k pairs per 100 statements
STORM_DRIFT = 2


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class Digest:
    """SHA-256 over the canonical text of every input handed out."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, text: str) -> None:
        self._hash.update(text.encode("utf-8"))
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


@lru_cache(maxsize=1)
def perfect_universe() -> tuple:
    """Every query of the 13 synthetic PERFECT programs, repeats
    included, so a uniform draw follows the suite's repetition rates."""
    return tuple(q for program in load_suite() for q in program.queries)


def query_key(ref1, nest1, ref2, nest2) -> str:
    """Array-name-free canonical form of one pair query."""
    payload = query_to_dict(ref1, nest1, ref2, nest2)
    payload["ref1"]["array"] = payload["ref2"]["array"] = "a"
    return canonical(payload)


def analyze_params(ref1, nest1, ref2, nest2) -> dict:
    return {"query": query_to_dict(ref1, nest1, ref2, nest2), "directions": True}


def hot_queries(seed: int) -> list:
    """``HOT_DRAW`` PERFECT queries drawn uniformly from the suite."""
    rng = random.Random(f"query-hot/{seed}")
    universe = perfect_universe()
    return [universe[rng.randrange(len(universe))] for _ in range(HOT_DRAW)]


def fresh_case(seed: int, index: int):
    return generate_case(seed, index, TIERS[index % len(TIERS)])


def fresh_cases(seed: int):
    """Fuzz cases, tiers round-robin, each distinct query sent once."""
    sent: set[str] = set()
    for index in count():
        case = fresh_case(seed, index)
        params = analyze_params(case.ref1, case.nest1, case.ref2, case.nest2)
        text = canonical(params)
        if text in sent:
            continue
        sent.add(text)
        yield case, params, text


def _queries_program(queries) -> Program:
    program = Program("perfect_file")
    for index, query in enumerate(queries):
        array = f"q{index}_a"
        program.add(
            Statement(
                query.nest1,
                write=ArrayRef(array, query.ref1.subscripts, AccessKind.WRITE),
                reads=(ArrayRef(array, query.ref2.subscripts, AccessKind.READ),),
            )
        )
    return program


def cold_files(seed: int):
    """PERFECT-shaped source files: ``FILE_QUERIES`` drawn queries each,
    one private array per query, rendered in a seeded language."""
    rng = random.Random(f"programs-cold/{seed}")
    universe = perfect_universe()
    while True:
        queries = [universe[rng.randrange(len(universe))] for _ in range(FILE_QUERIES)]
        lang = FILE_LANGS[rng.randrange(len(FILE_LANGS))]
        if lang == "loop":
            text = queries_to_source(queries)
        elif lang == "python":
            text = program_to_python(_queries_program(queries))
        else:
            text = program_to_c(_queries_program(queries))
        yield lang, text, queries


def edit_texts(seed: int):
    """A 100-statement storm program, then one seeded edit after another,
    each as the full source text an editor would save.

    Inserts and deletes are redrawn when they would take the program more
    than ``STORM_DRIFT`` statements from its opening size: an unbounded
    random walk would let the program's size, and so every edit's cost,
    drift by a fifth within one run, differently for each seed.
    """
    program = storm_program(seed, statements=STORM_STATEMENTS, arrays=STORM_ARRAYS)
    rng = random.Random(f"edit-session/{seed}")
    while True:
        yield program_to_source(program)
        while True:
            edited, _ = mutate(program, rng, arrays=STORM_ARRAYS)
            if abs(len(edited.statements) - STORM_STATEMENTS) <= STORM_DRIFT:
                break
        program = edited
