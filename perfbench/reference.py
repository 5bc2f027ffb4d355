"""Reference answers from exhaustive enumeration, never from the analyzer.

Two enumerators give the same answers:

* :func:`oracle_answer` calls :mod:`repro.oracle` directly.  It walks
  every pair of iterations, so it is only fast on small nests; the fuzz
  cases of ``query-fresh`` are built small for it.
* :func:`indexed_answer` is the same enumeration with two exact
  shortcuts, for the PERFECT universe and the edit-storm programs,
  whose nests reach a million points: the second reference's
  iterations are indexed by the address they touch, and a loop whose
  variable no subscript and no other bound mentions (an unused
  wrapper loop) is enumerated once, as a factor, instead of nested.
  ``tests/test_perfbench.py`` checks it against :mod:`repro.oracle`.

An answer is a plain dict: ``dependent``, the sorted elementary
direction vectors as strings (``"<="``), and per common loop level the
``[min, max]`` of the observed dependence distances.
"""

from __future__ import annotations

from itertools import product

from repro.ir.loops import LoopNest
from repro.oracle import oracle_direction_vectors, oracle_distance_set

DIRECTIONS = ("<", "=", ">")


def _answer(vectors: set[str], lows: list, highs: list) -> dict:
    dependent = bool(vectors)
    return {
        "dependent": dependent,
        "vectors": sorted(vectors),
        "dist": [[lo, hi] for lo, hi in zip(lows, highs)] if dependent else None,
    }


def oracle_answer(ref1, nest1, ref2, nest2, env=None) -> dict:
    """The answer as :mod:`repro.oracle` enumerates it."""
    vectors = {
        "".join(v) for v in oracle_direction_vectors(ref1, nest1, ref2, nest2, env)
    }
    lows: list = []
    highs: list = []
    if vectors:
        distances = oracle_distance_set(ref1, nest1, ref2, nest2, env)
        width = len(next(iter(distances)))
        lows = [min(d[k] for d in distances) for k in range(width)]
        highs = [max(d[k] for d in distances) for k in range(width)]
    return _answer(vectors, lows, highs)


def _free_loops(nest: LoopNest, used: frozenset) -> dict[str, tuple[int, int]]:
    """Loops with constant bounds whose variable nothing else mentions."""
    mentioned = set(used)
    for loop in nest:
        mentioned |= loop.lower.variables() | loop.upper.variables()
    free = {}
    for loop in nest:
        if loop.var in mentioned:
            continue
        if loop.lower.variables() or loop.upper.variables():
            continue
        free[loop.var] = (loop.lower.as_constant(), loop.upper.as_constant())
    return free


def indexed_answer(ref1, nest1, ref2, nest2, env=None) -> dict:
    """The enumeration answer, indexed by address and factored over
    unused loops (identical to :func:`oracle_answer`)."""
    env = dict(env or {})
    n_common = nest1.common_prefix_depth(nest2)
    if ref1.array != ref2.array or ref1.rank != ref2.rank:
        return _answer(set(), [], [])
    used = ref1.variables() | ref2.variables()
    free1 = _free_loops(nest1, used)
    free2 = _free_loops(nest2, used)
    if any(hi < lo for lo, hi in (*free1.values(), *free2.values())):
        return _answer(set(), [], [])  # an empty loop: no iterations at all
    common = [loop.var for loop in nest1.loops[:n_common]]
    free_common = {v: free1[v] for v in common if v in free1 and v in free2}
    shared = set(common) - set(free_common)  # enumerated on both sides
    kept1 = LoopNest([l for l in nest1 if l.var not in free1 or l.var in shared])
    kept2 = LoopNest([l for l in nest2 if l.var not in free2 or l.var in shared])
    walk = [v for v in common if v not in free_common]

    index: dict[tuple, set[tuple]] = {}
    for iter2 in kept2.iteration_space(env):
        point = {**env, **iter2}
        addr = tuple(s.evaluate(point) for s in ref2.subscripts)
        index.setdefault(addr, set()).add(tuple(iter2[v] for v in walk))
    seen: set[tuple] = set()
    for iter1 in kept1.iteration_space(env):
        point = {**env, **iter1}
        addr = tuple(s.evaluate(point) for s in ref1.subscripts)
        hits = index.get(addr)
        if hits:
            mine = tuple(iter1[v] for v in walk)
            for theirs in hits:
                seen.add(tuple(b - a for a, b in zip(mine, theirs)))
    if not seen:
        return _answer(set(), [], [])

    # Rebuild full-depth distances: a free common level contributes
    # every difference of two values in its range, independently.
    options = []
    lows, highs = [], []
    position = 0
    for var in common:
        if var in free_common:
            lo, hi = free_common[var]
            span = hi - lo
            options.append(DIRECTIONS if span else ("=",))
            lows.append(-span)
            highs.append(span)
        else:
            column = [d[position] for d in seen]
            lows.append(min(column))
            highs.append(max(column))
            options.append(None)
            position += 1
    vectors = set()
    for distance in seen:
        parts = []
        position = 0
        for choice in options:
            if choice is None:
                step = distance[position]
                position += 1
                parts.append(("<",) if step > 0 else ("=",) if step == 0 else (">",))
            else:
                parts.append(choice)
        vectors.update("".join(combo) for combo in product(*parts))
    return _answer(vectors, lows, highs)


def expand(vectors) -> set[str]:
    """Wire direction vectors (``*`` wildcards allowed) as elementary strings."""
    out: set[str] = set()
    for vector in vectors:
        parts = [DIRECTIONS if c == "*" else (c,) for c in vector]
        out.update("".join(combo) for combo in product(*parts))
    return out


def check(wire: dict, answer: dict, one_sided: bool = False) -> str | None:
    """Why a wire report disagrees with the reference (None: it agrees).

    Mirrors the fuzz harness: an exact answer must equal the reference;
    an inexact one, or one for a symbolic query whose reference grounds
    only one environment, must not claim independence the reference
    refutes, nor (when exact) miss a reference direction.
    """
    dependent = wire["dependent"]
    exact = wire["exact"]
    if not dependent and answer["dependent"]:
        return "claims independence, enumeration finds a conflict"
    directions = wire.get("directions")
    vectors = expand(directions) if directions is not None else None
    reference = set(answer["vectors"])
    if one_sided or not exact:
        if exact and dependent and vectors is not None and not reference <= vectors:
            return f"missing directions {sorted(reference - vectors)}"
        return None
    if dependent != answer["dependent"]:
        return "claims a dependence enumeration does not find"
    if vectors is not None and vectors != reference:
        return f"directions {sorted(vectors)} != {sorted(reference)}"
    distance = wire.get("distance")
    if dependent and distance and answer["dist"]:
        for level, claimed in enumerate(distance):
            if claimed is not None and answer["dist"][level] != [claimed, claimed]:
                return f"distance {claimed} at level {level} != {answer['dist'][level]}"
    return None
