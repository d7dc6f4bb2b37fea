"""Seeded input families for the benchmark.

Every generator is a pure function of its arguments, so an instance is
fully named by its descriptor tuple (see ``build``).  The program under
test only ever receives the generated automata or their serialized text.
"""

from __future__ import annotations

import random

from paritychain import Alphabet, LassoWord, ParityAutomaton, Transition, random_dpa


def staircase(base_n: int, k: int, sigma: int, copies: int, iseed: int) -> ParityAutomaton:
    """``copies`` copies of one random base DPA in a row of SCCs.

    Copy c keeps the base's transitions, except that about one in three
    goes to the same target in copy c+1.  The last copy is the plain base,
    so by induction every copy of a base state has that state's language;
    equivalent states therefore sit in successive SCCs and structuring has
    to redirect transitions and drop the earlier copies.
    """
    base = random_dpa(base_n, k, sigma, iseed)
    rng = random.Random(f"staircase/{iseed}")
    n = base.state_count
    ts = []
    for c in range(copies):
        for t in base.transitions:
            hop = c + 1 < copies and rng.randrange(3) == 0
            dst = (c + 1 if hop else c) * n + t.dst
            ts.append(Transition(c * n + t.src, t.sym, dst, t.color))
    return ParityAutomaton(base.alphabet, copies * n, base.initial, tuple(ts))


def blowup(base: ParityAutomaton, m: int, salt: str) -> ParityAutomaton:
    """Mod-m blow-up of ``base``: state (q, j) becomes q*m + j and every
    transition adds a seeded 0 or 1 to the counter j modulo m.

    Every (q, j) has the language of q, so the classes have size m; when
    the counter moves on some cycle they lie inside one SCC, which gives
    the chain its jump transitions.
    """
    rng = random.Random(f"blowup/{salt}")
    shift = {(t.src, t.sym): rng.randrange(2) for t in base.transitions}
    ts = tuple(
        Transition(t.src * m + j, t.sym, t.dst * m + (j + shift[(t.src, t.sym)]) % m, t.color)
        for t in base.transitions
        for j in range(m)
    )
    return ParityAutomaton(base.alphabet, base.state_count * m, base.initial * m, ts)


def blowup_family(base_n: int, k: int, sigma: int, m: int, iseed: int) -> ParityAutomaton:
    return blowup(random_dpa(base_n, k, sigma, iseed), m, str(iseed))


def line(n: int) -> ParityAutomaton:
    """State q loops on ``a`` with color q mod 6 and moves on ``b`` to q+1
    (the last state stays) with color 7q mod 6; all states are
    inequivalent and singleton SCCs, and the pair product has n^2 nodes."""
    ts = []
    for q in range(n):
        ts.append(Transition(q, 0, q, q % 6))
        ts.append(Transition(q, 1, min(q + 1, n - 1), 7 * q % 6))
    return ParityAutomaton(Alphabet(("a", "b")), n, 0, tuple(ts))


def build(desc: tuple) -> ParityAutomaton:
    """The automaton named by a descriptor such as ("random", 48, 6, 3, 17)."""
    kind, *args = desc
    if kind == "random":  # complete, reachable, classes mostly singletons
        return random_dpa(*args)
    if kind == "staircase":
        return staircase(*args)
    if kind == "blowup":
        return blowup_family(*args)
    if kind == "line":
        return line(*args)
    raise ValueError(f"unknown family {kind!r}")


def base(desc: tuple) -> ParityAutomaton:
    """The random DPA a staircase or blow-up instance is built from; for
    the other families the instance itself."""
    kind, *args = desc
    if kind in ("staircase", "blowup"):
        base_n, k, sigma, _, iseed = args
        return random_dpa(base_n, k, sigma, iseed)
    return build(desc)


def flip(a: ParityAutomaton, salt: str) -> ParityAutomaton:
    """``a`` with one transition of least color raised by one.  Any cycle
    through that transition changes its dominating color's parity, so the
    language usually changes."""
    least = min(t.color for t in a.transitions)
    candidates = [t for t in a.transitions if t.color == least]
    pick = random.Random(f"flip/{salt}").choice(candidates)
    ts = tuple(
        Transition(t.src, t.sym, t.dst, t.color + 1) if t == pick else t
        for t in a.transitions
    )
    return ParityAutomaton(a.alphabet, a.state_count, a.initial, ts)


def name(desc: tuple) -> str:
    """Stable text key of a descriptor, used in the recorded expectations."""
    return "/".join(str(x) for x in desc)


def random_lasso(rng: random.Random, letters: int, max_prefix: int, max_period: int) -> LassoWord:
    prefix = tuple(rng.randrange(letters) for _ in range(rng.randrange(max_prefix + 1)))
    period = tuple(rng.randrange(letters) for _ in range(rng.randrange(1, max_period + 1)))
    return LassoWord(prefix, period)
