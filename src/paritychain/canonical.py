"""Canonicalization pipeline: structure a DPA, streamline it, extract the chain."""

from __future__ import annotations

import random
import string
from typing import NamedTuple

from .core import (
    Alphabet,
    AutomatonError,
    ChainRepresentation,
    ParityAutomaton,
    Partition,
    PreconditionError,
    Transition,
    _expect,
)
from .graphs import (
    _PARTITION, _memo, _refine, reachable_states, scc_decompose, state_equivalence,
)


def is_structured(a: ParityAutomaton) -> tuple[bool, list[str]]:
    """Check the two structuredness conditions: full reachability, and every
    language-equivalence class contained in a single maximal SCC."""
    violations = []
    scc_of = scc_decompose(a).scc_of  # the reachable states
    unreachable = sorted(set(range(a.state_count)) - scc_of.keys())
    if unreachable:
        violations.append(f"unreachable states {unreachable}")
    for cid, members in enumerate(state_equivalence(a).classes):
        scc_ids = sorted({scc_of[q] for q in members if q in scc_of})
        if len(scc_ids) > 1:
            violations.append(
                f"equivalence class {cid} {members} spans SCCs {tuple(scc_ids)}"
            )
    return not violations, violations


def _drop_unreachable(a: ParityAutomaton) -> tuple[ParityAutomaton, dict[int, int]]:
    """``a`` on the states reachable from its initial state, renumbered
    order-preservingly, with the old -> new id map of those states; ``a``
    itself when every state is reachable."""
    keep = sorted(reachable_states(a, a.initial))
    remap = {old: new for new, old in enumerate(keep)}
    if len(keep) == a.state_count:
        return a, remap
    ts = tuple(  # the successors of a reachable state are reachable
        Transition(remap[s], y, remap[d], c) for s, y, d, c in a.transitions if s in remap
    )
    out = ParityAutomaton(
        alphabet=a.alphabet,
        state_count=len(keep),
        initial=remap[a.initial],
        transitions=ts,
    )
    return out, remap


def default_letter_names(count: int) -> tuple[str, ...]:
    if count <= 26:
        return tuple(string.ascii_lowercase[:count])
    return tuple(f"l{i}" for i in range(count))


def random_dpa(
    states: int, colors: int, letters: int, seed: int,
    letter_names: tuple[str, ...] | None = None,
) -> ParityAutomaton:
    """Reproducible random complete DPA.

    Successor and color are drawn uniformly per (state, letter), the
    result is pruned to the part reachable from state 0 (order-preserving
    renumbering).  Every row is drawn and the pruning keeps every row of a
    state it keeps, so it is always a valid complete DPA, byte-identical
    per seed.
    """
    if states < 1 or colors < 1 or letters < 1:
        raise AutomatonError("states, colors, and letters must be positive")
    names = default_letter_names(letters) if letter_names is None else letter_names
    rng = random.Random(seed)
    ts = tuple(
        Transition(q, sym, rng.randrange(states), rng.randrange(colors))
        for q in range(states)
        for sym in range(letters)
    )
    return _drop_unreachable(ParityAutomaton(Alphabet(names), states, 0, ts))[0]


def structure_dpa_with_map(a: ParityAutomaton) -> tuple[ParityAutomaton, dict[int, int]]:
    """Like ``structure_dpa`` but also returns the id map original -> final
    for surviving states.  Ids are compacted order-preservingly, so an
    already-structured input maps identically.  The language-equivalence
    partition is computed once and carried by the result, so asking
    ``state_equivalence`` for it costs nothing.
    """
    # Dropped first, as an unreachable state may lack rows.  Redirects keep
    # every state's language, and states that become unreachable stay
    # outside ``scc_of`` until the end: dropping them each round would
    # renumber the rest order-preservingly, which keeps Tarjan's order.
    cur, first = _drop_unreachable(a)
    partition = state_equivalence(cur)
    for _ in range((a.state_count + 2) ** 2):
        scc_of = scc_decompose(cur).scc_of
        to = list(range(cur.state_count))  # the redirect target of each state
        for cls in partition.classes:
            live = [q for q in cls if q in scc_of]
            if live:
                best = max(scc_of[q] for q in live)
                rep = min(q for q in live if scc_of[q] == best)
                for q in live:
                    if scc_of[q] != best:
                        to[q] = rep
        ts = tuple(Transition(s, y, to[d], c) for s, y, d, c in cur.transitions)
        if to[cur.initial] == cur.initial and ts == cur.transitions:
            break
        cur = ParityAutomaton(cur.alphabet, cur.state_count, to[cur.initial], ts)
    else:
        raise AutomatonError("structuring did not converge")  # pragma: no cover
    out, last = _drop_unreachable(cur)
    restricted = (tuple(last[q] for q in c if q in last) for c in partition.classes)
    _memo(out, _PARTITION, lambda: Partition(tuple(c for c in restricted if c)))
    ok, violations = is_structured(out)
    if not ok:  # pragma: no cover - fixpoint implies structured
        raise AutomatonError(f"structuring stalled: {violations}")
    return out, {orig: last[q] for orig, q in first.items() if q in last}


def structure_dpa(a: ParityAutomaton) -> ParityAutomaton:
    """Equivalent structured automaton: every state reachable, every
    language-equivalence class inside one maximal SCC.

    Transitions into a class that has members in a later SCC are bent to a
    fixed representative there (the lowest-indexed member), the initial
    state is re-seated the same way, and this repeats until a fixpoint,
    on the reachable part; unreachable states are dropped.  Redirected transitions keep their
    colors; every redirect targets a language-equivalent state and only
    finitely many redirects can occur on any run, so the language is
    unchanged.
    """
    return structure_dpa_with_map(a)[0]


def _streamlined_colors(a: ParityAutomaton) -> list[int]:
    """The colors of ``streamline``, aligned with ``a.transitions``; see
    there.  Memoized on ``a`` (see ``graphs._memo``), so the precondition
    checks of ``is_streamlined`` cost one pass per automaton; an
    unstructured ``a`` raises on every call.  Callers must not mutate the
    list."""
    return _memo(a, _STREAMLINED, lambda: _recolor(a))


_STREAMLINED = "_streamlined_colors"  # the memo key of ``_streamlined_colors``


def _recolor(a: ParityAutomaton) -> list[int]:
    """``_streamlined_colors`` without the memo.  A structured automaton is
    complete and deterministic, as its partition read every row, so its
    sorted transition e leaves state e // |Σ|: the passes are the rounds of
    ``_refine`` on transition indices, and a live one keeps its old color."""
    ok, violations = is_structured(a)
    if not ok:
        raise PreconditionError("automaton is not structured: " + "; ".join(violations))
    color = a.flat[1].copy()
    i = 0

    def keep(sccs, leaving):
        nonlocal i
        for e in leaving:
            color[e] = i
        kept = []
        lowered = False
        for edges in sccs:
            least = min(color[e] for e in edges)
            if least % 2 != i % 2:
                kept += edges
                continue
            lowered = True
            for e in edges:
                if color[e] == least:
                    color[e] = i
                else:
                    kept.append(e)
        if not lowered:
            i += 1
        return kept

    _refine(a.state_count, len(a.alphabet), a.flat[0], range(len(color)), keep)
    return color


def streamline(a: ParityAutomaton) -> ParityAutomaton:
    """Push transition colors down as far as the language allows.

    Works on a coloring graph holding the not-yet-recolored transitions.
    With a counter i starting at 0: transitions of the graph that lie on
    no cycle get color i and are removed; then every SCC whose least
    remaining color has the parity of i has those least-color transitions
    recolored to i and removed, which restarts the scan without
    incrementing; otherwise i increments.  Colors only ever decrease, the
    edge structure is untouched, and the automaton's language (in fact the
    dominating color's parity on every run) is preserved.  So every state
    keeps its language, and the result carries ``a``'s partition: asking
    ``state_equivalence`` for it costs nothing.  Streamlining is idempotent,
    so the result also carries its own colors as its streamlined colors,
    and ``is_streamlined`` on it runs no pass.
    """
    colors = _streamlined_colors(a)
    ts = tuple(Transition(s, y, d, c) for (s, y, d, _), c in zip(a.transitions, colors))
    out = ParityAutomaton(a.alphabet, a.state_count, a.initial, ts)
    _memo(out, _PARTITION, lambda: state_equivalence(a))  # same edges, same languages
    _memo(out, _STREAMLINED, lambda: colors)
    return out


def is_streamlined(a: ParityAutomaton) -> bool:
    """Whether streamlining is a no-op, i.e. the colors are already minimal."""
    colors = _streamlined_colors(a)
    return _memo(
        a, "_is_streamlined",
        lambda: a.flat[1] == colors,
    )


def extract_chain(a: ParityAutomaton, equiv: Partition) -> ChainRepresentation:
    """The chain A_0..A_{cmax+1} of co-Buchi automata of a streamlined DPA,
    as a view (see ``ChainRepresentation``): no level is built here.

    Levels are defined for every integer up to cmax+1, so absent colors
    simply repeat the next occurring level.
    """
    chain = ChainRepresentation(a, equiv)
    if not is_streamlined(a):
        raise PreconditionError("chain extraction requires a streamlined automaton")
    return chain


class ChainLevelStats(NamedTuple):
    level: int
    states: int
    accepting_transitions: int
    jump_transitions: int


def chain_stats(c: ChainRepresentation) -> tuple[ChainLevelStats, ...]:
    """Per-level counts, read off the source colors and the class sizes
    without building a level: level i accepts the transitions of color
    >= i, and every level has one jump per other mate of a target."""
    _expect(ChainRepresentation, c)
    a = c.source
    jump_count = sum(len(c.partition._by_state[d]) - 1 for _, _, d, _ in a.transitions)
    return tuple(
        ChainLevelStats(
            level=i,
            states=a.state_count,
            accepting_transitions=sum(1 for _, _, _, c in a.transitions if c >= i),
            jump_transitions=jump_count,
        )
        for i in range(a.max_color + 2)
    )
