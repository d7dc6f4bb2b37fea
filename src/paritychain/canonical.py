"""Canonicalization pipeline: structure a DPA, streamline it, extract the chain."""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from .core import (
    Alphabet,
    AutomatonError,
    ChainRepresentation,
    ParityAutomaton,
    Partition,
    PreconditionError,
    Transition,
    complete_dpa,
)
from .graphs import _PARTITION, _memo, _scc_ids, reachable_states, scc_decompose, state_equivalence


def is_structured(a: ParityAutomaton) -> tuple[bool, list[str]]:
    """Check the two structuredness conditions: full reachability, and every
    language-equivalence class contained in a single maximal SCC."""
    violations = []
    reach = reachable_states(a, a.initial)
    unreachable = sorted(set(range(a.state_count)) - reach)
    if unreachable:
        violations.append(f"unreachable states {unreachable}")
    partition = state_equivalence(a)
    scc = scc_decompose(a)
    for cid, members in enumerate(partition.classes):
        scc_ids = sorted({scc.scc_of[q] for q in members if q in scc.scc_of})
        if len(scc_ids) > 1:
            violations.append(
                f"equivalence class {cid} {members} spans SCCs {tuple(scc_ids)}"
            )
    return not violations, violations


def _restrict_to(a: ParityAutomaton, keep: list[int]) -> tuple[ParityAutomaton, dict[int, int]]:
    """Sub-automaton on ``keep`` (order preserved), with the old->new id map."""
    remap = {old: new for new, old in enumerate(keep)}
    kept = set(keep)
    ts = tuple(
        Transition(remap[t.src], t.sym, remap[t.dst], t.color)
        for t in a.transitions
        if t.src in kept and t.dst in kept
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
    renumbering) and completed, so it is always a valid complete DPA and
    byte-identical per seed.
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
    a = ParityAutomaton(Alphabet(names), states, 0, ts)
    reach = sorted(reachable_states(a, 0))
    if len(reach) < states:
        a, _ = _restrict_to(a, reach)
    return complete_dpa(a)


def structure_dpa_with_map(a: ParityAutomaton) -> tuple[ParityAutomaton, dict[int, int]]:
    """Like ``structure_dpa`` but also returns the id map original -> final
    for surviving states.  Ids are compacted order-preservingly whenever
    states are dropped, so an already-structured input maps identically.
    The language-equivalence partition is computed once and carried by
    the result, so asking ``state_equivalence`` for it costs nothing.
    """
    cur = a
    id_map = {q: q for q in range(a.state_count)}
    partition = None

    def drop_unreachable():
        nonlocal cur, id_map, partition
        reach = reachable_states(cur, cur.initial)
        if len(reach) == cur.state_count:
            return False
        cur, remap = _restrict_to(cur, sorted(reach))
        id_map = {orig: remap[q] for orig, q in id_map.items() if q in remap}
        if partition is not None:
            restricted = (tuple(remap[q] for q in c if q in remap) for c in partition.classes)
            partition = Partition(tuple(c for c in restricted if c))
        return True

    for _ in range((a.state_count + 2) ** 2):
        changed = drop_unreachable()
        # Computed once, after the first drop (an unreachable state may lack
        # rows); redirects and drops keep every surviving state's language,
        # so from then on it is only restricted and handed to each new ``cur``.
        if partition is None:
            partition = state_equivalence(cur)
        _memo(cur, _PARTITION, lambda: partition)
        scc = scc_decompose(cur)

        def redirect(q: int) -> int:
            members = partition.mates(q)
            best_rank = max(scc.scc_of[m] for m in members)
            if scc.scc_of[q] == best_rank:
                return q
            return min(m for m in members if scc.scc_of[m] == best_rank)

        new_initial = redirect(cur.initial)
        new_ts = tuple(
            Transition(t.src, t.sym, redirect(t.dst), t.color) for t in cur.transitions
        )
        if new_initial != cur.initial or new_ts != cur.transitions:
            cur = ParityAutomaton(cur.alphabet, cur.state_count, new_initial, new_ts)
            changed = True
        if not changed:
            ok, violations = is_structured(cur)
            if not ok:  # pragma: no cover - fixpoint implies structured
                raise AutomatonError(f"structuring stalled: {violations}")
            return cur, id_map
    raise AutomatonError("structuring did not converge")  # pragma: no cover


def structure_dpa(a: ParityAutomaton) -> ParityAutomaton:
    """Equivalent structured automaton: every state reachable, every
    language-equivalence class inside one maximal SCC.

    Transitions into a class that has members in a later SCC are bent to a
    fixed representative there (the lowest-indexed member), the initial
    state is re-seated the same way, unreachable states are dropped, and
    this repeats until a fixpoint.  Redirected transitions keep their
    colors; every redirect targets a language-equivalent state and only
    finitely many redirects can occur on any run, so the language is
    unchanged.
    """
    return structure_dpa_with_map(a)[0]


def _streamlined_colors(a: ParityAutomaton) -> dict[tuple[int, int], int]:
    """The (src, sym) -> color map of ``streamline``; see there.  Memoized
    on ``a`` (see ``graphs._memo``), so the precondition checks of
    ``is_streamlined`` cost one pass per automaton; an unstructured ``a``
    raises on every call.  Callers must not mutate the map."""
    return _memo(a, "_streamlined_colors", lambda: _recolor(a))


def _recolor(a: ParityAutomaton) -> dict[tuple[int, int], int]:
    """``_streamlined_colors`` without the memo."""
    ok, violations = is_structured(a)
    if not ok:
        raise PreconditionError("automaton is not structured: " + "; ".join(violations))

    new_color: dict[tuple[int, int], int] = {}
    live = list(a.transitions)
    i = 0
    while live:
        succ: list[list[int]] = [[] for _ in range(a.state_count)]
        for t in live:
            succ[t.src].append(t.dst)
        comp = _scc_ids(a.state_count, succ)
        internal: dict[int, list[Transition]] = {}
        for t in live:
            if comp[t.src] == comp[t.dst]:
                internal.setdefault(comp[t.src], []).append(t)
            else:
                new_color[(t.src, t.sym)] = i

        live = []
        lowered = False
        for ts in internal.values():
            least = min(t.color for t in ts)
            if least % 2 != i % 2:
                live += ts
                continue
            lowered = True
            for t in ts:
                if t.color == least:
                    new_color[(t.src, t.sym)] = i
                else:
                    live.append(t)
        if not lowered:
            i += 1
    return new_color


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
    ``state_equivalence`` for it costs nothing.
    """
    new_color = _streamlined_colors(a)
    ts = tuple(
        Transition(t.src, t.sym, t.dst, new_color[(t.src, t.sym)])
        for t in a.transitions
    )
    out = ParityAutomaton(a.alphabet, a.state_count, a.initial, ts)
    _memo(out, _PARTITION, lambda: state_equivalence(a))  # same edges, same languages
    return out


def is_streamlined(a: ParityAutomaton) -> bool:
    """Whether streamlining is a no-op, i.e. the colors are already minimal."""
    new_color = _streamlined_colors(a)
    return _memo(
        a, "_is_streamlined",
        lambda: all(new_color[(t.src, t.sym)] == t.color for t in a.transitions),
    )


def extract_chain(a: ParityAutomaton, equiv: Partition) -> ChainRepresentation:
    """The chain A_0..A_{cmax+1} of co-Buchi automata of a streamlined DPA,
    as a view (see ``ChainRepresentation``): no level is built here.

    Levels are defined for every integer up to cmax+1, so absent colors
    simply repeat the next occurring level.
    """
    if equiv.state_count != a.state_count:
        raise AutomatonError("partition does not match the automaton's state count")
    if not is_streamlined(a):
        raise PreconditionError("chain extraction requires a streamlined automaton")
    return ChainRepresentation(a, equiv)


@dataclass(frozen=True)
class ChainLevelStats:
    level: int
    states: int
    accepting_transitions: int
    jump_transitions: int


def chain_stats(c: ChainRepresentation) -> tuple[ChainLevelStats, ...]:
    """Per-level counts, read off the source colors and the class sizes
    without building a level: level i accepts the transitions of color
    >= i, and every level has one jump per other mate of a target."""
    a = c.source
    jump_count = sum(len(c.partition.mates(t.dst)) - 1 for t in a.transitions)
    return tuple(
        ChainLevelStats(
            level=i,
            states=a.state_count,
            accepting_transitions=sum(1 for t in a.transitions if t.color >= i),
            jump_transitions=jump_count,
        )
        for i in range(a.max_color + 2)
    )
