"""Canonicalization pipeline: structure a DPA, streamline it, extract the chain."""

from __future__ import annotations

import random
import string
from functools import cached_property
from itertools import compress, count
from typing import NamedTuple

from .core import (
    Alphabet,
    AutomatonError,
    CoBuchiAutomaton,
    ParityAutomaton,
    Partition,
    PreconditionError,
    Transition,
    _COLOR,
    _MAX_ROWS,
    _check_size,
    _expect,
    _Frozen,
    _shown,
)
from .graphs import (
    _PARTITION, _SCCS, SccDecomposition, _edge_groups, _expect_equivalence, _memo, _refine,
    scc_decompose, state_equivalence,
)


def is_structured(a: ParityAutomaton) -> tuple[bool, list[str]]:
    """Check the two structuredness conditions: full reachability, and every
    language-equivalence class contained in a single maximal SCC.  It reads
    the SCCs and partition memoized on ``a``, so a repeated call is O(|Q|)."""
    _expect(ParityAutomaton, a)
    scc_of = scc_decompose(a).scc_of  # the reachable states
    unreachable = sorted(set(range(a.state_count)) - scc_of.keys())
    violations = [f"unreachable states {unreachable}"] if unreachable else []
    for cid, members in enumerate(state_equivalence(a).classes):
        scc_ids = sorted({scc_of[q] for q in members if q in scc_of})
        if len(scc_ids) > 1:
            violations.append(f"equivalence class {cid} {members} spans SCCs {tuple(scc_ids)}")
    return not violations, violations


def _drop_unreachable(a: ParityAutomaton) -> tuple[ParityAutomaton, dict]:
    """``a`` on the states of its SCCs, renumbered order-preservingly, with
    the old -> new id map of those states; ``a`` itself when every state is
    reachable.  The automaton built carries ``a``'s SCCs renumbered, which
    are its own: the renumbering keeps Tarjan's order."""
    sccs = scc_decompose(a)
    remap = {old: new for new, old in enumerate(sorted(sccs.scc_of))}
    if len(remap) == a.state_count:
        return a, remap
    ts = tuple(  # the successors of a reachable state are reachable
        Transition(remap[s], y, remap[d], c) for s, y, d, c in a.transitions if s in remap
    )
    out = ParityAutomaton(a.alphabet, len(remap), remap[a.initial], ts)
    _memo(out, _SCCS, lambda: SccDecomposition(tuple(tuple(map(remap.__getitem__, c))
                                                   for c in sccs.sccs)))
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
    per seed.  The sizes (see ``core._check_size``), the names and the seed
    are checked before a row is drawn.
    """
    if not all(type(x) is int for x in (states, colors, letters)):
        raise AutomatonError("states, colors, and letters must be ints")
    if states < 1 or colors < 1 or letters < 1:
        raise AutomatonError("states, colors, and letters must be positive")
    _check_size(states, letters)
    if type(seed) is not int:
        raise AutomatonError(f"seed is not an int: {_shown(seed)}")
    alphabet = Alphabet(default_letter_names(letters) if letter_names is None else letter_names)
    if len(alphabet) != letters:
        raise AutomatonError(f"{len(alphabet)} letter names for {letters} letters")
    rng = random.Random(seed)
    ts = tuple(
        Transition(q, sym, rng.randrange(states), rng.randrange(colors))
        for q in range(states)
        for sym in range(letters)
    )
    return _drop_unreachable(ParityAutomaton(alphabet, states, 0, ts))[0]


def structure_dpa_with_map(a: ParityAutomaton) -> tuple[ParityAutomaton, dict[int, int]]:
    """Like ``structure_dpa`` but also returns the id map original -> final
    for surviving states.  Ids are compacted order-preservingly, so an
    already-structured input maps identically.  The result carries the
    language-equivalence partition, computed once, and its SCCs, so asking
    for them costs nothing.
    """
    # Dropped first, as an unreachable state may lack rows; the SCCs found
    # for it are the first round's.  Redirects keep every state's language,
    # and states that become unreachable stay outside ``scc_of`` until the
    # last round's SCCs drop them.
    cur, first = _drop_unreachable(a)
    partition = state_equivalence(cur)
    for _ in range((a.state_count + 2) ** 2):
        scc_of = scc_decompose(cur).scc_of
        to: dict[int, int] = {}  # the redirect target of each state that moves
        for cls in partition.classes:
            live = [q for q in cls if q in scc_of]
            if live:
                best = max(scc_of[q] for q in live)
                rep = min(q for q in live if scc_of[q] == best)
                for q in live:
                    if scc_of[q] != best:
                        to[q] = rep
        if not to:  # else a live state moves, so a row into it or the initial does
            break
        ts = tuple(Transition(s, y, to.get(d, d), c) for s, y, d, c in cur.transitions)
        cur = ParityAutomaton(cur.alphabet, cur.state_count, to.get(cur.initial, cur.initial), ts)
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
    _expect(ParityAutomaton, a)
    return _memo(a, _STREAMLINED, lambda: _recolor(a))


_STREAMLINED = "_streamlined_colors"  # the memo key of ``_streamlined_colors``


def _recolor(a: ParityAutomaton) -> list[int]:
    """``_streamlined_colors`` without the memo.  A structured automaton is
    complete and deterministic, as its partition read every row, so its
    sorted transition e leaves state e // |Σ|: the passes are the rounds of
    ``_refine`` on transition indices, and a live one keeps its old color.

    The first pass starts from ``scc_decompose(a)``, which ``is_structured``
    has just read (structuring hands it on), not from a Tarjan pass of its
    own: that check requires every state to be reachable, so those are the
    SCCs of all transitions.  An SCC whose least color's parity differs
    from the counter's waits, and is carried to the next pass as it is
    (see ``_refine``); the order of the SCCs in a pass does not matter, as
    each recolors only its own edges."""
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
                kept.append(edges)  # carried: it waits, still an SCC
                continue
            lowered = True
            kept.append([e for e in edges if color[e] != least])
            for e in edges:
                if color[e] == least:
                    color[e] = i
        if not lowered:
            i += 1
        return kept

    k, dst = len(a.alphabet), a.flat[0]
    first = _edge_groups(scc_decompose(a).scc_of, range(len(color)), k, dst)
    _refine(a.state_count, k, dst, *first, keep)
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
    and ``is_streamlined`` on it runs no pass.  The scan starts from the
    SCCs memoized on ``a``, and an SCC that waits for the counter is not
    decomposed again (see ``_recolor``).
    """
    colors = _streamlined_colors(a)
    ts = tuple(Transition(s, y, d, c) for (s, y, d, _), c in zip(a.transitions, colors))
    out = ParityAutomaton(a.alphabet, a.state_count, a.initial, ts)
    _memo(out, _PARTITION, lambda: state_equivalence(a))  # same edges, same languages
    _memo(out, _STREAMLINED, lambda: colors)
    return out


def is_streamlined(a: ParityAutomaton) -> bool:
    """Whether streamlining is a no-op, i.e. the colors are already minimal."""
    return _streamlined_colors(a) == a.flat[1]


class ChainRepresentation(_Frozen):
    """Chain of co-Buchi automata A_0..A_{cmax+1} over one state space, as a
    view of the streamlined DPA ``source`` and its ``partition``.  The
    constructor checks the source's class, that ``partition`` is
    ``state_equivalence(source)`` and that the source is streamlined.

    Level i keeps every transition of ``source``, accepting (color 2) when
    its color is >= i and rejecting otherwise, and adds a rejecting jump
    transition to every other state language-equivalent to the
    deterministic target.  So a level is fixed by (``source``,
    ``partition``, i), and ``levels`` builds them on first access only.
    All levels share their edges and differ only in which deterministic
    rows accept, so A_0, where all of them accept, is the one level built
    through the public ``CoBuchiAutomaton`` constructor, with every sort and
    check; each later level reuses its rows, with those of smaller source
    colors demoted to rejecting.  The levels share one ``_LevelRows``, so
    ``emit_native`` renders their rows once per chain.
    """

    _fields = ("source", "partition")

    def __init__(self, source: ParityAutomaton, partition: Partition):
        _expect(ParityAutomaton, source)
        _expect_equivalence(source, partition)
        if not is_streamlined(source):
            raise PreconditionError("chain extraction requires a streamlined automaton")
        self._set(source=source, partition=partition)

    @cached_property
    def _rows(self) -> int:
        """The rows of each level: per source row, one to each mate of its target."""
        return sum(len(self.partition._by_state[d]) for _, _, d, _ in self.source.transitions)

    @cached_property
    def levels(self) -> tuple[CoBuchiAutomaton, ...]:
        a, mates, new = self.source, self.partition._by_state, tuple.__new__
        if self._rows > _MAX_ROWS:
            raise AutomatonError(f"{self._rows} rows per chain level exceed the limit of {_MAX_ROWS}")
        # sorted already: per source row, its target's mates, the target accepting
        top = CoBuchiAutomaton(a.alphabet, a.state_count, a.initial,
                               tuple(new(Transition, (s, y, m, 1 + (m == d)))
                                     for s, y, d, _ in a.transitions for m in mates[d]),
                               gfg_claimed=True)
        # A_0's constructor allows one accepting row per state and letter, so
        # they are the source's rows in its order; level i + 1 demotes color i
        accepting = list(compress(count(), map((2).__eq__, map(_COLOR, top.transitions))))
        groups: list[list[int]] = [[] for _ in range(a.max_color + 1)]
        for k, c in enumerate(map(_COLOR, a.transitions)):
            groups[c].append(k)
        # Later levels run no check, and need none: a row keeps all but its
        # color and no two rows share an edge, so they stay sorted, typed, in
        # range and distinct, colors in {1, 2}, and accepting rows only shrink.
        rows, levels = list(top.transitions), [top]
        for group in groups:
            for e in map(accepting.__getitem__, group):
                rows[e] = new(Transition, (*rows[e][:3], 1))
            level = object.__new__(CoBuchiAutomaton)
            level._set(alphabet=a.alphabet, state_count=a.state_count, initial=a.initial,
                       transitions=tuple(rows), gfg_claimed=True)
            levels.append(level)
        shared = _LevelRows(top.transitions, groups)
        for i, level in enumerate(levels):
            vars(level)[_LEVEL_ROWS] = shared, i
        return tuple(levels)


class _LevelRows:
    """What the levels of one chain share; level i keeps (this record, i)
    in its memo ``_LEVEL_ROWS``.  ``rows`` are A_0's rows, and ``groups[c]``
    lists the source's rows of color c by index: the k-th source row is
    A_0's k-th deterministic row, open in the template, which level c + 1
    and later ones reject.  ``template``, filled by ``formats.emit_native``
    on first use, is A_0's rows text cut at the color of each of those rows.
    The record refers to no level and not to the chain, so no reference
    cycle keeps a level alive until the cyclic collector runs."""

    __slots__ = ("rows", "groups", "template")

    def __init__(self, rows: tuple[Transition, ...], groups: list[list[int]]):
        self.rows, self.groups, self.template = rows, groups, None

    def __reduce__(self):  # a copy renders its template again, as a copied ``_Moves`` starts cold
        return _LevelRows, (self.rows, self.groups)


_LEVEL_ROWS = "_level_rows"  # the memo key of a chain level's ``_LevelRows`` and index


def extract_chain(a: ParityAutomaton, equiv: Partition) -> ChainRepresentation:
    """The chain A_0..A_{cmax+1} of co-Buchi automata of a streamlined DPA,
    as a view (see ``ChainRepresentation``): no level is built here.

    Levels are defined for every integer up to cmax+1, so absent colors
    simply repeat the next occurring level.
    """
    return ChainRepresentation(a, equiv)


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
    return tuple(
        ChainLevelStats(level=i, states=a.state_count,
                        accepting_transitions=sum(1 for t in a.transitions if t.color >= i),
                        jump_transitions=c._rows - len(a.transitions))
        for i in range(a.max_color + 2)
    )
