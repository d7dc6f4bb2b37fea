"""Natural colors of lasso words via co-runs, and the constructive GFG resolver."""

from __future__ import annotations

from typing import NamedTuple

from .canonical import is_streamlined
from .core import (
    AutomatonError,
    ChainRepresentation,
    CoBuchiAutomaton,
    LassoWord,
    ParityAutomaton,
    Partition,
    PreconditionError,
    _expect,
)
from .graphs import _least_on_cycle, _memo, _positions


class CoRun(NamedTuple):
    """A run that switches once, at jump_position > 0, to a language
    equivalent state and then continues deterministically."""

    jump_position: int
    jump_target: int
    dominating_color: int


def coruns(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> tuple[CoRun, ...]:
    """All co-runs of ``a`` on ``w`` with jump positions up to
    |prefix| + |Q|*|period|.

    Beyond that bound the (run state, suffix rotation) pairs repeat, so no
    further dominating colors can arise.  The jump to the run's own state
    is included; it reproduces the plain run.  The run steps make the
    (state, word position) nodes a functional graph, so each node is
    resolved once, in one table shared by all co-runs (see
    ``graphs._least_on_cycle``).
    """
    _expect(ParityAutomaton, a)
    _expect(Partition, equiv)
    _expect(LassoWord, w)
    if equiv.state_count != a.state_count:
        raise AutomatonError("partition does not match the automaton's state count")
    letters, after = _positions(a, w)
    dst, col = a.flat
    n, k = a.state_count, len(a.alphabet)
    table = [-1] * (n * len(letters))

    def step(node):  # node (q, p) is p * |Q| + q
        p, q = divmod(node, n)
        row = q * k + letters[p]
        return after[p] * n + dst[row], col[row]

    node, out = a.initial, []
    for jump in range(1, len(w.prefix) + n * len(w.period) + 1):
        node = step(node)[0]
        p, q = divmod(node, n)
        out += [CoRun(jump, target, _least_on_cycle(step, table, p * n + target))
                for target in equiv._by_state[q]]
    return tuple(out)


def _natural_color(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> int:
    """The largest dominating color of ``a`` over its co-runs on ``w``,
    after checking the partition and the word.

    The prefix is stepped without marks; from the period's start on, the
    run steps make the (state, period position) nodes p * |Q| + q a
    functional graph.  The run is walked until it closes its cycle, then a
    walk starts at each mate of the state at each node of that cycle and
    stops at the first node walked before.  No co-run ends elsewhere, as
    the partition is a right congruence: a node on a co-run's cycle of
    length l, met at step t, holds a mate of the run's state at each step
    t + m*l, on the run's cycle for m large.  Each node is marked 1 + the
    index of its step in one list of colors, so a walk that meets a mark s
    of its own closes a cycle of least color ``min(cols[s - 1:])``.
    """
    if equiv.state_count != a.state_count:
        raise AutomatonError("partition does not match the automaton's state count")
    a.alphabet.check_letters(w.prefix)
    a.alphabet.check_letters(w.period)
    dst, col = a.flat
    n, k, q, letters = a.state_count, len(a.alphabet), a.initial, w.period
    for sym in w.prefix:
        q = dst[q * k + sym]
    after = [*range(1, len(letters)), 0]
    mark = [0] * (n * len(letters))  # 0 for a node not walked yet
    cols: list[int] = []
    run = []  # the run's state at each step from the period's start
    p, node = 0, q
    while not mark[node]:
        run.append(q)
        row = q * k + letters[p]
        cols.append(col[row])
        mark[node] = len(cols)
        q, p = dst[row], after[p]
        node = p * n + q
    best = min(cols[mark[node] - 1:])  # the run's cycle, from the node it closes at
    for t in range(mark[node] - 1, len(run)):
        p0 = t % len(letters)
        for q in equiv._by_state[run[t]]:
            node = p0 * n + q
            if mark[node]:
                continue
            p, start = p0, len(cols)
            while not mark[node]:
                row = q * k + letters[p]
                cols.append(col[row])
                mark[node] = len(cols)
                q, p = dst[row], after[p]
                node = p * n + q
            if mark[node] > start:
                best = max(best, min(cols[mark[node] - 1:]))
    return best


def corun_color(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> int:
    """The natural color of ``w`` for L(a): the maximal dominating color
    over all co-runs of the streamlined automaton ``a``, each a jump to a
    mate of the run's state from position 1 on and then the run steps;
    read off the walks from the mates on the run's cycle (see
    ``_natural_color``).
    """
    _expect(ParityAutomaton, a)
    _expect(Partition, equiv)
    _expect(LassoWord, w)
    if not is_streamlined(a):
        raise PreconditionError("natural colors are read off streamlined automata")
    return _natural_color(a, equiv, w)


def natural_color_via_chain(c: ChainRepresentation, w: LassoWord) -> int:
    """The maximal chain level that accepts ``w``, read off the chain's
    source and partition in one pass; no level is built.

    Every level has the same edges, the deterministic ones plus the jumps,
    so every level reaches the same (state, word position) nodes.  Level i
    accepts iff one of them lies on a cycle of deterministic edges of color
    >= i, its only accepting edges (at most one per node).  So the top
    accepting level is the largest dominating color of a node the jumps
    reach.  Those are the mates of the run's nodes, as the partition is a
    right congruence, and the answer is the one ``corun_color`` reads (see
    ``_natural_color``).
    """
    _expect(ChainRepresentation, c)
    _expect(LassoWord, w)
    return _natural_color(c.source, c.partition, w)


def _advance(a: CoBuchiAutomaton, groups, sym: int):
    """One step of the strategy's rank groups: the states tracked after a
    prefix, grouped by equal tracked position, groups in ascending position
    order, each group ascending, stepped on ``CoBuchiAutomaton.flat``.

    A state reached by an accepting transition joins the group of its
    first such predecessor; every other successor joins a fresh group,
    last, as its position is the new one.  Returns the new groups.
    """
    (acc, succ), k = a.flat, len(a.alphabet)
    rank: dict[int, int] = {}  # new tracked state -> index of its group
    for j, group in enumerate(groups):
        for q in group:
            dst = acc[q * k + sym]
            if dst >= 0 and dst not in rank:
                rank[dst] = j
    fresh = len(groups)
    for group in groups:
        for q in group:
            for dst in succ[q * k + sym]:
                if dst not in rank:
                    rank[dst] = fresh
    if not rank:
        raise AutomatonError("resolver is stuck; the automaton is not complete")
    grouped: list[tuple[int, ...]] = []
    last = -1
    for j, dst in sorted(zip(rank.values(), rank)):  # by group, then by state
        if j == last:
            grouped[-1] += (dst,)
        else:
            last = j
            grouped.append((dst,))
    return tuple(grouped)


def resolve_run(a: CoBuchiAutomaton, w: LassoWord) -> tuple[bool, tuple[int, ...]]:
    """Run the GFG strategy on a lasso word until its configuration repeats.

    Returns the verdict and the positions of rejecting output transitions
    inside the repeating configuration cycle (empty iff accepted).  On
    chain automata the verdict coincides with language membership.  The
    configuration is the strategy's state, its rank groups (see
    ``_advance``: absolute positions grow without bound, and future moves
    depend on the groups only) and the word position.

    The groups' step depends on neither the strategy's state nor the word,
    so it is read from a move table memoized on ``a`` (see ``graphs._memo``
    and ``_Moves``): each rank-group configuration met, once, with the
    configuration each letter moved it to, a missing move filled by
    ``_advance``.  Every word asked of ``a`` shares it, and it dies with
    ``a``; it holds at most one configuration per transition and is
    emptied when full.  The strategy's own move is made per step: its
    accepting transition if it has one, else the least state of the
    oldest new group.  A first query on a fresh automaton calls
    ``_advance`` at most once per step, as without the table, and fills
    the table as it goes.
    """
    _expect(CoBuchiAutomaton, a)
    _expect(LassoWord, w)
    letters, after = _positions(a, w)
    acc, k = a.flat[0], len(a.alphabet)
    table = _memo(a, _MOVES, lambda: _Moves(k, len(a.transitions)))
    u_len = len(w.prefix)
    current, entry = a.initial, table.entry(((a.initial,),))
    seen: dict[tuple, int] = {}
    emitted: list[int] = []  # the color output at each position
    p = 0  # the index in ``letters`` of the next letter; period positions wrap
    while True:
        if len(emitted) >= u_len:
            key = (current, entry[k], p)  # by value: a restart renews the entries
            if key in seen:
                rejects = tuple(i for i in range(seen[key], len(emitted)) if emitted[i] == 1)
                return not rejects, rejects
            seen[key] = len(emitted)
        sym = letters[p]
        nxt = entry[sym]
        if nxt is None:
            nxt = entry[sym] = table.entry(_advance(a, entry[k], sym))
        entry = nxt
        dst = acc[current * k + sym]
        if dst >= 0:
            current = dst
            emitted.append(2)
        else:
            current = entry[k][0][0]
            emitted.append(1)
        p = after[p]


_MOVES = "_moves"  # the memo key of the move table of ``resolve_run``


class _Moves(dict):
    """The move table of ``resolve_run`` on one automaton with ``k`` letters
    and ``size`` transitions: each rank-group configuration maps to its
    entry, the entries that letters 0..k-1 move it to (None until a word
    takes that move) and then the configuration.  Entries link to entries,
    so a known move costs one list index.

    It holds at most ``size`` configurations (one if ``size`` is 0): a new
    one empties a full table first.  A word still holding an entry from
    before that follows its links, which stay right.  ``setdefault`` keeps
    the first of two racing writers, so threads sharing a table can at
    worst compute a move twice, and racing misses can each add one
    configuration past the bound until the next miss empties the table.
    A copy (pickle, deepcopy) starts empty, as the links can nest deeper
    than either recurses.
    """

    def __init__(self, k: int, size: int):
        self.blank, self.size = (None,) * k, max(size, 1)

    def __reduce__(self):
        return _Moves, (len(self.blank), self.size)

    def entry(self, groups: tuple) -> list:
        if len(self) >= self.size and groups not in self:
            self.clear()
        return self.setdefault(groups, [*self.blank, groups])
