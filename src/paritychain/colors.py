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
                for target in equiv.mates(q)]
    return tuple(out)


def _natural_color(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> int:
    """The largest dominating color of ``a`` on ``w`` from the mates of the
    run's (state, word position) nodes at positions >= 1, after checking
    the partition and the word.

    The run steps make the nodes (q, p) = p * |Q| + q a functional graph.
    The run is walked from position 1 until a node repeats; then a walk
    starts at each mate of each run node and goes on until it meets a node
    walked before.  The dominating color of a start is the least color on
    the cycle its walk ends in, and a walk that meets its own node has
    closed a new cycle; so the answer is the largest least color of the
    cycles closed.  Each node is walked once, and each cycle once more.
    """
    if equiv.state_count != a.state_count:
        raise AutomatonError("partition does not match the automaton's state count")
    letters, after = _positions(a, w)
    dst, col = a.flat
    n, k = a.state_count, len(a.alphabet)
    walk_of = [0] * (n * len(letters))  # the walk that met each node first, 0 if none
    run = []  # the run's nodes (p, q), walk 1
    p, q = after[0], dst[a.initial * k + letters[0]]
    node = p * n + q
    while not walk_of[node]:
        walk_of[node] = 1
        run.append((p, q))
        q, p = dst[q * k + letters[p]], after[p]
        node = p * n + q
    closed = [(p, q)]  # a node on each cycle closed
    walk = 1
    for p0, q0 in run:
        for q in equiv.mates(q0):
            p, node = p0, p0 * n + q
            walk += 1
            while not walk_of[node]:
                walk_of[node] = walk
                q, p = dst[q * k + letters[p]], after[p]
                node = p * n + q
            if walk_of[node] == walk:
                closed.append((p, q))
    best = 0
    for p0, q0 in closed:
        row = q0 * k + letters[p0]
        least = col[row]
        q, p = dst[row], after[p0]
        while p != p0 or q != q0:
            row = q * k + letters[p]
            least = min(least, col[row])
            q, p = dst[row], after[p]
        best = max(best, least)
    return best


def corun_color(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> int:
    """The natural color of ``w`` for L(a): the maximal dominating color
    over all co-runs of the streamlined automaton ``a``.

    Every co-run jumps at a node of the run from position 1 on, to a mate
    of the run's state there, and then follows the run steps; so the
    answer is the largest dominating color from those mates, which one
    walk of each mate finds (see ``_natural_color``).
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
    >= i, its only accepting edges (at most one per node).  Those cycles
    are the ones the deterministic walks of the reachable nodes end in, so
    the top accepting level is the largest dominating color of a reachable
    node.  The language partition is a right congruence: a mate of a
    state steps to a mate of the state's successor.  So the nodes the
    jumps reach are exactly the mates of the run's nodes, and the answer
    is the one ``corun_color`` reads (see ``_natural_color``); the start
    node adds nothing, as it walks into the run's own cycle.
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
