"""Natural colors of lasso words via co-runs, and the constructive GFG resolver."""

from __future__ import annotations

from itertools import accumulate, groupby
from operator import itemgetter
from typing import NamedTuple

from .canonical import ChainRepresentation, is_streamlined
from .core import (
    AutomatonError,
    CoBuchiAutomaton,
    LassoWord,
    ParityAutomaton,
    Partition,
    PreconditionError,
    _expect,
    _expect_lasso,
)
from .graphs import _expect_equivalence, _least_on_cycle, _memo


class CoRun(NamedTuple):
    """A run that switches once, at jump_position > 0, to a language
    equivalent state and then continues deterministically."""

    jump_position: int
    jump_target: int
    dominating_color: int


def coruns(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> tuple[CoRun, ...]:
    """All co-runs of ``a`` on ``w`` with jump positions up to
    |prefix| + |Q|*|period|, for ``equiv`` = ``state_equivalence(a)``.

    Beyond that bound the (run state, suffix rotation) pairs repeat, so no
    further dominating colors can arise.  The jump to the run's own state
    is included; it reproduces the plain run.  A co-run that jumps at
    prefix position j to a mate t of the run's state enters the period in
    land_j(t) = land_{j+1}(δ(t, w_j)), land_|prefix| the identity; as ≡ is
    a right congruence (see ``graphs._in_block_classes``), δ(t, w_j) is a
    mate of the run's next state, so one backward pass builds each map on
    the mates of the run's state.  From the period on, the run steps make
    the (state, period position) nodes a functional graph, so each is
    resolved once, in one table shared by all co-runs (see
    ``graphs._least_on_cycle``).
    """
    _expect_equivalence(a, equiv)
    _expect_lasso(ParityAutomaton, a, w)
    dst, col = a.flat
    n, k, u, letters = a.state_count, len(a.alphabet), len(w.prefix), w.period
    table = [-1] * (n * len(letters))

    def step(node):  # node (q, p) is p * |Q| + q, p a period position
        p, q = divmod(node, n)
        row = q * k + letters[p]
        return (p + 1) % len(letters) * n + dst[row], col[row]

    run = [*accumulate(w.prefix, lambda q, sym: dst[q * k + sym], initial=a.initial)]
    land = {t: t for t in equiv._by_state[run[u]]}  # land_j, from j = |prefix| down
    out = []  # the prefix co-runs, last jump first, then reversed
    for jump in range(u, 0, -1):
        out += [CoRun(jump, t, _least_on_cycle(step, table, land[t]))
                for t in reversed(equiv._by_state[run[jump]])]
        sym = w.prefix[jump - 1]
        land = {t: land[dst[t * k + sym]] for t in equiv._by_state[run[jump - 1]]}
    out.reverse()
    node = run[u]
    for jump in range(u + 1, u + n * len(letters) + 1):
        node = step(node)[0]
        p, q = divmod(node, n)
        out += [CoRun(jump, target, _least_on_cycle(step, table, p * n + target))
                for target in equiv._by_state[q]]
    return tuple(out)


def _natural_color(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> int:
    """The largest dominating color of ``a`` over its co-runs on ``w``,
    after checking the word; the callers have checked the partition.

    From the period's start on, a run is read a period at a time: the
    period map q -> (δ(q, v), the least color read on the way) makes the
    states a functional graph, and a run's dominating color is the least
    color on the cycle of the map that its state at the period's start
    walks into.  Every lasso walk may look for its cycle at period starts
    alone: a cycle of (state, period position) nodes holds a node at
    position 0, so it is found there, and it is as long as the walk from
    that node back to it.  Its first node lies less than |v| steps before
    the first period start on it, as the period start |v| steps earlier
    is off the cycle, or the walk would have closed there first;
    ``graphs.dpa_lasso_run`` and ``resolve_run`` step back to it.

    The prefix is stepped without marks; the run is then walked by the
    period map until it closes its cycle at a state q, and a walk starts
    at each mate of q and stops at the first state walked before.  No
    co-run ends elsewhere, as ≡ is a right congruence (see
    ``graphs._in_block_classes``): a co-run that jumps at position j
    follows the run's classes from j on, so at every later period start
    at which the run is in q it sits on a mate of q, on its own cycle of
    the map from some such start on.  Each state is marked 1 + the index
    of its step in one list of least colors, so a walk that meets a mark
    s of its own closes a cycle of least color ``min(cols[s - 1:])``.
    """
    _expect_lasso(ParityAutomaton, a, w)
    dst, col = a.flat
    k, q, letters = len(a.alphabet), a.initial, w.period
    for sym in w.prefix:
        q = dst[q * k + sym]
    mark = [0] * a.state_count  # 0 for a state not walked yet
    cols: list[int] = []

    def walk(q: int) -> int:  # to the first state walked before
        while not mark[q]:
            start, least = q, col[q * k + letters[0]]
            for sym in letters:
                row = q * k + sym
                if col[row] < least:
                    least = col[row]
                q = dst[row]
            cols.append(least)
            mark[start] = len(cols)
        return q

    q = walk(q)
    best = min(cols[mark[q] - 1:])  # the run's cycle
    for t in equiv._by_state[q]:
        start = len(cols)
        t = walk(t)
        if mark[t] > start:
            best = max(best, min(cols[mark[t] - 1:]))
    return best


def corun_color(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> int:
    """The natural color of ``w`` for L(a): the maximal dominating color
    over all co-runs (see ``CoRun``) of the streamlined automaton ``a``,
    read off one node of the run's cycle (see ``_natural_color``).
    """
    _expect_equivalence(a, equiv)
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
    reach, which is the color ``corun_color`` reads off one node of the
    run's cycle (see ``_natural_color``).
    """
    _expect(ChainRepresentation, c)
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
    by_group = groupby(sorted(zip(rank.values(), rank)), itemgetter(0))  # by group, then state
    return tuple(tuple(map(itemgetter(1), group)) for _, group in by_group)


def resolve_run(a: CoBuchiAutomaton, w: LassoWord) -> tuple[bool, tuple[int, ...]]:
    """Run the GFG strategy on a lasso word until its configuration repeats.

    Returns the verdict and the positions of rejecting output transitions
    inside the repeating configuration cycle (empty iff accepted).  On
    chain automata the verdict coincides with language membership.  The
    configuration is the strategy's state, its rank groups (see
    ``_advance``: absolute positions grow without bound, and future moves
    depend on the groups only) and the period position, as no prefix
    position repeats.  A repeat is looked for at period starts only, and
    the first step of the cycle is stepped back to from there (see
    ``_natural_color``), over one (row, groups entry) record per step.

    The groups' step depends on neither the strategy's state nor the word,
    so it is read from a move table memoized on ``a`` (see ``graphs._memo``
    and ``_Moves``), shared by every word asked of ``a``; a missing move is
    filled by ``_advance``, so a first query on a fresh automaton calls it
    at most once per step, as without the table.  The strategy's own move
    is made per step: its accepting transition if it has one, else the
    least state of the oldest new group.
    """
    _expect_lasso(CoBuchiAutomaton, a, w)
    acc, k = a.flat[0], len(a.alphabet)
    table = _memo(a, _MOVES, lambda: _Moves(k, len(a.transitions)))
    current, entry = a.initial, table.entry(((a.initial,),))
    for sym in w.prefix:
        if entry[sym] is None:
            entry[sym] = table.entry(_advance(a, entry[k], sym))
        entry, dst = entry[sym], acc[current * k + sym]
        current = dst if dst >= 0 else entry[k][0][0]
    letters, u_len = w.period, len(w.prefix)
    seen: dict[tuple, int] = {}  # (state, groups) at a period start -> its step
    rows: list[int] = []  # the strategy's row at each period step
    entries: list[list] = []  # and the entry of its groups
    while True:
        key = (current, entry[k])  # by value: a restart renews the entries
        if key in seen:
            break
        seen[key] = len(rows)
        for sym in letters:
            row = current * k + sym
            rows.append(row)
            entries.append(entry)
            nxt = entry[sym]
            if nxt is None:
                nxt = entry[sym] = table.entry(_advance(a, entry[k], sym))
            entry = nxt
            dst = acc[row]
            current = dst if dst >= 0 else entry[k][0][0]
    first = seen[key]  # the first period start on the cycle
    size = len(rows) - first
    while first and (rows[first - 1] == rows[first - 1 + size]  # one letter: equal states
                     and entries[first - 1][k] == entries[first - 1 + size][k]):
        first -= 1
    rejects = tuple(u_len + i for i in range(first, first + size) if acc[rows[i]] < 0)
    return not rejects, rejects


_MOVES = "_moves"  # the memo key of the move table of ``resolve_run``


class _Moves(dict):
    """The move table of ``resolve_run`` on one automaton with ``k`` letters
    and ``size`` transitions: each rank-group configuration maps to its
    entry, the entries that letters 0..k-1 move it to (None until a word
    takes that move) and then the configuration.  Entries link to entries,
    so a known move costs one list index.

    It holds at most ``size`` configurations (one if ``size`` is 0): a new
    one empties a full table first.  A word still holding an entry from
    before that follows its links, which stay right.  A copy (pickle,
    deepcopy) starts empty, as the links can nest deeper than either
    recurses.
    """

    def __init__(self, k: int, size: int):
        self.blank, self.size = (None,) * k, max(size, 1)

    def __reduce__(self):
        return _Moves, (len(self.blank), self.size)

    def entry(self, groups: tuple) -> list:
        if len(self) >= self.size and groups not in self:
            self.clear()
        return self.setdefault(groups, [*self.blank, groups])
