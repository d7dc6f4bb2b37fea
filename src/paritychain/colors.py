"""Natural colors of lasso words via co-runs, and the constructive GFG resolver."""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import is_streamlined
from .core import (
    AutomatonError,
    ChainRepresentation,
    CoBuchiAutomaton,
    LassoWord,
    ParityAutomaton,
    Partition,
    PreconditionError,
)
from .graphs import _cobuchi_rows


@dataclass(frozen=True)
class CoRun:
    """A run that switches once, at jump_position > 0, to a language
    equivalent state and then continues deterministically."""

    jump_position: int
    jump_target: int
    dominating_color: int


def _dominating_colors(a: ParityAutomaton, equiv: Partition, w: LassoWord):
    """Checks the partition and the word, then returns ``color(q, p)``: the
    dominating color of the run of ``a`` from state q on ``w`` read from
    position p, 0 <= p < |prefix| + |period|.

    Nodes (q, p) form a functional graph (period positions wrap), so each
    node is resolved once: walk until a resolved node or a node of this
    walk; every node on the walk reaches that cycle and gets its least color.
    """
    if equiv.state_count != a.state_count:
        raise AutomatonError("partition does not match the automaton's state count")
    letters = w.prefix + w.period
    a.alphabet.check_letters(letters)
    length, u_len = len(letters), len(w.prefix)
    table = [-1] * (a.state_count * length)  # node (q, p) is q * length + p; -2: on the walk

    def color(q: int, p: int) -> int:
        value = table[q * length + p]
        if value >= 0:
            return value
        walk: list[int] = []
        colors: list[int] = []
        node = q * length + p
        while table[node] == -1:
            table[node] = -2
            walk.append(node)
            t = a.step(q, letters[p])
            colors.append(t.color)
            q, p = t.dst, (p + 1 if p + 1 < length else u_len)
            node = q * length + p
        value = min(colors[walk.index(node):]) if table[node] == -2 else table[node]
        for n in walk:
            table[n] = value
        return value

    return color


def coruns(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> tuple[CoRun, ...]:
    """All co-runs of ``a`` on ``w`` with jump positions up to
    |prefix| + |Q|*|period|.

    Beyond that bound the (run state, suffix rotation) pairs repeat, so no
    further dominating colors can arise.  The jump to the run's own state
    is included; it reproduces the plain run.  Each (jump target, word
    position) node is resolved once, in one table shared by all co-runs.
    """
    color = _dominating_colors(a, equiv, w)
    u_len, v_len = len(w.prefix), len(w.period)
    bound = u_len + a.state_count * v_len
    run = [a.initial]
    for k in range(bound):
        run.append(a.step(run[-1], w.letter_at(k)).dst)
    out = []
    for p in range(1, bound + 1):
        position = p if p <= u_len else u_len + (p - u_len) % v_len
        for target in equiv.mates(run[p]):
            out.append(CoRun(p, target, color(target, position)))
    return tuple(out)


def corun_color(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> int:
    """The natural color of ``w`` for L(a): the maximal dominating color
    over all co-runs of the streamlined automaton ``a``.

    The run is followed from position 1 until its (state, word position)
    node repeats; every co-run jumps at one of these nodes, so the answer
    is the largest table color of a mate of the run state at any of them.
    """
    if not is_streamlined(a):
        raise PreconditionError("natural colors are read off streamlined automata")
    color = _dominating_colors(a, equiv, w)
    letters = w.prefix + w.period
    length, u_len = len(letters), len(w.prefix)
    q, p = a.initial, 0
    nodes: dict[tuple[int, int], None] = {}  # the run's nodes, in run order
    while True:
        q, p = a.step(q, letters[p]).dst, (p + 1 if p + 1 < length else u_len)
        if (q, p) in nodes:
            break
        nodes[(q, p)] = None
    return max(color(mate, p) for q, p in nodes for mate in equiv.mates(q))


def natural_color_via_chain(c: ChainRepresentation, w: LassoWord) -> int:
    """The maximal chain level that accepts ``w``, read off the chain's
    source and partition in one pass; no level is built.

    Every level has the same edges, the deterministic ones plus the jumps,
    so every level reaches the same (state, word position) nodes.  Level i
    accepts iff one of them lies on a cycle of deterministic edges of color
    >= i, its only accepting edges (at most one per node).  Those cycles
    are the ones the deterministic walks of the reachable nodes end in, so
    the top accepting level is the largest dominating color of a reachable
    node: one breadth-first search over every jump, then one table.
    """
    a, equiv = c.source, c.partition
    color = _dominating_colors(a, equiv, w)
    letters = w.prefix + w.period
    length, u_len = len(letters), len(w.prefix)
    start = a.initial * length  # node (q, p) is q * length + p
    seen = [False] * (a.state_count * length)
    seen[start] = True
    order = [start]
    for node in order:  # BFS: ``order`` grows while it is scanned
        q, p = divmod(node, length)
        nxt_p = p + 1 if p + 1 < length else u_len
        for mate in equiv.mates(a.step(q, letters[p]).dst):
            nxt = mate * length + nxt_p
            if not seen[nxt]:
                seen[nxt] = True
                order.append(nxt)
    return max(color(*divmod(node, length)) for node in order)


@dataclass(frozen=True)
class ResolverState:
    """State of the GFG strategy after some input prefix.

    ``tracked`` maps every state reachable on the prefix to the earliest
    position from which some run prefix ending there takes accepting
    transitions only.  ``current`` and ``last_color`` are the strategy's
    output: the state it moved to and the color of the transition taken.
    """

    position: int
    current: int
    last_color: int | None
    tracked: tuple[tuple[int, int], ...]

    @classmethod
    def start(cls, a: CoBuchiAutomaton) -> "ResolverState":
        return cls(position=0, current=a.initial, last_color=None,
                   tracked=((a.initial, 0),))


def _advance(rows, k: int, groups, current: int, sym: int):
    """One move of the strategy on rank groups: the states tracked after a
    prefix, grouped by equal tracked position, groups in ascending position
    order, each group ascending.  ``rows`` are ``graphs._cobuchi_rows``.

    A state reached by an accepting transition joins the group of its
    first such predecessor; every other successor joins a fresh group,
    last, as its position is the new one.  Returns the new groups, the
    index of the group each came from (``len(groups)``: the fresh one),
    the strategy's next state and the color of the transition it took.
    """
    acc, succ = rows
    rank: dict[int, int] = {}  # new tracked state -> index of its group
    for j, group in enumerate(groups):
        for q in group:
            dst = acc[q * k + sym]
            if dst >= 0:
                rank.setdefault(dst, j)
    for group in groups:
        for q in group:
            for dst in succ[q * k + sym]:
                rank.setdefault(dst, len(groups))
    buckets: list[list[int]] = [[] for _ in range(len(groups) + 1)]
    for dst, j in rank.items():
        buckets[j].append(dst)
    sources = [j for j, bucket in enumerate(buckets) if bucket]
    if not sources:
        raise AutomatonError("resolver is stuck; the automaton is not complete")
    new_groups = tuple(tuple(sorted(buckets[j])) for j in sources)
    nxt = acc[current * k + sym]
    if nxt >= 0:
        return new_groups, sources, nxt, 2
    return new_groups, sources, new_groups[0][0], 1


def gfg_resolver_step(a: CoBuchiAutomaton, s: ResolverState, sym: int) -> ResolverState:
    """One move of the strategy 'follow the run longest through accepting
    transitions'.

    An accepting transition from the current state is followed when it
    exists (there is at most one).  Otherwise the strategy restarts at a
    state whose tracked position is minimal, ties broken by lowest state
    index; the choice among ties does not affect acceptance.  This is the
    move ``resolve_run`` makes (see ``_advance``) on the rank groups of
    ``s.tracked``, with the positions read back from the groups.
    """
    a.alphabet.check_letters((sym,))
    tracked = dict(s.tracked)
    if (
        s.current not in tracked
        or any(not 0 <= q < a.state_count for q in tracked)
        or any(pos > s.position for pos in tracked.values())
    ):
        raise AutomatonError("inconsistent resolver state")
    by_pos: dict[int, list[int]] = {}
    for q, pos in tracked.items():
        by_pos.setdefault(pos, []).append(q)
    positions = sorted(by_pos) + [s.position + 1]
    groups = tuple(tuple(sorted(by_pos[pos])) for pos in positions[:-1])
    groups, sources, current, color = _advance(
        _cobuchi_rows(a), len(a.alphabet), groups, s.current, sym
    )
    new_tracked = sorted((q, positions[j]) for group, j in zip(groups, sources) for q in group)
    return ResolverState(s.position + 1, current, color, tuple(new_tracked))


def resolve_run(a: CoBuchiAutomaton, w: LassoWord) -> tuple[bool, tuple[int, ...]]:
    """Run the GFG strategy on a lasso word until its configuration repeats.

    Returns the verdict and the positions of rejecting output transitions
    inside the repeating configuration cycle (empty iff accepted).  On
    chain automata the verdict coincides with language membership.  The
    configuration is the strategy's state, its rank groups (see
    ``_advance``: absolute positions grow without bound, and future moves
    depend on the groups only) and the word position.
    """
    letters = w.prefix + w.period
    a.alphabet.check_letters(letters)
    rows, k = _cobuchi_rows(a), len(a.alphabet)
    length, u_len = len(letters), len(w.prefix)
    current, groups = a.initial, ((a.initial,),)
    seen: dict[tuple, int] = {}
    emitted: list[int] = []  # the color output at each position
    p = 0  # the index in ``letters`` of the next letter; period positions wrap
    while True:
        if len(emitted) >= u_len:
            key = (current, groups, p)
            if key in seen:
                rejects = tuple(i for i in range(seen[key], len(emitted)) if emitted[i] == 1)
                return not rejects, rejects
            seen[key] = len(emitted)
        groups, _, current, color = _advance(rows, k, groups, current, letters[p])
        emitted.append(color)
        p = p + 1 if p + 1 < length else u_len
