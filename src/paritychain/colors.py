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
)
from .graphs import _least_on_cycle, _positions, _reach


class CoRun(NamedTuple):
    """A run that switches once, at jump_position > 0, to a language
    equivalent state and then continues deterministically."""

    jump_position: int
    jump_target: int
    dominating_color: int


def _dominating_colors(a: ParityAutomaton, equiv: Partition, w: LassoWord):
    """Checks the partition and the word, then returns ``(step, color)`` on
    the nodes (q, p) = p * |Q| + q of ``a`` on ``w``, 0 <= p < |prefix| +
    |period|: ``step(node)`` is the next node of the run and the color of
    the transition to it, and ``color(node)`` is the dominating color of
    the run from state q on ``w`` read from position p.  The nodes form a
    functional graph, so one table resolves each node once (see
    ``graphs._least_on_cycle``).
    """
    if equiv.state_count != a.state_count:
        raise AutomatonError("partition does not match the automaton's state count")
    letters, after = _positions(a, w)
    dst, col = a.flat
    n, k = a.state_count, len(a.alphabet)
    table = [-1] * (n * len(letters))

    def step(node):
        p, q = divmod(node, n)
        row = q * k + letters[p]
        return after[p] * n + dst[row], col[row]

    return step, lambda node: _least_on_cycle(step, table, node)


def coruns(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> tuple[CoRun, ...]:
    """All co-runs of ``a`` on ``w`` with jump positions up to
    |prefix| + |Q|*|period|.

    Beyond that bound the (run state, suffix rotation) pairs repeat, so no
    further dominating colors can arise.  The jump to the run's own state
    is included; it reproduces the plain run.  Each (jump target, word
    position) node is resolved once, in one table shared by all co-runs.
    """
    step, color = _dominating_colors(a, equiv, w)
    n, node = a.state_count, a.initial
    out = []
    for jump in range(1, len(w.prefix) + n * len(w.period) + 1):
        node = step(node)[0]
        p, q = divmod(node, n)
        out += [CoRun(jump, target, color(p * n + target)) for target in equiv.mates(q)]
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
    step, color = _dominating_colors(a, equiv, w)
    n, node = a.state_count, step(a.initial)[0]
    nodes = set()  # the run's nodes
    while node not in nodes:
        nodes.add(node)
        node = step(node)[0]
    return max(color(node - node % n + mate) for node in nodes for mate in equiv.mates(node % n))


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
    step, color = _dominating_colors(a, equiv, w)
    n = a.state_count

    def succ(node):
        p, q = divmod(step(node)[0], n)
        return [p * n + mate for mate in equiv.mates(q)]

    return max(map(color, _reach([a.initial], succ)))


def _advance(a: CoBuchiAutomaton, groups, current: int, sym: int):
    """One move of the strategy on rank groups: the states tracked after a
    prefix, grouped by equal tracked position, groups in ascending position
    order, each group ascending, stepped on ``CoBuchiAutomaton.flat``.

    A state reached by an accepting transition joins the group of its
    first such predecessor; every other successor joins a fresh group,
    last, as its position is the new one.  Returns the new groups, the
    index of the group each came from (``len(groups)``: the fresh one),
    the strategy's next state and the color of the transition it took.
    """
    (acc, succ), k = a.flat, len(a.alphabet)
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


def resolve_run(a: CoBuchiAutomaton, w: LassoWord) -> tuple[bool, tuple[int, ...]]:
    """Run the GFG strategy on a lasso word until its configuration repeats.

    Returns the verdict and the positions of rejecting output transitions
    inside the repeating configuration cycle (empty iff accepted).  On
    chain automata the verdict coincides with language membership.  The
    configuration is the strategy's state, its rank groups (see
    ``_advance``: absolute positions grow without bound, and future moves
    depend on the groups only) and the word position.
    """
    letters, after = _positions(a, w)
    u_len = len(w.prefix)
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
        groups, _, current, color = _advance(a, groups, current, letters[p])
        emitted.append(color)
        p = after[p]
