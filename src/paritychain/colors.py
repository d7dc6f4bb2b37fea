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
from .graphs import gca_lasso_member


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
    """The maximal chain level that accepts ``w``; level 0 is universal.

    The levels are nested, L(A_{i+1}) included in L(A_i), so membership is
    monotone in i and the top accepting level is found by bisection with
    O(log |levels|) membership checks.
    """
    if not gca_lasso_member(c.levels[0], w):
        raise AutomatonError("chain level 0 must accept every word")
    lo, hi = 0, len(c.levels)  # level lo accepts; levels >= hi reject
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gca_lasso_member(c.levels[mid], w):
            lo = mid
        else:
            hi = mid
    return lo


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


def gfg_resolver_step(a: CoBuchiAutomaton, s: ResolverState, sym: int) -> ResolverState:
    """One move of the strategy 'follow the run longest through accepting
    transitions'.

    An accepting transition from the current state is followed when it
    exists (there is at most one).  Otherwise the strategy restarts at a
    state whose tracked position is minimal, ties broken by lowest state
    index; the choice among ties does not affect acceptance.
    """
    a.alphabet.check_letters((sym,))
    tracked = dict(s.tracked)
    if s.current not in tracked or any(l > s.position for l in tracked.values()):
        raise AutomatonError("inconsistent resolver state")
    new_tracked: dict[int, int] = {}
    for src, since in tracked.items():
        for t in a.successors(src, sym):
            if t.color == 2:
                prev = new_tracked.get(t.dst, since)
                new_tracked[t.dst] = min(prev, since)
    for src in tracked:
        for t in a.successors(src, sym):
            if t.dst not in new_tracked:
                new_tracked[t.dst] = s.position + 1
    if not new_tracked:
        raise AutomatonError("resolver is stuck; the automaton is not complete")
    accepting = [t for t in a.successors(s.current, sym) if t.color == 2]
    if accepting:
        nxt, color = accepting[0].dst, 2
    else:
        nxt = min(new_tracked, key=lambda q: (new_tracked[q], q))
        color = 1
    return ResolverState(
        position=s.position + 1,
        current=nxt,
        last_color=color,
        tracked=tuple(sorted(new_tracked.items())),
    )


def _rank_groups(tracked):
    # Absolute positions grow without bound; future choices depend only on
    # the grouping of states by equal position and the group order.
    by_pos: dict[int, list[int]] = {}
    for q, pos in tracked:
        by_pos.setdefault(pos, []).append(q)
    return tuple(tuple(sorted(qs)) for _, qs in sorted(by_pos.items()))


def resolve_run(a: CoBuchiAutomaton, w: LassoWord) -> tuple[bool, tuple[int, ...]]:
    """Run the GFG strategy on a lasso word until its configuration repeats.

    Returns the verdict and the positions of rejecting output transitions
    inside the repeating configuration cycle (empty iff accepted).  On
    chain automata the verdict coincides with language membership.
    """
    a.alphabet.check_letters(w.prefix + w.period)
    s = ResolverState.start(a)
    u_len, v_len = len(w.prefix), len(w.period)
    seen: dict[tuple, int] = {}
    emitted: list[int] = []
    while True:
        if s.position >= u_len:
            key = (s.current, _rank_groups(s.tracked), (s.position - u_len) % v_len)
            if key in seen:
                first = seen[key]
                rejects = tuple(
                    p for p in range(first, s.position) if emitted[p] == 1
                )
                return not rejects, rejects
            seen[key] = s.position
        s = gfg_resolver_step(a, s, w.letter_at(s.position))
        emitted.append(s.last_color)
