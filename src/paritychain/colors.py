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
from .graphs import dpa_lasso_run, gca_lasso_member


@dataclass(frozen=True)
class CoRun:
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
    is included; it reproduces the plain run.
    """
    if equiv.state_count != a.state_count:
        raise AutomatonError("partition does not match the automaton's state count")
    a.alphabet.check_letters(w.prefix + w.period)
    bound = len(w.prefix) + a.state_count * len(w.period)
    run = [a.initial]
    for k in range(bound):
        run.append(a.step(run[-1], w.letter_at(k)).dst)
    cache: dict[tuple[int, int], int] = {}
    out = []
    for p in range(1, bound + 1):
        if p <= len(w.prefix):
            suffix_key = p
        else:
            suffix_key = len(w.prefix) + (p - len(w.prefix)) % len(w.period)
        for target in equiv.mates(run[p]):
            key = (target, suffix_key)
            if key not in cache:
                cache[key] = dpa_lasso_run(
                    a, w.suffix(suffix_key), start=target
                ).dominating_color
            out.append(CoRun(p, target, cache[key]))
    return tuple(out)


def corun_color(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> int:
    """The natural color of ``w`` for L(a): the maximal dominating color
    over all co-runs of the streamlined automaton ``a``."""
    if not is_streamlined(a):
        raise PreconditionError("natural colors are read off streamlined automata")
    return max(cr.dominating_color for cr in coruns(a, equiv, w))


def natural_color_via_chain(c: ChainRepresentation, w: LassoWord) -> int:
    """The maximal chain level that accepts ``w``; level 0 is universal."""
    for i in range(len(c.levels) - 1, -1, -1):
        if gca_lasso_member(c.levels[i], w):
            return i
    raise AutomatonError("chain level 0 must accept every word")


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
