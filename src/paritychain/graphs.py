"""Graph and language primitives: SCCs, transients, lasso runs, equivalence."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .core import (
    AutomatonError,
    CoBuchiAutomaton,
    LassoWord,
    ParityAutomaton,
    Partition,
    Transition,
    normalize_lasso,
)


def _adjacency(a) -> list[list[int]]:
    """Deduplicated successor lists, colors ignored, deterministic order."""
    succ = [set() for _ in range(a.state_count)]
    for t in a.transitions:
        succ[t.src].add(t.dst)
    return [sorted(s) for s in succ]


def _scc_ids(n: int, succ, roots=None) -> list[int]:
    """Iterative Tarjan over nodes 0..n-1 with successor lists ``succ``.

    Returns the component id of every node, -1 for nodes not reached from
    ``roots`` (default: every node, ascending).  Ids count up in pop order,
    which is reverse topological order of the condensation, and are
    deterministic for a fixed root and successor order.
    """
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    count = 0
    for root in range(n) if roots is None else roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
                # visited and not yet in a component means on the stack
                if comp[nxt] < 0 and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    while True:
                        q = stack.pop()
                        comp[q] = count
                        if q == node:
                            break
                    count += 1
    return comp


@dataclass(frozen=True)
class SccDecomposition:
    """Maximal SCCs of the reachable part, listed in topological order."""

    sccs: tuple[tuple[int, ...], ...]

    @cached_property
    def scc_of(self) -> dict[int, int]:
        return {q: i for i, comp in enumerate(self.sccs) for q in comp}


@dataclass(frozen=True)
class RunAnalysis:
    """Shape of the unique run of a DPA on a lasso word."""

    stem_states: tuple[int, ...]
    cycle_states: tuple[int, ...]
    dominating_color: int
    accepted: bool


def reachable_states(a, origin: int) -> frozenset[int]:
    """Forward-reachable state set from ``origin``, inclusive."""
    if not 0 <= origin < a.state_count:
        raise AutomatonError(f"state {origin} out of range")
    adj = _adjacency(a)
    seen = {origin}
    todo = deque([origin])
    while todo:
        q = todo.popleft()
        for nxt in adj[q]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(seen)


def scc_decompose(a) -> SccDecomposition:
    """Maximal SCCs of the part reachable from the initial state."""
    comp = _scc_ids(a.state_count, _adjacency(a), sorted(reachable_states(a, a.initial)))
    last = max(comp)
    sccs: list[list[int]] = [[] for _ in range(last + 1)]
    for q, c in enumerate(comp):
        if c >= 0:
            sccs[last - c].append(q)
    return SccDecomposition(sccs=tuple(map(tuple, sccs)))


def transient_elements(a) -> tuple[frozenset[Transition], frozenset[int]]:
    """Transitions and states that lie on no cycle of the full graph."""
    comp = _scc_ids(a.state_count, _adjacency(a))
    transient_ts = frozenset(t for t in a.transitions if comp[t.src] != comp[t.dst])
    on_cycle = {t.src for t in a.transitions if comp[t.src] == comp[t.dst]}
    return transient_ts, frozenset(range(a.state_count)) - on_cycle


def dpa_lasso_run(a: ParityAutomaton, w: LassoWord, start: int | None = None) -> RunAnalysis:
    """Simulate the unique run of a complete DPA on an ultimately periodic word.

    The run enters its cycle within |prefix| + |Q|*|period| steps; the cycle
    is detected as the first repetition of a (state, period position) pair.
    """
    if start is not None and not 0 <= start < a.state_count:
        raise AutomatonError(f"state {start} out of range")
    a.alphabet.check_letters(w.prefix + w.period)
    q = a.initial if start is None else start
    u, v = w.prefix, w.period
    states = [q]
    colors: list[int] = []
    for sym in u:
        t = a.step(q, sym)
        colors.append(t.color)
        q = t.dst
        states.append(q)
    seen: dict[tuple[int, int], int] = {}
    k = len(u)
    while True:
        phase = (k - len(u)) % len(v)
        if (q, phase) in seen:
            first = seen[(q, phase)]
            break
        seen[(q, phase)] = k
        t = a.step(q, v[phase])
        colors.append(t.color)
        q = t.dst
        states.append(q)
        k += 1
    dominating = min(colors[first:k])
    return RunAnalysis(
        stem_states=tuple(states[:first]),
        cycle_states=tuple(states[first:k]),
        dominating_color=dominating,
        accepted=dominating % 2 == 0,
    )


def gca_lasso_member(a: CoBuchiAutomaton, w: LassoWord) -> bool:
    """Whether some run of the co-Buchi automaton accepts the lasso word.

    Works on the finite product of automaton states with word positions
    0..|prefix|+|period|-1 (period positions wrap): the word is accepted
    iff a cycle of accepting transitions is reachable there, since an
    accepting run is eventually trapped on such a cycle.
    """
    letters = w.prefix + w.period
    a.alphabet.check_letters(letters)
    length = len(letters)
    size = a.state_count * length  # node (q, p) is q * length + p
    start = a.initial * length
    seen = [False] * size
    seen[start] = True
    order = [start]
    acc: list[list[int]] = [[] for _ in range(size)]
    for node in order:  # BFS: ``order`` grows while it is scanned
        q, p = divmod(node, length)
        nxt_p = p + 1 if p + 1 < length else len(w.prefix)
        for t in a.successors(q, letters[p]):
            nxt = t.dst * length + nxt_p
            if t.color == 2:
                acc[node].append(nxt)
            if not seen[nxt]:
                seen[nxt] = True
                order.append(nxt)
    comp = _scc_ids(size, acc, order)
    return any(comp[node] == comp[nxt] for node in order for nxt in acc[node])


class _Product:
    """Synchronous pair product of two complete DPAs as flat int lists.

    Without ``start`` the nodes are all pairs, (qa, qb) being node
    qa * |Qb| + qb.  With a start pair only the pairs reachable from it are
    built, numbered densely in ascending order of that same id, and
    ``self.start`` is the start pair's node.  The renumbering is monotone,
    so lowest-numbered choices, sorted node lists and letter-ascending
    searches pick the same pairs and letters as on the all-pairs product.
    Edge e = node * |Σ| + sym leads to ``dst[e]`` and carries the colors
    ``ca[e]`` (of a) and ``cb[e]`` (of b).  Every row of both automata is
    read either way, so an incomplete automaton raises even when its
    missing row is unreachable.
    """

    def __init__(self, a: ParityAutomaton, b: ParityAutomaton, start=None):
        if a.alphabet != b.alphabet:
            raise AutomatonError("automata must share one alphabet")
        self.k = k = len(a.alphabet)
        nb = b.state_count
        rows_a = [a.step(q, sym) for q in range(a.state_count) for sym in range(k)]
        rows_b = [b.step(q, sym) for q in range(nb) for sym in range(k)]
        self.dst: list[int] = []
        self.ca: list[int] = []
        self.cb: list[int] = []
        if start is None:
            self.size = a.state_count * nb
            for qa in range(a.state_count):
                for qb in range(nb):
                    for sym in range(k):
                        ta, tb = rows_a[qa * k + sym], rows_b[qb * k + sym]
                        self.dst.append(ta.dst * nb + tb.dst)
                        self.ca.append(ta.color)
                        self.cb.append(tb.color)
            return
        pairs = [start[0] * nb + start[1]]
        seen = set(pairs)
        for pair in pairs:  # ``pairs`` grows while it is scanned
            qa, qb = divmod(pair, nb)
            for sym in range(k):
                nxt = rows_a[qa * k + sym].dst * nb + rows_b[qb * k + sym].dst
                if nxt not in seen:
                    seen.add(nxt)
                    pairs.append(nxt)
        node_of = {pair: i for i, pair in enumerate(sorted(pairs))}
        self.size = len(pairs)
        self.start = node_of[pairs[0]]
        for pair in node_of:
            qa, qb = divmod(pair, nb)
            for sym in range(k):
                ta, tb = rows_a[qa * k + sym], rows_b[qb * k + sym]
                self.dst.append(node_of[ta.dst * nb + tb.dst])
                self.ca.append(ta.color)
                self.cb.append(tb.color)

    def bad_sccs(self, c1: list[int], c2: list[int]) -> list[tuple[list[int], int, int]]:
        """Node sets of the product SCCs holding a cycle whose minima under
        ``c1`` and ``c2`` are even and odd, each with its minima (m1, m2).

        Nested SCC refinement (the Streett emptiness check): in every SCC
        of the live edges take the internal minima m1 and m2.  If m1 is even
        and m2 is odd the SCC is bad; else if m1 is odd its c1 = m1 edges
        are dropped, else its c2 = m2 edges; repeat until no edge is live.
        A dropped edge lies on no cycle with an even c1-minimum and an odd
        c2-minimum, so every such cycle ends up in a bad SCC, and every
        round raises a minimum of each SCC it keeps, so there are at most
        as many rounds as distinct values in c1 and c2.  Inside a bad SCC the live edges are
        exactly its internal edges with c1 >= m1 and c2 >= m2.

        Every round after the first runs Tarjan from the sources of live
        edges only, ascending, and reads members off them: a bad SCC has a
        live cycle through each of its nodes, so each one is such a source.
        On a product built from a start pair the result is the all-pairs
        one restricted to the reachable pairs, as the reachable part is
        closed under edges.
        """
        k, dst = self.k, self.dst
        live = range(len(dst))
        nodes = range(self.size)
        succ: list[list[int]] = [[] for _ in range(self.size)]
        bad = []
        while live:
            for e in live:
                succ[e // k].append(dst[e])
            comp = _scc_ids(self.size, succ, nodes)
            for node in nodes:  # the sources of live edges, so ``succ`` is empty again
                succ[node].clear()
            minima: dict[int, tuple[int, int]] = {}
            internal = []
            for e in live:
                c = comp[e // k]
                if c == comp[dst[e]]:
                    internal.append(e)
                    m1, m2 = minima.get(c, (c1[e], c2[e]))
                    minima[c] = (min(m1, c1[e]), min(m2, c2[e]))
            bad_ids = {c for c, (m1, m2) in minima.items() if m1 % 2 == 0 and m2 % 2 == 1}
            members: dict[int, list[int]] = {c: [] for c in bad_ids}
            for node in nodes:
                if comp[node] in bad_ids:
                    members[comp[node]].append(node)
            bad += [(members[c], *minima[c]) for c in sorted(bad_ids)]
            kept = []
            for e in internal:
                c = comp[e // k]
                m1, m2 = minima[c]
                if c in bad_ids or (c1[e] == m1 if m1 % 2 else c2[e] == m2):
                    continue
                kept.append(e)
            live = kept
            nodes = sorted({e // k for e in kept})
        return bad

    def path(self, start: int, goal, usable=None) -> list[int] | None:
        """Edges of a shortest path from ``start`` to the first node that
        passes ``goal``, over edges that pass ``usable`` (default: all).
        Breadth first with letters in ascending order, so deterministic."""
        k, dst = self.k, self.dst
        prev = {start: -1}
        todo = deque([start])
        while todo:
            node = todo.popleft()
            if goal(node):
                edges = []
                while prev[node] >= 0:
                    edges.append(prev[node])
                    node = prev[node] // k
                return edges[::-1]
            for e in range(node * k, node * k + k):
                if dst[e] not in prev and (usable is None or usable(e)):
                    prev[dst[e]] = e
                    todo.append(dst[e])
        return None


def _memo(a, key: str, compute):
    """``a``'s value under ``key``, from ``compute()`` the first time.

    The value is kept in ``a.__dict__``, as ``cached_property`` keeps
    ``ParityAutomaton.rows``: it lives exactly as long as ``a`` and is never
    shared with a value-equal copy.  Nothing is kept when ``compute`` raises.
    """
    memo = vars(a)
    if key not in memo:
        memo[key] = compute()
    return memo[key]


_PARTITION = "_partition"  # the memo key of ``state_equivalence``


def state_equivalence(a: ParityAutomaton) -> Partition:
    """Partition the states of a complete DPA by language equivalence.

    Two states disagree iff the pair product reaches, from their pair, a
    cycle whose two color minima have different parity.  One nested SCC
    refinement of a x a finds the product SCCs holding a cycle with an even
    first and an odd second minimum; (q, r) is inequivalent iff (q, r) or
    (r, q) reaches one of them, as the product is symmetric.  The result is
    memoized on ``a`` itself (see ``_memo``), and ``structure_dpa_with_map``
    and ``streamline`` hand it forward to the automata they build, whose
    states keep their languages, so one canonicalization computes it once.
    """
    return _memo(a, _PARTITION, lambda: _partition(a))


def _partition(a: ParityAutomaton) -> Partition:
    """``state_equivalence`` without the memo."""
    product = _Product(a, a)
    n, k = a.state_count, product.k
    marked = [False] * product.size
    todo = [node for nodes, _, _ in product.bad_sccs(product.ca, product.cb) for node in nodes]
    for node in todo:
        marked[node] = True
    pred: list[list[int]] = [[] for _ in range(product.size)]
    for e, d in enumerate(product.dst):
        pred[d].append(e // k)
    while todo:
        for prev in pred[todo.pop()]:
            if not marked[prev]:
                marked[prev] = True
                todo.append(prev)
    reps: list[int] = []
    members: list[list[int]] = []
    for q in range(n):
        for idx, rep in enumerate(reps):
            if not marked[rep * n + q] and not marked[q * n + rep]:
                members[idx].append(q)
                break
        else:
            reps.append(q)
            members.append([q])
    return Partition(classes=tuple(tuple(c) for c in members))


def dpa_language_equiv(
    a: ParityAutomaton, b: ParityAutomaton
) -> tuple[bool, LassoWord | None]:
    """Decide L(a) = L(b); on inequality also return a witness lasso.

    The languages differ iff the a x b product reaches a bad SCC of the
    nested refinement (see ``_Product.bad_sccs``) with a's colors first, or
    one with b's colors first.  The witness stem is a shortest product path
    from the initial pair to the nearest bad SCC (breadth first, letters
    ascending; a's-colors-first SCCs are tried first), and its period is a
    cycle inside that SCC through its lowest-numbered edge realizing m1
    and its lowest-numbered edge realizing m2.  Every edge of the cycle has
    colors >= (m1, m2), so the two runs' dominating colors are exactly m1
    and m2, of different parity.  Only the pairs reachable from the initial
    pair are built (see ``_Product``); the witness is the one the all-pairs
    product gives.
    """
    product = _Product(a, b, (a.initial, b.initial))
    init = product.start
    for c1, c2 in ((product.ca, product.cb), (product.cb, product.ca)):
        bad = product.bad_sccs(c1, c2)
        owner = {node: i for i, (nodes, _, _) in enumerate(bad) for node in nodes}
        stem = product.path(init, owner.__contains__)
        if stem is not None:
            end = product.dst[stem[-1]] if stem else init
            return False, _witness(product, stem, end, bad[owner[end]], c1, c2)
    return True, None


def _witness(product: _Product, stem, anchor, scc, c1, c2) -> LassoWord:
    """Lasso along ``stem`` into ``scc``, then around a cycle from ``anchor``
    through the SCC's lowest-numbered m1-edge and m2-edge."""
    nodes, m1, m2 = scc
    inside = set(nodes)
    k, dst = product.k, product.dst

    def usable(e):
        return dst[e] in inside and c1[e] >= m1 and c2[e] >= m2

    edges = [e for q in nodes for e in range(q * k, q * k + k) if usable(e)]
    e1 = min(e for e in edges if c1[e] == m1)
    e2 = min(e for e in edges if c2[e] == m2)
    period: list[int] = []
    here = anchor
    for e in (e1, e2):
        period += product.path(here, (e // k).__eq__, usable) + [e]
        here = dst[e]
    period += product.path(here, anchor.__eq__, usable)
    return normalize_lasso(
        LassoWord(tuple(e % k for e in stem), tuple(e % k for e in period))
    )
