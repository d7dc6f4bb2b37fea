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


def _cobuchi_rows(a: CoBuchiAutomaton) -> tuple[list[int], list[tuple[int, ...]]]:
    """Flat rows of ``a``, indexed by state * |Σ| + letter: the target of the
    accepting transition (-1 if none; there is at most one) and the targets
    of all transitions.  Memoized on ``a`` (see ``_memo``)."""

    def build():
        k = len(a.alphabet)
        acc = [-1] * (a.state_count * k)
        succ: list[tuple[int, ...]] = [()] * (a.state_count * k)
        for t in a.transitions:
            row = t.src * k + t.sym
            succ[row] += (t.dst,)
            if t.color == 2:
                acc[row] = t.dst
        return acc, succ

    return _memo(a, "_cobuchi_rows", build)


def gca_lasso_member(a: CoBuchiAutomaton, w: LassoWord) -> bool:
    """Whether some run of the co-Buchi automaton accepts the lasso word.

    Works on the finite product of automaton states with word positions
    0..|prefix|+|period|-1 (period positions wrap): the word is accepted
    iff a cycle of accepting transitions is reachable there, since an
    accepting run is eventually trapped on such a cycle.
    """
    letters = w.prefix + w.period
    a.alphabet.check_letters(letters)
    acc_row, succ_row = _cobuchi_rows(a)
    k, length = len(a.alphabet), len(letters)
    size = a.state_count * length  # node (q, p) is q * length + p
    start = a.initial * length
    seen = [False] * size
    seen[start] = True
    order = [start]
    acc: list[list[int]] = [[] for _ in range(size)]
    for node in order:  # BFS: ``order`` grows while it is scanned
        q, p = divmod(node, length)
        nxt_p = p + 1 if p + 1 < length else len(w.prefix)
        row = q * k + letters[p]
        if acc_row[row] >= 0:
            acc[node].append(acc_row[row] * length + nxt_p)
        for dst in succ_row[row]:
            nxt = dst * length + nxt_p
            if not seen[nxt]:
                seen[nxt] = True
                order.append(nxt)
    comp = _scc_ids(size, acc, order)
    return any(comp[node] == comp[nxt] for node in order for nxt in acc[node])


class _Product:
    """Synchronous pair product of two complete DPAs as flat int lists.

    The nodes are the pairs reachable from the root pairs, numbered densely
    in ascending order of the all-pairs id qa * |Qb| + qb; ``node_of`` maps
    that id to the node.  The renumbering is monotone, so lowest-numbered
    choices, sorted node lists and letter-ascending searches pick the same
    pairs and letters as on the all-pairs product, which is the product
    rooted at every pair.  Edge e = node * |Σ| + sym leads to ``dst[e]`` and
    carries the colors ``ca[e]`` (of a) and ``cb[e]`` (of b).  Every row of
    both automata is read first, so an incomplete automaton raises even
    when its missing row is unreachable.
    """

    def __init__(self, a: ParityAutomaton, b: ParityAutomaton, roots):
        if a.alphabet != b.alphabet:
            raise AutomatonError("automata must share one alphabet")
        self.k = k = len(a.alphabet)
        nb = b.state_count
        rows_a = [a.step(q, sym) for q in range(a.state_count) for sym in range(k)]
        rows_b = [b.step(q, sym) for q in range(nb) for sym in range(k)]
        pairs = list(dict.fromkeys(qa * nb + qb for qa, qb in roots))
        seen = set(pairs)
        for pair in pairs:  # ``pairs`` grows while it is scanned
            qa, qb = divmod(pair, nb)
            for sym in range(k):
                nxt = rows_a[qa * k + sym].dst * nb + rows_b[qb * k + sym].dst
                if nxt not in seen:
                    seen.add(nxt)
                    pairs.append(nxt)
        self.node_of = node_of = {pair: i for i, pair in enumerate(sorted(pairs))}
        self.size = len(pairs)
        self.dst: list[int] = []
        self.ca: list[int] = []
        self.cb: list[int] = []
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
        The result is the all-pairs one restricted to the built pairs, as
        they are closed under edges.
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
    cycle whose two color minima have different parity.  A cheap pre-split
    (see ``_presplit``) first separates states by their membership of a few
    periodic words and refines that until it is closed under successors;
    the nested SCC refinement of the product then runs only on the pairs
    inside its blocks (see ``_partition``).  The result is memoized on
    ``a`` itself (see ``_memo``), and ``structure_dpa_with_map`` and
    ``streamline`` hand it forward to the automata they build, whose states
    keep their languages, so one canonicalization computes it once.
    """
    return _memo(a, _PARTITION, lambda: _partition(a))


def _partition(a: ParityAutomaton) -> Partition:
    """``state_equivalence`` without the memo.

    With transition-based acceptance the first color of a run does not
    matter, so language equivalence is a right congruence: q ≡ r implies
    δ(q, σ) ≡ δ(r, σ).  The pre-split is coarser than ≡ and closed under
    successors, so states of different blocks are inequivalent and the
    pairs inside the blocks are closed under product edges.  On them one
    nested SCC refinement of a x a finds the product SCCs holding a cycle
    with an even first and an odd second minimum, and (q, r) is
    inequivalent iff (q, r) or (r, q) reaches one of them, as the product
    is symmetric: exactly the marking of the all-pairs product, restricted
    to these pairs.
    """
    n, k = a.state_count, len(a.alphabet)
    blocks = _presplit(a)
    product = _Product(a, a, [(q, r) for block in blocks for q in block for r in block])
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
    node_of = product.node_of
    classes: list[list[int]] = []
    for block in blocks:
        members: list[list[int]] = []
        for q in block:
            for cls in members:
                rep = cls[0]
                if not marked[node_of[rep * n + q]] and not marked[node_of[q * n + rep]]:
                    cls.append(q)
                    break
            else:
                members.append([q])
        classes += members
    return Partition(classes=tuple(map(tuple, classes)))


def _seed_words(k: int) -> list[tuple[int, ...]]:
    """Periods of the pre-split's words: every period of length 1, every
    period of two distinct letters up to rotation (on at most 16 letters,
    so the list stays small), and 32 periods of length 3-12 drawn from a
    fixed seed by a 64-bit linear congruential generator (its high bits)."""
    words = [(s,) for s in range(k)]
    if k <= 16:
        words += [(s, t) for s in range(k) for t in range(s + 1, k)]
    x = 2010

    def draw(bound: int) -> int:
        nonlocal x
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        return (x >> 33) % bound

    words += [tuple(draw(k) for _ in range(3 + draw(10))) for _ in range(32)]
    return words


def _presplit(a: ParityAutomaton) -> list[list[int]]:
    """Blocks, each ascending, of a partition of the states of ``a`` that is
    coarser than language equivalence and closed under successors.  Every
    row is read first, in (state, letter) order, so an incomplete automaton
    raises the same error as the product would.

    It is the coarsest partition closed under successors that separates
    states by membership of v^ω for every ``_seed_words`` period v, a
    language property, so language equivalence refines it.  All states run
    through one period at once, which gives the functional graph
    q -> δ(q, v) weighted by the least color on the way; membership is the
    parity of the least weight on the cycle that q's walk reaches.

    After each word the partition is refined by Hopcroft's algorithm, on
    Valmari's refinable partition: a dequeued splitter B splits every block
    by "the σ-successor lies in B", for each letter σ.  Of a block split
    while not queued only the smaller half is queued, which suffices as the
    partition is stable under the whole block already.  Words stop once
    every block is a singleton.
    """
    n, k = a.state_count, len(a.alphabet)
    rows = [a.step(q, sym) for q in range(n) for sym in range(k)]
    dst_by = [[t.dst for t in rows[s::k]] for s in range(k)]
    col_by = [[t.color for t in rows[s::k]] for s in range(k)]
    pre = [[[] for _ in range(n)] for _ in range(k)]  # pre[s][q]: states whose s-successor is q
    for d, ps in zip(dst_by, pre):
        for q in range(n):
            ps[d[q]].append(q)
    # block b is elems[first[b]:last[b]], its marked states first, up to mid[b]
    elems, loc, block = list(range(n)), list(range(n)), [0] * n
    first, last, mid, queued = [0], [n], [0], [False]
    work: list[int] = []

    def split(marked):
        """Split every block into its states in ``marked`` and the rest."""
        touched = []
        for r in marked:
            b, i = block[r], loc[r]
            j = mid[b]
            if i < j:
                continue
            elems[i], elems[j] = elems[j], r
            loc[elems[i]], loc[r] = i, j
            if j == first[b]:
                touched.append(b)
            mid[b] = j + 1
        for b in touched:
            j = mid[b]
            if j == last[b]:  # every state marked: no split
                mid[b] = first[b]
                continue
            new = len(first)
            first.append(first[b])
            last.append(j)
            mid.append(first[b])
            first[b] = mid[b] = j
            for r in elems[first[new]:j]:
                block[r] = new
            if queued[b] or j - first[new] <= last[b] - j:
                queued.append(True)
                work.append(new)
            else:
                queued.append(False)
                queued[b] = True
                work.append(b)

    for v in _seed_words(k):
        if len(first) == n:
            break
        least, end = col_by[v[0]], dst_by[v[0]]
        for s in v[1:]:
            d, c = dst_by[s], col_by[s]
            least = [m if m < c[q] else c[q] for m, q in zip(least, end)]
            end = [d[q] for q in end]
        dom = [-1] * n  # -2: on the current walk
        for start in range(n):
            q, walk = start, []
            while dom[q] == -1:
                dom[q] = -2
                walk.append(q)
                q = end[q]
            value = min(least[r] for r in walk[walk.index(q):]) if dom[q] == -2 else dom[q]
            for r in walk:
                dom[r] = value
        split([q for q in range(n) if dom[q] % 2])
        while work:
            b = work.pop()
            queued[b] = False
            sources = elems[first[b]:last[b]]
            for ps in pre:
                split([r for q in sources for r in ps[q]])
    return [sorted(elems[first[b]:last[b]]) for b in range(len(first))]


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
    product = _Product(a, b, [(a.initial, b.initial)])
    init = product.node_of[a.initial * b.state_count + b.initial]
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
