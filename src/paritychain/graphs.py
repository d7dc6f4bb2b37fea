"""Graph and language primitives: SCCs, lasso runs, equivalence."""

from __future__ import annotations

from collections import defaultdict, deque
from functools import cached_property
from operator import eq
from typing import NamedTuple

from .core import (
    AutomatonError,
    CoBuchiAutomaton,
    LassoWord,
    ParityAutomaton,
    Partition,
    Transition,
    _AUTOMATA,
    _Frozen,
    _expect,
    _expect_lasso,
    _shown,
    normalize_lasso,
)


def _adjacency(a) -> list[list[int]]:
    """Deduplicated successor lists, colors ignored, deterministic order."""
    succ = [set() for _ in range(a.state_count)]
    for s, _, d, _ in a.transitions:
        succ[s].add(d)
    return [sorted(s) for s in succ]


def _reach(roots, succ) -> list[int]:
    """The nodes reachable from ``roots`` through ``succ(node)``, each once,
    in breadth-first order: the roots first, in their order."""
    order = list(dict.fromkeys(roots))
    seen = set(order)
    for node in order:  # ``order`` grows while it is scanned
        for nxt in succ(node):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order


def _least_on_cycle(step, table: list[int], node: int) -> int:
    """The least weight on the cycle that the walk from ``node`` reaches in
    the functional graph ``step(node) -> (next node, weight)``.

    ``table`` holds that value for the nodes resolved so far, which are
    answered at once, and -1 for the others; every node of the walk gets the
    value of the resolved node or of the cycle it ends in, so each node is
    walked once over all calls.
    """
    if table[node] >= 0:
        return table[node]
    walk: list[int] = []
    weights: list[int] = []
    while table[node] == -1:
        table[node] = -2  # on the current walk
        walk.append(node)
        node, weight = step(node)
        weights.append(weight)
    value = min(weights[walk.index(node):]) if table[node] == -2 else table[node]
    for n in walk:
        table[n] = value
    return value


def _scc_ids(n: int, succ, roots) -> list[int]:
    """Iterative Tarjan over nodes 0..n-1 with successor lists ``succ``.

    Returns the component id of every node, -1 for nodes not reached from
    ``roots``.  Ids count up in pop order, which is reverse topological
    order of the condensation, and are deterministic for a fixed root and
    successor order.
    """
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    count = 0
    for root in roots:
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


def _edge_groups(comp, edges, k: int, dst: list[int]) -> tuple[list[list[int]], list[int]]:
    """Split ``edges`` by the component map ``comp`` (node -> component):
    the edges inside a component, grouped by component in the order of
    their first edge, and the edges between components, in their order.
    Edge e runs from node e // k to ``dst[e]``."""
    groups: defaultdict[int, list[int]] = defaultdict(list)
    leaving = []
    for e in edges:
        c = comp[e // k]
        if c == comp[dst[e]]:
            groups[c].append(e)
        else:
            leaving.append(e)
    return list(groups.values()), leaving


def _refine(n: int, k: int, dst: list[int], sccs: list[list[int]], leaving: list[int],
            keep) -> None:
    """Nested SCC refinement of the graph on nodes 0..n-1 whose edge e runs
    from node e // k to ``dst[e]``, starting from a decomposition of its
    live edges: ``sccs``, the live edges inside each SCC, one list per SCC,
    and ``leaving``, the live edges between SCCs (see ``_edge_groups``).

    Each round calls ``keep(sccs, leaving)``, which returns ``(carried,
    split)``; rounds repeat while an edge is live.  ``carried`` are SCCs it
    was passed with all their edges: the SCCs of a round are node-disjoint
    and the edges between them are no longer live, so each is still an SCC
    and goes to the next round with no Tarjan run.  ``split`` are the other
    live edges, which one Tarjan run from their sources, ascending,
    decomposes.  The next round's SCCs are the carried ones, then those
    found, in the order of their first edge in ``split``.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    while sccs or leaving:
        sccs, split = keep(sccs, leaving)
        leaving = []
        if split:
            for e in split:
                succ[e // k].append(dst[e])
            sources = sorted({e // k for e in split})
            comp = _scc_ids(n, succ, sources)
            for node in sources:  # so ``succ`` is empty again
                succ[node].clear()
            found, leaving = _edge_groups(comp, split, k, dst)
            sccs += found


class SccDecomposition(_Frozen):
    """Maximal SCCs of the reachable part, listed in topological order."""

    _fields = ("sccs",)

    def __init__(self, sccs: tuple[tuple[int, ...], ...]):
        self._set(sccs=sccs)

    @cached_property
    def scc_of(self) -> dict[int, int]:
        return {q: i for i, comp in enumerate(self.sccs) for q in comp}


class RunAnalysis(NamedTuple):
    """Shape of the unique run of a DPA on a lasso word."""

    stem_states: tuple[int, ...]
    cycle_states: tuple[int, ...]
    dominating_color: int
    accepted: bool


def reachable_states(a, origin: int) -> frozenset[int]:
    """Forward-reachable state set from ``origin``, inclusive."""
    _expect(_AUTOMATA, a)
    if type(origin) is not int or not 0 <= origin < a.state_count:
        raise AutomatonError(f"state {_shown(origin)} out of range")
    return frozenset(_reach([origin], _adjacency(a).__getitem__))


def scc_decompose(a) -> SccDecomposition:
    """Maximal SCCs of the part reachable from the initial state, memoized
    on ``a`` (see ``_memo``)."""
    _expect(_AUTOMATA, a)
    return _memo(a, _SCCS, lambda: _scc_decompose(a))


_SCCS = "_sccs"  # the memo key of ``scc_decompose``


def _scc_decompose(a) -> SccDecomposition:
    """``scc_decompose`` without the memo."""
    adj = _adjacency(a)
    comp = _scc_ids(a.state_count, adj, sorted(_reach([a.initial], adj.__getitem__)))
    last = max(comp)
    sccs: list[list[int]] = [[] for _ in range(last + 1)]
    for q, c in enumerate(comp):
        if c >= 0:
            sccs[last - c].append(q)
    return SccDecomposition(sccs=tuple(map(tuple, sccs)))


def dpa_lasso_run(a: ParityAutomaton, w: LassoWord) -> RunAnalysis:
    """Simulate the unique run of a complete DPA on an ultimately periodic word.

    The prefix is stepped without marks; from the period on, only the
    states at period starts are marked, and the cycle's first (state,
    period position) node is stepped back to from the first of them that
    repeats (see ``colors._natural_color``).  Rows are read from ``flat``.
    """
    _expect_lasso(ParityAutomaton, a, w)
    dst, col = a.flat
    k, q, letters = len(a.alphabet), a.initial, w.period
    states = []  # the run's state before each step
    for sym in w.prefix:
        states.append(q)
        q = dst[q * k + sym]
    u, mark = len(states), [0] * a.state_count  # a period start -> 1 + its index in states
    while not mark[q]:
        mark[q] = len(states) + 1
        for sym in letters:
            states.append(q)
            q = dst[q * k + sym]
    first = mark[q] - 1  # the first period start on the cycle
    size = len(states) - first
    while first > u and states[first - 1] == states[first - 1 + size]:
        first -= 1
    dominating = min(col[states[i] * k + letters[(i - u) % len(letters)]]
                     for i in range(first, first + size))
    return RunAnalysis(
        stem_states=tuple(states[:first]),
        cycle_states=tuple(states[first:first + size]),
        dominating_color=dominating,
        accepted=dominating % 2 == 0,
    )


def gca_lasso_member(a: CoBuchiAutomaton, w: LassoWord) -> bool:
    """Whether some run of the co-Buchi automaton accepts the lasso word.

    The set of states the runs reach is stepped through the prefix, each
    distinct row read once per letter (see ``CoBuchiAutomaton.flat``),
    then a period at a time, the new states only, until none turns up at
    a period start.  An accepting run is eventually trapped on a cycle of
    accepting transitions, found at a period start (see
    ``colors._natural_color``).  A row has at most one, so the map q ->
    (the end of the accepting path from q through the period, 1), or
    (q, 0) where a row on the way has none, makes the states a functional
    graph: the word is accepted iff a reached state walks into a cycle of
    least weight 1 (see ``_least_on_cycle``), one table entry per state.
    """
    _expect_lasso(CoBuchiAutomaton, a, w)
    (acc_row, succ_row), k = a.flat, len(a.alphabet)
    states, word, reached = {a.initial}, w.prefix, set()
    while states:  # stepped through the prefix, then the new states through the period
        for sym in word:
            rows = {id(t): t for t in (succ_row[q * k + sym] for q in states)}
            states = set().union(*rows.values())
        states -= reached
        reached |= states
        word = w.period

    def accepting(q):
        start = q
        for sym in w.period:
            q = acc_row[q * k + sym]
            if q < 0:
                return start, 0
        return q, 1

    table = [-1] * a.state_count
    return any(_least_on_cycle(accepting, table, q) for q in reached)


class _Product:
    """Synchronous pair product of two complete DPAs as flat int lists.

    The nodes are the pairs reachable from the root pairs, numbered densely
    in ascending order of the all-pairs id qa * |Qb| + qb; ``node_of`` maps
    that id to the node.  The renumbering is monotone, so lowest-numbered
    choices, sorted node lists and letter-ascending searches pick the same
    pairs and letters as on the all-pairs product, which is the product
    rooted at every pair.  Edge e = node * |Σ| + sym leads to ``dst[e]`` and
    carries the colors ``ca[e]`` (of a) and ``cb[e]`` (of b).

    Everything is built by letter columns: each automaton's targets and
    colors on one letter are sliced out once, the reachable pairs are found
    breadth first with each letter mapping the whole frontier at once, and
    the edges of one letter, e = node * |Σ| + sym for every node, are filled
    by one slice assignment.  The visited set is dropped before the edge
    lists are built, so it does not add to the peak.
    """

    def __init__(self, a: ParityAutomaton, b: ParityAutomaton, roots):
        if a.alphabet != b.alphabet:
            raise AutomatonError("automata must share one alphabet")
        self.k = k = len(a.alphabet)
        nb = b.state_count
        dst_a, col_a = a.flat
        dst_b, col_b = b.flat
        columns = [(dst_a[s::k], dst_b[s::k]) for s in range(k)]
        frontier = seen = {qa * nb + qb for qa, qb in roots}
        while frontier:
            frontier = {da[p // nb] * nb + db[p % nb] for da, db in columns for p in frontier}
            frontier -= seen
            seen |= frontier
        pairs = sorted(seen)
        del frontier, seen
        self.node_of = node_of = {pair: i for i, pair in enumerate(pairs)}
        self.size = n = len(pairs)
        self.dst, self.ca, self.cb = [0] * (n * k), [0] * (n * k), [0] * (n * k)
        for s, (da, db) in enumerate(columns):
            ca, cb = col_a[s::k], col_b[s::k]
            self.dst[s::k] = [node_of[da[p // nb] * nb + db[p % nb]] for p in pairs]
            self.ca[s::k] = [ca[p // nb] for p in pairs]
            self.cb[s::k] = [cb[p % nb] for p in pairs]

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

        An SCC whose internal live edges all have c1 = c2 is dropped before
        its minima are taken: each of its cycles has equal minima, of one
        parity, so it is not bad, and neither is any SCC of its edges in a
        later round, which are equal-colored too.  The SCCs of a round lie
        inside those of the round before, so dropping one changes neither
        the SCCs of the others nor their order: the result is that of the
        refinement without the drop.  On the diagonal pairs (q, q) of a x a
        every edge is equal-colored, so they cost one round.

        The rounds are those of ``_refine``, from ``_first_round``; ``keep``
        carries no SCC, so one Tarjan run decomposes all live edges.  A bad
        SCC has a live cycle through each of its nodes, so its members are
        the sources of its internal live edges.  The result is the
        all-pairs one restricted to the built pairs, as they are closed
        under edges.
        """
        bad = []

        def keep(sccs, leaving):
            split = []
            for edges in sccs:
                if all(map(eq, map(c1.__getitem__, edges), map(c2.__getitem__, edges))):
                    continue
                m1 = min(map(c1.__getitem__, edges))
                m2 = min(map(c2.__getitem__, edges))
                if m1 % 2 == 0 and m2 % 2 == 1:
                    bad.append((sorted({e // self.k for e in edges}), m1, m2))
                elif m1 % 2:
                    split += [e for e in edges if c1[e] != m1]
                else:
                    split += [e for e in edges if c2[e] != m2]
            return [], split

        _refine(self.size, self.k, self.dst, *self._first_round, keep)
        return bad

    @cached_property
    def _first_round(self) -> tuple[list[list[int]], list[int]]:
        """The SCCs of all edges, as ``_refine`` takes them: the first round
        of every ``bad_sccs`` call, whatever the colors, so it is computed
        once and both orientations of ``dpa_language_equiv`` share it."""
        k, dst = self.k, self.dst
        succ = [dst[node * k:node * k + k] for node in range(self.size)]
        return _edge_groups(_scc_ids(self.size, succ, range(self.size)), range(len(dst)), k, dst)

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
    ``ParityAutomaton.flat``: it lives exactly as long as ``a`` and is never
    shared with a value-equal copy.  Nothing is kept when ``compute`` raises.

    An automaton the pipeline builds from ``a`` is handed what it shares
    with ``a``, so one canonicalization computes each fact once:
    ``structure_dpa_with_map`` hands on the SCCs and the partition, as
    redirects keep every state's language, and ``streamline`` the
    partition and, as streamlining is idempotent, its own colors as its
    streamlined colors.
    """
    memo = vars(a)
    if key not in memo:
        memo[key] = compute()
    return memo[key]


_PARTITION = "_partition"  # the memo key of ``state_equivalence``


def state_equivalence(a: ParityAutomaton) -> Partition:
    """Partition the states of a complete DPA by language equivalence ≡.

    Two cheap partitions sandwich ≡: the coarsest bisimulation (see
    ``_bisimulation``) and a pre-split by membership of a few periodic
    words (see ``_presplit``).  ``_partition`` quotients by the first,
    pre-splits the quotient and runs the pair product only inside the
    pre-split's blocks, so its cost grows with the number of bisimulation
    classes and the sizes of the blocks, not with |Q|².  The result is
    memoized on ``a`` and handed forward (see ``_memo``).
    """
    _expect(ParityAutomaton, a)
    return _memo(a, _PARTITION, lambda: _partition(a))


def _expect_equivalence(a: ParityAutomaton, equiv) -> None:
    """Reject an ``equiv`` other than ``state_equivalence(a)``, which defines
    co-runs and chain levels; on a pipeline automaton it is the memoized
    partition itself, so the check is one identity test."""
    _expect(ParityAutomaton, a)
    _expect(Partition, equiv)
    known = state_equivalence(a)
    if equiv is not known and equiv != known:
        raise AutomatonError("partition is not the automaton's language equivalence")


def _partition(a: ParityAutomaton) -> Partition:
    """``state_equivalence`` without the memo.

    Bisimilar states are language equivalent (see ``_bisimulation``), so
    the quotient by the bisimulation (see ``_quotient``) keeps every
    state's language: its ≡ classes, each lifted to the union of its
    bisimulation blocks, are those of ``a``.  When every block is a
    singleton the quotient is ``a`` itself, and the pre-split reuses the
    preimage lists of the bisimulation.  ``a.flat`` is read first (see
    ``ParityAutomaton.flat``).
    """
    pre = _preimages(a)
    bisimilar = _bisimulation(a, pre)
    if len(bisimilar) == a.state_count:
        return Partition(tuple(map(tuple, _in_block_classes(a, _presplit(a, pre)))))
    blocks = sorted(map(sorted, bisimilar))
    quotient = _quotient(a, blocks)
    classes = _in_block_classes(quotient, _presplit(quotient, _preimages(quotient)))
    return Partition(tuple(tuple(q for c in cls for q in blocks[c]) for cls in classes))


def _in_block_classes(a: ParityAutomaton, blocks: list[list[int]]) -> list[list[int]]:
    """The ≡ classes of ``a``, from ``blocks``, its pre-split (see ``_presplit``).

    With transition-based acceptance the first color of a run does not
    matter, so ≡ is a right congruence: q ≡ r implies δ(q, σ) ≡ δ(r, σ).
    States of different blocks are inequivalent, and the pairs inside the
    blocks are closed under product edges.  On them one nested SCC
    refinement of a x a finds the product SCCs holding a cycle with an even
    first and an odd second minimum, and (q, r) is inequivalent iff (q, r)
    or (r, q) reaches one of them, as the product is symmetric: exactly the
    marking of the all-pairs product, restricted to these pairs.  A
    singleton block is its own class, so the product is rooted only at the
    pairs of the larger blocks.
    """
    n, k = a.state_count, len(a.alphabet)
    product = _Product(a, a, [(q, r) for block in blocks if len(block) > 1
                              for q in block for r in block])
    pred: list[list[int]] = [[] for _ in range(product.size)]
    for e, d in enumerate(product.dst):
        pred[d].append(e // k)
    bad = [node for nodes, _, _ in product.bad_sccs(product.ca, product.cb) for node in nodes]
    marked = set(_reach(bad, pred.__getitem__))
    node_of = product.node_of
    classes: list[list[int]] = []
    for block in blocks:
        members: list[list[int]] = []
        for q in block:
            for cls in members:
                rep = cls[0]
                if node_of[rep * n + q] not in marked and node_of[q * n + rep] not in marked:
                    cls.append(q)
                    break
            else:
                members.append([q])
        classes += members
    return classes


def _preimages(a: ParityAutomaton) -> list[list[list[int]]]:
    """``pre[s][q]``: the states whose s-successor is q, ascending, from ``a.flat``."""
    n, k = a.state_count, len(a.alphabet)
    dst = a.flat[0]
    pre: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(k)]
    for s, ps in enumerate(pre):
        for q, d in enumerate(dst[s::k]):
            ps[d].append(q)
    return pre


def _coarsest(pre: list[list[list[int]]], seeds, enough: int = 0) -> list[set[int]]:
    """A partition of the states closed under successors that separates
    every state set of ``seeds`` read from the other states, by Hopcroft's
    refinement on the preimage lists ``pre`` (see ``_preimages``): the
    coarsest one when every seed is read.

    Each seed splits every block into its states in the set and the rest.
    Then a dequeued splitter B splits every block by "the σ-successor lies
    in B", for each letter σ, until the queue is empty.  The smaller half
    of a split block takes a new id and is queued; the larger keeps the old
    id, so it stays queued if it was, and otherwise the partition is
    stable under the whole block already.  Each state so joins a queued
    splitter at most log2 |Q| times.  ``seeds`` is read lazily, and no more
    of it once |Σ|·Σ|B|², over the blocks B of two states or more, is at
    most ``enough``; with the default 0, once every block is a singleton.
    """
    n, k = len(pre[0]), len(pre)
    blocks: list[set[int]] = [set(range(n))]
    block_of = [0] * n
    work: list[int] = []
    pairs = n * n if n > 1 else 0  # Σ|B|² over the blocks of two states or more

    def split(marked):
        """Split every block into its states in ``marked`` and the rest."""
        nonlocal pairs
        parts: dict[int, set[int]] = {}
        for r in marked:
            parts.setdefault(block_of[r], set()).add(r)
        for b, part in parts.items():
            if len(part) < len(blocks[b]):  # else every state is marked: no split
                blocks[b] -= part
                x, y = len(part), len(blocks[b])
                pairs -= 2 * x * y + (x == 1) + (y == 1)  # (x + y)² -> x² + y², less singletons
                if x > y:
                    blocks[b], part = part, blocks[b]
                for r in part:
                    block_of[r] = len(blocks)
                work.append(len(blocks))
                blocks.append(part)

    for marked in seeds:
        split(marked)
        while work:
            sources = list(blocks[work.pop()])
            for ps in pre:
                split([r for q in sources for r in ps[q]])
        if k * pairs <= enough:
            break
    return blocks


def _bisimulation(a: ParityAutomaton, pre) -> list[set[int]]:
    """The blocks of the coarsest bisimulation of ``a``, the fine side of
    the sandwich of ``state_equivalence``: the coarsest partition closed
    under successors whose states in a block have equal colors on every
    letter.  Bisimilar states read the same color sequence on every word,
    so the bisimulation is finer than language equivalence.  Its seeds
    are the classes of equal per-letter color signatures (Moore-machine
    minimisation, with the colors as outputs); ``pre`` are the preimage
    lists of ``a`` (see ``_preimages``)."""
    k = len(a.alphabet)
    col = a.flat[1]
    signatures: dict[tuple[int, ...], list[int]] = {}
    for q, signature in enumerate(zip(*(col[s::k] for s in range(k)))):
        signatures.setdefault(signature, []).append(q)
    return _coarsest(pre, signatures.values())


def _quotient(a: ParityAutomaton, blocks: list[list[int]]) -> ParityAutomaton:
    """The quotient of ``a`` by a bisimulation with ``blocks``: state c is
    block c, and its rows are those of the block's least state, with the
    targets replaced by their blocks."""
    k = len(a.alphabet)
    dst, col = a.flat
    block_of = [0] * a.state_count
    for c, block in enumerate(blocks):
        for q in block:
            block_of[q] = c
    ts = tuple(Transition(c, s, block_of[dst[block[0] * k + s]], col[block[0] * k + s])
               for c, block in enumerate(blocks) for s in range(k))
    return ParityAutomaton(a.alphabet, len(blocks), block_of[a.initial], ts)


def _draw_periods() -> tuple[tuple[int, ...], ...]:
    """32 periods of length 3-12 drawn from a fixed seed by a 64-bit linear
    congruential generator, as the draws (its high bits) that pick their
    letters: draw d picks letter d mod |Σ|."""
    x = 2010

    def draw() -> int:
        nonlocal x
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        return x >> 33

    return tuple(tuple(draw() for _ in range(3 + draw() % 10)) for _ in range(32))


_PERIOD_DRAWS = _draw_periods()


def _seed_words(k: int) -> list[tuple[int, ...]]:
    """Periods of the pre-split's words: every period of length 1, every
    period of two distinct letters up to rotation (on at most 16 letters,
    so the list stays small), and the 32 drawn periods of
    ``_draw_periods``."""
    words = [(s,) for s in range(k)]
    if k <= 16:
        words += [(s, t) for s in range(k) for t in range(s + 1, k)]
    return words + [tuple(d % k for d in period) for period in _PERIOD_DRAWS]


def _presplit(a: ParityAutomaton, pre) -> list[list[int]]:
    """Blocks, each ascending, of the coarse side of the sandwich of
    ``state_equivalence``; ``pre`` are the preimage lists of ``a`` (see
    ``_preimages``).

    It is the coarsest partition closed under successors that separates
    states by membership of v^ω for every ``_seed_words`` period v, a
    language property, so it is coarser than language equivalence ≡.  All
    states run through one period at once, which gives the functional
    graph q -> δ(q, v) weighted by the least color on the way; membership
    is the parity of the least weight on the cycle that q's walk reaches.
    The words are the seeds of ``_coarsest``, drawn until the in-block
    product left, exact on any such partition, costs no more than one more
    word: |Σ|·Σ|B|² ≤ |Q|.
    """
    n, k = a.state_count, len(a.alphabet)
    dst, col = a.flat
    dst_by = [dst[s::k] for s in range(k)]
    col_by = [col[s::k] for s in range(k)]

    def rejecting_states():
        for v in _seed_words(k):
            least, end = col_by[v[0]], dst_by[v[0]]
            for s in v[1:]:
                d, c = dst_by[s], col_by[s]
                least = [m if m < c[q] else c[q] for m, q in zip(least, end)]
                end = [d[q] for q in end]
            step = list(zip(end, least)).__getitem__
            dom = [-1] * n
            for q in range(n):
                if dom[q] < 0:
                    _least_on_cycle(step, dom, q)
            yield [q for q in range(n) if dom[q] % 2]

    return [sorted(block) for block in _coarsest(pre, rejecting_states(), n)]


def dpa_language_equiv(
    a: ParityAutomaton, b: ParityAutomaton
) -> tuple[bool, LassoWord | None]:
    """Decide L(a) = L(b); on inequality also return a witness lasso.

    The languages differ iff the a x b product reaches a bad SCC of the
    nested refinement (see ``_Product.bad_sccs``) with a's colors first, or
    one with b's colors first.  The witness (see ``_witness``) enters the
    nearest bad SCC by a shortest product path from the initial pair
    (breadth first, letters ascending; a's-colors-first SCCs are tried
    first).  Only the pairs reachable from the initial pair are built; the
    witness is the one the all-pairs product gives (see ``_Product``).

    When every built edge carries one color in a and in b, the reachable
    pairs form a bisimulation between a and b, so the languages are equal
    with no refinement (see ``_bisimulation``).  This decides a DPA
    against its blow-up, a staircase of it, a renumbered copy or itself.
    """
    _expect(ParityAutomaton, a)
    _expect(ParityAutomaton, b)
    product = _Product(a, b, [(a.initial, b.initial)])
    if product.ca == product.cb:
        return True, None
    init = product.node_of[a.initial * b.state_count + b.initial]
    for c1, c2 in ((product.ca, product.cb), (product.cb, product.ca)):
        bad = product.bad_sccs(c1, c2)
        if not bad:  # no SCC for a stem to reach
            continue
        owner = {node: i for i, (nodes, _, _) in enumerate(bad) for node in nodes}
        stem = product.path(init, owner.__contains__)
        if stem is not None:
            end = product.dst[stem[-1]] if stem else init
            return False, _witness(product, stem, end, bad[owner[end]], c1, c2)
    return True, None


def _witness(product: _Product, stem, anchor, scc, c1, c2) -> LassoWord:
    """Lasso along ``stem`` into ``scc``, then around a cycle from ``anchor``
    through the SCC's lowest-numbered m1-edge and m2-edge.  Every edge of
    the cycle has colors >= (m1, m2), so the two runs' dominating colors
    are exactly m1 and m2, of different parity."""
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
