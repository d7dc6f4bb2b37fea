"""Independent reference algorithms used to cross-check the library.

The brute-force oracles explore walks of the relevant product graphs
directly, which is exhaustive on the small instances the tests use.  For
larger instances, ``reference_partition`` and ``reference_equiv`` decide
equivalence by flagging one restricted product per ordered color pair of
different parity, not by the library's nested SCC refinement; they and
``streamline_one_scc_per_pass`` share only the library's SCC routine.
``reference_coruns`` simulates one lasso run per co-run jump target.
``full_product_equiv`` and ``all_pairs_partition`` are the library's
equivalence check and partition on the product of all state pairs, which
the reachable-pairs product and the pre-split partition must reproduce.
``resolver_oracle_step`` and ``resolver_oracle`` are the GFG resolver
stepped letter by letter on tracked positions and ``Transition`` rows,
which the library's rank-group strategy must reproduce.
"""

from collections import deque

from paritychain import (
    AutomatonError,
    CoRun,
    LassoWord,
    ParityAutomaton,
    Partition,
    ResolverState,
    Transition,
    dpa_lasso_run,
)
from paritychain.graphs import _Product, _scc_ids, _witness


def _product_steps(a: ParityAutomaton, node):
    q, r = node
    for sym in range(len(a.alphabet)):
        ta = a.step(q, sym)
        tb = a.step(r, sym)
        yield (ta.dst, tb.dst), ta.color, tb.color


def states_distinguishable(a: ParityAutomaton, q: int, r: int) -> bool:
    """Whether some lasso word separates L(A_q) from L(A_r).

    Searches, from every product node reachable from (q, r), for a closed
    walk back to that node whose two aggregated color minima have
    different parity; pumping that walk forever yields the separating
    word, and conversely the periodic part of any separating lasso is such
    a walk.
    """
    start = (q, r)
    reach = {start}
    todo = [start]
    while todo:
        node = todo.pop()
        for nxt, _, _ in _product_steps(a, node):
            if nxt not in reach:
                reach.add(nxt)
                todo.append(nxt)
    for anchor in reach:
        seen = set()
        stack = []
        for nxt, c1, c2 in _product_steps(a, anchor):
            state = (nxt, c1, c2)
            seen.add(state)
            stack.append(state)
        while stack:
            node, m1, m2 = stack.pop()
            if node == anchor and (m1 - m2) % 2 == 1:
                return True
            for nxt, c1, c2 in _product_steps(a, node):
                state = (nxt, min(m1, c1), min(m2, c2))
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return False


def gca_member_oracle(a, w: LassoWord) -> bool:
    """Lasso membership for a co-Buchi automaton by direct cycle probing.

    Explores the automaton-times-word-position product; for every
    reachable node it checks by plain DFS over accepting edges whether the
    node can return to itself, i.e. lies on an all-accepting cycle.
    """
    u_len = len(w.prefix)
    length = u_len + len(w.period)

    def letter(p):
        return w.prefix[p] if p < u_len else w.period[p - u_len]

    def advance(p):
        return p + 1 if p + 1 < length else u_len

    start = (a.initial, 0)
    reach = {start}
    todo = [start]
    while todo:
        q, p = todo.pop()
        for t in a.successors(q, letter(p)):
            node = (t.dst, advance(p))
            if node not in reach:
                reach.add(node)
                todo.append(node)

    def accepting_successors(node):
        q, p = node
        return [
            (t.dst, advance(p)) for t in a.successors(q, letter(p)) if t.color == 2
        ]

    for anchor in sorted(reach):
        seen = set(accepting_successors(anchor))
        stack = list(seen)
        if anchor in seen:
            return True
        while stack:
            node = stack.pop()
            if node == anchor:
                return True
            for nxt in accepting_successors(node):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return False


def streamline_one_scc_per_pass(a: ParityAutomaton) -> ParityAutomaton:
    """Recoloring fixpoint that handles only the first qualifying SCC per
    pass.  The library lowers all qualifying SCCs at once; whether that
    choice matters is checked by comparing against this variant."""
    new_color: dict[tuple[int, int], int] = {}
    live = set(a.transitions)
    counter = 0
    while live:
        succ: list[list[int]] = [[] for _ in range(a.state_count)]
        for t in live:
            succ[t.src].append(t.dst)
        comp_of = _scc_ids(a.state_count, succ)
        transient = {t for t in live if comp_of[t.src] != comp_of[t.dst]}
        for t in transient:
            new_color[(t.src, t.sym)] = counter
        live -= transient
        lowered = False
        for comp_id in range(max(comp_of) + 1):
            internal = [t for t in live if comp_of[t.src] == comp_id == comp_of[t.dst]]
            if not internal:
                continue
            least = min(t.color for t in internal)
            if least % 2 == counter % 2:
                for t in internal:
                    if t.color == least:
                        new_color[(t.src, t.sym)] = counter
                        live.remove(t)
                lowered = True
                break  # one SCC per pass, then rescan
        if not lowered:
            counter += 1
    return ParityAutomaton(
        a.alphabet,
        a.state_count,
        a.initial,
        tuple(
            Transition(t.src, t.sym, t.dst, new_color[(t.src, t.sym)])
            for t in a.transitions
        ),
    )


def minimal_lasso_brute(w: LassoWord) -> LassoWord:
    """Smallest (period length, then prefix length) representation of the
    same infinite word, found by trying every cut of an unrolled prefix."""
    total = len(w.prefix) + len(w.period)
    probe = total * total + total
    reference = w.head(probe)
    for period_len in range(1, len(w.period) + 1):
        for prefix_len in range(0, total + 1):
            candidate = LassoWord(
                reference[:prefix_len],
                reference[prefix_len:prefix_len + period_len],
            )
            if candidate.head(probe) == reference:
                return candidate
    return w


def _flagged_nodes(a: ParityAutomaton, b: ParityAutomaton, ca: int, cb: int) -> set:
    """Pairs (q, r) of the a x b product from which a cycle with exact color
    minima (ca, cb) is reachable: restrict the product to edges with colors
    >= (ca, cb), flag the SCCs with internal edges realizing both minima,
    and close backwards over the full product."""
    nb, k = b.state_count, len(a.alphabet)
    size = a.state_count * nb
    edges = []  # (src, dst, color in a, color in b), src = q * nb + r
    for src in range(size):
        q, r = divmod(src, nb)
        for sym in range(k):
            ta, tb = a.step(q, sym), b.step(r, sym)
            edges.append((src, ta.dst * nb + tb.dst, ta.color, tb.color))
    restricted = [(s, d, c1, c2) for s, d, c1, c2 in edges if c1 >= ca and c2 >= cb]
    succ = [[] for _ in range(size)]
    for s, d, _, _ in restricted:
        succ[s].append(d)
    comp = _scc_ids(size, succ)
    inner = [(comp[s], c1, c2) for s, d, c1, c2 in restricted if comp[s] == comp[d]]
    flagged = {c for c, c1, _ in inner if c1 == ca} & {c for c, _, c2 in inner if c2 == cb}
    marked = {node for node in range(size) if comp[node] in flagged}
    pred = [[] for _ in range(size)]
    for s, d, _, _ in edges:
        pred[d].append(s)
    todo = deque(marked)
    while todo:
        for prev in pred[todo.popleft()]:
            if prev not in marked:
                marked.add(prev)
                todo.append(prev)
    return {divmod(node, nb) for node in marked}


def _parity_pairs(a: ParityAutomaton, b: ParityAutomaton):
    return [(ca, cb) for ca in a.colors for cb in b.colors if (ca - cb) % 2 == 1]


def reference_partition(a: ParityAutomaton) -> Partition:
    """Language-equivalence classes of a complete DPA, one flagging pass
    per ordered color pair of different parity."""
    inequivalent = set()
    for ca, cb in _parity_pairs(a, a):
        inequivalent |= _flagged_nodes(a, a, ca, cb)
    classes: list[list[int]] = []
    for q in range(a.state_count):
        for members in classes:
            if (members[0], q) not in inequivalent:
                members.append(q)
                break
        else:
            classes.append([q])
    return Partition(tuple(map(tuple, classes)))


def all_pairs_partition(a: ParityAutomaton) -> Partition:
    """Language-equivalence classes from one nested SCC refinement of the
    product of all |Q|^2 pairs: (q, r) is inequivalent iff (q, r) or (r, q)
    reaches a bad SCC.  This is the library's kernel without the pre-split
    that restricts it to the pairs inside blocks."""
    n = a.state_count
    product = _Product(a, a, [(q, r) for q in range(n) for r in range(n)])
    marked = [False] * product.size
    todo = [node for nodes, _, _ in product.bad_sccs(product.ca, product.cb) for node in nodes]
    for node in todo:
        marked[node] = True
    pred: list[list[int]] = [[] for _ in range(product.size)]
    for e, d in enumerate(product.dst):
        pred[d].append(e // product.k)
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
    return Partition(tuple(map(tuple, members)))


def reference_equiv(a: ParityAutomaton, b: ParityAutomaton) -> bool:
    """Whether L(a) = L(b), by the same per-color-pair flagging."""
    init = (a.initial, b.initial)
    return not any(init in _flagged_nodes(a, b, ca, cb) for ca, cb in _parity_pairs(a, b))


def full_product_equiv(a: ParityAutomaton, b: ParityAutomaton) -> tuple:
    """Verdict and witness of ``dpa_language_equiv`` computed on the
    product of all |Qa|*|Qb| pairs, not only those reachable from the
    initial pair."""
    product = _Product(a, b, [(q, r) for q in range(a.state_count) for r in range(b.state_count)])
    init = product.node_of[a.initial * b.state_count + b.initial]
    for c1, c2 in ((product.ca, product.cb), (product.cb, product.ca)):
        bad = product.bad_sccs(c1, c2)
        owner = {node: i for i, (nodes, _, _) in enumerate(bad) for node in nodes}
        stem = product.path(init, owner.__contains__)
        if stem is not None:
            end = product.dst[stem[-1]] if stem else init
            return False, _witness(product, stem, end, bad[owner[end]], c1, c2)
    return True, None


def reference_coruns(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> tuple:
    """Co-runs with jump positions 1..|prefix| + |Q|*|period|, each jump's
    dominating color read off a fresh ``dpa_lasso_run`` from the jump
    target on the remaining word (one run per distinct target and suffix)."""
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


def resolver_oracle_step(a, s: ResolverState, sym: int) -> ResolverState:
    """One move of the strategy 'follow the run longest through accepting
    transitions' on a position map: every tracked state keeps the earliest
    position from which some run prefix ending there is all-accepting."""
    tracked = dict(s.tracked)
    if s.current not in tracked or any(pos > s.position for pos in tracked.values()):
        raise AutomatonError("inconsistent resolver state")
    new_tracked: dict[int, int] = {}
    for src, since in tracked.items():
        for t in a.successors(src, sym):
            if t.color == 2:
                new_tracked[t.dst] = min(new_tracked.get(t.dst, since), since)
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
        nxt, color = min(new_tracked, key=lambda q: (new_tracked[q], q)), 1
    return ResolverState(s.position + 1, nxt, color, tuple(sorted(new_tracked.items())))


def resolver_oracle(a, w: LassoWord) -> tuple[bool, tuple[int, ...]]:
    """``resolve_run`` by ``resolver_oracle_step``: step until the state,
    the grouping of tracked states by position and the period position
    repeat, then report the rejecting outputs of the repeating cycle."""
    s = ResolverState.start(a)
    u_len, v_len = len(w.prefix), len(w.period)
    seen: dict[tuple, int] = {}
    emitted: list[int] = []
    while True:
        if s.position >= u_len:
            by_pos: dict[int, list[int]] = {}
            for q, pos in s.tracked:
                by_pos.setdefault(pos, []).append(q)
            groups = tuple(tuple(sorted(qs)) for _, qs in sorted(by_pos.items()))
            key = (s.current, groups, (s.position - u_len) % v_len)
            if key in seen:
                rejects = tuple(p for p in range(seen[key], s.position) if emitted[p] == 1)
                return not rejects, rejects
            seen[key] = s.position
        s = resolver_oracle_step(a, s, w.letter_at(s.position))
        emitted.append(s.last_color)
