"""Independent reference algorithms used to cross-check the library.

The brute-force oracles explore walks of the relevant product graphs
directly, which is exhaustive on the small instances the tests use.  For
larger instances, ``reference_partition`` and ``reference_equiv`` decide
equivalence by flagging one restricted product per ordered color pair of
different parity, not by the library's nested SCC refinement; they and
``streamline_one_scc_per_pass`` share only the library's SCC routine.
``reference_coruns`` simulates one lasso run per co-run jump target.
``chain_color_oracle`` is the top accepting chain level by a breadth-first
search over every jump from every reached (state, word position) node, and
``table_corun_color`` the natural color as the largest entry of the co-run
table at the mates of the run's nodes; the library's one walk per mate must
reproduce both.
``full_product_equiv`` and ``all_pairs_partition`` are the library's
equivalence check and partition on the product of all state pairs, which
the reachable-pairs product and the pre-split partition must reproduce.
``direct_partition`` is the pre-split partition of the automaton itself,
which the partition of its bisimulation quotient must reproduce, and
``moore_bisimulation`` the coarsest bisimulation by naive rounds, which
Hopcroft's refinement must reproduce.
``resolver_oracle_step`` and ``resolver_oracle`` are the GFG resolver
stepped letter by letter on tracked positions and ``Transition`` rows,
which the library's rank-group strategy must reproduce; ``gfg_resolver_step``
is one move of that strategy (``colors._advance``) on a ``ResolverState``.
``letter_at``, ``head`` and ``suffix`` read a lasso word letter by letter.
``transient_elements`` lists the transitions and states on no cycle of
the full graph.
``eval_label_oracle`` evaluates a HOA label formula on one valuation at a
time, which the parser's valuation sets must reproduce.
``levels_oracle`` builds every chain level on its own through the public
constructor, which the levels derived from A_0's checked rows must
reproduce.
``row_scan_*`` answer every row question from a dict of the transitions
keyed by (state, letter), which the sorted-key row index of the automata
must reproduce: the bad rows, the step and successors, the first row error
of the flat rows, and the ``validate_dpa`` and ``complete_dpa`` results.
"""

from collections import deque
from operator import getitem
from typing import NamedTuple

from paritychain import (
    AutomatonError,
    ChainRepresentation,
    CoBuchiAutomaton,
    CoRun,
    LassoWord,
    ParityAutomaton,
    Partition,
    Transition,
    ValidationReport,
    dpa_lasso_run,
)
from paritychain.colors import _advance, _dominating_colors
from paritychain.core import _MAX_VIOLATIONS, _clip
from paritychain.formats import _MAX_LABEL_DEPTH, FormatError, _int
from paritychain.graphs import (
    _Product, _adjacency, _least_on_cycle, _positions, _preimages, _presplit, _reach, _scc_ids,
    _witness,
)


def letter_at(w: LassoWord, k: int) -> int:
    """Letter ``k`` of the infinite word ``w``."""
    if k < len(w.prefix):
        return w.prefix[k]
    return w.period[(k - len(w.prefix)) % len(w.period)]


def head(w: LassoWord, n: int) -> tuple[int, ...]:
    """The first ``n`` letters of the infinite word ``w``."""
    return tuple(letter_at(w, k) for k in range(n))


def suffix(w: LassoWord, p: int) -> LassoWord:
    """The lasso obtained by dropping the first ``p`` letters of ``w``."""
    if p <= len(w.prefix):
        return LassoWord(w.prefix[p:], w.period)
    k = (p - len(w.prefix)) % len(w.period)
    return LassoWord(w.period[k:], w.period)


def transient_elements(a) -> tuple[frozenset[Transition], frozenset[int]]:
    """Transitions and states that lie on no cycle of the full graph."""
    comp = _scc_ids(a.state_count, _adjacency(a))
    transient_ts = frozenset(t for t in a.transitions if comp[t.src] != comp[t.dst])
    on_cycle = {t.src for t in a.transitions if comp[t.src] == comp[t.dst]}
    return transient_ts, frozenset(range(a.state_count)) - on_cycle


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
    reference = head(w, probe)
    for period_len in range(1, len(w.period) + 1):
        for prefix_len in range(0, total + 1):
            candidate = LassoWord(
                reference[:prefix_len],
                reference[prefix_len:prefix_len + period_len],
            )
            if head(candidate, probe) == reference:
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


def direct_partition(a: ParityAutomaton) -> Partition:
    """Language-equivalence classes from the pre-split of ``a`` itself and
    one nested SCC refinement of the product on the pairs inside its
    blocks.  This is the library's partition without the bisimulation
    quotient that shrinks ``a`` first."""
    n, k = a.state_count, len(a.alphabet)
    blocks = _presplit(a, _preimages(a))
    product = _Product(a, a, [(q, r) for block in blocks for q in block for r in block])
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
    return Partition(tuple(map(tuple, classes)))


def moore_bisimulation(a: ParityAutomaton) -> set[frozenset[int]]:
    """Blocks of the coarsest bisimulation of a complete DPA by naive Moore
    rounds: states start grouped by their colors on every letter, and each
    round regroups them by their group and the groups of their successors,
    until the number of groups stops growing."""
    n, k = a.state_count, len(a.alphabet)
    rows = [[a.step(q, sym) for sym in range(k)] for q in range(n)]

    def numbered(keys):
        ids: dict = {}
        return [ids.setdefault(key, len(ids)) for key in keys]

    group = numbered(tuple(t.color for t in row) for row in rows)
    while True:
        finer = numbered((group[q], *(group[t.dst] for t in rows[q])) for q in range(n))
        if max(finer) == max(group):
            break
        group = finer
    blocks: dict[int, set[int]] = {}
    for q, g in enumerate(group):
        blocks.setdefault(g, set()).add(q)
    return {frozenset(block) for block in blocks.values()}


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
        run.append(a.step(run[-1], letter_at(w, k)).dst)
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
                    a, suffix(w, suffix_key), start=target
                ).dominating_color
            out.append(CoRun(p, target, cache[key]))
    return tuple(out)


def chain_color_oracle(c: ChainRepresentation, w: LassoWord) -> int:
    """The top level of ``c`` that accepts ``w``: the largest dominating
    color of a (state, word position) node reached from the initial node
    through the deterministic edges and every jump, found by listing every
    mate of every successor of every reached node.  It relies on no
    congruence of the partition; steps are read through ``a.step``."""
    a, equiv = c.source, c.partition
    letters, after = _positions(a, w)
    n = a.state_count  # node (q, p) is p * n + q

    def step(node):
        p, q = divmod(node, n)
        t = a.step(q, letters[p])
        return after[p] * n + t.dst, t.color

    def succ(node):
        p, q = divmod(step(node)[0], n)
        return [p * n + mate for mate in equiv.mates(q)]

    table = [-1] * (n * len(letters))
    return max(_least_on_cycle(step, table, node) for node in _reach([a.initial], succ))


def levels_oracle(c: ChainRepresentation) -> tuple[CoBuchiAutomaton, ...]:
    """Every level of ``c`` sorted and checked by the public constructor on
    its own: the rows of the source, accepting when of color >= i, and the
    jumps to the other mates of each target."""
    a, mates = c.source, c.partition.mates
    jumps = tuple(Transition(s, y, mate, 1)
                  for s, y, d, _ in a.transitions for mate in mates(d) if mate != d)
    copies = [(Transition(s, y, d, 1), Transition(s, y, d, 2)) for s, y, d, _ in a.transitions]
    colors = [t.color for t in a.transitions]
    return tuple(
        CoBuchiAutomaton(a.alphabet, a.state_count, a.initial,
                         tuple(map(getitem, copies, map(i.__le__, colors))) + jumps,
                         gfg_claimed=True)
        for i in range(a.max_color + 2)
    )


def table_corun_color(a: ParityAutomaton, equiv: Partition, w: LassoWord) -> int:
    """The natural color as the largest dominating color in the co-run
    table (``colors._dominating_colors``) at a mate of a run node from
    position 1 on."""
    step, color = _dominating_colors(a, equiv, w)
    n, node = a.state_count, step(a.initial)[0]
    nodes = set()  # the run's nodes
    while node not in nodes:
        nodes.add(node)
        node = step(node)[0]
    return max(color(node - node % n + mate) for node in nodes for mate in equiv.mates(node % n))


class ResolverState(NamedTuple):
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
    transitions', as ``resolve_run`` makes it: ``colors._advance`` on the
    rank groups of ``s.tracked``, with the positions read back from the
    groups.  The letter is checked as ``resolve_run`` checks a word, by
    ``graphs._positions``."""
    _positions(a, LassoWord((), (sym,)))
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
    groups, sources, current, color = _advance(a, groups, s.current, sym)
    new_tracked = sorted((q, positions[j]) for group, j in zip(groups, sources) for q in group)
    return ResolverState(s.position + 1, current, color, tuple(new_tracked))


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
        s = resolver_oracle_step(a, s, letter_at(w, s.position))
        emitted.append(s.last_color)


def eval_label_oracle(tokens, valuation: int, ap_count: int) -> bool:
    """Whether ``valuation`` satisfies the label formula ``tokens`` (the
    tokens between an edge's brackets), by recursive descent with the
    parser's depth limit and messages."""
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise FormatError("label formula ends unexpectedly")
        tok = tokens[pos]
        pos += 1
        return tok

    def peek_value():
        return tokens[pos].value if pos < len(tokens) else None

    def parse_or(depth):
        value = parse_and(depth)
        while peek_value() == "|":
            take()
            rhs = parse_and(depth)
            value = value or rhs
        return value

    def parse_and(depth):
        value = parse_atom(depth)
        while peek_value() == "&":
            take()
            rhs = parse_atom(depth)
            value = value and rhs
        return value

    def deeper(depth, tok):
        if depth >= _MAX_LABEL_DEPTH:
            raise FormatError(
                f"label nested deeper than {_MAX_LABEL_DEPTH} levels", tok.line, tok.column
            )
        return depth + 1

    def parse_atom(depth):
        tok = take()
        if tok.value == "!":
            return not parse_atom(deeper(depth, tok))
        if tok.value == "(":
            value = parse_or(deeper(depth, tok))
            closing = take()
            if closing.value != ")":
                raise FormatError("expected ')'", closing.line, closing.column)
            return value
        if tok.kind == "ident" and tok.value == "t":
            return True
        if tok.kind == "ident" and tok.value == "f":
            return False
        if tok.kind == "int":
            index = _int(tok)
            if index >= ap_count:
                raise FormatError(f"AP index {index} out of range", tok.line, tok.column)
            return bool(valuation >> index & 1)
        raise FormatError(f"unsupported label element {_clip(tok.value)!r}", tok.line, tok.column)

    result = parse_or(0)
    if pos != len(tokens):
        tok = tokens[pos]
        raise FormatError(f"trailing {_clip(tok.value)!r} in label", tok.line, tok.column)
    return result


def _row_dict(a) -> dict[tuple[int, int], tuple[Transition, ...]]:
    """The transitions of ``a`` by (src, sym)."""
    rows: dict[tuple[int, int], list[Transition]] = {}
    for t in a.transitions:
        rows.setdefault((t.src, t.sym), []).append(t)
    return {key: tuple(ts) for key, ts in rows.items()}


def row_scan_bad_rows(a) -> list[tuple[int, int, int]]:
    """(src, sym, count) for every row that does not hold one transition."""
    rows = _row_dict(a)
    return [(q, sym, len(rows.get((q, sym), ())))
            for q in range(a.state_count) for sym in range(len(a.alphabet))
            if len(rows.get((q, sym), ())) != 1]


def row_scan_successors(a, src: int, sym: int) -> tuple[Transition, ...]:
    return _row_dict(a).get((src, sym), ())


def row_scan_step(a: ParityAutomaton, src: int, sym: int) -> Transition:
    """The unique transition of a row, or the ``step`` error of a bad one."""
    ts = _row_dict(a).get((src, sym), ())
    if len(ts) != 1:
        letter = _clip(a.alphabet.letters[sym])
        kind = "no transition" if not ts else f"{len(ts)} transitions"
        raise AutomatonError(f"state {src} on letter {letter!r}: {kind}")
    return ts[0]


def row_scan_flat(a: ParityAutomaton) -> tuple[list[int], list[int]]:
    """Targets and colors of every row in (state, letter) order; the first
    bad row raises its ``step`` error."""
    steps = [row_scan_step(a, q, sym)
             for q in range(a.state_count) for sym in range(len(a.alphabet))]
    return [t.dst for t in steps], [t.color for t in steps]


def row_scan_validate(a: ParityAutomaton) -> ValidationReport:
    rows = _row_dict(a)
    violations = []
    more = 0
    for src in range(a.state_count):
        for sym in range(len(a.alphabet)):
            ts = rows.get((src, sym), ())
            if len(ts) == 1:
                continue
            if len(violations) == _MAX_VIOLATIONS:
                more += 1
                continue
            letter = _clip(a.alphabet.letters[sym])
            if not ts:
                violations.append(f"(state {src}, letter {letter!r}) has no transition")
            else:
                violations.append(f"(state {src}, letter {letter!r}) has {len(ts)} transitions")
    if more:
        violations.append(f"... and {more} more")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def row_scan_complete(a: ParityAutomaton) -> ParityAutomaton:
    rows = _row_dict(a)
    for (src, sym), ts in rows.items():
        if len(ts) > 1:
            raise AutomatonError(
                f"not deterministic: (state {src}, letter "
                f"{_clip(a.alphabet.letters[sym])!r}) has {len(ts)} transitions"
            )
    missing = [
        (src, sym)
        for src in range(a.state_count)
        for sym in range(len(a.alphabet))
        if (src, sym) not in rows
    ]
    if not missing:
        return a
    sink = a.state_count
    extra = [Transition(src, sym, sink, 1) for src, sym in missing]
    extra += [Transition(sink, sym, sink, 1) for sym in range(len(a.alphabet))]
    return ParityAutomaton(a.alphabet, a.state_count + 1, a.initial, a.transitions + tuple(extra))
