import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    JUMPY_SEEDS, WORD_AA, WORD_CA, WORD_CABB, blowup, jumpy, random_lasso, raw_lasso,
    staircase,
)
from oracles import (
    all_pairs_partition,
    direct_partition,
    full_product_equiv,
    gca_member_oracle,
    letter_at,
    moore_bisimulation,
    pairwise_product,
    reference_equiv,
    reference_partition,
    states_distinguishable,
    transient_elements,
    unpruned_bad_sccs,
)
from paritychain import (
    Alphabet,
    AutomatonError,
    CoBuchiAutomaton,
    LassoWord,
    ParityAutomaton,
    Transition,
    dpa_language_equiv,
    dpa_lasso_run,
    extract_chain,
    gca_lasso_member,
    normalize_lasso,
    random_dpa,
    reachable_states,
    scc_decompose,
    state_equivalence,
    streamline,
    structure_dpa,
    structure_dpa_with_map,
)
from paritychain import graphs
from paritychain.graphs import _Product

T = Transition


def two_state_chain():
    # 0 -a-> 1 and 1 loops; only state 0 and its outgoing edge are transient
    return ParityAutomaton(
        Alphabet(("a",)), 2, 0, (T(0, 0, 1, 3), T(1, 0, 1, 0))
    )


class TestReachability:
    def test_flower_reaches_everything(self, flower):
        assert reachable_states(flower, 0) == {0, 1, 2, 3}

    def test_self_loop_only(self):
        a = ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 0),))
        assert reachable_states(a, 0) == {0}

    def test_no_edges_into_second_state(self):
        a = ParityAutomaton(
            Alphabet(("a",)), 2, 0, (T(0, 0, 0, 0), T(1, 0, 1, 0))
        )
        assert reachable_states(a, 0) == {0}

    def test_origin_out_of_range(self, flower):
        with pytest.raises(AutomatonError):
            reachable_states(flower, 9)


class TestSccDecompose:
    def test_flower_is_one_scc(self, flower):
        scc = scc_decompose(flower)
        assert scc.sccs == ((0, 1, 2, 3),)

    def test_rank_respects_reachability(self):
        scc = scc_decompose(two_state_chain())
        assert scc.sccs == ((0,), (1,))
        assert scc.scc_of[0] < scc.scc_of[1]

    def test_single_self_loop_nontrivial(self):
        a = ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 0),))
        assert scc_decompose(a).sccs == ((0,),)
        assert transient_elements(a) == (frozenset(), frozenset())

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_pairwise_reachability(self, seed):
        rng = random.Random(seed)
        a = random_dpa(rng.randrange(1, 9), 2, rng.randrange(1, 4), seed=seed)
        scc = scc_decompose(a)
        reach = {q: reachable_states(a, q) for q in range(a.state_count)}
        for q in reach:
            for r in reach:
                mutually = r in reach[q] and q in reach[r]
                assert (scc.scc_of[q] == scc.scc_of[r]) == mutually


class TestTransientElements:
    def test_chain_edge_and_state(self):
        ts, states = transient_elements(two_state_chain())
        assert ts == {T(0, 0, 1, 3)}
        assert states == {0}

    def test_flower_has_none(self, flower):
        assert transient_elements(flower) == (frozenset(), frozenset())


class TestDpaLassoRun:
    @pytest.mark.parametrize(
        "word, color, accepted",
        [(WORD_CA, 5, False), (WORD_CABB, 4, True), (WORD_AA, 1, False)],
    )
    def test_flower_verdicts(self, flower, word, color, accepted):
        run = dpa_lasso_run(flower, word)
        assert run.dominating_color == color
        assert run.accepted is accepted
        assert min(
            flower.step(q, letter_at(word, len(run.stem_states) + i)).color
            for i, q in enumerate(run.cycle_states)
        ) == color

    def test_invariant_under_normalization(self, flower):
        rng = random.Random(3)
        for _ in range(40):
            raw = LassoWord(
                tuple(rng.randrange(3) for _ in range(rng.randrange(0, 5))),
                tuple(rng.randrange(3) for _ in range(rng.randrange(1, 5))) * 2,
            )
            a = dpa_lasso_run(flower, raw)
            b = dpa_lasso_run(flower, normalize_lasso(raw))
            assert (a.dominating_color, a.accepted) == (b.dominating_color, b.accepted)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_node_walk_oracle(self, seed):
        # raw lassos, neither prefix nor period shortened, on random DPAs
        # and mod-4 blow-ups: the run is marked at period starts only and
        # steps back to the first node of its cycle, which often lies
        # inside the period
        rng = random.Random(70 + seed)
        inside = 0
        for a in (random_dpa(rng.randrange(1, 40), 4, rng.randrange(1, 4), seed),
                  blowup(random_dpa(8, 3, 2, seed), 4, rng)):
            for _ in range(30):
                w = raw_lasso(rng, len(a.alphabet))
                run = dpa_lasso_run(a, w)
                assert run == oracles.lasso_run_oracle(a, w)
                inside += (len(run.stem_states) - len(w.prefix)) % len(w.period) != 0
        assert inside >= 15

    def test_start_override(self, flower):
        # the run from state 1, through the flower re-rooted there
        rooted = ParityAutomaton(flower.alphabet, flower.state_count, 1, flower.transitions)
        assert dpa_lasso_run(rooted, WORD_CA).accepted

    def test_partial_dpa_raises_its_first_bad_row(self):
        # the run loops in state 0 and never reads the missing row of state
        # 1 on b; the rows are read as ``flat`` reads them, all at once
        a = ParityAutomaton(Alphabet(("a", "b")), 2, 0,
                            (T(0, 0, 0, 0), T(0, 1, 0, 0), T(1, 0, 0, 1)))
        with pytest.raises(AutomatonError) as first:
            a.step(1, 1)
        with pytest.raises(AutomatonError) as raised:
            dpa_lasso_run(a, LassoWord((1,), (0,)))
        assert str(raised.value) == str(first.value)


class TestGcaLassoMember:
    def test_level_zero_universal(self, flower):
        s = streamline(flower)
        chain = extract_chain(s, state_equivalence(s))
        rng = random.Random(11)
        for _ in range(25):
            assert gca_lasso_member(chain.levels[0], random_lasso(rng, 3))

    def test_all_rejecting_accepts_nothing(self):
        a = CoBuchiAutomaton(
            Alphabet(("a", "b")), 1, 0, (T(0, 0, 0, 1), T(0, 1, 0, 1))
        )
        rng = random.Random(12)
        for _ in range(20):
            assert not gca_lasso_member(a, random_lasso(rng, 2))

    def test_flower_levels_five_and_six_on_ca(self, flower):
        s = streamline(flower)
        chain = extract_chain(s, state_equivalence(s))
        assert gca_lasso_member(chain.levels[5], WORD_CA)
        assert not gca_lasso_member(chain.levels[6], WORD_CA)
        assert gca_member_oracle(chain.levels[5], WORD_CA)
        assert not gca_member_oracle(chain.levels[6], WORD_CA)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_cycle_probing_oracle(self, seed):
        rng = random.Random(seed)
        a = random_dpa(rng.randrange(1, 6), rng.randrange(1, 5), rng.randrange(1, 4), seed)
        s = streamline(structure_dpa(a))
        chain = extract_chain(s, state_equivalence(s))
        for level in chain.levels:
            for _ in range(10):
                w = random_lasso(rng, len(a.alphabet), max_len=4)
                assert gca_lasso_member(level, w) == gca_member_oracle(level, w)

    def test_runs_that_die_in_a_long_prefix(self):
        # state 1 has no row on b, and b leads every state to 1, so every run
        # dies on the second b of bb; a prefix of 50,000 letters is stepped
        # as the set of states its runs reach, without marks
        a = CoBuchiAutomaton(Alphabet(("a", "b")), 2, 0,
                             (T(0, 0, 0, 2), T(0, 0, 1, 1), T(0, 1, 1, 1), T(1, 0, 0, 2)))
        for tail, accepted in (((1, 1), False), ((0, 1), True)):
            long, twin = LassoWord((0, 1) * 24_999 + tail, (0,)), LassoWord(tail, (0,))
            gca_lasso_member(a, long)  # memoize the rows
            tracemalloc.start()
            try:
                member = gca_lasso_member(a, long)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000
            assert member == gca_member_oracle(a, twin) == accepted

    def test_chain_level_reads_each_class_once_per_letter(self):
        # on a chain level the successors on a letter are a whole class, one
        # object per distinct row, so a prefix letter costs O(|Q|), not
        # |states|·|class|: on one class of 160 states a 4000-letter prefix
        # took seconds when every reached state's row was read
        s = streamline(structure_dpa(blowup(jumpy(83), 40, random.Random(83))))
        level = extract_chain(s, state_equivalence(s)).levels[1]
        succ = level.flat[1]
        assert len({id(t) for t in succ}) == len(set(succ)) == 1
        rng, k = random.Random(83), len(s.alphabet)
        answers, times = [], []
        for _ in range(8):
            period = random_lasso(rng, k, max_len=4).period
            prefix = tuple(rng.randrange(k) for _ in range(4000))
            start = time.perf_counter()
            answers.append(gca_lasso_member(level, LassoWord(prefix, period)))
            times.append(time.perf_counter() - start)
            # one class: every state is reached after the first letter
            assert answers[-1] == gca_member_oracle(level, LassoWord(prefix[:1], period))
        assert set(answers) == {True, False}
        assert min(times) < 1.0

    def test_long_period_costs_no_table(self):
        # the one class of 160 states above, with the period (1, 2) repeated
        # 1000 times: a mark per (state, period position) node took 7.9 s
        # and peaked at 40 MB traced on level 0 (Python 3.11); a period
        # start is marked per state.  The same prefix with period (1, 2) is
        # the same infinite word, small enough for the oracle
        s = streamline(structure_dpa(blowup(jumpy(83), 40, random.Random(83))))
        levels = extract_chain(s, state_equivalence(s)).levels
        twin = LassoWord((2, 0, 1), (1, 2))
        long = LassoWord(twin.prefix, twin.period * 1000)
        answers = []
        for level in levels:
            answers.append(gca_member_oracle(level, twin))
            gca_lasso_member(level, twin)  # memoize the rows
            start = time.perf_counter()
            assert gca_lasso_member(level, long) == answers[-1]
            took = time.perf_counter() - start
            tracemalloc.start()
            try:
                gca_lasso_member(level, long)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert took < 0.5 and peak < 1_000_000, (took, peak)
        assert set(answers) == {True, False}

    @pytest.mark.parametrize("seed", range(8))
    def test_partial_ncw_matches_cycle_probing_oracle(self, seed):
        # rows without a transition, rows with rejecting edges only, and a
        # last state without any transition: dead ends of the accepting edges
        rng = random.Random(seed)
        n, k = rng.randrange(2, 7), rng.randrange(1, 4)
        ts = []
        for q in range(n - 1):
            for sym in range(k):
                targets = rng.sample(range(n), rng.randrange(3))
                accepting = rng.random() < 0.6  # the first target, if any
                ts += [T(q, sym, d, 2 if accepting and i == 0 else 1)
                       for i, d in enumerate(targets)]
        a = CoBuchiAutomaton(Alphabet(("a", "b", "c")[:k]), n, 0, tuple(ts))
        for _ in range(30):
            w = random_lasso(rng, k, max_len=4)
            assert gca_lasso_member(a, w) == gca_member_oracle(a, w)


class TestStateEquivalence:
    def test_duplicated_state_joins_its_original(self, flower):
        copy_row = tuple(
            T(4, t.sym, t.dst, t.color) for t in flower.transitions if t.src == 1
        )
        doubled = ParityAutomaton(
            flower.alphabet, 5, 0, flower.transitions + copy_row
        )
        partition = state_equivalence(doubled)
        assert partition.mates(4) == (1, 4)

    def test_single_state(self):
        a = ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 0),))
        assert state_equivalence(a).classes == ((0,),)

    def test_flower_all_singletons_and_oracle(self, flower):
        partition = state_equivalence(flower)
        assert partition.classes == ((0,), (1,), (2,), (3,))
        for q, r in itertools.combinations(range(4), 2):
            assert states_distinguishable(flower, q, r)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_walk_oracle(self, seed):
        rng = random.Random(100 + seed)
        a = random_dpa(rng.randrange(1, 6), rng.randrange(1, 5), rng.randrange(1, 5), seed)
        partition = state_equivalence(a)
        for q in range(a.state_count):
            for r in range(q + 1, a.state_count):
                same = partition.class_of[q] == partition.class_of[r]
                assert same == (not states_distinguishable(a, q, r)), (q, r)


class TestLanguageEquivalence:
    def test_reflexive(self, flower):
        assert dpa_language_equiv(flower, flower) == (True, None)

    def test_uniform_color_shift_is_equivalent(self, flower):
        shifted = ParityAutomaton(
            flower.alphabet,
            flower.state_count,
            flower.initial,
            tuple(T(t.src, t.sym, t.dst, t.color + 2) for t in flower.transitions),
        )
        assert dpa_language_equiv(flower, shifted)[0]

    def test_parity_flip_yields_validating_witness(self, flower):
        flipped = ParityAutomaton(
            flower.alphabet,
            flower.state_count,
            flower.initial,
            tuple(
                T(t.src, t.sym, t.dst, 2 if (t.src, t.sym) == (1, 0) else t.color)
                for t in flower.transitions
            ),
        )
        equal, witness = dpa_language_equiv(flower, flipped)
        assert not equal
        assert dpa_lasso_run(flower, witness).accepted != dpa_lasso_run(flipped, witness).accepted

    def test_alphabet_mismatch(self, flower):
        other = ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 0),))
        with pytest.raises(AutomatonError, match="^automata must share one alphabet$"):
            dpa_language_equiv(flower, other)

    @pytest.mark.parametrize("partial_first", [True, False])
    def test_unreachable_missing_row_rejected(self, partial_first):
        # state 1 has no transition and is not reachable from state 0
        partial = ParityAutomaton(Alphabet(("a",)), 2, 0, (T(0, 0, 0, 0),))
        complete = ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 0),))
        pair = (partial, complete) if partial_first else (complete, partial)
        with pytest.raises(AutomatonError, match=r"^\(state 1, letter 'a'\) has no transition$"):
            dpa_language_equiv(*pair)

    @pytest.mark.parametrize("seed", range(15))
    def test_witnesses_self_validate(self, seed):
        rng = random.Random(200 + seed)
        letters = rng.randrange(1, 5)
        a = random_dpa(rng.randrange(1, 7), rng.randrange(1, 6), letters, seed)
        b = random_dpa(rng.randrange(1, 7), rng.randrange(1, 6), letters, 1000 + seed)
        equal, witness = dpa_language_equiv(a, b)
        if equal:
            for _ in range(200):
                w = random_lasso(rng, letters)
                assert dpa_lasso_run(a, w).accepted == dpa_lasso_run(b, w).accepted
        else:
            assert dpa_lasso_run(a, witness).accepted != dpa_lasso_run(b, witness).accepted


def _color_flip(a: ParityAutomaton, rng: random.Random) -> ParityAutomaton:
    least = min(t.color for t in a.transitions)
    pick = rng.choice([t for t in a.transitions if t.color == least])
    ts = tuple(T(t.src, t.sym, t.dst, t.color + (t == pick)) for t in a.transitions)
    return ParityAutomaton(a.alphabet, a.state_count, a.initial, ts)


def _medium_dpa(seed: int) -> ParityAutomaton:
    rng = random.Random(900 + seed)
    colors, letters = rng.randrange(2, 6), rng.randrange(1, 4)
    kind = seed % 3
    if kind == 0:  # one letter would prune to a short lasso
        return random_dpa(rng.randrange(24, 81), colors, max(letters, 2), seed)
    base = random_dpa(rng.randrange(6, 21), colors, letters, seed)
    copies = max(rng.randrange(2, 5), -(-20 // base.state_count))  # 20-80 states
    return (staircase if kind == 1 else blowup)(base, copies, rng)


class TestMediumDifferential:
    """Random, staircase and blow-up DPAs of 20-125 states against the
    per-color-pair reference, where the walk oracles are too slow."""

    @pytest.mark.parametrize("seed", range(40))
    def test_partition_verdicts_and_witnesses(self, seed):
        a = _medium_dpa(seed)
        assert 20 <= a.state_count <= 80
        assert state_equivalence(a) == reference_partition(a)
        flipped = _color_flip(a, random.Random(seed))
        for x, y in ((a, flipped), (flipped, a), (a, streamline(structure_dpa(a)))):
            equal, witness = dpa_language_equiv(x, y)
            assert equal == reference_equiv(x, y)
            if not equal:
                assert dpa_lasso_run(x, witness).accepted != dpa_lasso_run(y, witness).accepted

    @pytest.mark.parametrize("kind", ["staircase", "blowup"])
    def test_partition_of_large_automata(self, kind):
        # after the first refinement rounds only a few dozen of the 10^4
        # product nodes keep live edges
        rng = random.Random(kind)
        base = random_dpa(25, 5, 2, 31)
        a = (staircase if kind == "staircase" else blowup)(base, 5, rng)
        assert a.state_count >= 100
        assert state_equivalence(a) == reference_partition(a)


def _fresh(a: ParityAutomaton) -> ParityAutomaton:
    """A value-equal copy that carries nothing memoized."""
    return ParityAutomaton(a.alphabet, a.state_count, a.initial, a.transitions)


class TestCarriedPartition:
    """Structuring and streamlining keep every surviving state's language,
    so they hand the input's partition forward instead of recomputing it.
    Inputs include unreachable states (initial state moved) and staircases,
    whose redirects strand earlier copies, so drops happen before and
    after the partition is first computed."""

    @staticmethod
    def _input(seed: int) -> ParityAutomaton:
        a = _medium_dpa(seed)
        return _moved_initial(a, random.Random(seed)) if seed % 2 else a

    @pytest.mark.parametrize("seed", range(24))
    def test_carried_partition_is_the_partition(self, seed, monkeypatch):
        a = self._input(seed)
        kernel = graphs._partition
        computed = []
        monkeypatch.setattr(graphs, "_partition", lambda x: computed.append(x) or kernel(x))
        structured, _ = structure_dpa_with_map(a)
        streamlined = streamline(structured)
        carried = [state_equivalence(structured), state_equivalence(streamlined)]
        extract_chain(streamlined, carried[1])
        assert len(computed) == 1
        monkeypatch.undo()
        assert carried[0] == carried[1] == reference_partition(_fresh(structured))
        assert carried[1] == state_equivalence(_fresh(streamlined))

    def test_battery_drops_states_before_and_after_the_partition(self):
        # a state dropped after the first drop was stranded by a redirect,
        # so its removal restricts the carried partition
        early = late = 0
        for seed in range(24):
            a = self._input(seed)
            first = len(reachable_states(a, a.initial))
            early += first < a.state_count
            late += structure_dpa_with_map(a)[0].state_count < first
        assert early >= 8 and late >= 8


def _line(n: int) -> ParityAutomaton:
    # state q loops on a with color q mod 6 and moves on b to q + 1 (the
    # last state stays) with color 7q mod 6; all states are inequivalent
    ts = [T(q, 0, q, q % 6) for q in range(n)]
    ts += [T(q, 1, min(q + 1, n - 1), 7 * q % 6) for q in range(n)]
    return ParityAutomaton(Alphabet(("a", "b")), n, 0, tuple(ts))


def _moved_initial(a: ParityAutomaton, rng: random.Random) -> ParityAutomaton:
    return ParityAutomaton(a.alphabet, a.state_count, rng.randrange(a.state_count), a.transitions)


def _equiv_pair(seed: int) -> tuple[ParityAutomaton, ParityAutomaton]:
    rng = random.Random(1700 + seed)
    letters = rng.randrange(1, 4)
    a = _moved_initial(random_dpa(rng.randrange(2, 25), rng.randrange(1, 6), letters, seed), rng)
    kind = seed % 3
    if kind == 0:  # unrelated, usually of another size
        b = random_dpa(rng.randrange(2, 25), rng.randrange(1, 6), letters, 5000 + seed)
        return a, _moved_initial(b, rng)
    if kind == 1:
        return a, _color_flip(a, rng)
    b = blowup(a, rng.randrange(2, 4), rng)
    return a, (_color_flip(b, rng) if rng.randrange(2) else b)


class TestReachableProduct:
    """``dpa_language_equiv`` builds only the pairs reachable from the
    initial pair; verdicts and witnesses must be those of all pairs."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_full_product(self, seed):
        a, b = _equiv_pair(seed)
        for x, y in ((a, b), (b, a)):
            result = dpa_language_equiv(x, y)
            assert result[0] == reference_equiv(x, y)
            assert result == full_product_equiv(x, y)

    def test_line_product_holds_reachable_pairs_only(self):
        a = _line(300)
        # the loop on a at state 0 turns odd; both runs move in lockstep
        ts = tuple(T(t.src, t.sym, t.dst, t.color + (t == T(0, 0, 0, 0))) for t in a.transitions)
        flipped = ParityAutomaton(a.alphabet, 300, 0, ts)
        assert _Product(a, flipped, [(a.initial, flipped.initial)]).size == 300
        assert dpa_language_equiv(a, flipped) == (False, LassoWord((), (0,)))


def _check_columns(x: ParityAutomaton, y: ParityAutomaton, roots) -> _Product:
    """``_Product(x, y, roots)``, after checking each of its fields against
    the pair-by-pair construction."""
    product = _Product(x, y, roots)
    node_of, dst, ca, cb = pairwise_product(x, y, roots)
    assert list(product.node_of.items()) == list(node_of.items())
    assert (product.dst, product.ca, product.cb) == (dst, ca, cb)
    assert (product.k, product.size) == (len(x.alphabet), len(node_of))
    return product


class TestColumnProduct:
    """``_Product`` finds its pairs and fills its edge lists one letter
    column at a time; every field must be that of ``pairwise_product``,
    which builds one successor list per pair."""

    @pytest.mark.parametrize("seed", range(24))
    def test_rooted_at_the_initial_pair_and_at_every_pair(self, seed):
        # random, flipped and blown-up partners (``_equiv_pair``), and a
        # staircase of each first automaton
        x, y = _equiv_pair(seed)
        z = staircase(x, 3, random.Random(seed))
        for p, q in ((x, y), (y, x), (x, z), (z, x)):
            every = [(i, j) for i in range(p.state_count) for j in range(q.state_count)]
            _check_columns(p, q, [(p.initial, q.initial)])
            _check_columns(p, q, every)

    @pytest.mark.parametrize("seed", range(12))
    def test_in_block_roots(self, seed):
        # the roots ``_in_block_classes`` gives the product
        sizes = []
        for a in (_battery_dpa(seed), _refinement_dpa(seed), jumpy(JUMPY_SEEDS[seed % len(JUMPY_SEEDS)])):
            roots = [(q, r) for block in _presplit(a) if len(block) > 1
                     for q in block for r in block]
            sizes.append(_check_columns(a, a, roots).size)
        assert any(sizes)

    def test_duplicate_and_empty_roots(self):
        a = random_dpa(12, 4, 2, 5)
        b = _color_flip(a, random.Random(5))
        once = _check_columns(a, b, [(3, 4), (0, 0)])
        twice = _check_columns(a, b, [(3, 4), (0, 0), (3, 4), (0, 0), (0, 0)])
        assert (twice.node_of, twice.dst) == (once.node_of, once.dst)
        empty = _check_columns(a, b, [])
        assert (empty.size, empty.node_of, empty.dst, empty.ca, empty.cb) == (0, {}, [], [], [])

    def test_line_against_its_flip(self):
        a = _line(300)
        flipped = _color_flip(a, random.Random(300))
        assert _check_columns(a, flipped, [(a.initial, flipped.initial)]).size == 300
        assert _check_columns(flipped, a, [(0, 0), (299, 0), (150, 151)]).size > 300

    @pytest.mark.parametrize("letters", [1, 4])
    def test_one_and_four_letters(self, letters):
        for seed in range(6):
            rng = random.Random(seed)
            a = _moved_initial(random_dpa(rng.randrange(2, 20), 4, letters, seed), rng)
            for b in (_color_flip(a, rng), blowup(a, 2, rng),
                      random_dpa(rng.randrange(2, 20), 4, letters, 100 + seed)):
                _check_columns(a, b, [(a.initial, b.initial)])
                _check_columns(b, a, [(q, r) for q in range(b.state_count)
                                      for r in range(a.state_count)])

    def test_coprime_cycles_cost(self):
        # one-letter cycles of 300 and 301 states reach all 90 300 pairs.
        # Building them by columns takes about 0.2 s and peaks at about
        # 15 MB; keeping the visited set through the fill, or a quotient
        # list per letter, each peaks over 16 MB
        a, b = _cycle(300), _cycle(301)
        a.flat, b.flat  # memoize the rows
        times = []
        for _ in range(3):
            start = time.perf_counter()
            _Product(a, b, [(0, 0)])
            times.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            product = _Product(a, b, [(0, 0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert product.size == 300 * 301
        assert peak <= 16_000_000
        assert min(times) < 0.5


def _count_paths(monkeypatch) -> list[int]:
    """Count the calls of ``_Product.path``: stem searches and the three
    legs of each witness cycle."""
    calls = [0]
    path = _Product.path

    def counted(self, *args):
        calls[0] += 1
        return path(self, *args)

    monkeypatch.setattr(_Product, "path", counted)
    return calls


class TestStemSearch:
    """``dpa_language_equiv`` searches a stem only in an orientation that has
    a bad SCC; with none, no stem can exist."""

    @pytest.mark.parametrize("seed", range(3))
    def test_canonical_form_searches_no_stem(self, seed, monkeypatch):
        # equal languages, different colors: both orientations refine to the
        # end and find no bad SCC
        a = random_dpa(30, 5, 2, seed)
        b = streamline(structure_dpa(a))
        product = _Product(a, b, [(a.initial, b.initial)])
        assert product.ca != product.cb
        calls = _count_paths(monkeypatch)
        assert dpa_language_equiv(a, b) == (True, None)
        assert calls[0] == 0

    def test_flip_keeps_its_witness(self, monkeypatch):
        # one stem search and three cycle legs in the orientation with a bad
        # SCC, and no search in the other
        a = random_dpa(20, 5, 2, 36)
        b = _color_flip(a, random.Random(36))
        witness = LassoWord((0, 0), (0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1))
        calls = _count_paths(monkeypatch)
        for x, y in ((a, b), (b, a)):
            calls[0] = 0
            assert dpa_language_equiv(x, y) == (False, witness)
            assert calls[0] == 4
            assert full_product_equiv(x, y) == (False, witness)


def _renumbered(a: ParityAutomaton, rng: random.Random) -> ParityAutomaton:
    """``a`` with its states permuted at random."""
    perm = list(range(a.state_count))
    rng.shuffle(perm)
    ts = tuple(T(perm[t.src], t.sym, perm[t.dst], t.color) for t in a.transitions)
    return ParityAutomaton(a.alphabet, a.state_count, perm[a.initial], ts)


def _in_block_product(a: ParityAutomaton) -> _Product:
    """The product on the pairs inside the pre-split blocks of ``a`` itself,
    which ``direct_partition`` refines."""
    return _Product(a, a, [(q, r) for block in _presplit(a) for q in block for r in block])


def _pair_products(x: ParityAutomaton, y: ParityAutomaton) -> list[_Product]:
    """The x x y products rooted at the initial pair and at every pair."""
    every = [(q, r) for q in range(x.state_count) for r in range(y.state_count)]
    return [_Product(x, y, [(x.initial, y.initial)]), _Product(x, y, every)]


def _count_tarjan_runs(monkeypatch) -> list[int]:
    """Count the Tarjan runs of the library and of ``unpruned_bad_sccs``:
    one per refinement round."""
    runs = [0]
    tarjan = graphs._scc_ids

    def counted(*args):
        runs[0] += 1
        return tarjan(*args)

    monkeypatch.setattr(graphs, "_scc_ids", counted)
    monkeypatch.setattr(oracles, "_scc_ids", counted)
    return runs


def _recolored(a: ParityAutomaton, colors: list[int]) -> ParityAutomaton:
    """``a`` with each color c replaced by ``colors[c]``."""
    ts = tuple(T(t.src, t.sym, t.dst, colors[t.color]) for t in a.transitions)
    return ParityAutomaton(a.alphabet, a.state_count, a.initial, ts)


class TestEqualColoredPruning:
    """``bad_sccs`` drops an SCC whose internal live edges all carry equal
    colors on both sides, and ``dpa_language_equiv`` answers an all
    equal-colored product with no refinement.  The colors must be equal,
    not only of equal parity or with equal minima, and the pruned result
    must be the unpruned one, in the same order."""

    # one letter: a reads colors 1, 2, 1, 2, ... and b reads 3, 2, 3, 2, ...;
    # every edge has equal parities on both sides, but a's minimum is 1
    # (odd) and b's is 2 (even)
    GADGET_A = ParityAutomaton(Alphabet(("a",)), 2, 0, (T(0, 0, 1, 1), T(1, 0, 0, 2)))
    GADGET_B = ParityAutomaton(Alphabet(("a",)), 2, 0, (T(0, 0, 1, 3), T(1, 0, 0, 2)))

    def test_equal_parities_are_not_equal_colors(self):
        for x, y in ((self.GADGET_A, self.GADGET_B), (self.GADGET_B, self.GADGET_A)):
            equal, witness = dpa_language_equiv(x, y)
            assert (equal, witness.prefix, witness.period) == (False, (), (0,))
            assert not reference_equiv(x, y)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 7), st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**16),
           st.lists(st.integers(0, 6), min_size=6, max_size=6))
    def test_recolored_copy_matches_reference(self, states, colors, letters, seed, colormap):
        a = random_dpa(states, colors, letters, seed)
        b = _recolored(a, colormap)
        for x, y in ((a, b), (b, a)):
            result = dpa_language_equiv(x, y)
            assert result[0] == reference_equiv(x, y)
            assert result == full_product_equiv(x, y)

    @pytest.mark.parametrize("seed", range(12))
    def test_copies_are_equivalent(self, seed):
        rng = random.Random(3100 + seed)
        a = _moved_initial(random_dpa(rng.randrange(2, 30), rng.randrange(1, 6),
                                      rng.randrange(1, 4), seed), rng)
        copies = (a, blowup(a, 2, rng), blowup(a, 3, rng), staircase(a, 3, rng),
                  _renumbered(a, rng))
        for b in copies:
            assert dpa_language_equiv(a, b) == dpa_language_equiv(b, a) == (True, None)
            assert reference_equiv(a, b)

    @pytest.mark.parametrize("seed", range(30))
    def test_pruned_equals_unpruned(self, seed):
        # pair products rooted at the initial pair and at all pairs, both
        # orientations, and in-block products of a x a
        x, y = _equiv_pair(seed)
        products = _pair_products(x, y) + _pair_products(y, x)
        a = _medium_dpa(seed % 40)
        products += _pair_products(a, _color_flip(a, random.Random(seed)))
        products.append(_in_block_product(a))
        j = jumpy(JUMPY_SEEDS[seed % len(JUMPY_SEEDS)])
        products += _pair_products(j, streamline(structure_dpa(_color_flip(j, random.Random(seed)))))
        products.append(_in_block_product(j))
        products.append(_in_block_product(blowup(x, 3, random.Random(seed))))
        if seed < 3:
            line = _line(40 + 40 * seed)
            products += _pair_products(line, _color_flip(line, random.Random(seed)))
            products.append(_in_block_product(line))
        for product in products:
            for c1, c2 in ((product.ca, product.cb), (product.cb, product.ca)):
                assert product.bad_sccs(c1, c2) == unpruned_bad_sccs(product, c1, c2)

    def test_battery_prunes_and_finds_bad_sccs(self, monkeypatch):
        # the pruned and unpruned lists above are compared where both prune
        # SCCs and report bad ones
        runs = _count_tarjan_runs(monkeypatch)
        pruned = unpruned = bad = 0
        for seed in range(30):
            x, y = _equiv_pair(seed)
            product = _Product(x, y, [(x.initial, y.initial)])
            runs[0] = 0
            bad += len(product.bad_sccs(product.ca, product.cb))
            pruned += runs[0]
            runs[0] = 0
            unpruned_bad_sccs(product, product.ca, product.cb)
            unpruned += runs[0]
        assert bad >= 10 and pruned < unpruned

    @pytest.mark.parametrize("seed", range(6))
    def test_equal_colored_products_run_no_tarjan(self, seed, monkeypatch):
        rng = random.Random(3200 + seed)
        a = random_dpa(rng.randrange(10, 40), rng.randrange(2, 6), rng.randrange(1, 4), seed)
        copies = (blowup(a, 3, rng), staircase(a, 3, rng))
        flipped = _color_flip(a, rng)
        runs = _count_tarjan_runs(monkeypatch)
        for b in copies:
            assert dpa_language_equiv(a, b) == (True, None)
        assert runs[0] == 0
        dpa_language_equiv(a, flipped)
        assert runs[0] >= 1

    def test_in_block_product_of_a_blowup_runs_fewer_rounds(self, monkeypatch):
        # the pairs of copies of one base state are equal-colored
        a = blowup(random_dpa(20, 5, 2, 7), 3, random.Random(7))
        product = _in_block_product(a)
        runs = _count_tarjan_runs(monkeypatch)
        assert product.bad_sccs(product.ca, product.cb) == []
        pruned, runs[0] = runs[0], 0
        assert unpruned_bad_sccs(product, product.ca, product.cb) == []
        assert 1 <= pruned < runs[0]


class TestSharedFirstRound:
    """Both orientations of ``bad_sccs`` on one product start from its first
    round, found by one Tarjan run: the SCCs of all edges, whatever the
    colors."""

    @pytest.mark.parametrize("seed", range(6))
    def test_one_tarjan_run_fewer_than_two_products(self, seed, monkeypatch):
        # equal languages, different colors: both orientations refine to the end
        a = random_dpa(30, 5, 2, seed)
        b = streamline(structure_dpa(a))
        runs = _count_tarjan_runs(monkeypatch)
        fresh = []
        for swap in (False, True):
            product = _Product(a, b, [(a.initial, b.initial)])
            fresh.append(product.bad_sccs(*((product.cb, product.ca) if swap
                                            else (product.ca, product.cb))))
        separate, runs[0] = runs[0], 0
        shared = _Product(a, b, [(a.initial, b.initial)])
        assert [shared.bad_sccs(shared.ca, shared.cb),
                shared.bad_sccs(shared.cb, shared.ca)] == fresh
        assert separate >= 3 and runs[0] == separate - 1
        runs[0] = 0
        assert dpa_language_equiv(a, b) == (True, None)
        assert runs[0] == separate - 1


def _needles(patterns: list[str]) -> ParityAutomaton:
    """Disjoint union of one matcher over {a, b} per pattern w: state i has
    read the longest prefix w[:i] that ends the input, and an edge completing
    w has color 0, every other color 1, so each matcher accepts exactly the
    words with infinitely many occurrences of w.  For the patterns a^i b^j
    with i, j >= 10 no word v^ω with |v| <= 12 contains w at all, so every
    state rejects every such word, while distinct patterns give distinct
    languages."""
    ts = []
    for w in patterns:
        offset = len(ts) // 2
        for i in range(len(w)):
            for sym, x in enumerate("ab"):
                read = w[:i] + x
                j = max(j for j in range(len(w)) if read.endswith(w[:j]))
                ts.append(T(offset + i, sym, offset + j, 0 if read.endswith(w) else 1))
    return ParityAutomaton(Alphabet(("a", "b")), len(ts) // 2, 0, tuple(ts))


def _battery_dpa(seed: int) -> ParityAutomaton:
    rng = random.Random(2600 + seed)
    kind = seed % 5
    if kind == 4:  # 200-300 states
        size = seed // 5 % 4
        if size == 3:
            return _line(rng.randrange(200, 301))
        if size == 0:
            return random_dpa(rng.randrange(300, 380), rng.randrange(2, 8), 2, seed)
        base = random_dpa(rng.randrange(50, 76), rng.randrange(2, 8), 2, seed)
        return (staircase if size == 1 else blowup)(base, 4, rng)
    if kind == 3:
        shapes = [(i, j) for i in range(10, 14) for j in range(10, 14)]
        a = _needles(["a" * i + "b" * j for i, j in rng.sample(shapes, rng.randrange(2, 4))])
        return blowup(a, 2, rng) if rng.randrange(2) else a
    size = rng.randrange(4, 41 if kind == 0 else 21)
    base = random_dpa(size, rng.randrange(2, 6), rng.randrange(2, 4), seed)
    if kind == 0:
        return base
    return (staircase if kind == 1 else blowup)(base, rng.randrange(2, 5), rng)


def _refinement_dpa(seed: int) -> ParityAutomaton:
    # random DPAs of 4-60 states, and staircases and blow-ups of them
    rng = random.Random(seed)
    base = random_dpa(rng.randrange(4, 60), rng.randrange(2, 6), rng.randrange(1, 4), seed)
    if seed % 3:
        base = (staircase if seed % 3 == 1 else blowup)(base, rng.randrange(2, 4), rng)
    return base


def _presplit(a: ParityAutomaton) -> list[list[int]]:
    return graphs._presplit(a, graphs._preimages(a))


def _seed_words_handed(monkeypatch) -> list:
    """Make ``graphs._seed_words`` hand out iterators, listed in the returned
    list, so a test can see how many words the pre-split drew of each."""
    handed = []
    seed_words = graphs._seed_words

    def handing(k):
        handed.append(iter(seed_words(k)))
        return handed[-1]

    monkeypatch.setattr(graphs, "_seed_words", handing)
    return handed


def _cycle(n: int) -> ParityAutomaton:
    """A one-letter cycle of n states with color 0 on the edge out of state
    0 and 1 on the others: one language class, no two states bisimilar,
    and no seed word splits it."""
    return ParityAutomaton(Alphabet(("a",)), n, 0,
                           tuple(T(q, 0, (q + 1) % n, int(q > 0)) for q in range(n)))


class TestPresplit:
    """``state_equivalence`` refines the product only on the pairs inside
    the blocks of a cheap pre-split; it must equal the all-pairs kernel.
    Random, staircase and blow-up DPAs of 4-160 states, pattern matchers
    that no seed word tells apart, and DPAs of 200-300 states."""

    @pytest.mark.parametrize("seed", range(60))
    def test_partition_equals_all_pairs(self, seed):
        a = _battery_dpa(seed)
        assert state_equivalence(a) == direct_partition(a) == all_pairs_partition(a)

    def test_battery_exercises_the_product_stage(self):
        # on these the pre-split alone would be wrong
        coarse = 0
        for seed in range(60):
            a = _battery_dpa(seed)
            coarse += len(_presplit(a)) < len(state_equivalence(a).classes)
        assert coarse >= 8

    def test_presplit_is_closed_under_successors(self):
        # a block split while queued must queue both halves; dropping that
        # leaves a few of these 800 pre-splits open
        for seed in range(800):
            base = _refinement_dpa(seed)
            blocks = _presplit(base)
            block_of = {q: i for i, block in enumerate(blocks) for q in block}
            assert sorted(block_of) == list(range(base.state_count))
            for t in base.transitions:
                for mate in blocks[block_of[t.src]]:
                    assert block_of[base.step(mate, t.sym).dst] == block_of[t.dst], seed

    def test_large_dpa_builds_only_in_block_pairs(self, monkeypatch):
        built = []

        class Recording(graphs._Product):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self.size)

        a = random_dpa(2000, 8, 2, 5)
        monkeypatch.setattr(graphs, "_Product", Recording)
        classes = state_equivalence(a).classes
        assert a.state_count == 1610
        # every pre-split block is a singleton, its own class: no pair is built
        assert built == [sum(len(block) ** 2 for block in _presplit(a) if len(block) > 1)] == [0]
        assert classes == tuple((q,) for q in range(1610))

    def test_words_stop_once_the_product_is_cheaper(self, monkeypatch):
        # canon-mix's random/72/8/2/3: 62 states, none bisimilar, 61 classes.
        # After the first word the one block of two states is a class, and
        # |Σ|·2² <= 62, so the other 34 words are not drawn
        a = random_dpa(72, 8, 2, 3)
        handed = _seed_words_handed(monkeypatch)
        blocks = _presplit(a)
        assert len(handed) == 1 and len(list(handed[0])) == 34
        assert [block for block in blocks if len(block) > 1] == [[53, 60]]
        assert len(blocks) == a.state_count - 1
        assert state_equivalence(a) == all_pairs_partition(a)
        assert state_equivalence(a).mates(53) == (53, 60)

    @pytest.mark.parametrize("a", [random_dpa(100, 4, 2, 136), _cycle(250)],
                             ids=["seed-136", "cycle-250"])
    def test_every_word_drawn_while_the_product_is_dearer(self, monkeypatch, a):
        # one pre-split block of 78 pairwise inequivalent states, and one
        # class of 250 states: the product stays dearer than a word
        handed = _seed_words_handed(monkeypatch)
        blocks = _presplit(a)
        assert len(blocks) == 1 and len(handed) == 1
        assert next(handed[0], None) is None
        classes = state_equivalence(a).classes
        assert len(classes) == (78 if a.state_count == 78 else 1)

    @pytest.mark.parametrize("seed", [3, 84, 567])
    def test_bisimulation_reads_every_seed(self, seed):
        # the stop is the pre-split's alone.  A bisimulation that stopped
        # its seeds there too keeps non-bisimilar states in one block on
        # these, and on seed 567 the quotient then gives a wrong partition
        a = _refinement_dpa(seed)
        blocks = graphs._bisimulation(a, graphs._preimages(a))
        assert {frozenset(block) for block in blocks} == moore_bisimulation(a)
        assert state_equivalence(a) == all_pairs_partition(a)

    def test_incomplete_automaton_rejected(self):
        # rows (1, a) and (2, b) are missing, and state 0 leads to state 2:
        # the error names the first missing row in (state, letter) order
        ts = (T(0, 0, 2, 0), T(0, 1, 2, 1), T(1, 1, 1, 0), T(2, 0, 0, 1))
        a = ParityAutomaton(Alphabet(("a", "b")), 3, 0, ts)
        with pytest.raises(AutomatonError, match=r"^\(state 1, letter 'a'\) has no transition$"):
            state_equivalence(a)

    def test_nondeterministic_automaton_rejected(self):
        # |Q| x |Σ| transitions, but row (0, b) has two and row (1, b) none
        ts = (T(0, 0, 1, 0), T(0, 1, 0, 1), T(0, 1, 1, 1), T(1, 0, 0, 0))
        a = ParityAutomaton(Alphabet(("a", "b")), 2, 0, ts)
        with pytest.raises(AutomatonError, match=r"^\(state 0, letter 'b'\) has 2 transitions$"):
            state_equivalence(a)


def _quotient_of(a: ParityAutomaton) -> ParityAutomaton:
    """``a`` quotiented by its coarsest bisimulation: the automaton whose
    pre-split and product ``state_equivalence`` computes."""
    blocks = graphs._bisimulation(a, graphs._preimages(a))
    return graphs._quotient(a, sorted(map(sorted, blocks)))


def _blowup_of_50() -> ParityAutomaton:
    # 30 classes of 50 states, each class inside one SCC
    return blowup(random_dpa(40, 6, 2, 3), 50, random.Random("blowup/3"))


class TestBisimulationQuotient:
    """``state_equivalence`` pre-splits and refines the quotient of a DPA by
    its coarsest bisimulation, which is finer than language equivalence,
    and lifts the classes back; it must equal the direct partition."""

    def test_bisimulation_sandwiches_language_equivalence(self):
        # on the automata of the pre-split closure test
        for seed in range(800):
            a = _refinement_dpa(seed)
            k = len(a.alphabet)
            dst, col = a.flat
            blocks = graphs._bisimulation(a, graphs._preimages(a))
            assert {frozenset(block) for block in blocks} == moore_bisimulation(a), seed
            block_of = {q: i for i, block in enumerate(blocks) for q in block}
            class_of = state_equivalence(a).class_of
            for block in blocks:
                q = min(block)
                for r in block:
                    assert col[r * k:r * k + k] == col[q * k:q * k + k], seed
                    assert ([block_of[d] for d in dst[r * k:r * k + k]]
                            == [block_of[d] for d in dst[q * k:q * k + k]]), seed
                    assert class_of[r] == class_of[q], seed

    def test_battery_exercises_the_product_stage_on_the_quotient(self):
        # the pre-split of the quotient alone would be wrong on these
        coarse = 0
        for seed in range(60):
            a = _battery_dpa(seed)
            quotient = _quotient_of(a)
            coarse += len(_presplit(quotient)) < len(state_equivalence(a).classes)
        assert coarse >= 8

    @pytest.mark.parametrize("kind", ["blowup", "staircase", "line"])
    def test_large_automata_match_the_direct_partition(self, kind):
        if kind == "blowup":
            a = _blowup_of_50()
        elif kind == "staircase":
            a = staircase(random_dpa(100, 6, 2, 3), 20, random.Random("staircase/3"))
        else:
            a = _line(300)
        assert a.state_count >= 1000 or kind == "line"
        assert state_equivalence(a) == direct_partition(a)

    def test_blowup_builds_only_quotient_pairs(self, monkeypatch):
        built = []

        class Recording(graphs._Product):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self.size)

        a = _blowup_of_50()
        quotient = _quotient_of(a)
        blocks = _presplit(quotient)
        monkeypatch.setattr(graphs, "_Product", Recording)
        classes = state_equivalence(a).classes
        assert a.state_count == 1500 and quotient.state_count == len(classes) == 30
        assert sum(built) <= sum(len(block) ** 2 for block in blocks) <= 30 ** 2
