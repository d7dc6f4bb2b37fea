import copy
import pickle
import random
import sys
import threading
import time
import tracemalloc
from itertools import product

import pytest

from conftest import (
    JUMPY_SEEDS, WORD_CA, WORD_CABB, blowup, flower_automaton, jumpy, jumpy_lassos, random_lasso,
    raw_lasso,
)
from oracles import (
    ResolverState,
    _by_position,
    chain_color_oracle,
    gca_member_oracle,
    gfg_resolver_step,
    lasso_run_oracle,
    letter_at,
    reference_coruns,
    resolver_oracle,
    resolver_oracle_step,
    table_corun_color,
)
from paritychain import (
    Alphabet,
    AutomatonError,
    ChainRepresentation,
    CoBuchiAutomaton,
    CoRun,
    LassoWord,
    ParityAutomaton,
    Partition,
    PreconditionError,
    Transition,
    chain_stats,
    complete_dpa,
    corun_color,
    coruns,
    dpa_language_equiv,
    dpa_lasso_run,
    emit_dot,
    emit_hoa,
    emit_native,
    extract_chain,
    gca_lasso_member,
    natural_color_via_chain,
    random_dpa,
    resolve_run,
    scc_decompose,
    state_equivalence,
    streamline,
    structure_dpa,
    validate_dpa,
)
from paritychain.colors import _MOVES, _Moves

T = Transition


def prepared(seed_automaton):
    s = streamline(structure_dpa(seed_automaton))
    return s, state_equivalence(s)


class TestCorunColor:
    def test_universal_all_zero(self):
        a = ParityAutomaton(
            Alphabet(("a", "b")), 1, 0, (T(0, 0, 0, 0), T(0, 1, 0, 0))
        )
        equiv = state_equivalence(a)
        rng = random.Random(2)
        for _ in range(20):
            assert corun_color(a, equiv, random_lasso(rng, 2)) == 0

    def test_flower_values(self, flower):
        s, equiv = prepared(flower)
        assert corun_color(s, equiv, WORD_CA) == 5
        assert corun_color(s, equiv, WORD_CABB) == 4

    def test_requires_streamlined(self, flower):
        with pytest.raises(PreconditionError):
            corun_color(flower, state_equivalence(flower), WORD_CA)

    def test_degenerate_jump_present(self, flower):
        s, equiv = prepared(flower)
        found = coruns(s, equiv, WORD_CA)
        assert all(cr.jump_position >= 1 for cr in found)
        assert any(cr.jump_target == cr_run_state for cr, cr_run_state in [
            (cr, _run_state(s, WORD_CA, cr.jump_position)) for cr in found
        ])

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_chain_and_membership_parity(self, seed):
        rng = random.Random(500 + seed)
        s, equiv = prepared(
            random_dpa(rng.randrange(1, 7), rng.randrange(1, 6), rng.randrange(1, 5), seed)
        )
        chain = extract_chain(s, equiv)
        for _ in range(25):
            w = random_lasso(rng, len(s.alphabet))
            color = corun_color(s, equiv, w)
            assert color == natural_color_via_chain(chain, w)
            assert (color % 2 == 0) == dpa_lasso_run(s, w).accepted


def _run_state(a, w, position):
    q = a.initial
    for k in range(position):
        q = a.step(q, letter_at(w, k)).dst
    return q


def _medium_streamlined(seed: int):
    # random DPAs and mod-m blow-ups (classes of 2-5 mates), 20-80 states
    rng = random.Random(700 + seed)
    colors, letters = rng.randrange(2, 7), rng.randrange(2, 4)
    if seed % 2 == 0:
        a = random_dpa(rng.randrange(24, 81), colors, letters, seed)
    else:
        base = random_dpa(rng.randrange(5, 17), colors, letters, seed)
        a = blowup(base, max(rng.randrange(2, 6), -(-20 // base.state_count)), rng)
    s = streamline(structure_dpa(a))
    return s, state_equivalence(s), rng


class TestCorunDifferential:
    """The co-run table against one lasso run per jump target, on automata
    and words (prefix and period up to 12) past the small-case tests."""

    @pytest.mark.parametrize("seed", range(24))
    def test_coruns_color_and_chain_match_reference(self, seed):
        s, equiv, rng = _medium_streamlined(seed)
        assert 20 <= s.state_count <= 80
        chain = extract_chain(s, equiv)
        for _ in range(8):
            w = random_lasso(rng, len(s.alphabet), max_len=12)
            found = coruns(s, equiv, w)
            assert found == reference_coruns(s, equiv, w)
            color = corun_color(s, equiv, w)
            assert color == max(cr.dominating_color for cr in found)
            assert color == natural_color_via_chain(chain, w)
            top_down = next(
                i for i in range(len(chain.levels) - 1, -1, -1)
                if gca_lasso_member(chain.levels[i], w)
            )
            assert color == top_down

    @pytest.mark.parametrize("seed", JUMPY_SEEDS)
    def test_jumpy_coruns_match_reference(self, seed):
        s = jumpy(seed)
        equiv = state_equivalence(s)
        for w in jumpy_lassos(seed, len(s.alphabet)):
            found = coruns(s, equiv, w)
            assert found == reference_coruns(s, equiv, w)
            assert corun_color(s, equiv, w) == max(cr.dominating_color for cr in found)

    @pytest.mark.parametrize("seed", range(8))
    def test_blowup_long_prefix_coruns_match_reference(self, seed):
        # mod-3 and mod-4 blow-ups, so that co-runs jumping in a prefix of
        # up to 40 letters are landed backwards through classes of 3 or 4
        rng = random.Random(900 + seed)
        base = random_dpa(rng.randrange(3, 9), rng.randrange(2, 5), rng.randrange(2, 4), seed)
        s = streamline(structure_dpa(blowup(base, 3 + seed % 2, rng)))
        equiv = state_equivalence(s)
        assert max(map(len, equiv.classes)) >= 3
        k = len(s.alphabet)
        for _ in range(8):
            w = LassoWord(tuple(rng.randrange(k) for _ in range(rng.randrange(20, 41))),
                          tuple(rng.randrange(k) for _ in range(rng.randrange(1, 6))))
            assert coruns(s, equiv, w) == reference_coruns(s, equiv, w)

    def test_coruns_reject_a_partition_other_than_the_equivalence(self, flower):
        # a co-run that jumps in the prefix is landed through the mates of
        # the run's states, which only the right congruence ≡ makes defined;
        # a finer or a coarser partition of as many states used to answer,
        # and ``corun_color`` and the chain (so ``natural_color_via_chain``)
        # still answered, with wrong colors for merged classes
        s, equiv = prepared(blowup(flower, 2, random.Random(0)))
        n = s.state_count
        assert 2 < len(equiv.classes) < n
        merged = Partition((equiv.classes[0] + equiv.classes[1], *equiv.classes[2:]))
        entry_points = (
            lambda other: coruns(s, other, WORD_CA),
            lambda other: corun_color(s, other, WORD_CA),
            lambda other: extract_chain(s, other),
            lambda other: ChainRepresentation(s, other),
        )
        for other in (Partition(tuple((q,) for q in range(n))), merged,
                      Partition((tuple(range(n)),))):
            for call in entry_points:
                with pytest.raises(AutomatonError,
                                   match="^partition is not the automaton's language equivalence$"):
                    call(other)


class TestNaturalColorViaChain:
    def test_bounds(self, flower):
        s, equiv = prepared(flower)
        chain = extract_chain(s, equiv)
        rng = random.Random(3)
        for _ in range(20):
            w = random_lasso(rng, 3)
            level = natural_color_via_chain(chain, w)
            assert 0 <= level <= chain.source.max_color
            assert not gca_lasso_member(chain.levels[-1], w)

    def test_flower_accepted_word_has_even_level(self, flower):
        s, equiv = prepared(flower)
        chain = extract_chain(s, equiv)
        assert natural_color_via_chain(chain, WORD_CABB) == 4

    def test_jump_lifts_color_above_the_run(self):
        # states 0 and 1 are equivalent; on (ab)^omega the run cycles through
        # the color-0 b-edge of state 1, but jumping to state 1 before an
        # a puts the co-run on the color-2 cycle 1 -a-> 0 -b-> 1, which the
        # run never enters: a mate's cycle, not the run's, sets the color
        a = ParityAutomaton(Alphabet(("a", "b", "c")), 2, 0, (
            T(0, 0, 1, 2), T(0, 1, 1, 2), T(0, 2, 0, 1),
            T(1, 0, 0, 2), T(1, 1, 0, 0), T(1, 2, 0, 1),
        ))
        s, equiv = prepared(a)
        assert s == a and equiv.classes == ((0, 1),)
        chain = extract_chain(s, equiv)
        for w in (LassoWord((1, 0), (0, 1)), LassoWord((), (0, 1)), LassoWord((2,), (0, 1))):
            assert dpa_lasso_run(s, w).dominating_color == 0
            assert corun_color(s, equiv, w) == natural_color_via_chain(chain, w) == 2
            assert chain_color_oracle(chain, w) == table_corun_color(s, equiv, w) == 2

    def test_run_enters_its_cycle_after_the_period_start(self):
        # the jump automaton above with a new initial state 2, in a class of
        # its own: on (ab)^omega the run starts in state 2, off its cycle,
        # and then cycles through 1 -b-> 0 of color 0; only a jump on that
        # cycle, from 1 to 0 before a b, lifts the color, and no walk from a
        # mate of the run's first state finds it
        a = ParityAutomaton(Alphabet(("a", "b", "c")), 3, 2, (
            T(0, 0, 1, 2), T(0, 1, 1, 2), T(0, 2, 0, 1),
            T(1, 0, 0, 2), T(1, 1, 0, 0), T(1, 2, 0, 1),
            T(2, 0, 1, 0), T(2, 1, 1, 0), T(2, 2, 2, 0),
        ))
        s, equiv = prepared(a)
        assert s == a and equiv.classes == ((0, 1), (2,))
        chain = extract_chain(s, equiv)
        for w in (LassoWord((), (0, 1)), LassoWord((2,), (0, 1))):
            assert dpa_lasso_run(s, w).dominating_color == 0
            assert corun_color(s, equiv, w) == natural_color_via_chain(chain, w) == 2
            assert chain_color_oracle(chain, w) == table_corun_color(s, equiv, w) == 2


def _period_starts(a, w) -> set[int]:
    """The states in which the run of ``a`` on ``w`` meets the period start."""
    q = _run_state(a, w, len(w.prefix))
    starts = set()
    for _ in range(a.state_count + 1):
        starts.add(q)
        for sym in w.period:
            q = a.step(q, sym).dst
    return starts


def _kernel_input(seed: int):
    # mod-m blow-ups (classes of 3-5 mates) of random 4-16-state DPAs, and
    # random DPAs of 8-60 states
    rng = random.Random(1500 + seed)
    colors, letters = rng.randrange(2, 7), rng.randrange(2, 4)
    if seed % 2:
        a = blowup(random_dpa(rng.randrange(4, 17), colors, letters, seed), rng.randrange(3, 6), rng)
    else:
        a = random_dpa(rng.randrange(8, 61), colors, letters, seed)
    return (*prepared(a), rng)


def _long_prefix_inputs(seed: int):
    """``jumpy(seed)`` and its mod-2 and mod-3 blow-ups, each with 20
    lassos of prefix length 0-40 and period length 1-3."""
    out = []
    for m in (1, 2, 3):
        rng = random.Random(seed * 10 + m)
        s, equiv = prepared(blowup(jumpy(seed), m, rng))
        k = len(s.alphabet)
        words = [LassoWord(tuple(rng.randrange(k) for _ in range(rng.randrange(0, 41))),
                           tuple(rng.randrange(k) for _ in range(rng.randrange(1, 4))))
                 for _ in range(20)]
        out.append((s, equiv, words))
    return out


def _cycle_entry(a, w) -> int:
    """The step at which the run of ``a`` on ``w`` first meets a (state,
    word position) node of the cycle it ends in."""
    seen: dict[tuple[int, int], int] = {}
    q, t, u, v = a.initial, 0, len(w.prefix), len(w.period)
    while True:
        node = (q, t if t < u else u + (t - u) % v)
        if node in seen:
            return seen[node]
        seen[node] = t
        q = a.step(q, letter_at(w, t)).dst
        t += 1


def _word_to(a, target: int) -> tuple[int, ...]:
    """A shortest word on which the run of ``a`` ends in ``target``."""
    words, queue = {a.initial: ()}, [a.initial]
    for q in queue:
        for sym in range(len(a.alphabet)):
            d = a.step(q, sym).dst
            if d not in words:
                words[d] = words[q] + (sym,)
                queue.append(d)
    return words[target]


class TestNaturalColorKernel:
    """``corun_color`` and ``natural_color_via_chain`` step the prefix and
    walk once from each mate at one node of the run's cycle; that must
    equal the breadth-first search over the chain's jumps, the
    largest co-run color of one lasso run per jump target, the top level
    that a membership scan accepts, and the largest entry of the co-run
    table, all of which also jump from the prefix, the stem and the rest
    of the run's cycle."""

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_every_oracle(self, seed):
        s, equiv, rng = _kernel_input(seed)
        chain = extract_chain(s, equiv)
        several = 0  # words whose run meets the period start in 2+ states
        for _ in range(10):
            w = random_lasso(rng, len(s.alphabet), max_len=12)
            several += len(_period_starts(s, w)) > 1
            _check_kernel(s, equiv, chain, w)
        assert several >= 5

    @pytest.mark.parametrize("seed", JUMPY_SEEDS)
    def test_jumpy_matches_every_oracle(self, seed):
        s = jumpy(seed)
        equiv = state_equivalence(s)
        chain = extract_chain(s, equiv)
        for w in jumpy_lassos(seed, len(s.alphabet)):
            _check_kernel(s, equiv, chain, w)

    @pytest.mark.parametrize("seed", JUMPY_SEEDS)
    def test_long_prefixes_match_every_oracle(self, seed):
        for s, equiv, words in _long_prefix_inputs(seed):
            chain = extract_chain(s, equiv)
            for w in words:
                _check_kernel(s, equiv, chain, w)

    def test_long_prefixes_win_before_the_cycle(self):
        # the battery above keeps testing the walks from the stem that the
        # kernel leaves out: words whose first co-run of the largest color
        # jumps before the run enters its cycle, and words among them whose
        # color no co-run reaches without a jump to another state
        early = lifted = 0
        for seed in JUMPY_SEEDS:
            for s, equiv, words in _long_prefix_inputs(seed):
                for w in words:
                    found = reference_coruns(s, equiv, w)
                    best = max(cr.dominating_color for cr in found)
                    first = next(cr for cr in found if cr.dominating_color == best)
                    before = first.jump_position < _cycle_entry(s, w)
                    early += before
                    lifted += before and best > dpa_lasso_run(s, w).dominating_color
        assert early >= 250 and lifted >= 12

    def test_one_class_cycle_costs_one_pass(self):
        # the one-color two-letter cycle of 3000 states (``a`` steps q to
        # q + 1, ``b`` to 0) is one class, and on ``a`` the run's cycle holds
        # every state: walks from the mates at each of its nodes made
        # 3000 x 3000 mark tests, 0.30-0.52 s a query
        n = 3000
        a = ParityAutomaton(Alphabet(("a", "b")), n, 0, tuple(
            T(q, y, (q + 1) % n if y == 0 else 0, 0) for q in range(n) for y in (0, 1)))
        equiv = state_equivalence(a)
        chain = extract_chain(a, equiv)
        assert len(equiv.classes) == 1
        w = LassoWord((), (0,))
        for color, args in ((corun_color, (a, equiv, w)), (natural_color_via_chain, (chain, w))):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                assert color(*args) == 0
                times.append(time.perf_counter() - start)
            assert min(times) < 0.1, (color.__name__, times)

    def test_long_prefix_costs_no_table(self):
        # 160 states in one class; a prefix of 50,000 letters is stepped
        # without marks, where a table of marks over every word position
        # would take 64 MB
        s, equiv = prepared(blowup(jumpy(83), 40, random.Random(83)))
        assert s.state_count == 160 and len(equiv.classes) == 1
        chain = extract_chain(s, equiv)
        k = len(s.alphabet)
        rng = random.Random(7)
        prefix = tuple(rng.randrange(k) for _ in range(50_000))
        corun_color(s, equiv, LassoWord(prefix, (0,)))  # memoize the automaton's checks
        # A co-run that jumps in the prefix ends in a cycle that a co-run
        # jumping in the period reaches too, so the natural color depends on
        # the prefix only through the state the run enters the period in;
        # a shortest word to that state gives a lasso small enough for the
        # oracles
        short = _word_to(s, _run_state(s, LassoWord(prefix, (0,)), len(prefix)))
        lifted = 0
        for period in [p for m in (1, 2) for p in product(range(k), repeat=m)]:
            long, twin = LassoWord(prefix, period), LassoWord(short, period)
            tracemalloc.start()
            try:
                color = corun_color(s, equiv, long)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000
            assert color == natural_color_via_chain(chain, long)
            assert color == chain_color_oracle(chain, twin)
            lifted += color > dpa_lasso_run(s, twin).dominating_color
        assert lifted >= 2

    def test_long_prefix_costs_no_table_in_any_lasso_walk(self):
        # 167 states, each its own class, so every co-run that jumps in the
        # prefix is the run and joins the group of the earlier ones; a
        # prefix of 50,000 letters is stepped without marks, where a table
        # of marks over every word position would take 70 MB.  The word's
        # natural color is 2: levels 0-2 accept it, level 3 does not
        s, equiv = prepared(random_dpa(200, 4, 2, 5))
        assert s.state_count == len(equiv.classes) == 167
        chain = extract_chain(s, equiv)
        rng = random.Random(0)
        prefix = tuple(rng.randrange(len(s.alphabet)) for _ in range(50_000))
        stem = [s.initial]  # the run's state at each prefix position
        for sym in prefix:
            stem.append(s.step(stem[-1], sym).dst)
        long, twin = LassoWord(prefix, (1, 1, 0)), LassoWord(_word_to(s, stem.pop()), (1, 1, 0))
        color = chain_color_oracle(chain, twin)
        assert color == 2 and len(chain.levels) == 4
        run, peak, held = _traced(dpa_lasso_run, s, long)
        assert peak - held < 1_000_000
        same = dpa_lasso_run(s, twin)
        assert run.stem_states == tuple(stem) + same.stem_states[len(twin.prefix):]
        assert run.cycle_states == same.cycle_states
        assert run.dominating_color == same.dominating_color == color
        found, peak, held = _traced(coruns, s, equiv, long)
        assert peak < 1.5 * held
        cycle, u = run.cycle_states, len(run.stem_states)
        assert found == tuple(
            CoRun(j, run.stem_states[j] if j < u else cycle[(j - u) % len(cycle)], color)
            for j in range(1, len(prefix) + s.state_count * 3 + 1))
        assert coruns(s, equiv, twin) == reference_coruns(s, equiv, twin)
        assert table_corun_color(s, equiv, twin) == color
        for i, level in enumerate(chain.levels):
            member, peak, _ = _traced(gca_lasso_member, level, long)
            assert peak < 100_000
            assert member == (i <= color) == gca_member_oracle(level, twin)
            resolved, peak, _ = _traced(resolve_run, level, long)
            assert peak < 100_000
            assert resolved[0] == member
            assert resolve_run(level, twin) == resolver_oracle(level, twin)

    def test_long_period_costs_no_table(self):
        # the 160 states in one class above, with periods of 20,000 letters
        # or more, each a short word v repeated: a mark per (state, period
        # position) node peaked at 27 MB traced in ``dpa_lasso_run`` and at
        # 56-113 MB in the color walks (Python 3.11), a mark per state at
        # period starts takes 160 entries.  The same prefix with period v
        # is the same infinite word, small enough for the oracles; v is
        # repeated a multiple of the times the run's cycle takes, so the
        # long run goes round that cycle whole
        s, equiv = prepared(blowup(jumpy(83), 40, random.Random(83)))
        chain = extract_chain(s, equiv)
        prefix, lifted = (2, 0, 1), 0
        for v in ((1,), (2,), (1, 2)):
            twin = LassoWord(prefix, v)
            same = lasso_run_oracle(s, twin)
            color = chain_color_oracle(chain, twin)
            # the short word also fills the memos the long one reads
            assert dpa_lasso_run(s, twin) == same
            assert corun_color(s, equiv, twin) == natural_color_via_chain(chain, twin) == color
            turns = len(same.cycle_states) // len(v)
            reps = turns * -(-20_000 // (len(v) * turns))
            long = LassoWord(prefix, v * reps)
            run = same._replace(cycle_states=same.cycle_states * (reps // turns))
            for f, args, expected in ((corun_color, (s, equiv, long), color),
                                      (natural_color_via_chain, (chain, long), color),
                                      (dpa_lasso_run, (s, long), run)):
                tracemalloc.start()
                try:
                    out = f(*args)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 1_000_000, (f.__name__, v, peak)
                assert out == expected
            lifted += color > same.dominating_color
        assert lifted

    def test_prefix_coruns_merge_smaller_into_larger(self):
        # state 1 joins state 0 on the one letter, so at each prefix
        # position a co-run jumps to 1 and lands where the run's next state
        # does: the time must stay linear in the number of co-runs, as
        # landing every earlier co-run again at each step would take
        # quadratic time, about 100 times longer on 50,000 letters
        a = ParityAutomaton(Alphabet(("a",)), 2, 0, (T(0, 0, 0, 0), T(1, 0, 0, 0)))
        equiv = state_equivalence(a)
        assert equiv.classes == ((0, 1),)
        start = time.perf_counter()
        found = coruns(a, equiv, LassoWord((0,) * 50_000, (0,)))
        assert time.perf_counter() - start < 3.0
        assert found == tuple(CoRun(j, q, 0) for j in range(1, 50_003) for q in (0, 1))

    def test_jumpy_family_needs_jumps(self):
        # words whose natural color exceeds the one their run dominates: only
        # a jump to a mate reaches the cycle that sets their color
        lifted = 0
        for seed in JUMPY_SEEDS:
            s = jumpy(seed)
            equiv = state_equivalence(s)
            lifted += sum(corun_color(s, equiv, w) > dpa_lasso_run(s, w).dominating_color
                          for w in jumpy_lassos(seed, len(s.alphabet)))
        assert lifted >= 10


def _traced(f, *args):
    """``f(*args)`` after one warm call, with the peak and the final size
    of the memory that tracemalloc traced in it."""
    f(*args)
    tracemalloc.start()
    try:
        out = f(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, held


def _check_kernel(s, equiv, chain, w):
    levels = chain.levels
    color = corun_color(s, equiv, w)
    assert color == natural_color_via_chain(chain, w)
    assert color == chain_color_oracle(chain, w)
    found = reference_coruns(s, equiv, w)
    assert color == max(cr.dominating_color for cr in found)
    assert coruns(s, equiv, w) == found
    assert color == table_corun_color(s, equiv, w)
    assert color == next(i for i in range(len(levels) - 1, -1, -1)
                         if gca_lasso_member(levels[i], w))


class TestResolverStep:
    def test_fresh_state(self):
        a = CoBuchiAutomaton(Alphabet(("a",)), 2, 0, (T(0, 0, 1, 2), T(1, 0, 1, 2)))
        s = ResolverState.start(a)
        assert s.tracked == ((0, 0),)
        assert s.current == 0 and s.position == 0

    def test_follows_deterministic_run(self):
        a = CoBuchiAutomaton(
            Alphabet(("a", "b")),
            2,
            0,
            (T(0, 0, 1, 2), T(0, 1, 0, 1), T(1, 0, 1, 2), T(1, 1, 0, 1)),
        )
        s = ResolverState.start(a)
        for sym, expected_state, expected_color in [(0, 1, 2), (0, 1, 2), (1, 0, 1)]:
            s = gfg_resolver_step(a, s, sym)
            assert (s.current, s.last_color) == (expected_state, expected_color)

    def test_inconsistent_state_rejected(self):
        a = CoBuchiAutomaton(Alphabet(("a",)), 2, 0, (T(0, 0, 1, 2), T(1, 0, 1, 2)))
        bad = ResolverState(position=0, current=1, last_color=None, tracked=((0, 0),))
        with pytest.raises(AutomatonError, match="inconsistent"):
            gfg_resolver_step(a, bad, 0)

    @pytest.mark.parametrize("state", [-1, 2])
    def test_tracked_state_out_of_range_rejected(self, state):
        a = CoBuchiAutomaton(Alphabet(("a",)), 2, 0, (T(0, 0, 1, 2), T(1, 0, 1, 2)))
        bad = ResolverState(position=1, current=0, last_color=2, tracked=((state, 0), (0, 1)))
        with pytest.raises(AutomatonError, match="inconsistent"):
            gfg_resolver_step(a, bad, 0)


class TestResolveRun:
    def test_level_zero_always_accepts(self, flower):
        s, equiv = prepared(flower)
        chain = extract_chain(s, equiv)
        rng = random.Random(4)
        for _ in range(15):
            accepted, rejects = resolve_run(chain.levels[0], random_lasso(rng, 3))
            assert accepted and rejects == ()

    def test_all_rejecting_automaton(self):
        a = CoBuchiAutomaton(
            Alphabet(("a",)), 1, 0, (T(0, 0, 0, 1),), gfg_claimed=True
        )
        accepted, rejects = resolve_run(a, LassoWord((), (0,)))
        assert not accepted and rejects

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_product_membership(self, seed):
        rng = random.Random(600 + seed)
        s, equiv = prepared(
            random_dpa(rng.randrange(1, 7), rng.randrange(1, 6), rng.randrange(1, 5), seed)
        )
        chain = extract_chain(s, equiv)
        for level in chain.levels:
            for _ in range(10):
                w = random_lasso(rng, len(s.alphabet), max_len=4)
                member = gca_lasso_member(level, w)
                accepted, rejects = resolve_run(level, w)
                assert accepted == member
                assert accepted == (not rejects)
                assert member == gca_member_oracle(level, w)


def _resolver_inputs(seed: int):
    """Streamlined automata at the sizes the color benchmark uses: mod-4 and
    mod-3 blow-ups of random 24- and 32-state DPAs, and random DPAs of 48
    and 64 states; plus a small random DPA."""
    rng = random.Random(900 + seed)
    bases = (
        blowup(random_dpa(24, 6, 2, seed), 4, rng),
        blowup(random_dpa(32, 8, 2, seed), 3, rng),
        random_dpa(48, 6, 2, seed),
        random_dpa(64, 8, 3, seed),
        random_dpa(rng.randrange(1, 7), rng.randrange(1, 6), rng.randrange(1, 5), seed),
    )
    return [prepared(a) for a in bases], rng


class TestResolverDifferential:
    """The rank-group resolver against the per-letter position-map oracle,
    on every level of seeded chains."""

    @pytest.mark.parametrize("seed", range(4))
    def test_resolve_run_matches_oracle(self, seed):
        inputs, rng = _resolver_inputs(seed)
        for s, equiv in inputs:
            chain = extract_chain(s, equiv)
            for level in chain.levels:
                for _ in range(5):
                    w = random_lasso(rng, len(s.alphabet), max_len=12)
                    assert resolve_run(level, w) == resolver_oracle(level, w)

    @pytest.mark.parametrize("seed", JUMPY_SEEDS)
    def test_jumpy_levels_match_oracle(self, seed):
        s = jumpy(seed)
        for level in extract_chain(s, state_equivalence(s)).levels:
            for w in jumpy_lassos(seed, len(s.alphabet)):
                assert resolve_run(level, w) == resolver_oracle(level, w)

    def test_small_suites_match_oracle(self, flower):
        rng = random.Random(31)
        automata = [flower] + [
            random_dpa(rng.randrange(1, 7), rng.randrange(1, 6), rng.randrange(1, 5), seed)
            for seed in range(20)
        ]
        for a in automata:
            s, equiv = prepared(a)
            for level in extract_chain(s, equiv).levels:
                for _ in range(4):
                    w = random_lasso(rng, len(s.alphabet))
                    assert resolve_run(level, w) == resolver_oracle(level, w)

    @pytest.mark.parametrize("seed", range(2))
    def test_steps_match_oracle_states(self, seed):
        inputs, rng = _resolver_inputs(seed)
        for s, equiv in inputs:
            for level in extract_chain(s, equiv).levels:
                w = random_lasso(rng, len(s.alphabet), max_len=12)
                mine = theirs = ResolverState.start(level)
                for k in range(len(w.prefix) + 4 * len(w.period)):
                    mine = gfg_resolver_step(level, mine, letter_at(w, k))
                    theirs = resolver_oracle_step(level, theirs, letter_at(w, k))
                    assert mine == theirs


def _moves(level):
    """The configurations in the move table ``resolve_run`` keeps on ``level``."""
    return vars(level).get("_moves", {})


def _config_rich():
    """4 states and 10 transitions, but 68 reachable rank-group configurations."""
    return CoBuchiAutomaton(Alphabet(("a", "b")), 4, 0, (
        T(0, 0, 3, 1), T(0, 1, 1, 2), T(0, 1, 2, 1), T(1, 0, 0, 2), T(1, 1, 3, 2),
        T(2, 0, 2, 1), T(2, 1, 0, 2), T(2, 1, 1, 1), T(3, 0, 1, 2), T(3, 1, 2, 2),
    ))


class TestMoveTable:
    """``resolve_run`` reads the groups' step from a table kept on the level
    and shared by every word asked of it; the answers must not depend on
    what earlier words left there, on copies, or on restarts."""

    @pytest.mark.parametrize("seed", range(2))
    def test_warm_level_matches_oracle(self, seed):
        # five chains per seed: two blow-ups, three random DPAs
        inputs, rng = _resolver_inputs(seed)
        for s, equiv in inputs:
            for level in extract_chain(s, equiv).levels:
                words = [random_lasso(rng, len(s.alphabet), max_len=8) for _ in range(200)]
                answers = [resolver_oracle(level, w) for w in words]
                assert [resolve_run(level, w) for w in words] == answers
                assert 0 < len(_moves(level)) <= len(level.transitions)
                rebuilt = CoBuchiAutomaton(level.alphabet, level.state_count, level.initial,
                                           level.transitions, gfg_claimed=True)
                copies = (copy.deepcopy(level), pickle.loads(pickle.dumps(level)), rebuilt)
                for other in copies:
                    assert other == level and _moves(other) == {}  # a copy starts cold
                    assert [resolve_run(other, w) for w in words[:40]] == answers[:40]
                assert [resolve_run(level, w) for w in words[:40]] == answers[:40]

    def test_table_bounded_by_transitions_across_restarts(self):
        a = _config_rich()
        rng = random.Random(5)
        restarts, size = 0, 0
        for _ in range(300):
            w = random_lasso(rng, 2, max_len=10)
            assert resolve_run(a, w) == resolver_oracle(a, w)
            restarts += len(_moves(a)) < size
            size = len(_moves(a))
            assert size <= len(a.transitions)
        assert restarts >= 5

    def test_threads_sharing_a_table_get_the_oracle_answers(self):
        # more threads than cores, switching often, on a table that restarts
        a = _config_rich()
        rng = random.Random(8)
        words = [random_lasso(rng, 2, max_len=10) for _ in range(60)]
        answers = [resolver_oracle(a, w) for w in words]
        results: dict[int, list] = {}

        def ask(i):
            results[i] = [resolve_run(a, w) for w in words[i:] + words[:i]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(results.get(i) == answers[i:] + answers[:i] for i in range(6))

    def test_stuck_resolver_raises_on_every_call_and_stores_no_move(self):
        # state 1 has no transition on a
        a = CoBuchiAutomaton(Alphabet(("a", "b")), 2, 0,
                             (T(0, 0, 1, 2), T(0, 1, 0, 1), T(1, 1, 0, 1)))
        w = LassoWord((), (0,))
        stuck = "^resolver is stuck; the automaton is not complete$"
        for call in (resolve_run, resolve_run, resolver_oracle):
            with pytest.raises(AutomatonError, match=stuck):
                call(a, w)
        table = _moves(a)
        assert sorted(table) == [((0,),), ((1,),)]
        assert table[((0,),)][0] is table[((1,),)] and table[((1,),)][:2] == [None, None]
        assert resolve_run(a, LassoWord((), (1,))) == resolver_oracle(a, LassoWord((), (1,)))


def _cycle_start(a, w: LassoWord) -> int:
    """The period position at which the oracle's resolver on ``w`` first
    meets a configuration of the cycle it ends in."""
    s, seen = ResolverState.start(a), {}
    u, v = len(w.prefix), len(w.period)
    while True:
        if s.position >= u:
            key = (s.current, _by_position(s.tracked), (s.position - u) % v)
            if key in seen:
                return (seen[key] - u) % v
            seen[key] = s.position
        s = resolver_oracle_step(a, s, letter_at(w, s.position))


class TestResolverPeriodStarts:
    """``resolve_run`` looks for a repeated configuration at period starts
    only and steps back from there to the first step of the cycle; its
    rejecting positions must be the per-letter oracle's wherever in the
    period the cycle starts."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rejects_match_oracle(self, seed):
        inputs, rng = _resolver_inputs(seed)
        inside = 0
        for s, equiv in inputs:
            for level in extract_chain(s, equiv).levels:
                for _ in range(8):
                    w = raw_lasso(rng, len(s.alphabet))
                    assert resolve_run(level, w) == resolver_oracle(level, w)
                    inside += _cycle_start(level, w) > 0
        assert inside >= 60

    @pytest.mark.parametrize("seed", JUMPY_SEEDS)
    def test_one_letter_periods_and_empty_prefixes(self, seed):
        s = jumpy(seed)
        k, lassos = len(s.alphabet), jumpy_lassos(seed, len(s.alphabet))
        words = [LassoWord(w.prefix, (sym,)) for w in lassos[:10] for sym in range(k)]
        words += [LassoWord((), w.period) for w in lassos]
        for level in extract_chain(s, state_equivalence(s)).levels:
            for w in words:
                assert resolve_run(level, w) == resolver_oracle(level, w)

    def test_one_entry_table_matches_oracle(self):
        # a move table of one configuration is emptied at every new one, so
        # equal groups come back in new entries: the step back compares
        # the groups, not the entries
        rng = random.Random(12)
        automata = [_config_rich()] + [level for seed in JUMPY_SEEDS[:3] for level in
                                       extract_chain(jumpy(seed), state_equivalence(jumpy(seed))).levels]
        inside = 0
        for a in automata:
            vars(a)[_MOVES] = _Moves(len(a.alphabet), 1)  # in place of the table of ``_memo``
            for _ in range(20):
                w = raw_lasso(rng, len(a.alphabet))
                assert resolve_run(a, w) == resolver_oracle(a, w)
                assert len(_moves(a)) == 1
                inside += _cycle_start(a, w) > 0
        assert inside >= 60


def _wrong_class_calls():
    """Every entry point that takes one automaton class, a word or a
    partition, called with another class: (expected class, given class,
    call)."""
    s, equiv = prepared(flower_automaton())
    chain = extract_chain(s, equiv)
    level0, w = chain.levels[0], WORD_CA
    dpa, gca = "ParityAutomaton", "CoBuchiAutomaton"
    automaton = f"{dpa} or {gca}"
    word, pair = "LassoWord", (0, 1)  # a tuple in place of the word
    return {
        "dpa_lasso_run[w]": (word, "tuple", lambda: dpa_lasso_run(s, pair)),
        "gca_lasso_member[w]": (word, "tuple", lambda: gca_lasso_member(level0, pair)),
        "resolve_run[w]": (word, "tuple", lambda: resolve_run(level0, pair)),
        "corun_color[w]": (word, "tuple", lambda: corun_color(s, equiv, pair)),
        "coruns[w]": (word, "tuple", lambda: coruns(s, equiv, pair)),
        "natural_color_via_chain[w]": (word, "tuple", lambda: natural_color_via_chain(chain, pair)),
        "corun_color[equiv]": ("Partition", "NoneType", lambda: corun_color(s, None, w)),
        "coruns[equiv]": ("Partition", "NoneType", lambda: coruns(s, None, w)),
        "scc_decompose": (automaton, "NoneType", lambda: scc_decompose(None)),
        "emit_native": (automaton, "ChainRepresentation", lambda: emit_native(chain)),
        "emit_hoa": (automaton, "ChainRepresentation", lambda: emit_hoa(chain)),
        "emit_dot": (automaton, "ChainRepresentation", lambda: emit_dot(chain)),
        "validate_dpa": (dpa, gca, lambda: validate_dpa(level0)),
        "complete_dpa": (dpa, gca, lambda: complete_dpa(level0)),
        "resolve_run": (gca, dpa, lambda: resolve_run(s, w)),
        "gca_lasso_member": (gca, dpa, lambda: gca_lasso_member(s, w)),
        "dpa_lasso_run": (dpa, gca, lambda: dpa_lasso_run(level0, w)),
        "dpa_language_equiv[a]": (dpa, gca, lambda: dpa_language_equiv(level0, s)),
        "dpa_language_equiv[b]": (dpa, gca, lambda: dpa_language_equiv(s, level0)),
        "state_equivalence": (dpa, gca, lambda: state_equivalence(level0)),
        "extract_chain": (dpa, gca, lambda: extract_chain(level0, equiv)),
        "corun_color": (dpa, gca, lambda: corun_color(level0, equiv, w)),
        "coruns": (dpa, gca, lambda: coruns(level0, equiv, w)),
        "natural_color_via_chain": ("ChainRepresentation", dpa,
                                    lambda: natural_color_via_chain(s, w)),
        "chain_stats": ("ChainRepresentation", dpa, lambda: chain_stats(s)),
    }


@pytest.mark.parametrize("entry", sorted(_wrong_class_calls()))
def test_wrong_automaton_class_rejected(entry):
    # these used to end in a TypeError or AttributeError deep in a loop, or
    # in a misleading row error
    expected, given, call = _wrong_class_calls()[entry]
    with pytest.raises(AutomatonError, match=f"^expected a {expected}, got a {given}$"):
        call()


def test_wrong_class_message_is_clipped():
    huge = type("Q" * 10_000, (), {})()
    with pytest.raises(AutomatonError) as err:
        resolve_run(huge, WORD_CA)
    assert len(str(err.value)) < 100


def _word_calls(word):
    """Every call that reads a lasso word, each building ``word()`` itself."""
    s, equiv = prepared(flower_automaton())
    chain = extract_chain(s, equiv)
    level0 = chain.levels[0]
    return {
        "dpa_lasso_run": lambda: dpa_lasso_run(s, word()),
        "gca_lasso_member": lambda: gca_lasso_member(level0, word()),
        "coruns": lambda: coruns(s, equiv, word()),
        "corun_color": lambda: corun_color(s, equiv, word()),
        "natural_color_via_chain": lambda: natural_color_via_chain(chain, word()),
        "resolve_run": lambda: resolve_run(level0, word()),
    }


def _letter_checked_calls(word=LassoWord((0,), (1, 5))):
    """``_word_calls`` on ``word``, and the oracle's resolver stepped
    through its letters, prefix first."""
    s, equiv = prepared(flower_automaton())
    level0 = extract_chain(s, equiv).levels[0]
    calls = _word_calls(lambda: word)

    def steps():
        state = ResolverState.start(level0)
        for sym in word.prefix + word.period:
            state = gfg_resolver_step(level0, state, sym)

    calls["gfg_resolver_step"] = steps
    return calls


@pytest.mark.parametrize("entry", sorted(_letter_checked_calls()))
def test_out_of_range_letter_rejected(entry):
    # letter 5 over the flower's three letters; level 0 of the chain would
    # otherwise be expected to accept every word
    with pytest.raises(AutomatonError, match="letter index 5 .* alphabet of 3 letters"):
        _letter_checked_calls()[entry]()


@pytest.mark.parametrize("word, first", [
    (LassoWord((4, 0), (9,)), 4), (LassoWord((0, 9), (1, 4)), 9), (LassoWord((), (1, 6, 5)), 6),
    (LassoWord((2, 3), (2,)), 3), (LassoWord((2,), (0, 3)), 3),
], ids=["prefix-smaller", "prefix-larger", "period", "prefix-at-size", "period-at-size"])
@pytest.mark.parametrize("entry", sorted(_letter_checked_calls()))
def test_first_of_two_out_of_range_letters_named(entry, word, first):
    # the letters are checked by column; the walk that names an offender
    # must name the first one, in prefix-then-period order
    message = f"^letter index {first} is out of range for an alphabet of 3 letters$"
    with pytest.raises(AutomatonError, match=message):
        _letter_checked_calls(word)[entry]()


@pytest.mark.parametrize("letter", [1.0, True, "a", None], ids=["float", "bool", "str", "none"])
@pytest.mark.parametrize("entry", sorted(_word_calls(None)))
def test_non_integer_letter_rejected(entry, letter):
    # 1.0 and True used to be read as letter 1 by some entry points and to
    # raise TypeError deep in the loops of others
    for word in (lambda: LassoWord((), (letter,)), lambda: LassoWord((letter,), (0,))):
        with pytest.raises(AutomatonError, match="letters must be non-negative ints"):
            _word_calls(word)[entry]()
