import random

import pytest

from conftest import WORD_CA, WORD_CABB, blowup, flower_automaton, random_lasso
from oracles import gca_member_oracle, reference_coruns, resolver_oracle, resolver_oracle_step
from paritychain import (
    Alphabet,
    AutomatonError,
    CoBuchiAutomaton,
    LassoWord,
    ParityAutomaton,
    PreconditionError,
    ResolverState,
    Transition,
    corun_color,
    coruns,
    dpa_lasso_run,
    extract_chain,
    gca_lasso_member,
    gfg_resolver_step,
    natural_color_via_chain,
    random_dpa,
    resolve_run,
    state_equivalence,
    streamline,
    structure_dpa,
)

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
        q = a.step(q, w.letter_at(k)).dst
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


class TestNaturalColorViaChain:
    def test_bounds(self, flower):
        s, equiv = prepared(flower)
        chain = extract_chain(s, equiv)
        rng = random.Random(3)
        for _ in range(20):
            w = random_lasso(rng, 3)
            level = natural_color_via_chain(chain, w)
            assert 0 <= level <= chain.source_color_max
            assert not gca_lasso_member(chain.levels[-1], w)

    def test_flower_accepted_word_has_even_level(self, flower):
        s, equiv = prepared(flower)
        chain = extract_chain(s, equiv)
        assert natural_color_via_chain(chain, WORD_CABB) == 4

    def test_jump_lifts_color_above_the_run(self):
        # states 0 and 1 are equivalent; on (ab)^omega the run cycles through
        # the color-0 b-edge of state 1, but jumping to state 1 before an
        # a puts the co-run on the color-2 cycle 1 -a-> 0 -b-> 1
        a = ParityAutomaton(Alphabet(("a", "b", "c")), 2, 0, (
            T(0, 0, 1, 2), T(0, 1, 1, 2), T(0, 2, 0, 1),
            T(1, 0, 0, 2), T(1, 1, 0, 0), T(1, 2, 0, 1),
        ))
        s, equiv = prepared(a)
        assert s == a and equiv.classes == ((0, 1),)
        w = LassoWord((1, 0), (0, 1))
        assert dpa_lasso_run(s, w).dominating_color == 0
        assert corun_color(s, equiv, w) == natural_color_via_chain(extract_chain(s, equiv), w) == 2


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
                    mine = gfg_resolver_step(level, mine, w.letter_at(k))
                    theirs = resolver_oracle_step(level, theirs, w.letter_at(k))
                    assert mine == theirs


def _letter_checked_calls():
    s, equiv = prepared(flower_automaton())
    level0 = extract_chain(s, equiv).levels[0]
    bad = LassoWord((0,), (1, 5))
    return {
        "dpa_lasso_run": lambda: dpa_lasso_run(s, bad),
        "gca_lasso_member": lambda: gca_lasso_member(level0, bad),
        "coruns": lambda: coruns(s, equiv, bad),
        "resolve_run": lambda: resolve_run(level0, bad),
        "gfg_resolver_step": lambda: gfg_resolver_step(level0, ResolverState.start(level0), 5),
    }


@pytest.mark.parametrize("entry", sorted(_letter_checked_calls()))
def test_out_of_range_letter_rejected(entry):
    # letter 5 over the flower's three letters; level 0 of the chain would
    # otherwise be expected to accept every word
    with pytest.raises(AutomatonError, match="letter index 5 .* alphabet of 3 letters"):
        _letter_checked_calls()[entry]()
