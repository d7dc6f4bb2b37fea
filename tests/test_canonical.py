import gc
import random
import weakref

import pytest

from conftest import (
    FLOWER_STREAMLINED_COLORS, JUMPY_SEEDS, WORD_CA, blowup, flower_automaton, jumpy,
    random_lasso, staircase,
)
from oracles import levels_oracle
from paritychain import (
    Alphabet,
    AutomatonError,
    CoBuchiAutomaton,
    ParityAutomaton,
    PreconditionError,
    Transition,
    chain_stats,
    complete_dpa,
    corun_color,
    dpa_lasso_run,
    emit_native,
    extract_chain,
    gca_lasso_member,
    is_streamlined,
    is_structured,
    natural_color_via_chain,
    random_dpa,
    state_equivalence,
    streamline,
    structure_dpa,
    structure_dpa_with_map,
)
from paritychain import canonical, core, graphs

T = Transition


def redirect_instance():
    # states 1 and 2 share a language but sit in different SCCs; state 0
    # differs from both because its b-loop has an even color
    return ParityAutomaton(
        alphabet=Alphabet(("a", "b")),
        state_count=3,
        initial=0,
        transitions=(
            T(0, 0, 1, 0), T(0, 1, 0, 0),
            T(1, 0, 1, 2), T(1, 1, 2, 1),
            T(2, 0, 2, 2), T(2, 1, 2, 1),
        ),
    )


def collapse_instance():
    # like redirect_instance but all three states are language-equivalent
    return ParityAutomaton(
        alphabet=Alphabet(("a", "b")),
        state_count=3,
        initial=0,
        transitions=(
            T(0, 0, 1, 0), T(0, 1, 0, 1),
            T(1, 0, 1, 2), T(1, 1, 2, 1),
            T(2, 0, 2, 2), T(2, 1, 2, 1),
        ),
    )


class TestIsStructured:
    def test_single_state(self):
        a = ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 0),))
        assert is_structured(a) == (True, [])

    def test_unreachable_state(self):
        a = ParityAutomaton(
            Alphabet(("a",)), 2, 0, (T(0, 0, 0, 0), T(1, 0, 1, 0))
        )
        ok, violations = is_structured(a)
        assert not ok
        assert any("unreachable" in v for v in violations)

    def test_class_split_across_sccs(self):
        ok, violations = is_structured(redirect_instance())
        assert not ok
        assert any("class 1 (1, 2)" in v for v in violations)

    def test_flower_is_structured(self, flower):
        assert is_structured(flower)[0]


class TestStructureDpa:
    def test_fixpoint_is_identity(self, flower):
        assert structure_dpa(flower) == flower

    def test_unreachable_state_dropped(self):
        a = ParityAutomaton(
            Alphabet(("a",)), 2, 0, (T(0, 0, 0, 0), T(1, 0, 0, 1))
        )
        structured, id_map = structure_dpa_with_map(a)
        assert structured == ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 0),))
        assert id_map == {0: 0}

    def test_unreachable_missing_row(self):
        # the partition needs every row, so it may only be computed once
        # the unreachable state 1 (which has none) is dropped
        a = ParityAutomaton(Alphabet(("a",)), 2, 0, (T(0, 0, 0, 0),))
        structured, id_map = structure_dpa_with_map(a)
        assert structured == ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 0),))
        assert id_map == {0: 0}

    def test_redirect_into_later_scc(self):
        structured, id_map = structure_dpa_with_map(redirect_instance())
        assert id_map == {0: 0, 2: 1}
        assert structured == ParityAutomaton(
            Alphabet(("a", "b")),
            2,
            0,
            (T(0, 0, 1, 0), T(0, 1, 0, 0), T(1, 0, 1, 2), T(1, 1, 1, 1)),
        )

    def test_initial_reseated_on_collapse(self):
        structured, id_map = structure_dpa_with_map(collapse_instance())
        assert structured.state_count == 1
        assert structured.initial == 0
        assert id_map == {2: 0}

    @pytest.mark.parametrize("seed", range(10))
    def test_language_preserved(self, seed):
        rng = random.Random(300 + seed)
        a = random_dpa(rng.randrange(1, 7), rng.randrange(1, 6), rng.randrange(1, 5), seed)
        structured = structure_dpa(a)
        assert is_structured(structured)[0]
        for _ in range(50):
            w = random_lasso(rng, len(a.alphabet))
            assert dpa_lasso_run(a, w).accepted == dpa_lasso_run(structured, w).accepted


class TestStreamline:
    def test_all_zero_single_scc_unchanged(self):
        a = ParityAutomaton(
            Alphabet(("a", "b")), 1, 0, (T(0, 0, 0, 0), T(0, 1, 0, 0))
        )
        assert streamline(a) == a
        assert is_streamlined(a)

    def test_transient_edge_drops_to_zero(self):
        # structured two-state instance: the cross edge is transient and its
        # color falls all the way to 0
        a = ParityAutomaton(
            Alphabet(("x", "y")),
            2,
            0,
            (T(0, 0, 1, 3), T(0, 1, 0, 1), T(1, 0, 1, 0), T(1, 1, 1, 0)),
        )
        out = streamline(a)
        assert not is_streamlined(a)
        assert out.step(0, 0).color == 0
        assert out.step(1, 0).color == 0
        assert out.step(1, 1).color == 0
        assert out.step(0, 1).color == 1

    def test_flower_golden_colors(self, flower):
        out = streamline(flower)
        assert {(t.src, t.sym): t.color for t in out.transitions} == FLOWER_STREAMLINED_COLORS
        assert len(out.colors) == 5
        assert [(t.src, t.sym, t.dst) for t in out.transitions] == [
            (t.src, t.sym, t.dst) for t in flower.transitions
        ]
        for before, after in zip(flower.transitions, out.transitions):
            assert after.color <= before.color
        assert streamline(out) == out
        assert is_streamlined(out)

    def test_requires_structured(self):
        with pytest.raises(PreconditionError, match="not structured"):
            streamline(redirect_instance())

    @pytest.mark.parametrize("seed", range(12))
    def test_scc_pass_order_is_immaterial(self, seed, flower):
        from oracles import streamline_one_scc_per_pass

        rng = random.Random(700 + seed)
        a = structure_dpa(
            random_dpa(rng.randrange(1, 7), rng.randrange(1, 6), rng.randrange(1, 5), seed)
        )
        assert streamline(a) == streamline_one_scc_per_pass(a)
        assert streamline(flower) == streamline_one_scc_per_pass(flower)

    @pytest.mark.parametrize("seed", range(10))
    def test_per_state_languages_survive_recoloring(self, seed):
        rng = random.Random(800 + seed)
        a = structure_dpa(
            random_dpa(rng.randrange(1, 7), rng.randrange(1, 6), rng.randrange(1, 5), seed)
        )
        assert state_equivalence(streamline(a)).classes == state_equivalence(a).classes

    @pytest.mark.parametrize("seed", range(10))
    def test_streamline_properties(self, seed):
        rng = random.Random(400 + seed)
        a = structure_dpa(
            random_dpa(rng.randrange(1, 7), rng.randrange(1, 6), rng.randrange(1, 5), seed)
        )
        out = streamline(a)
        assert [(t.src, t.sym, t.dst) for t in out.transitions] == [
            (t.src, t.sym, t.dst) for t in a.transitions
        ]
        for before, after in zip(a.transitions, out.transitions):
            assert after.color <= before.color
        assert len(out.colors) <= len(a.colors)
        assert streamline(out) == out
        for _ in range(50):
            w = random_lasso(rng, len(a.alphabet))
            assert dpa_lasso_run(a, w).accepted == dpa_lasso_run(out, w).accepted


class TestExtractChain:
    def test_level_zero_universal_level_top_empty(self, flower):
        s = streamline(flower)
        chain = extract_chain(s, state_equivalence(s))
        assert all(t.color == 2 for t in chain.levels[0].transitions)
        assert all(t.color == 1 for t in chain.levels[-1].transitions)
        rng = random.Random(17)
        for _ in range(20):
            w = random_lasso(rng, 3)
            assert gca_lasso_member(chain.levels[0], w)
            assert not gca_lasso_member(chain.levels[-1], w)

    def test_flower_level_five_accepting_set(self, flower):
        s = streamline(flower)
        chain = extract_chain(s, state_equivalence(s))
        accepting = {
            (t.src, t.sym, t.dst) for t in chain.levels[5].transitions if t.color == 2
        }
        assert accepting == {(0, 2, 3), (3, 0, 0), (3, 1, 0), (3, 2, 0)}
        assert all(lvl.gfg_claimed for lvl in chain.levels)

    def test_jump_transitions_from_equivalent_states(self):
        # the two surviving states are equivalent and share one SCC, so every
        # row gains a jump to the other state
        a = ParityAutomaton(
            Alphabet(("a", "b")),
            3,
            0,
            (
                T(0, 0, 1, 0), T(0, 1, 2, 0),
                T(1, 0, 2, 0), T(1, 1, 1, 1),
                T(2, 0, 1, 0), T(2, 1, 2, 1),
            ),
        )
        a = streamline(structure_dpa(a))
        equiv = state_equivalence(a)
        assert equiv.classes == ((0, 1),)
        chain = extract_chain(a, equiv)
        jumps = {
            (t.src, t.sym, t.dst)
            for t in chain.levels[0].transitions
            if t.color == 1
        }
        assert jumps == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
        stats = chain_stats(chain)
        assert all(entry.jump_transitions == 4 for entry in stats)

    def test_requires_streamlined(self, flower):
        with pytest.raises(PreconditionError, match="streamlined"):
            extract_chain(flower, state_equivalence(flower))

    def test_partition_mismatch(self, flower):
        s = streamline(flower)
        other = state_equivalence(
            ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 0),))
        )
        with pytest.raises(AutomatonError, match="partition"):
            extract_chain(s, other)


class TestMemo:
    """Partitions and streamlined colors are memoized on the automaton
    itself: the memo must neither keep it alive nor remember a failure."""

    def test_automata_are_collected(self):
        a = random_dpa(12, 4, 2, 5)
        s = streamline(structure_dpa(a))
        state_equivalence(a)
        assert is_streamlined(s)
        refs = [weakref.ref(a), weakref.ref(s)]
        del a, s
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_preconditions_raise_on_every_call(self, flower):
        unstructured = redirect_instance()
        assert not is_streamlined(flower)  # structured, not streamlined
        for _ in range(2):
            with pytest.raises(PreconditionError, match="not structured"):
                streamline(unstructured)
            with pytest.raises(PreconditionError, match="not structured"):
                corun_color(unstructured, state_equivalence(unstructured), WORD_CA)
            with pytest.raises(PreconditionError, match="streamlined"):
                extract_chain(flower, state_equivalence(flower))
            with pytest.raises(PreconditionError, match="streamlined"):
                corun_color(flower, state_equivalence(flower), WORD_CA)


def _idempotence_input(i: int) -> ParityAutomaton:
    """Seeded random DPAs of 1-12 states, and blow-ups (classes of 2-4
    mates) and staircases (classes across SCCs) of them."""
    rng = random.Random(3100 + i)
    a = random_dpa(rng.randrange(1, 13), rng.randrange(1, 7), rng.randrange(1, 4), i)
    if i % 3 == 1:
        return blowup(a, rng.randrange(2, 5), rng)
    if i % 3 == 2:
        return staircase(a, rng.randrange(2, 4), rng)
    return a


class TestCarriedStreamlinedColors:
    """``streamline`` hands its own colors forward as its streamlined
    colors, so the precondition of ``extract_chain`` on its output runs no
    recoloring pass; that is sound because streamlining is idempotent."""

    @pytest.mark.parametrize("chunk", range(8))
    def test_streamlining_is_idempotent(self, chunk):
        # 8 x 150 inputs, each recolored without the memo
        for i in range(chunk * 150, (chunk + 1) * 150):
            s = streamline(structure_dpa(_idempotence_input(i)))
            assert canonical._recolor(s) == s.flat[1]

    def test_one_recolor_through_the_pipeline(self, monkeypatch):
        kernel = canonical._recolor
        calls = []
        monkeypatch.setattr(canonical, "_recolor", lambda a: calls.append(a) or kernel(a))
        rng = random.Random(12)
        for a in (flower_automaton(), random_dpa(40, 6, 2, 3),
                  blowup(random_dpa(12, 5, 2, 4), 3, rng), staircase(random_dpa(8, 4, 2, 5), 3, rng)):
            calls.clear()
            s = streamline(structure_dpa(a))
            extract_chain(s, state_equivalence(s))
            assert len(calls) == 1
            # a value-equal copy carries nothing and computes its own verdict
            fresh = ParityAutomaton(s.alphabet, s.state_count, s.initial, s.transitions)
            assert is_streamlined(fresh) and len(calls) == 2
            raised = ParityAutomaton(s.alphabet, s.state_count, s.initial, tuple(
                T(src, y, d, c + (i == 0)) for i, (src, y, d, c) in enumerate(s.transitions)
            ))
            assert not is_streamlined(raised) and len(calls) == 3


class TestChainStats:
    def test_flower_counts(self, flower):
        s = streamline(flower)
        chain = extract_chain(s, state_equivalence(s))
        stats = chain_stats(chain)
        assert [entry.accepting_transitions for entry in stats] == [12, 12, 11, 8, 6, 4, 0]
        assert all(entry.states == 4 for entry in stats)
        assert all(entry.jump_transitions == 0 for entry in stats)

    def test_accepting_counts_non_increasing_and_jumps_constant(self):
        rng = random.Random(5)
        for seed in range(6):
            a = streamline(
                structure_dpa(
                    random_dpa(
                        rng.randrange(1, 7), rng.randrange(1, 6), rng.randrange(1, 5), seed
                    )
                )
            )
            chain = extract_chain(a, state_equivalence(a))
            stats = chain_stats(chain)
            accepting = [entry.accepting_transitions for entry in stats]
            assert accepting == sorted(accepting, reverse=True)
            assert len({entry.jump_transitions for entry in stats}) == 1


def _view_input(seed: int):
    """A streamlined small random DPA, or every third seed a mod-3 blow-up
    of one, whose classes have 3 mates and so give the chain jumps."""
    rng = random.Random(41 + seed)
    a = random_dpa(rng.randrange(1, 9), rng.randrange(1, 6), rng.randrange(1, 4), seed)
    if seed % 3 == 0:
        a = blowup(a, 3, rng)
    return streamline(structure_dpa(a))


class TestChainView:
    """``extract_chain`` returns a view; levels are built on first access."""

    def test_levels_built_only_on_access(self, flower):
        s = streamline(flower)
        chain = extract_chain(s, state_equivalence(s))
        assert "levels" not in vars(chain)
        assert chain.source_color_max == s.max_color == 5
        rng = random.Random(8)
        for _ in range(10):
            natural_color_via_chain(chain, random_lasso(rng, 3))
        chain_stats(chain)
        assert "levels" not in vars(chain)
        levels = chain.levels
        assert len(levels) == 7 and chain.levels is levels

    @pytest.mark.parametrize("seed", range(12))
    def test_stats_count_the_materialized_levels(self, seed):
        s = _view_input(seed)
        chain = extract_chain(s, state_equivalence(s))
        stats = chain_stats(chain)
        assert "levels" not in vars(chain)
        assert len(stats) == len(chain.levels) == s.max_color + 2
        for entry, level in zip(stats, chain.levels):
            jumps = {(t.src, t.sym, t.dst) for t in level.transitions} - {
                (t.src, t.sym, t.dst) for t in s.transitions
            }
            assert entry.states == level.state_count
            assert entry.accepting_transitions == sum(t.color == 2 for t in level.transitions)
            assert entry.jump_transitions == len(jumps)
            assert len(level.transitions) == len(s.transitions) + len(jumps)


def _rebuilt(a):
    """``a`` built again by its public constructor from its own rows,
    given in reverse."""
    rows = tuple(a.transitions)[::-1]
    if isinstance(a, CoBuchiAutomaton):
        return CoBuchiAutomaton(a.alphabet, a.state_count, a.initial, rows, a.gfg_claimed)
    return ParityAutomaton(a.alphabet, a.state_count, a.initial, rows)


class TestProductsPassTheConstructor:
    """Every automaton the pipeline builds holds sorted ``Transition`` rows
    of ints in range: rebuilt through the public constructor, with every
    check it makes, it compares equal."""

    @pytest.mark.parametrize("seed", range(24))
    def test_pipeline_products(self, seed):
        rng = random.Random(300 + seed)
        generated = random_dpa(rng.randrange(1, 12), rng.randrange(1, 6), rng.randrange(1, 4), seed)
        a = blowup(generated, 3, rng) if seed % 3 == 0 else generated
        structured = structure_dpa(a)
        streamlined = streamline(structured)
        partial = ParityAutomaton(a.alphabet, a.state_count, a.initial, a.transitions[1:])
        blocks = sorted(map(sorted, graphs._bisimulation(a, graphs._preimages(a))))
        chain = extract_chain(streamlined, state_equivalence(streamlined))
        products = [generated, structured, streamlined, complete_dpa(partial),
                    graphs._quotient(a, blocks), *chain.levels]
        for b in products:
            assert set(map(type, b.transitions)) == {Transition}
            assert b.transitions == tuple(sorted(b.transitions))
            rebuilt = _rebuilt(b)
            assert type(rebuilt) is type(b) and rebuilt == b


def _level_input(kind: str, seed: int):
    """A streamlined DPA of one of the families whose chains the level tests
    cover: a random DPA, its mod-3 blow-up (classes of 3 mates, so the
    chain has jumps) or its staircase, the flower, or a ``jumpy`` DPA."""
    if kind == "flower":
        return streamline(flower_automaton())
    if kind == "jumpy":
        return jumpy(seed)
    rng = random.Random(1700 + seed)
    a = random_dpa(rng.randrange(2, 12), rng.randrange(1, 7), rng.randrange(1, 4), seed)
    if kind == "blowup":
        a = blowup(a, 3, rng)
    elif kind == "staircase":
        a = staircase(a, 3, rng)
    return streamline(structure_dpa(a))


_LEVEL_INPUTS = [("flower", 0)] + [
    (kind, seed) for kind in ("random", "blowup", "staircase") for seed in range(8)
] + [("jumpy", s) for s in JUMPY_SEEDS]


class TestChainLevels:
    """Only A_0 passes the constructor; every other level is derived from
    its checked rows.  Each must equal the level that the constructor
    builds on its own, and the derivation must keep the work per chain and
    the lazy row index of each level."""

    @pytest.mark.parametrize("kind, seed", _LEVEL_INPUTS)
    def test_levels_match_oracle(self, kind, seed):
        s = _level_input(kind, seed)
        chain = extract_chain(s, state_equivalence(s))
        levels, expected = chain.levels, levels_oracle(chain)
        assert len(levels) == len(expected) == s.max_color + 2
        if kind in ("blowup", "jumpy"):
            assert len(levels[0].transitions) > len(s.transitions)  # the chain has jumps
        for level, oracle in zip(levels, expected):
            assert type(level) is CoBuchiAutomaton
            assert level == oracle
            assert emit_native(level) == emit_native(oracle)

    def test_constructor_checks_once_per_chain(self, monkeypatch):
        chains = []
        for kind, seed in _LEVEL_INPUTS:
            s = _level_input(kind, seed)
            chains.append(extract_chain(s, state_equivalence(s)))
        calls = []
        check = core._check_automaton
        monkeypatch.setattr(core, "_check_automaton", lambda a: calls.append(a) or check(a))
        counts = set()
        for chain in chains:
            calls.clear()
            levels = chain.levels
            assert len(calls) == 1 and calls[0] is levels[0]
            counts.add(len(levels))
        assert len(counts) >= 4

    @pytest.mark.parametrize("kind, seed", [("flower", 0), ("blowup", 3), ("jumpy", 83)])
    def test_levels_keep_their_row_index_lazy(self, kind, seed):
        s = _level_input(kind, seed)
        levels = extract_chain(s, state_equivalence(s)).levels
        for level in levels:
            emit_native(level)
        for level in levels:
            assert "_keys" not in vars(level) and "flat" not in vars(level)
