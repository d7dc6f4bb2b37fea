import copy
import gc
import pickle
import random
import time
import tracemalloc
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
    ChainRepresentation,
    CoBuchiAutomaton,
    ParityAutomaton,
    Partition,
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


class TestRandomDpa:
    @pytest.mark.parametrize("args, message", [
        ((3_000_000, 2, 2, 0), "3000000 states exceed the limit of 1000000"),
        ((600_000, 2, 2, 0), "600000 states x 2 letters exceed the limit of 1048576 rows"),
        ((1, 2, 2**20 + 1, 0), "1 states x 1048577 letters exceed the limit of 1048576 rows"),
        ((3, 2, 30, 0, ("a",)), "1 letter names for 30 letters"),
        ((3.0, 2, 2, 0), "states, colors, and letters must be ints"),
        ((3, 2, True, 0), "states, colors, and letters must be ints"),
        ((3, 0, 2, 0), "states, colors, and letters must be positive"),
        # these raised ValueError: the message converted the whole int
        ((10**5000, 2, 2, 0), "<int of 16610 bits> states exceed the limit of 1000000"),
        ((2, 2, 10**5000, 0),
         "2 states x <int of 16610 bits> letters exceed the limit of 1048576 rows"),
    ], ids=["states", "rows", "letters", "names", "float", "bool", "no-colors", "states-huge",
            "letters-huge"])
    def test_sizes_checked_before_a_row_is_drawn(self, args, message):
        # 3 000 000 states ended in a MemoryError after 20 s under a 1 GB cap
        with pytest.raises(AutomatonError) as err:
            random_dpa(*args)
        assert str(err.value) == message

    def test_default_letter_names(self):
        assert random_dpa(2, 2, 3, 0).alphabet.letters == ("a", "b", "c")
        assert random_dpa(1, 2, 27, 0).alphabet.letters == tuple(f"l{i}" for i in range(27))


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

    def test_direct_construction_checks_the_partition(self, flower):
        # a partition of fewer states used to fail late, on ``levels``, with
        # a bare KeyError from ``Partition.mates``
        s = streamline(flower)
        message = "^partition is not the automaton's language equivalence$"
        for build in (ChainRepresentation, extract_chain):
            with pytest.raises(AutomatonError, match=message):
                build(s, Partition(((0,),)))

    def test_a_huge_color_stops_at_the_constructor(self):
        # a one-state DPA whose only color is 10**6 streamlines to color 0;
        # built directly, the chain used to take it, and ``levels`` then
        # built 10**6 + 2 levels (3.8 s and 268 MB on a shared 2-vCPU host)
        a = ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 10**6),))
        with pytest.raises(PreconditionError,
                           match="^chain extraction requires a streamlined automaton$"):
            ChainRepresentation(a, state_equivalence(a))

    @pytest.mark.parametrize("build", [ChainRepresentation, extract_chain],
                             ids=["constructor", "extract_chain"])
    def test_wrong_classes_rejected(self, flower, build):
        s = streamline(flower)
        with pytest.raises(AutomatonError, match="^expected a ParityAutomaton, got a tuple$"):
            build(s.transitions, state_equivalence(s))
        with pytest.raises(AutomatonError, match="^expected a Partition, got a tuple$"):
            build(s, state_equivalence(s).classes)


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


def _count_scc_passes(monkeypatch) -> list:
    """The automata whose SCCs are computed, not read from the memo, in order."""
    calls = []
    kernel = graphs._scc_decompose
    monkeypatch.setattr(graphs, "_scc_decompose", lambda a: calls.append(a) or kernel(a))
    return calls


class TestCarriedSccs:
    """``scc_decompose`` memoizes its result, and ``structure_dpa_with_map``
    hands the SCCs of its last round to the automaton it returns, as it
    hands on the partition: its own final check and ``streamline``'s
    precondition run no SCC pass."""

    def test_one_scc_pass_when_no_state_moves(self, monkeypatch):
        calls = _count_scc_passes(monkeypatch)
        rng = random.Random(13)
        for a in (flower_automaton(), random_dpa(40, 6, 2, 3), random_dpa(64, 5, 4, 1),
                  blowup(random_dpa(12, 5, 2, 4), 3, rng)):
            a = _fresh(a)  # a ``random_dpa`` result carries its SCCs
            calls.clear()
            s = streamline(structure_dpa(a))
            extract_chain(s, state_equivalence(s))
            assert s.state_count == a.state_count and calls == [a]

    @pytest.mark.parametrize("build", [redirect_instance, collapse_instance])
    def test_one_scc_pass_per_round(self, monkeypatch, build):
        # one round redirects and drops a state, the next finds a fixpoint
        a = build()
        calls = _count_scc_passes(monkeypatch)
        s = streamline(structure_dpa(a))
        assert len(calls) == 2 and calls[0] is a and s.state_count < a.state_count

    @pytest.mark.parametrize("seed", range(6))
    def test_carried_sccs_are_the_result_s_own(self, seed):
        # the last round's SCCs, renumbered past the dropped states, are
        # those a fresh pass finds on the result
        rng = random.Random(3300 + seed)
        for i in range(40):
            a = _idempotence_input(seed * 40 + i)
            if i % 2:
                a = staircase(a, rng.randrange(2, 4), rng)
            out = structure_dpa(a)
            assert vars(out)["_sccs"] == graphs.scc_decompose(_fresh(out))
            assert is_structured(out) == (True, []) == is_structured(_fresh(out))

    def test_structuring_walks_no_reachability(self, monkeypatch):
        # the first round's SCCs are the reachable states, so no separate
        # reachability pass runs, also when the input has unreachable states;
        # ``canonical`` can reach ``reachable_states`` only through ``graphs``
        def walk(*args):
            raise AssertionError("reachable_states ran")

        assert not hasattr(canonical, "reachable_states")
        monkeypatch.setattr(graphs, "reachable_states", walk)
        base = random_dpa(10, 4, 2, 3)
        moved = ParityAutomaton(base.alphabet, base.state_count, base.transitions[0].dst,
                                base.transitions)  # 8 of its 10 states are reachable
        for a in (_fresh(base), moved, redirect_instance(), staircase(base, 3, random.Random(7))):
            out = structure_dpa(a)
            assert is_structured(_fresh(out)) == (True, [])
        assert structure_dpa(moved).state_count < moved.state_count

    def test_streamlining_starts_from_the_carried_sccs(self, monkeypatch):
        # one state per SCC, with least colors 3, 2 and 0: at counter 0 the
        # last two lower their least edges while state 0 waits, state 2
        # keeps its 1-colored loop, and at counter 1 both loops drop.  The
        # first round is the structured automaton's SCCs, and a waiting SCC
        # is carried, so the one Tarjan run is over state 2's loop
        from oracles import streamline_one_scc_per_pass

        a = ParityAutomaton(Alphabet(("a", "b")), 3, 0, (
            T(0, 0, 0, 3), T(0, 1, 1, 4), T(1, 0, 1, 2), T(1, 1, 2, 2),
            T(2, 0, 2, 1), T(2, 1, 2, 0)))
        s = structure_dpa(a)
        passes = _count_scc_passes(monkeypatch)
        runs = []
        tarjan = graphs._scc_ids
        monkeypatch.setattr(graphs, "_scc_ids", lambda *args: runs.append(args) or tarjan(*args))
        out = streamline(s)
        assert passes == [] and len(runs) == 1 and sorted(runs[0][2]) == [2]
        assert [t.color for t in out.transitions] == [1, 0, 0, 0, 1, 0]
        assert out == streamline_one_scc_per_pass(s)

    def test_memoized_verdict_returns_a_fresh_list(self):
        # the verdict is not memoized: each call rebuilds its list, so a
        # caller that mutates one changes no later answer
        a, out = redirect_instance(), structure_dpa(redirect_instance())
        expected = ["equivalence class 1 (1, 2) spans SCCs (1, 2)"]
        for b, verdict in ((a, (False, expected)), (out, (True, []))):
            ok, violations = is_structured(b)
            assert (ok, violations) == verdict
            violations.append("mutated")
            assert is_structured(b) == verdict
            assert is_structured(b)[1] is not violations


def _fresh(a: ParityAutomaton) -> ParityAutomaton:
    """A value-equal copy of ``a`` that carries no memo."""
    return ParityAutomaton(a.alphabet, a.state_count, a.initial, a.transitions)


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
        assert chain.source.max_color == s.max_color == 5
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

    @pytest.mark.parametrize("kind, seed", _LEVEL_INPUTS)
    def test_emission_matches_rebuilt_levels(self, kind, seed):
        # the levels of a chain fill one rendering of its rows with their
        # colors: in any order, and again, each text must be that of the
        # level built on its own through the public constructor
        s = _level_input(kind, seed)
        levels = extract_chain(s, state_equivalence(s)).levels
        expected = [emit_native(_rebuilt(level)) for level in levels]
        for _ in range(2):
            for i in reversed(range(len(levels))):
                assert emit_native(levels[i]) == expected[i]
        for i, level in enumerate(levels):  # copies render their template again
            for twin in (copy.deepcopy(level), pickle.loads(pickle.dumps(level))):
                assert emit_native(twin) == expected[i]

    def test_levels_leave_no_reference_cycle(self):
        s = _level_input("blowup", 3)
        gc.collect()
        gc.disable()
        try:
            chain = extract_chain(s, state_equivalence(s))
            levels = chain.levels
            for level in levels:
                emit_native(level)
            refs = [weakref.ref(chain), weakref.ref(levels[-1])]
            del chain, levels, level
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_chain_emission_cost(self):
        # a blow-up of 1160 states, 6 levels of 92 800 rows each.  Building
        # the levels and emitting each took 0.36-0.46 s with a per-level
        # rendering of every row, the emission 6.6-7.7 times that of one
        # level built on its own, and 0.18-0.28 s, 1.2-1.3 times, with one
        # template per chain; the tracemalloc peaks were 25.5 and 25.6 MB
        # (Python 3.11, a shared 2-vCPU host)
        s = streamline(structure_dpa(blowup(random_dpa(30, 8, 2, 3), 40, random.Random(3))))
        equiv = state_equivalence(s)

        def emit_levels(levels):
            start = time.perf_counter()
            for level in levels:
                emit_native(level)
            return time.perf_counter() - start

        def build_and_emit():
            start = time.perf_counter()
            emit_levels(extract_chain(s, equiv).levels)
            return time.perf_counter() - start

        times = [build_and_emit() for _ in range(3)]
        tracemalloc.start()
        try:
            build_and_emit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        top = extract_chain(s, equiv).levels[0]
        assert len(top.transitions) == 92_800 and s.max_color + 2 == 6
        alone = min(emit_levels([_rebuilt(top)]) for _ in range(3))
        emitted = min(emit_levels(extract_chain(s, equiv).levels) for _ in range(3))
        assert emitted < 3 * alone
        assert peak <= 28_000_000
        assert min(times) < 0.5
