import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import minimal_lasso_brute
from paritychain import (
    Alphabet,
    AutomatonError,
    CoBuchiAutomaton,
    LassoWord,
    ParityAutomaton,
    Partition,
    Transition,
    complete_dpa,
    dpa_lasso_run,
    normalize_lasso,
    validate_dpa,
)

T = Transition


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(AutomatonError):
            Alphabet(())

    def test_rejects_duplicates(self):
        with pytest.raises(AutomatonError):
            Alphabet(("a", "a"))

    def test_index_is_stable(self):
        alphabet = Alphabet(("x", "y"))
        assert alphabet.index("y") == 1
        with pytest.raises(AutomatonError):
            alphabet.index("z")


class TestValidateDpa:
    def test_flower_is_valid(self, flower):
        assert validate_dpa(flower).ok

    def test_missing_transition_named(self, flower):
        broken = ParityAutomaton(
            flower.alphabet,
            flower.state_count,
            flower.initial,
            tuple(t for t in flower.transitions if (t.src, t.sym) != (1, 0)),
        )
        report = validate_dpa(broken)
        assert not report.ok
        assert report.violations == ("(state 1, letter 'a') has no transition",)

    def test_duplicate_transition_named(self, flower):
        broken = ParityAutomaton(
            flower.alphabet,
            flower.state_count,
            flower.initial,
            flower.transitions + (T(1, 0, 2, 2),),
        )
        report = validate_dpa(broken)
        assert not report.ok
        assert report.violations == ("(state 1, letter 'a') has 2 transitions",)

    def test_violation_list_capped(self):
        empty = ParityAutomaton(Alphabet(("a", "b")), 15, 0, ())
        report = validate_dpa(empty)
        assert not report.ok
        assert report.violations[0] == "(state 0, letter 'a') has no transition"
        assert report.violations[9] == "(state 4, letter 'b') has no transition"
        assert report.violations[10:] == ("... and 20 more",)

    def test_out_of_range_rejected_on_construction(self):
        with pytest.raises(AutomatonError):
            ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 5, 0),))
        with pytest.raises(AutomatonError):
            ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, -1),))


class TestCompleteDpa:
    def test_complete_input_unchanged(self, flower):
        assert complete_dpa(flower) is flower

    def test_single_state_no_transitions(self):
        a = ParityAutomaton(Alphabet(("a",)), 1, 0, ())
        done = complete_dpa(a)
        assert done.state_count == 2
        assert validate_dpa(done).ok
        assert not dpa_lasso_run(done, LassoWord((), (0,))).accepted

    def test_flower_minus_one_edge(self, flower):
        partial = ParityAutomaton(
            flower.alphabet,
            flower.state_count,
            flower.initial,
            tuple(t for t in flower.transitions if (t.src, t.sym) != (3, 1)),
        )
        done = complete_dpa(partial)
        assert validate_dpa(done).ok
        # the deleted row is not on the (ca)^w run, so its verdict is unchanged
        run = dpa_lasso_run(done, LassoWord((), (2, 0)))
        assert run.dominating_color == 5 and not run.accepted

    def test_nondeterministic_input_rejected(self, flower):
        doubled = ParityAutomaton(
            flower.alphabet,
            flower.state_count,
            flower.initial,
            flower.transitions + (T(1, 0, 2, 2),),
        )
        with pytest.raises(AutomatonError, match="not deterministic"):
            complete_dpa(doubled)

    def test_output_always_validates(self):
        a = ParityAutomaton(
            Alphabet(("a", "b")), 3, 0, (T(0, 0, 1, 2), T(1, 1, 2, 0))
        )
        assert validate_dpa(complete_dpa(a)).ok


class TestNormalizeLasso:
    @pytest.mark.parametrize(
        "before, after",
        [
            (((), (0, 1, 0, 1)), ((), (0, 1))),
            (((0,), (1, 0)), ((), (0, 1))),
            (((0,), (0,)), ((), (0,))),
        ],
    )
    def test_examples(self, before, after):
        assert normalize_lasso(LassoWord(*before)) == LassoWord(*after)

    def test_empty_period_rejected(self):
        with pytest.raises(AutomatonError):
            LassoWord((0,), ())

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 2), max_size=8),
        st.lists(st.integers(0, 2), min_size=1, max_size=8),
    )
    def test_normalization_properties(self, prefix, period):
        w = LassoWord(tuple(prefix), tuple(period))
        n = normalize_lasso(w)
        probe = (len(w.prefix) + len(w.period)) * (
            len(n.prefix) + len(n.period)
        ) + max(len(w.prefix), len(n.prefix))
        assert w.head(probe) == n.head(probe)
        assert normalize_lasso(n) == n
        assert n == minimal_lasso_brute(w)


class TestLassoWord:
    def test_suffix_matches_letter_stream(self):
        w = LassoWord((0, 1), (2, 0, 1))
        for p in range(10):
            assert w.suffix(p).head(12) == w.head(12 + p)[p:]


class TestPartition:
    def test_classes_normalized(self):
        p = Partition(classes=((2, 1), (0,)))
        assert p.classes == ((0,), (1, 2))
        assert p.class_of == {0: 0, 1: 1, 2: 1}
        assert p.mates(2) == (1, 2)

    def test_must_cover_dense_range(self):
        with pytest.raises(AutomatonError):
            Partition(classes=((0,), (2,)))


class TestCoBuchiInvariants:
    def test_colors_restricted(self):
        with pytest.raises(AutomatonError):
            CoBuchiAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 3),))

    def test_at_most_one_accepting_per_row(self):
        with pytest.raises(AutomatonError, match="two accepting"):
            CoBuchiAutomaton(
                Alphabet(("a",)), 2, 0, (T(0, 0, 0, 2), T(0, 0, 1, 2))
            )

    def test_duplicate_edges_rejected(self):
        with pytest.raises(AutomatonError, match="duplicate"):
            CoBuchiAutomaton(
                Alphabet(("a",)), 1, 0, (T(0, 0, 0, 1), T(0, 0, 0, 1))
            )


class TestLongLetterNames:
    """A letter name of 1 MB (as a HOA AP name makes one) is clipped in every
    message that names a letter."""

    HUGE = "x" * 10**6

    def alphabet(self):
        return Alphabet((self.HUGE, "b"))

    def assert_short(self, message):
        assert len(message) < 200 and "x" * 30 + "..." in message

    def test_step(self):
        a = ParityAutomaton(self.alphabet(), 1, 0, (T(0, 1, 0, 0),))
        with pytest.raises(AutomatonError, match="no transition") as err:
            a.step(0, 0)
        self.assert_short(str(err.value))

    def test_two_accepting_transitions(self):
        with pytest.raises(AutomatonError, match="two accepting") as err:
            CoBuchiAutomaton(self.alphabet(), 2, 0, (T(0, 0, 0, 2), T(0, 0, 1, 2)))
        self.assert_short(str(err.value))

    def test_validate_dpa_listings(self):
        a = ParityAutomaton(
            self.alphabet(), 2, 0,
            (T(0, 0, 0, 0), T(0, 0, 1, 0), T(0, 1, 0, 0), T(1, 1, 0, 0)),
        )
        doubled, missing = validate_dpa(a).violations
        assert "has no transition" in missing and "has 2 transitions" in doubled
        self.assert_short(missing)
        self.assert_short(doubled)

    def test_complete_dpa_and_index(self):
        a = ParityAutomaton(self.alphabet(), 1, 0, (T(0, 0, 0, 0), T(0, 0, 0, 1)))
        with pytest.raises(AutomatonError, match="not deterministic") as err:
            complete_dpa(a)
        self.assert_short(str(err.value))
        with pytest.raises(AutomatonError, match="unknown letter") as err:
            self.alphabet().index(self.HUGE + "y")
        self.assert_short(str(err.value))
