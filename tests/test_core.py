import ast
import copy
import inspect
import pickle
import random
import re
import time
from itertools import chain, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    head,
    letter_stream,
    minimal_lasso_brute,
    row_scan_bad_rows,
    row_scan_complete,
    row_scan_flat,
    row_scan_step,
    row_scan_successors,
    row_scan_validate,
    suffix,
)
import paritychain
from paritychain import (
    Alphabet,
    AutomatonError,
    ChainRepresentation,
    CoBuchiAutomaton,
    FormatError,
    LassoWord,
    ParityAutomaton,
    Partition,
    SccDecomposition,
    Transition,
    complete_dpa,
    dpa_lasso_run,
    emit_hoa,
    emit_native,
    is_streamlined,
    normalize_lasso,
    parse_hoa,
    parse_native,
    random_dpa,
    reachable_states,
    state_equivalence,
    streamline,
    validate_dpa,
)
from paritychain.core import _MAX_STATES

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
        assert validate_dpa(flower) == (True, ())

    def test_missing_transition_named(self, flower):
        broken = ParityAutomaton(
            flower.alphabet,
            flower.state_count,
            flower.initial,
            tuple(t for t in flower.transitions if (t.src, t.sym) != (1, 0)),
        )
        report = validate_dpa(broken)
        assert not report.ok
        assert not report  # the truth value is ``ok``, not the tuple's length
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
        with pytest.raises(AutomatonError, match="nondeterministic"):
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

    @settings(max_examples=150, deadline=None, derandomize=True)
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
        assert head(w, probe) == head(n, probe)
        assert normalize_lasso(n) == n
        assert n == minimal_lasso_brute(w)


class TestLassoWord:
    def test_suffix_matches_letter_stream(self):
        # the oracles' letter stream: its letters, stepped by after
        w = LassoWord((0, 1), (2, 0, 1))
        letters, after = letter_stream(ParityAutomaton(Alphabet(("a", "b", "c")), 1, 0, ()), w)
        stream, p = [], 0
        for _ in range(22):
            stream.append(letters[p])
            p = after[p]
        assert head(w, 22) == tuple(stream)
        for p in range(10):
            assert head(suffix(w, p), 12) == tuple(stream[p:p + 12])


class TestPartition:
    def test_classes_normalized(self):
        p = Partition(classes=((2, 1), (0,)))
        assert p.classes == ((0,), (1, 2))
        assert p.class_of == {0: 0, 1: 1, 2: 1}
        assert p.mates(2) == (1, 2)

    @pytest.mark.parametrize("q", [-1, 3, True, 1.0, "x", [0]])
    def test_mates_of_a_non_state_raise(self, q):
        # the library's loops read a table by state, where -1 would be the
        # last state's class; True and 1.0 would pass as state 1
        p = Partition(classes=((2, 1), (0,)))
        with pytest.raises(AutomatonError, match=rf"^state {re.escape(repr(q))} out of range$"):
            p.mates(q)

    def test_must_cover_dense_range(self):
        with pytest.raises(AutomatonError):
            Partition(classes=((0,), (2,)))

    @pytest.mark.parametrize("classes", [((0,), ()), ((),), (), ((0, 1), (1,))],
                             ids=["empty-class", "only-empty", "no-class", "overlap"])
    def test_malformed_classes_rejected(self, classes):
        # an empty class used to raise IndexError while sorting the classes
        with pytest.raises(AutomatonError, match="dense state range"):
            Partition(classes=classes)


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


class TestTransitionContract:
    """``Transition`` is a 4-tuple with named fields: it orders, hashes and
    prints as it did as a frozen dataclass, and equals the plain tuple."""

    def test_fields_and_order(self):
        t = T(1, 0, 3, 2)
        assert T._fields == ("src", "sym", "dst", "color")
        assert (t.src, t.sym, t.dst, t.color) == (1, 0, 3, 2)
        assert T(src=1, sym=0, dst=3, color=2) == t

    def test_ordering_is_field_by_field(self):
        rows = [T(1, 0, 0, 0), T(0, 1, 0, 0), T(0, 0, 2, 0), T(0, 0, 1, 5), T(0, 0, 1, 4)]
        assert sorted(rows) == [T(0, 0, 1, 4), T(0, 0, 1, 5), T(0, 0, 2, 0), T(0, 1, 0, 0),
                                T(1, 0, 0, 0)]
        assert T(0, 0, 1, 5) < T(0, 0, 2, 0) < T(0, 1, 0, 0)

    def test_hash_and_repr(self):
        assert hash(T(0, 0, 5, 1)) == hash((0, 0, 5, 1))
        assert repr(T(0, 0, 5, 1)) == "Transition(src=0, sym=0, dst=5, color=1)"
        assert str(T(0, 0, 5, 1)) == "Transition(src=0, sym=0, dst=5, color=1)"

    def test_equals_plain_tuple(self):
        assert T(0, 1, 2, 3) == (0, 1, 2, 3)
        assert {T(0, 1, 2, 3)} == {(0, 1, 2, 3)}
        assert T(0, 1, 2, 3) != (0, 1, 2, 4)


class TestColumnChecks:
    """The range checks run by column; a failing one names the first
    offending transition in sorted order, with the text of the row walk."""

    LETTERS = Alphabet(("a", "b"))
    ROWS = (T(0, 0, 1, 2), T(0, 1, 0, 1), T(1, 0, 1, 1), T(1, 1, 0, 2))  # valid in both classes
    STATE = "has a state index out of range"
    LETTER = "has a letter index out of range"

    @pytest.mark.parametrize("cls", [ParityAutomaton, CoBuchiAutomaton])
    @pytest.mark.parametrize("row, problem", [
        (T(-1, 0, 0, 1), STATE), (T(2, 0, 0, 1), STATE),
        (T(1, 0, -1, 1), STATE), (T(0, 0, 2, 1), STATE),
        (T(1, -1, 0, 1), LETTER), (T(0, 2, 1, 1), LETTER),
        (T(1, 0, 0, -1), "has a color out of range 0..1048576"),
    ], ids=["src-negative", "src-n", "dst-negative", "dst-n", "sym-negative", "sym-k",
            "color-negative"])
    def test_one_fault(self, cls, row, problem):
        with pytest.raises(AutomatonError) as err:
            cls(self.LETTERS, 2, 0, self.ROWS + (row,))
        assert str(err.value) == f"transition {row!r} {problem}"

    @pytest.mark.parametrize("cls", [ParityAutomaton, CoBuchiAutomaton])
    def test_first_offender_in_sorted_order(self, cls):
        late, early = T(1, 0, 5, 1), T(0, 1, 0, -1)
        with pytest.raises(AutomatonError) as err:
            cls(self.LETTERS, 2, 0, (late,) + self.ROWS + (early,))
        assert str(err.value) == "transition Transition(src=0, sym=1, dst=0, color=-1) " \
                                 "has a color out of range 0..1048576"
        with pytest.raises(AutomatonError) as err:
            cls(self.LETTERS, 2, 0, (T(0, 5, 0, 1), T(0, 1, 9, 1)))
        assert str(err.value) == "transition Transition(src=0, sym=1, dst=9, color=1) " \
                                 "has a state index out of range"

    def test_large_color_is_a_parity_color(self):
        a = ParityAutomaton(self.LETTERS, 2, 0, self.ROWS[1:] + (T(0, 0, 1, 10**6),))
        assert a.max_color == 10**6

    @pytest.mark.parametrize("rows, message", [
        ((T(1, 0, 1, 3),), "co-Buchi colors must be 1 or 2, got 3"),
        ((T(1, 0, 0, 0),), "co-Buchi colors must be 1 or 2, got 0"),
        ((T(0, 0, 1, 1),), "duplicate transition (0, 0, 1)"),
        ((T(1, 1, 0, 2),), "duplicate transition (1, 1, 0)"),
        ((T(0, 0, 0, 2),), "state 0 has two accepting transitions on letter 'a'"),
        ((T(1, 1, 1, 2), T(0, 1, 1, 3)), "co-Buchi colors must be 1 or 2, got 3"),
        ((T(1, 1, 1, 2), T(1, 0, 1, 2)), "duplicate transition (1, 0, 1)"),
    ], ids=["color-3", "color-0", "duplicate-edge", "duplicate-row", "two-accepting",
            "two-faults-color-first", "two-faults-duplicate-first"])
    def test_cobuchi_faults(self, rows, message):
        with pytest.raises(AutomatonError) as err:
            CoBuchiAutomaton(self.LETTERS, 2, 0, self.ROWS + rows)
        assert str(err.value) == message

    def test_empty_automata(self):
        for cls in (ParityAutomaton, CoBuchiAutomaton):
            assert cls(self.LETTERS, 1, 0, ()).transitions == ()


class TestIllTypedRows:
    """Rows must be ``Transition``s of ints: a plain tuple, a float, a bool
    or a string is an ``AutomatonError``, not an ``AttributeError``, a
    ``TypeError`` or an automaton whose emitted text cannot be parsed."""

    LETTERS = Alphabet(("a",))

    @pytest.mark.parametrize("cls", [ParityAutomaton, CoBuchiAutomaton])
    @pytest.mark.parametrize("rows, message", [
        (((0, 0, 0, 1),), "transition 0 is not a Transition: (0, 0, 0, 1)"),
        ((T(0, 0, 0, 1), [0, 0, 0, 1]), "transition 1 is not a Transition: [0, 0, 0, 1]"),
        ((T(0.0, 0, 0, 1),), "transition 0 has a src that is not an int: 0.0"),
        ((T(0, 0, 0, 1.5),), "transition 0 has a color that is not an int: 1.5"),
        ((T(0, True, 0, 1),), "transition 0 has a sym that is not an int: True"),
        ((T(0, 0, 0, 1), T(0, 0, "0", 1)), "transition 1 has a dst that is not an int: '0'"),
    ], ids=["tuple", "list", "float-src", "float-color", "bool-sym", "str-dst"])
    def test_rejected(self, cls, rows, message):
        with pytest.raises(AutomatonError) as err:
            cls(self.LETTERS, 1, 0, rows)
        assert str(err.value) == message

    def test_message_clipped(self):
        with pytest.raises(AutomatonError) as err:
            ParityAutomaton(self.LETTERS, 1, 0, (T(0, 0, 0, "x" * 10**6),))
        assert str(err.value) == "transition 0 has a color that is not an int: '" + "x" * 39 + "..."

    @pytest.mark.parametrize("cls", [ParityAutomaton, CoBuchiAutomaton])
    @pytest.mark.parametrize("state_count, initial, message", [
        (2.0, 0, "state_count is not an int: 2.0"),
        (True, 0, "state_count is not an int: True"),
        (2, 0.0, "initial is not an int: 0.0"),
        (2, False, "initial is not an int: False"),
        (0, 0, "automaton needs at least one state"),
        (2, 2, "initial state out of range"),
    ], ids=["float-states", "bool-states", "float-initial", "bool-initial", "no-states",
            "initial-range"])
    def test_state_count_and_initial(self, cls, state_count, initial, message):
        # a float state count used to be emitted as "states": 2.0, which
        # parse_native rejects, and initial=False as "initial": False
        with pytest.raises(AutomatonError) as err:
            cls(self.LETTERS, state_count, initial, (T(0, 0, 1, 1), T(1, 0, 0, 1)))
        assert str(err.value) == message


class TestIllTypedRecords:
    """A record built from a value of the wrong type is an ``AutomatonError``
    at once: not a ``TypeError``, and not a record that fails later."""

    DENSE = "classes must partition a dense state range 0..n-1"

    @pytest.mark.parametrize("build, message", [
        # accepted, and emitted as "gfg": "yes", which parse_native refuses
        (lambda: CoBuchiAutomaton(Alphabet(("a",)), 1, 0, (), gfg_claimed="yes"),
         "gfg_claimed is not a bool: 'yes'"),
        (lambda: CoBuchiAutomaton(Alphabet(("a",)), 1, 0, (), gfg_claimed=1),
         "gfg_claimed is not a bool: 1"),
        # accepted, and its ``flat`` raised TypeError
        (lambda: ParityAutomaton(None, 1, 0, ()), "expected a Alphabet, got a NoneType"),
        (lambda: ParityAutomaton(("a",), 1, 0, ()), "expected a Alphabet, got a tuple"),
        # the rest raised TypeError
        (lambda: CoBuchiAutomaton(Alphabet(("a",)), 1, 0, None),
         "transitions must be a sequence of Transitions"),
        (lambda: LassoWord(None, (0,)), "lasso prefix and period must be sequences of letters"),
        (lambda: LassoWord((), 0), "lasso prefix and period must be sequences of letters"),
        (lambda: Partition(None), DENSE),
        (lambda: Partition((0, 1)), DENSE),
        (lambda: Partition(((0, "a"),)), DENSE),
        # a float or a bool equals an int, so these passed the range test
        (lambda: Partition(((0, 1.0),)), DENSE),
        (lambda: Partition(((False,),)), DENSE),
        (lambda: Alphabet(None), "alphabet must be a sequence of letter names"),
        # the error path itself raised TypeError on an int; the lookup on
        # an unhashable name
        (lambda: Alphabet(("a",)).index(0), "unknown letter 0"),
        (lambda: Alphabet(("a",)).index(["a"]), "unknown letter ['a']"),
        # these raised AttributeError or TypeError, and a float passed the range test
        (lambda: reachable_states("x", 0),
         "expected a ParityAutomaton or CoBuchiAutomaton, got a str"),
        (lambda: reachable_states(_DPA, "0"), "state '0' out of range"),
        (lambda: reachable_states(_DPA, None), "state None out of range"),
        (lambda: reachable_states(_DPA, 1.0), "state 1.0 out of range"),
        (lambda: normalize_lasso("x"), "expected a LassoWord, got a str"),
        # these raised ValueError: an int past Python's 4300-digit limit on
        # conversion to text was converted for the message
        (lambda: reachable_states(_DPA, 10**5000), "state <int of 16610 bits> out of range"),
        (lambda: Alphabet(("a",)).index(10**5000), "unknown letter <int of 16610 bits>"),
        (lambda: LassoWord((), (-10**5000,)),
         "letters must be non-negative ints, got <negative int of 16610 bits>"),
        (lambda: dpa_lasso_run(_DPA, LassoWord((), (10**5000,))),
         "letter index <int of 16610 bits> is out of range for an alphabet of 2 letters"),
        # these raised ValueError too: the message held the whole Transition
        (lambda: ParityAutomaton(Alphabet(("a",)), 1, 0, (T(10**5000, 0, 0, 1),)),
         "transition Transition(src=<int of 16610 bits>, sym=0, dst=0, color=1) "
         "has a state index out of range"),
        (lambda: CoBuchiAutomaton(Alphabet(("a",)), 1, 0, (T(0, -10**5000, 0, 1),)),
         "transition Transition(src=0, sym=<negative int of 16610 bits>, dst=0, color=1) "
         "has a letter index out of range"),
        (lambda: ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, -10**5000, 1),)),
         "transition Transition(src=0, sym=0, dst=<negative int of 16610 bits>, color=1) "
         "has a state index out of range"),
        (lambda: CoBuchiAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 10**5000),)),
         "transition Transition(src=0, sym=0, dst=0, color=<int of 16610 bits>) "
         "has a color out of range 0..1048576"),
        (lambda: ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, -10**5000),)),
         "transition Transition(src=0, sym=0, dst=0, color=<negative int of 16610 bits>) "
         "has a color out of range 0..1048576"),
        # these raised AttributeError or TypeError before any check
        (lambda: is_streamlined(None), "expected a ParityAutomaton, got a NoneType"),
        (lambda: is_streamlined("x"), "expected a ParityAutomaton, got a str"),
        (lambda: streamline(None), "expected a ParityAutomaton, got a NoneType"),
        (lambda: streamline(3), "expected a ParityAutomaton, got a int"),
        (lambda: random_dpa(2, 2, 2, [1]), "seed is not an int: [1]"),
        # these raised TypeError, or answered a float or bool as a state or
        # letter; the last let its argument's RuntimeError escape
        (lambda: _DPA.row("x", 0), "row ('x', 0) is not a pair of ints"),
        (lambda: _DPA.row(None, 0), "row (None, 0) is not a pair of ints"),
        (lambda: CoBuchiAutomaton(Alphabet(("a",)), 1, 0, ()).row("x", 0),
         "row ('x', 0) is not a pair of ints"),
        (lambda: _DPA.step(0.0, 0), "row (0.0, 0) is not a pair of ints"),
        (lambda: _DPA.step(0, True), "row (0, True) is not a pair of ints"),
        (lambda: Alphabet(("a",)).index(_RaisingHash()), "unknown letter _RaisingHash()"),
    ], ids=["gfg-str", "gfg-int", "alphabet-none", "alphabet-tuple", "transitions-none",
            "prefix-none", "period-int", "partition-none", "partition-of-ints",
            "partition-str", "partition-float", "partition-bool", "letters-none",
            "index-int", "index-list", "reach-str", "reach-origin-str", "reach-origin-none",
            "reach-origin-float", "lasso-str", "reach-origin-huge", "index-huge",
            "lasso-letter-huge", "run-letter-huge", "src-huge", "sym-huge-negative",
            "dst-huge-negative", "ncw-color-huge", "color-huge-negative",
            "streamlined-none", "streamlined-str", "streamline-none", "streamline-int",
            "seed-list", "row-str", "row-none", "ncw-row-str", "step-float", "step-bool",
            "index-raising-hash"])
    def test_rejected(self, build, message):
        with pytest.raises(AutomatonError) as err:
            build()
        assert str(err.value) == message

    def test_max_color_needs_a_transition(self):
        a = ParityAutomaton(Alphabet(("a",)), 1, 0, ())
        assert a.colors == ()
        with pytest.raises(AutomatonError, match="no transitions, hence no colors"):
            a.max_color


_DPA = ParityAutomaton(Alphabet(("a", "b")), 2, 0,
                       (T(1, 0, 0, 1), T(0, 0, 1, 2), T(0, 1, 0, 0), T(1, 1, 1, 3)))
_DPA_REPR = ("ParityAutomaton(alphabet=Alphabet(letters=('a', 'b')), state_count=2, initial=0, "
             "transitions=(Transition(src=0, sym=0, dst=1, color=2), "
             "Transition(src=0, sym=1, dst=0, color=0), Transition(src=1, sym=0, dst=0, color=1), "
             "Transition(src=1, sym=1, dst=1, color=3)))")
# ``streamline(_DPA)``, as a chain needs a streamlined source
_SLIM = ParityAutomaton(_DPA.alphabet, 2, 0,
                        (T(0, 0, 1, 1), T(0, 1, 0, 0), T(1, 0, 0, 1), T(1, 1, 1, 1)))
_SLIM_REPR = ("ParityAutomaton(alphabet=Alphabet(letters=('a', 'b')), state_count=2, initial=0, "
              "transitions=(Transition(src=0, sym=0, dst=1, color=1), "
              "Transition(src=0, sym=1, dst=0, color=0), Transition(src=1, sym=0, dst=0, color=1), "
              "Transition(src=1, sym=1, dst=1, color=1)))")
_FROZEN = {  # class -> (arguments, the repr the frozen dataclass printed)
    Alphabet: ((("a", "b"),), "Alphabet(letters=('a', 'b'))"),
    ParityAutomaton: ((_DPA.alphabet, 2, 0, _DPA.transitions), _DPA_REPR),
    CoBuchiAutomaton: (
        (Alphabet(("a",)), 2, 1, (T(1, 0, 0, 1), T(0, 0, 1, 2)), True),
        "CoBuchiAutomaton(alphabet=Alphabet(letters=('a',)), state_count=2, initial=1, "
        "transitions=(Transition(src=0, sym=0, dst=1, color=2), "
        "Transition(src=1, sym=0, dst=0, color=1)), gfg_claimed=True)"),
    LassoWord: (([0], (1, 0)), "LassoWord(prefix=(0,), period=(1, 0))"),
    Partition: ((((2, 1), (0,)),), "Partition(classes=((0,), (1, 2)))"),
    ChainRepresentation: (
        (_SLIM, Partition(((0,), (1,)))),
        f"ChainRepresentation(source={_SLIM_REPR}, partition=Partition(classes=((0,), (1,))))"),
    SccDecomposition: ((((0,), (1, 2)),), "SccDecomposition(sccs=((0,), (1, 2)))"),
}


@pytest.mark.parametrize("cls", list(_FROZEN), ids=lambda cls: cls.__name__)
def test_frozen_record_contract(cls):
    """The checked and memoizing records behave as the frozen dataclasses
    they replace: repr, equality and hash by field, read-only fields, and
    pickle and copy round trips."""
    args, expected = _FROZEN[cls]
    x, y = cls(*args), cls(*args)
    assert repr(x) == expected
    assert x == y and hash(x) == hash(y) and x is not y
    other = type("Other", (cls,), {})(*args)  # same fields, another class
    assert x != other and other != x
    assert x != tuple(getattr(x, f) for f in cls._fields)
    field = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert repr(x) == expected and x == y
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert twin == x and hash(twin) == hash(x) and type(twin) is cls


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
        with pytest.raises(AutomatonError, match="nondeterministic") as err:
            complete_dpa(a)
        self.assert_short(str(err.value))
        with pytest.raises(AutomatonError, match="unknown letter") as err:
            self.alphabet().index(self.HUGE + "y")
        self.assert_short(str(err.value))


class TestRowRange:
    """``row`` and ``step`` reject a state or letter outside
    the automaton instead of reading another state's row."""

    DPA = ParityAutomaton(Alphabet(("a", "b")), 2, 0,
                          (T(0, 0, 1, 0), T(0, 1, 0, 0), T(1, 0, 1, 1), T(1, 1, 0, 0)))
    NCW = CoBuchiAutomaton(Alphabet(("a", "b")), 2, 0,
                           (T(0, 0, 1, 2), T(0, 1, 0, 1), T(1, 0, 1, 1), T(1, 1, 0, 2)))

    @pytest.mark.parametrize("src, sym", [(0, 2), (0, -1), (-1, 0), (2, 0), (10**300, 0),
                                          (10**5000, 0), (0, -10**5000)],
                             ids=["letter-k", "letter-negative", "state-negative", "state-n",
                                  "state-huge", "state-past-digit-limit",
                                  "letter-past-digit-limit"])
    def test_rejected(self, src, sym):
        for call in (self.DPA.step, self.DPA.row, self.NCW.row):
            with pytest.raises(AutomatonError, match="out of range") as err:
                call(src, sym)
            assert len(str(err.value)) < 200

    def test_in_range_rows(self):
        assert self.DPA.step(1, 0) == T(1, 0, 1, 1)
        assert self.NCW.row(0, 0) == (T(0, 0, 1, 2),)


def _bad_rows(a) -> list[tuple[int, int, int]]:
    """(src, sym, count) for every row in the library's runs of bad rows."""
    k = len(a.alphabet)
    return [(r // k, r % k, count)
            for first, stop, count in a._bad_runs() for r in range(first, stop)]


def _outcome(f, *args):
    """``f(*args)``, or the type and text of the ``AutomatonError`` it raises."""
    try:
        return f(*args)
    except AutomatonError as err:
        return type(err), str(err)


def _partial_dpa(seed: int) -> ParityAutomaton:
    """Seeded DPA whose rows hold 0-3 transitions; some states hold none,
    and the last state, which no transition enters, misses its first row."""
    rng = random.Random(seed)
    n, k = rng.randint(1, 7), rng.randint(1, 3)
    ts = []
    for q in range(n):
        empty = rng.random() < 0.15
        for sym in range(k):
            count = 0 if empty else rng.choice((0, 1, 1, 1, 1, 2, 3))
            ts += [T(q, sym, rng.randrange(n), rng.randrange(4)) for _ in range(count)]
    ts += [T(n, sym, rng.randrange(n), 0) for sym in range(1, k)]
    rng.shuffle(ts)
    return ParityAutomaton(Alphabet(tuple("abc"[:k])), n + 1, 0, tuple(ts))


def _partial_ncw(seed: int) -> CoBuchiAutomaton:
    """Seeded co-Buchi automaton whose rows hold 0-3 distinct targets, at
    most one of them accepting."""
    rng = random.Random(seed)
    n, k = rng.randint(1, 6), rng.randint(1, 3)
    ts = []
    for q in range(n):
        for sym in range(k):
            targets = rng.sample(range(n), rng.randint(0, min(n, 3)))
            accepting = rng.choice(targets + [None])
            ts += [T(q, sym, d, 2 if d == accepting else 1) for d in targets]
    return CoBuchiAutomaton(Alphabet(tuple("abc"[:k])), n, 0, tuple(ts))


class TestRowScanOracle:
    """Every row question is answered as a scan of a (state, letter) dict
    answers it (``oracles.row_scan_*``), on seeded partial and
    nondeterministic automata."""

    SEEDS = range(300)

    def test_seeds_cover_every_row_fault(self):
        counts = set()
        empty_states = unreachable_missing = capped = 0
        for seed in self.SEEDS:
            a = _partial_dpa(seed)
            bad = row_scan_bad_rows(a)
            counts |= {count for _, _, count in bad}
            sources = {t.src for t in a.transitions}
            empty_states += any(q not in sources for q in range(a.state_count - 1))
            unreachable_missing += (a.state_count - 1, 0, 0) in bad
            capped += len(bad) > 10
        assert counts == {0, 2, 3}
        assert empty_states and capped and unreachable_missing == len(self.SEEDS)

    def test_dpa_rows(self):
        for seed in self.SEEDS:
            a = _partial_dpa(seed)
            assert _bad_rows(a) == row_scan_bad_rows(a), seed
            assert validate_dpa(a) == row_scan_validate(a), seed
            assert _outcome(complete_dpa, a) == _outcome(row_scan_complete, a), seed
            assert _outcome(lambda: a.flat) == _outcome(row_scan_flat, a), seed
            for q in range(a.state_count):
                for sym in range(len(a.alphabet)):
                    assert _outcome(a.step, q, sym) == _outcome(row_scan_step, a, q, sym), seed

    def test_complete_dpas_and_one_row_short(self):
        completed = 0
        for seed in self.SEEDS:
            if any(count for _, _, count in row_scan_bad_rows(_partial_dpa(seed))):
                continue
            done = complete_dpa(_partial_dpa(seed))
            assert _bad_rows(done) == [] and done.flat == row_scan_flat(done), seed
            completed += 1
            ts = done.transitions
            for short in (ts[1:], ts[:-1], ts[:-1] + (ts[-2],)):
                a = ParityAutomaton(done.alphabet, done.state_count, 0, short)
                assert _bad_rows(a) == row_scan_bad_rows(a), seed
                assert validate_dpa(a) == row_scan_validate(a), seed
                assert _outcome(lambda: a.flat) == _outcome(row_scan_flat, a), seed
        assert completed

    def test_ncw_successors(self):
        for seed in self.SEEDS:
            a = _partial_ncw(seed)
            assert _bad_rows(a) == row_scan_bad_rows(a), seed
            for q in range(a.state_count):
                for sym in range(len(a.alphabet)):
                    assert a.row(q, sym) == row_scan_successors(a, q, sym), seed


class _RaisingRepr:
    """A value whose ``repr`` raises, as a buggy user class might."""

    def __repr__(self):
        raise RuntimeError("no repr")


class _RaisingHash:
    """A value whose ``__eq__`` and ``__hash__`` raise, so neither a dict
    nor a set can look it up."""

    def __eq__(self, other):
        raise RuntimeError("no eq")

    def __hash__(self):
        raise RuntimeError("no hash")

    def __repr__(self):
        return "_RaisingHash()"


def _hostile_pool() -> list:
    """Twenty-five arguments no public name should answer with a raw error:
    wrong types, ints past Python's 4300-digit limit, a value whose
    ``repr`` raises, one whose ``__eq__`` and ``__hash__`` raise, and small
    valid values and records, some of the wrong kind.  No valid large
    size, so no call builds a large automaton."""
    slim = ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 1),))
    level = ChainRepresentation(slim, Partition(((0,),))).levels[0]
    return [None, True, False, 0, 1, -1, 2.5, float("nan"), 10**5000, -10**5000, "x", "", b"x",
            (), [0], {"kind": "dpa"}, T(0, 0, 0, 0), LassoWord((), (0,)), level,
            Partition(((0,),)), Alphabet(("a",)), slim,
            ParityAutomaton(Alphabet(("a",)), 1, 0, ()), _RaisingRepr(), _RaisingHash()]


def _outcomes(f, calls) -> tuple[int, list[str]]:
    """Call ``f`` with each argument list of ``calls`` that its signature
    takes.  Return how many it took, and the findings: each call that
    raised neither ``AutomatonError`` nor ``FormatError``, by pool index."""
    try:
        bind = inspect.signature(f).bind
    except ValueError:  # an exception class, which takes any arguments
        bind = lambda *args: None
    pool = _hostile_pool()
    taken, findings = 0, []
    for picks in calls:
        args = [pool[i] for i in picks]
        try:
            bind(*args)
        except TypeError:  # not a call ``f`` takes
            continue
        taken += 1
        try:
            f(*args)
        except (AutomatonError, FormatError):
            pass
        except Exception as err:  # noqa: BLE001 - a finding, named by pool index
            findings.append(f"{f.__name__} on pool items {picks}: {type(err).__name__}")
    return taken, findings


# the records of the hostile pool, and every public method (not property) of them
_RECORDS = (Alphabet, ParityAutomaton, CoBuchiAutomaton, Partition, LassoWord)
_PUBLIC_METHODS = sorted({name for cls in _RECORDS
                          for name, _ in inspect.getmembers(cls, inspect.isfunction)
                          if not name.startswith("_")})


class TestApiFuzz:
    """Every public name, called with every one and every two arguments of
    one pool of hostile values that its signature takes, returns or raises
    ``AutomatonError`` or ``FormatError``; so do the names that take three
    or four arguments, on a fixed sample of such calls, and every public
    method of the pool's records."""

    def test_public_names(self):
        n = len(_hostile_pool())
        calls = [*((i,) for i in range(n)), *product(range(n), repeat=2)]
        taken, findings = 0, []
        for name in paritychain.__all__:
            count, found = _outcomes(getattr(paritychain, name), calls)
            taken += count
            findings += found
        assert findings == []
        assert taken > 5000

    @pytest.mark.parametrize("method", _PUBLIC_METHODS)
    def test_public_methods(self, method):
        n = len(_hostile_pool())
        calls = [*((i,) for i in range(n)), *product(range(n), repeat=2)]
        taken, findings = 0, []
        for owner in _hostile_pool():
            if isinstance(owner, _RECORDS) and hasattr(owner, method):
                count, found = _outcomes(getattr(owner, method), calls)
                taken += count
                findings += found
        assert findings == []
        assert taken >= n

    @pytest.mark.parametrize("name", ["ParityAutomaton", "random_dpa", "corun_color"])
    def test_three_and_four_arguments(self, name):
        # all n^3 argument lists and 20 000 of the n^4, the same on every run
        n = len(_hostile_pool())
        calls = [*product(range(n), repeat=3)]
        for code in random.Random(4).sample(range(n**4), 20_000):
            calls.append(tuple(code // n**j % n for j in range(4)))
        taken, findings = _outcomes(getattr(paritychain, name), calls)
        assert findings == []
        assert taken >= n**3


class TestDerivedAll:
    """``paritychain.__all__`` is derived from the package's imports, so it
    is checked against the names its ``from .x import`` statements bind,
    read from the source."""

    def test_all_is_the_imported_names(self):
        tree = ast.parse(Path(paritychain.__file__).read_text(encoding="utf-8"))
        imported = [alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for alias in node.names]
        assert len(set(imported)) == len(imported)
        assert paritychain.__all__ == sorted(imported)
        namespace: dict = {}
        exec("from paritychain import *", namespace)
        assert namespace.keys() - {"__builtins__"} == set(imported)


class TestRaisingRepr:
    """A value whose ``repr`` raises is named by its class in an error
    message (``core._shown``); each of these calls let the ``repr``'s
    ``RuntimeError`` escape."""

    ONE = Alphabet(("a",))
    LOOP = ParityAutomaton(ONE, 1, 0, (T(0, 0, 0, 0),))

    @pytest.mark.parametrize("call, message", [
        (lambda x: random_dpa(2, 2, 2, x), "seed is not an int: <a _RaisingRepr>"),
        (lambda x: ParityAutomaton(TestRaisingRepr.ONE, x, 0, ()),
         "state_count is not an int: <a _RaisingRepr>"),
        (lambda x: ParityAutomaton(TestRaisingRepr.ONE, 1, 0, (T(0, 0, x, 0),)),
         "transition 0 has a dst that is not an int: <a _RaisingRepr>"),
        (lambda x: CoBuchiAutomaton(TestRaisingRepr.ONE, 1, 0, (), x),
         "gfg_claimed is not a bool: <a _RaisingRepr>"),
        (lambda x: TestRaisingRepr.ONE.index(x), "unknown letter <a _RaisingRepr>"),
        (lambda x: LassoWord((x,), (0,)),
         "letters must be non-negative ints, got <a _RaisingRepr>"),
        (lambda x: reachable_states(TestRaisingRepr.LOOP, x),
         "state <a _RaisingRepr> out of range"),
    ], ids=["random_dpa", "state_count", "transition", "gfg_claimed", "index", "lasso",
            "reachable_states"])
    def test_named_by_class(self, call, message):
        assert _refusal(lambda: call(_RaisingRepr())) == message


def _refusal(build) -> str:
    """The text of the ``AutomatonError`` or ``FormatError`` ``build()`` raises."""
    try:
        build()
    except (AutomatonError, FormatError) as err:
        return str(err)
    raise AssertionError("not refused")


class TestSizeLimits:
    """Every automaton, however it was built, is refused past the limits
    of ``core._check_size`` before a row is read."""

    @pytest.mark.parametrize("cls", [ParityAutomaton, CoBuchiAutomaton])
    @pytest.mark.parametrize("letters, states, message", [
        (("a",), _MAX_STATES + 1, "1000001 states exceed the limit of 1000000"),
        (("a", "b"), 2**19 + 1, "524289 states x 2 letters exceed the limit of 1048576 rows"),
        (("a",), 10**5000, "<int of 16610 bits> states exceed the limit of 1000000"),
    ], ids=["states", "rows", "huge"])
    def test_refused_at_once(self, cls, letters, states, message):
        alphabet = Alphabet(letters)

        def build():
            return _refusal(lambda: cls(alphabet, states, 0, ()))

        assert build() == message
        assert min(_seconds(build) for _ in range(3)) < 1e-3

    def test_complete_dpa_at_the_row_limit(self):
        # the sink's rows would make one state more than the limit allows
        full = ParityAutomaton(Alphabet(("a", "b")), 2**19, 0, ())
        assert _refusal(lambda: complete_dpa(full)) == \
            "524289 states x 2 letters exceed the limit of 1048576 rows"


def _seconds(f) -> float:
    start = time.perf_counter()
    f()
    return time.perf_counter() - start


class TestOneBadRowText:
    """A missing and a doubled row get one text from every reader of rows:
    the report, the completion, ``step``, ``flat`` and both parsers."""

    LETTERS = Alphabet(("!go", "go"))
    ROWS = (T(0, 0, 1, 0), T(0, 1, 0, 1), T(1, 0, 1, 1), T(1, 1, 0, 0))
    MISSING = "(state 1, letter '!go') has no transition"
    DOUBLED = "(state 0, letter 'go') has 2 transitions"

    def test_missing_row(self):
        a = ParityAutomaton(self.LETTERS, 2, 0, self.ROWS[:2] + self.ROWS[3:])
        assert validate_dpa(a).violations == (self.MISSING,)
        assert _refusal(lambda: a.step(1, 0)) == self.MISSING
        assert _refusal(lambda: state_equivalence(a)) == self.MISSING  # through ``flat``
        assert _refusal(lambda: parse_native(emit_native(a))) == \
            "invalid automaton: " + self.MISSING
        assert _refusal(lambda: parse_hoa(emit_hoa(a))) == \
            f"incomplete rows: {self.MISSING}; parse with allow_incomplete=True and apply " \
            "complete_dpa"

    def test_doubled_row(self):
        a = ParityAutomaton(self.LETTERS, 2, 0, self.ROWS + (T(0, 1, 1, 1),))
        assert validate_dpa(a).violations == (self.DOUBLED,)
        assert _refusal(lambda: complete_dpa(a)) == "nondeterministic: " + self.DOUBLED
        assert _refusal(lambda: a.step(0, 1)) == self.DOUBLED
        assert _refusal(lambda: state_equivalence(a)) == self.DOUBLED
        assert _refusal(lambda: parse_native(emit_native(a))) == \
            "invalid automaton: " + self.DOUBLED
        assert _refusal(lambda: parse_hoa(emit_hoa(a))) == "nondeterministic: " + self.DOUBLED
