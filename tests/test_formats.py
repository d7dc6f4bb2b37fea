import json
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flower_automaton
from paritychain import (
    Alphabet,
    CoBuchiAutomaton,
    FormatError,
    ParityAutomaton,
    Transition,
    complete_dpa,
    dpa_language_equiv,
    emit_dot,
    emit_hoa,
    emit_native,
    extract_chain,
    parse_hoa,
    parse_native,
    random_dpa,
    state_equivalence,
    streamline,
    validate_dpa,
)

T = Transition
GOLDEN = Path(__file__).parent / "golden"


class TestNative:
    def test_shipped_flower_file(self, flower):
        text = (resources.files("paritychain") / "data" / "fig1.aut").read_text()
        loaded = parse_native(text)
        assert loaded == flower
        assert loaded.state_count == 4
        assert len(loaded.transitions) == 12
        assert emit_native(loaded) == text

    def test_empty_document_is_syntax_error(self):
        with pytest.raises(FormatError) as err:
            parse_native("")
        assert err.value.line == 1

    def test_error_carries_position(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_native('{\n  "kind": oops\n}')

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_random_dpa(self, seed):
        a = random_dpa(5, 4, 3, seed)
        assert parse_native(emit_native(a)) == a

    def test_round_trip_chain_level_keeps_gfg(self, flower):
        s = streamline(flower)
        chain = extract_chain(s, state_equivalence(s))
        text = emit_native(chain.levels[3])
        again = parse_native(text)
        assert isinstance(again, CoBuchiAutomaton)
        assert again.gfg_claimed
        assert again == chain.levels[3]
        assert '"gfg": true' in text

    def test_equal_automata_identical_bytes(self, flower):
        shuffled = ParityAutomaton(
            flower.alphabet,
            flower.state_count,
            flower.initial,
            tuple(reversed(flower.transitions)),
        )
        assert emit_native(shuffled) == emit_native(flower)

    def test_semantic_error_mentions_offender(self, flower):
        partial = ParityAutomaton(
            flower.alphabet,
            flower.state_count,
            flower.initial,
            flower.transitions[:-1],
        )
        text = emit_native(partial)
        with pytest.raises(FormatError, match="has no transition"):
            parse_native(text)
        assert not validate_dpa(parse_native(text, validate=False)).ok

    def test_streamlined_golden_bytes(self, flower):
        expected = (GOLDEN / "flower_streamlined.aut").read_text()
        assert emit_native(streamline(flower)) == expected

    def test_chain_level_five_golden_bytes(self, flower):
        s = streamline(flower)
        chain = extract_chain(s, state_equivalence(s))
        expected = (GOLDEN / "flower_chain_A5.aut").read_text()
        assert emit_native(chain.levels[5]) == expected


UNIVERSAL_1AP = """\
HOA: v1
States: 1
Start: 0
AP: 1 "go"
acc-name: parity min even 1
Acceptance: 1 Inf(0)
--BODY--
State: 0
[t] 0 {0}
--END--
"""


class TestInputLimits:
    # each over-limit value would allocate 2^64 letters or 10^9 state rows
    def test_ap_count(self):
        names = " ".join(f'"p{j}"' for j in range(64))
        with pytest.raises(FormatError, match="AP: 64 propositions exceed the limit of 16"):
            parse_hoa(UNIVERSAL_1AP.replace('AP: 1 "go"', f"AP: 64 {names}"))

    def test_hoa_state_count(self):
        with pytest.raises(FormatError, match="States: 10+ exceeds the limit of 1000000"):
            parse_hoa(UNIVERSAL_1AP.replace("States: 1", f"States: {10**9}"))

    @pytest.mark.parametrize("kind", ["dpa", "ncw"])
    def test_native_state_count(self, kind):
        doc = {"kind": kind, "alphabet": ["a"], "states": 10**9, "initial": 0, "transitions": []}
        with pytest.raises(FormatError, match="10+ states exceed the limit of 1000000"):
            parse_native(json.dumps(doc))

    # past Python's 4300-digit int-string limit, which raises a plain ValueError
    def test_long_hoa_integer(self):
        with pytest.raises(FormatError, match="line 2, column 9: integer literal of 5000 digits"):
            parse_hoa(UNIVERSAL_1AP.replace("States: 1", "States: " + "1" * 5000))
        with pytest.raises(FormatError, match="integer literal of 5000 digits"):
            parse_hoa(UNIVERSAL_1AP.replace("[t] 0", "[t] " + "1" * 5000))

    @pytest.mark.parametrize("kind", ["dpa", "ncw"])
    def test_long_native_integer(self, kind):
        doc = json.dumps({"kind": kind, "alphabet": ["a"], "states": 1, "initial": 0,
                          "transitions": []}).replace('"states": 1', '"states": ' + "1" * 5000)
        with pytest.raises(FormatError, match="integer literal too long"):
            parse_native(doc)

    def test_deep_native_nesting(self):
        with pytest.raises(FormatError, match="nested too deeply"):
            parse_native("[" * 100_000)

    def test_missing_rows_capped(self):
        # 1000 states x 1024 letters and one edge: every missing row used to
        # be listed, a 46 MB message
        names = " ".join(f'"p{j}"' for j in range(10))
        text = UNIVERSAL_1AP.replace("States: 1", "States: 1000")
        text = text.replace('AP: 1 "go"', f"AP: 10 {names}")
        with pytest.raises(FormatError, match=r"incomplete rows: \[\(1, '!p0&!p1&") as err:
            parse_hoa(text)
        message = str(err.value)
        assert len(message) < 1024
        assert message.count("(1, ") == 10 and "... and 1022966 more;" in message
        assert len(parse_hoa(text, allow_incomplete=True).transitions) == 1024

    def test_few_missing_rows_listed_in_full(self):
        text = UNIVERSAL_1AP.replace("States: 1", "States: 3")
        with pytest.raises(FormatError) as err:
            parse_hoa(text)
        assert str(err.value) == (
            "incomplete rows: [(1, '!go'), (1, 'go'), (2, '!go'), (2, 'go')]; "
            "parse with allow_incomplete=True and apply complete_dpa"
        )

    def test_nondeterminism_reported_before_missing_rows(self):
        text = UNIVERSAL_1AP.replace("States: 1", "States: 3").replace(
            "[t] 0 {0}", "[t] 0 {0}\nState: 2\n[0] 0 {0}\n[t] 1 {0}"
        )
        with pytest.raises(FormatError, match="^nondeterministic: state 2 has 2 transitions on go$"):
            parse_hoa(text)

    @pytest.mark.parametrize("old, new, message", [
        ("parity min even 1", 'parity min even "' + "x" * 10**6 + '"', "expected an integer, got "),
        ("parity min even 1", '"' + "x" * 10**6 + '"', "need acc-name: parity min even <k>, got "),
        ("[t] 0", "[" + "x" * 10**6 + "] 0", "unsupported label element "),
        ("--END--", "--" + "x" * 10**6 + "--", "unexpected '--"),
    ], ids=["acc-name-int", "acc-name", "label", "marker"])
    def test_long_token_clipped_in_message(self, old, new, message):
        with pytest.raises(FormatError, match=message) as err:
            parse_hoa(UNIVERSAL_1AP.replace(old, new))
        assert len(str(err.value)) < 200 and "x" * 30 + "..." in str(err.value)

    def test_long_ap_name_clipped_in_nondeterminism(self):
        text = UNIVERSAL_1AP.replace('"go"', '"' + "x" * 10**6 + '"').replace(
            "[t] 0 {0}", "[t] 0 {0}\n[0] 0 {0}"
        )
        with pytest.raises(FormatError, match="^nondeterministic: state 0 has 2 transitions") as err:
            parse_hoa(text)
        assert len(str(err.value)) < 200 and "x" * 30 + "..." in str(err.value)


def _mutated(base: str):
    """Documents made from ``base`` by a few deletions, insertions and
    replacements of short runs of characters the grammars care about."""
    pieces = st.text(st.sampled_from('0123456789-:[]{}()!&|"\\/* \nabtfHOA,'), max_size=6)
    edits = st.lists(
        st.tuples(st.integers(0, len(base)), st.integers(0, 3), pieces | st.just("9" * 4400)),
        min_size=1, max_size=3,
    )

    def apply(edits):
        text = base
        for pos, cut, piece in edits:
            pos = min(pos, len(text))
            text = text[:pos] + piece + text[pos + cut:]
        return text

    return edits.map(apply)


_FLOWER_NATIVE = emit_native(flower_automaton())
_FLOWER_HOA = emit_hoa(random_dpa(3, 3, 2, 7))


class TestParserFuzz:
    """Any text, arbitrary or a mutated valid document, is either parsed or
    rejected with a ``FormatError``; nothing else escapes either parser."""

    @staticmethod
    def _parse_all(text):
        for parse in (parse_native, lambda t: parse_native(t, validate=False),
                      parse_hoa, lambda t: parse_hoa(t, allow_incomplete=True)):
            try:
                parse(text)
            except FormatError:
                pass

    # crashes found by fuzzing, or next to them
    def test_empty_ap_name(self):
        with pytest.raises(FormatError, match="AP: letter names must be non-empty"):
            parse_hoa(UNIVERSAL_1AP.replace('"go"', '""'))

    def test_non_integer_color_count(self):
        with pytest.raises(FormatError, match="expected an integer, got 'x'"):
            parse_hoa(UNIVERSAL_1AP.replace("parity min even 1", "parity min even x"))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.text(max_size=80))
    def test_arbitrary_text(self, text):
        self._parse_all(text)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_mutated(_FLOWER_NATIVE))
    def test_mutated_native(self, text):
        self._parse_all(text)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_mutated(_FLOWER_HOA) | _mutated(UNIVERSAL_1AP))
    def test_mutated_hoa(self, text):
        self._parse_all(text)


class TestHoa:
    def test_universal_one_ap(self):
        a = parse_hoa(UNIVERSAL_1AP)
        assert a.state_count == 1
        assert a.alphabet.letters == ("!go", "go")
        assert all(t.color == 0 for t in a.transitions)
        assert validate_dpa(a).ok

    def test_min_odd_rejected(self):
        text = UNIVERSAL_1AP.replace("min even", "min odd")
        with pytest.raises(FormatError, match="unsupported acceptance"):
            parse_hoa(text)

    def test_fixpoint_after_one_normalization(self):
        for seed in range(8):
            a = random_dpa(4, 3, 4, seed)
            text = emit_hoa(a)
            again = parse_hoa(text)
            assert emit_hoa(again) == text
            assert parse_hoa(emit_hoa(again)) == again

    def test_parse_emit_preserves_language(self):
        a = random_dpa(5, 3, 2, seed=3)
        b = parse_hoa(emit_hoa(a))
        relabeled = ParityAutomaton(
            b.alphabet, a.state_count, a.initial, a.transitions
        )
        assert dpa_language_equiv(relabeled, b)[0]

    def test_three_letter_alphabet_refused(self, flower):
        with pytest.raises(FormatError, match="native"):
            emit_hoa(flower)

    def test_universal_two_letter_golden(self):
        uni = ParityAutomaton(
            Alphabet(("a", "b")), 1, 0, (T(0, 0, 0, 0), T(0, 1, 0, 0))
        )
        assert emit_hoa(uni) == (GOLDEN / "universal2.hoa").read_text()

    def test_gca_emission_marks_rejecting_edges(self, flower):
        a = ParityAutomaton(
            Alphabet(("a", "b")), 1, 0, (T(0, 0, 0, 0), T(0, 1, 0, 1))
        )
        chain = extract_chain(streamline(a), state_equivalence(a))
        text = emit_hoa(chain.levels[1])
        assert "acc-name: co-Buchi" in text
        assert "Acceptance: 1 Fin(0)" in text
        assert "x-gfg: t" in text
        assert "[!0] 0 {0}" in text  # rejecting edge carries set 0
        assert "[0] 0\n" in text  # accepting edge carries no set

    def test_nondeterminism_rejected(self):
        text = UNIVERSAL_1AP.replace("[t] 0 {0}", "[t] 0 {0}\n[0] 0 {0}")
        with pytest.raises(FormatError, match="nondeterministic"):
            parse_hoa(text)

    def test_multiple_start_rejected(self):
        text = UNIVERSAL_1AP.replace("Start: 0", "Start: 0\nStart: 0")
        with pytest.raises(FormatError, match="single initial"):
            parse_hoa(text)

    def test_incomplete_reported_and_recoverable(self):
        text = UNIVERSAL_1AP.replace("[t] 0 {0}", "[0] 0 {0}")
        with pytest.raises(FormatError, match="incomplete"):
            parse_hoa(text)
        partial = parse_hoa(text, allow_incomplete=True)
        assert not validate_dpa(partial).ok
        assert validate_dpa(complete_dpa(partial)).ok

    def test_transition_needs_exactly_one_set(self):
        text = UNIVERSAL_1AP.replace("[t] 0 {0}", "[t] 0")
        with pytest.raises(FormatError, match="exactly one acceptance set"):
            parse_hoa(text)

    def test_acceptance_count_mismatch(self):
        text = UNIVERSAL_1AP.replace("Acceptance: 1 Inf(0)", "Acceptance: 3 Inf(0)")
        with pytest.raises(FormatError, match="declares 3 sets"):
            parse_hoa(text)

    def test_label_nesting_limit(self):
        accepted = parse_hoa(UNIVERSAL_1AP.replace("[t]", "[" + "!" * 100 + "t]"))
        assert all(t.color == 0 for t in accepted.transitions)
        deep = "(" * 3000 + "t" + ")" * 3000
        with pytest.raises(FormatError, match="nested deeper than 100 levels"):
            parse_hoa(UNIVERSAL_1AP.replace("[t]", f"[{deep}]"))

    def test_label_formula_expansion(self):
        text = """\
HOA: v1
States: 1
Start: 0
AP: 2 "x" "y"
acc-name: parity min even 2
Acceptance: 2 Inf(0) | (Fin(1))
--BODY--
State: 0
[0 | !0 & 1] 0 {0}
[!0 & !1] 0 {1}
--END--
"""
        a = parse_hoa(text)
        by_letter = {a.alphabet.letters[t.sym]: t.color for t in a.transitions}
        assert by_letter == {"!x&!y": 1, "x&!y": 0, "!x&y": 0, "x&y": 0}


class TestDot:
    def test_single_self_loop(self):
        a = ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, 0),))
        text = emit_dot(a)
        assert text.count(" -> ") == 2  # init arrow plus the one edge
        assert 's0 -> s0 [label="a/0"];' in text

    def test_flower_node_and_edge_counts(self, flower):
        text = emit_dot(flower)
        states = [line for line in text.splitlines() if line.strip().endswith(";") and line.strip().startswith("s") and "->" not in line]
        edges = [line for line in text.splitlines() if "->" in line and not line.strip().startswith("init")]
        assert len(states) == 4
        assert len(edges) == 12

    def test_byte_stable_and_golden(self, flower):
        assert emit_dot(flower) == emit_dot(flower_automaton())
        assert emit_dot(flower) == (GOLDEN / "flower.dot").read_text()

    def test_accepting_gca_edges_bold(self, flower):
        s = streamline(flower)
        chain = extract_chain(s, state_equivalence(s))
        text = emit_dot(chain.levels[5])
        assert "style=bold" in text
        bold = [line for line in text.splitlines() if "style=bold" in line]
        assert len(bold) == 4
