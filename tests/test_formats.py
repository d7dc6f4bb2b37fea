import json
import random
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flower_automaton, mutated
from oracles import eval_label_oracle
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
from paritychain.formats import _LabelParser, _tokenize_hoa, _TokenStream, letter_names

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

    @pytest.mark.parametrize("item, message", [
        ('[0, 0, 0, 0]', "transition 1 must be an object"),
        ('"t"', "transition 1 must be an object"),
        ('{"src": 0, "sym": 0, "dst": 0}', "transition 1: missing field 'col'"),
        ('{"src": 0, "sym": true, "dst": 0, "col": 0}',
         "transition 1: field 'sym' must be of type int"),
        ('{"src": 0, "sym": 0, "dst": 0.0, "col": 0}',
         "transition 1: field 'dst' must be of type int"),
        ('{"src": "0", "sym": 0, "dst": 0, "col": 0}',
         "transition 1: field 'src' must be of type int"),
        ('{"src": 0, "sym": 0, "dst": 9, "col": 0}',
         "transition Transition(src=0, sym=0, dst=9, color=0) has a state index out of range"),
    ], ids=["list", "string", "missing", "bool", "float", "string-field", "out-of-range"])
    def test_transition_item_errors(self, item, message):
        # the second item is the faulty one; the first is fine
        text = ('{"kind": "dpa", "alphabet": ["a"], "states": 1, "initial": 0, "transitions": '
                f'[{{"src": 0, "sym": 0, "dst": 0, "col": 0}}, {item}]}}')
        with pytest.raises(FormatError) as err:
            parse_native(text)
        assert str(err.value) == message

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

    # 2^20 rows are accepted; one state more is refused before any row is read
    @pytest.mark.parametrize("states, refused", [(2**19, False), (2**19 + 1, True)])
    def test_hoa_row_count(self, states, refused):
        with pytest.raises(FormatError) as err:
            parse_hoa(UNIVERSAL_1AP.replace("States: 1", f"States: {states}"))
        message = str(err.value)
        assert message.startswith("States: ") == refused
        assert ("x 2^1 valuations exceed the limit of 1048576 rows" in message) == refused

    @pytest.mark.parametrize("states", [2**19, 2**19 + 1])
    def test_native_row_count(self, states):
        doc = json.dumps({"kind": "dpa", "alphabet": ["a", "b"], "states": states,
                          "initial": 0, "transitions": []})
        if states * 2 <= 2**20:
            assert parse_native(doc, validate=False).state_count == states
        else:
            with pytest.raises(FormatError, match="2 letters exceed the limit of 1048576 rows"):
                parse_native(doc, validate=False)

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
    @given(mutated(_FLOWER_NATIVE))
    def test_mutated_native(self, text):
        self._parse_all(text)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mutated(_FLOWER_HOA) | mutated(UNIVERSAL_1AP))
    def test_mutated_hoa(self, text):
        self._parse_all(text)


class TestHoa:
    def test_universal_one_ap(self):
        a = parse_hoa(UNIVERSAL_1AP)
        assert a.state_count == 1
        assert a.alphabet.letters == ("!go", "go")
        assert all(t.color == 0 for t in a.transitions)
        assert validate_dpa(a).ok

    @pytest.mark.parametrize("count", range(9))
    def test_letter_names_match_per_valuation_formula(self, count):
        aps = [f"a{j}" for j in range(count)]
        expected = tuple(
            "&".join(ap if v >> j & 1 else "!" + ap for j, ap in enumerate(aps)) or "t"
            for v in range(2**count)
        )
        assert letter_names(aps) == expected

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


class TestHoaRejections:
    """Every ``parse_hoa`` rejection of a one-edit ``UNIVERSAL_1AP``: the
    message and the line it is reported at (None: no position)."""

    @pytest.mark.parametrize("old, new, message, line", [
        ("HOA: v1", "HOA: v2", "only HOA v1 is supported", 1),
        ("--BODY--\nState: 0\n[t] 0 {0}\n--END--\n", "", "missing --BODY--", None),
        ('AP: 1 "go"', 'AP: "go"', "AP: takes a count and names", 4),
        ("Acceptance: 1 Inf(0)", "Acceptance: Inf(0)", "Acceptance: takes a set count", 6),
        ("State: 0", "State: [t] 0", "state labels are not supported", 8),
        ("{0}\n", "{0}\nState: 0\n", "state 0 declared twice", 10),
        ("State: 0", "State: 1", "state 1 out of range", 8),
        ("State: 0", "State: 0 {0}", "state-based acceptance is not supported", 8),
        ("State: 0", "[t] 0 {0}\nState: 0", "edge outside any State:", 8),
        ("[t] 0 {0}", "[t] 0&0 {0}", "universal branching is not supported", 9),
        ("{0}", "{x}", "expected acceptance set index, got 'x'", 9),
        ("{0}", "{0 0}", "exactly one acceptance set", 9),
        ("{0}", "{1}", "acceptance set 1 out of range", 9),
        ("[t]", "[1]", "AP index 1 out of range", 9),
        ("[t]", "[(t]", "expected ')'", 9),
        ("[t]", "[0 &]", "unsupported label element ']'", 9),
        ("[t]", "[0 0]", "trailing '0' in label", 9),
        ("[t]", "[f]", "incomplete rows: [(0, '!go'), (0, 'go')]", None),
    ], ids=[
        "version", "no-body", "ap-count", "acceptance-count", "state-label",
        "state-twice", "state-range", "state-acceptance", "edge-outside-state",
        "universal", "set-not-int", "two-sets", "set-range", "ap-index",
        "unclosed-paren", "label-ends", "label-trailing", "false-label",
    ])
    def test_rejection(self, old, new, message, line):
        assert old in UNIVERSAL_1AP
        with pytest.raises(FormatError) as err:
            parse_hoa(UNIVERSAL_1AP.replace(old, new))
        assert message in str(err.value)
        assert err.value.line == line

    @pytest.mark.parametrize("edits, message", [
        ([("States: 1", "States: 2"), ("[t] 0 {0}", "[t] 0 {0}\nState: 1\n[0] 7 {0}")],
         "incomplete rows: [(1, '!go')]; parse with allow_incomplete=True and apply "
         "complete_dpa"),
        ([("Start: 0", "Start: 7"), ("[t] 0 {0}", "[t] 0 {0}\n[0] 0 {0}")],
         "nondeterministic: state 0 has 2 transitions on go"),
        ([("[t] 0 {0}", "[t] 0 {0}\n[0] 9 {0}")],
         "nondeterministic: state 0 has 2 transitions on go"),
    ], ids=["target-range-and-missing-row", "start-range-and-doubled-row",
            "target-range-and-doubled-row"])
    def test_row_fault_reported_before_range_fault(self, edits, message):
        text = UNIVERSAL_1AP
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        with pytest.raises(FormatError) as err:
            parse_hoa(text)
        assert str(err.value) == message


def _hoa_body(a) -> str:
    """The ``--BODY--`` part of ``emit_hoa(a)``, one transition scan per state."""
    lines = []
    ap_count = len(a.alphabet).bit_length() - 1
    for q in range(a.state_count):
        lines.append(f"State: {q}")
        for t in a.transitions:
            if t.src == q:
                label = "&".join(str(j) if t.sym >> j & 1 else f"!{j}" for j in range(ap_count))
                if isinstance(a, CoBuchiAutomaton):
                    suffix = "" if t.color == 2 else " {0}"
                else:
                    suffix = f" {{{t.color}}}"
                lines.append(f"[{label or 't'}] {t.dst}{suffix}")
    return "--BODY--\n" + "\n".join(lines) + "\n--END--\n"


class TestHoaBody:
    """``emit_hoa`` lists every state, those without transitions too, with
    its transitions in order, as a scan of all transitions per state does."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_dpa(self, seed):
        a = random_dpa(12, 4, 2 ** (seed % 3 + 1), seed)
        assert emit_hoa(a).endswith(_hoa_body(a))

    def test_partial_ncw(self):
        # state 1 has no transition and state 3, the last, has none either
        a = CoBuchiAutomaton(Alphabet(("a", "b")), 4, 0, (
            T(0, 0, 2, 2), T(0, 1, 0, 1), T(2, 1, 2, 2), T(2, 1, 0, 1),
        ))
        text = emit_hoa(a)
        assert text.endswith(_hoa_body(a))
        assert text.endswith(
            "--BODY--\nState: 0\n[!0] 2\n[0] 0 {0}\nState: 1\nState: 2\n"
            "[0] 0 {0}\n[0] 2\nState: 3\n--END--\n"
        )


_GOLDENS = ["flower_streamlined.aut", "flower_chain_A5.aut", "universal2.hoa", "blowup14.aut"] + [
    f"blowup14_chain/A_{i}.aut" for i in range(4)
]


class TestEmitParseFixpoint:
    """Emitted text parses back to text-identical emission, in both formats."""

    @pytest.mark.parametrize("name", _GOLDENS)
    def test_goldens(self, name):
        text = (GOLDEN / name).read_text()
        if name.endswith(".hoa"):
            assert emit_hoa(parse_hoa(text)) == text
        else:
            assert emit_native(parse_native(text)) == text

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 10), st.integers(1, 5), st.integers(0, 2**32))
    def test_random_dpa(self, aps, states, colors, seed):
        names = letter_names([f"p{j}" for j in range(aps)])
        a = random_dpa(states, colors, 2**aps, seed, letter_names=names)
        native, hoa = emit_native(a), emit_hoa(a)
        assert parse_native(native) == parse_hoa(hoa) == a
        assert emit_native(parse_native(native)) == native
        assert emit_hoa(parse_hoa(hoa)) == hoa


def _random_label(rng: random.Random, aps: int, depth: int) -> str:
    """A label formula over ``aps`` APs; one atom in twenty is the AP index
    just out of range."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.05:
            return str(aps)
        return rng.choice(["t", "f"] + [str(j) for j in range(aps)])
    kind = rng.randrange(4)
    if kind == 0:
        return "!" + _random_label(rng, aps, depth - 1)
    if kind == 1:
        return "(" + _random_label(rng, aps, depth - 1) + ")"
    op = " & " if kind == 2 else " | "
    return _random_label(rng, aps, depth - 1) + op + _random_label(rng, aps, depth - 1)


class TestLabelDifferential:
    """The parser's valuation set of a label against the per-valuation
    evaluator in ``oracles``: the same set, or the same error."""

    @staticmethod
    def _outcome(parse):
        try:
            return parse()
        except FormatError as err:
            return f"error: {err}"

    def _check(self, label, aps):
        tokens = _tokenize_hoa(label + "]")
        stream = _TokenStream(tokens)
        mine = self._outcome(lambda: _LabelParser(stream, aps).label())
        theirs = self._outcome(lambda: frozenset(
            v for v in range(2**aps) if eval_label_oracle(tokens[:-1], v, aps)))
        assert mine == theirs, label
        if not isinstance(mine, str):
            assert stream.pos == len(tokens)  # read through the closing bracket

    @pytest.mark.parametrize("aps", range(5))
    def test_random_labels(self, aps):
        rng = random.Random(aps)
        for _ in range(150):
            self._check(_random_label(rng, aps, rng.randrange(6)), aps)

    @pytest.mark.parametrize("depth", [99, 100, 101])
    def test_depth_limit(self, depth):
        half = depth // 2
        for label in ("!" * depth + "0", "(" * depth + "0" + ")" * depth,
                      "!(" * half + "t" + ")" * half + " & " + "!" * depth + "0"):
            self._check(label, 2)


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
