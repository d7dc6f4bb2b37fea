import json
import random
import re
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flower_automaton, mutated
from oracles import eval_label_oracle, per_row_native
from paritychain import (
    Alphabet,
    AutomatonError,
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
    structure_dpa,
    validate_dpa,
)
from paritychain.core import _MAX_COLOR
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

    def test_every_color_written_is_read(self):
        # a color over the limit, 10**5000 say, which ``%d`` cannot write and
        # the JSON reader cannot read, is refused when the automaton is built
        top = ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, _MAX_COLOR),))
        assert parse_native(emit_native(top)) == top
        for color in (_MAX_COLOR + 1, 10**5000):
            with pytest.raises(AutomatonError, match="has a color out of range 0..1048576$"):
                ParityAutomaton(Alphabet(("a",)), 1, 0, (T(0, 0, 0, color),))

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

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "nba"}, 'field "kind" must be "dpa" or "ncw", got \'nba\''),
        # the whole value was quoted, a 1 MB message
        ({"kind": "x" * 10**6}, 'field "kind" must be "dpa" or "ncw", got \'' + "x" * 39 + "..."),
        ({"alphabet": ["a", 1]}, "letter names must be non-empty strings"),
        ({"kind": "ncw", "gfg": "yes"}, 'field "gfg" must be a boolean'),
    ], ids=["kind", "kind-long", "alphabet", "gfg"])
    def test_document_field_errors(self, fields, message):
        doc = {"kind": "dpa", "alphabet": ["a"], "states": 1, "initial": 0,
               "transitions": [{"src": 0, "sym": 0, "dst": 0, "col": 1}], **fields}
        with pytest.raises(FormatError) as err:
            parse_native(json.dumps(doc))
        assert str(err.value) == message

    @pytest.mark.parametrize("parse, text, message", [
        (parse_native, None, "document must be a str or bytes, got a NoneType"),
        (parse_native, 123, "document must be a str or bytes, got a int"),
        (parse_hoa, b"HOA: v1", "document must be a str, got a bytes"),
    ], ids=["native-none", "native-int", "hoa-bytes"])
    def test_document_not_text(self, parse, text, message):
        # each raised TypeError
        with pytest.raises(FormatError) as err:
            parse(text)
        assert str(err.value) == message

    def test_streamlined_golden_bytes(self, flower):
        expected = (GOLDEN / "flower_streamlined.aut").read_text()
        assert emit_native(streamline(flower)) == expected

    def test_chain_level_five_golden_bytes(self, flower):
        s = streamline(flower)
        chain = extract_chain(s, state_equivalence(s))
        expected = (GOLDEN / "flower_chain_A5.aut").read_text()
        assert emit_native(chain.levels[5]) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_row_emitter(self, seed):
        # DPAs and every level of their chains, A_0 and the demoted ones;
        # letter names with "%" must not reach the row template
        rng = random.Random(seed)
        letters = rng.randrange(1, 4)
        a = random_dpa(rng.randrange(1, 40), rng.randrange(1, 7), letters, seed,
                       ("%d", "a%s", "%%")[:letters] if seed % 2 else None)
        s = streamline(structure_dpa(a))
        automata = [a, s, *extract_chain(s, state_equivalence(s)).levels]
        assert any(isinstance(b, CoBuchiAutomaton) for b in automata)
        for b in automata:
            assert emit_native(b) == per_row_native(b)

    def test_goldens_match_per_row_emitter(self):
        paths = sorted((GOLDEN / "blowup14_chain").glob("A_*.aut")) + [
            GOLDEN / "blowup14.aut", GOLDEN / "flower_streamlined.aut",
            GOLDEN / "flower_chain_A5.aut"]
        assert len(paths) == 7
        for path in paths:
            text = path.read_text()
            b = parse_native(text)
            assert emit_native(b) == per_row_native(b) == text

    def test_no_transitions_match_per_row_emitter(self):
        alphabet = Alphabet(("a", "b"))
        for b in (ParityAutomaton(alphabet, 3, 1, ()),
                  CoBuchiAutomaton(alphabet, 2, 0, (), gfg_claimed=True)):
            text = emit_native(b)
            assert text == per_row_native(b)
            assert '"transitions": [\n\n  ]' in text and parse_native(text, validate=False) == b


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
        with pytest.raises(FormatError, match="States: 10+ states exceed the limit of 1000000"):
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
        assert ("states x 2 letters exceed the limit of 1048576 rows" in message) == refused

    @pytest.mark.parametrize("states", [2**19, 2**19 + 1])
    def test_native_row_count(self, states):
        doc = json.dumps({"kind": "dpa", "alphabet": ["a", "b"], "states": states,
                          "initial": 0, "transitions": []})
        if states * 2 <= 2**20:
            assert parse_native(doc, validate=False).state_count == states
        else:
            with pytest.raises(FormatError, match="2 letters exceed the limit of 1048576 rows"):
                parse_native(doc, validate=False)

    # 2^20 transitions are read; one more is refused before any is built,
    # as a chain level of more rows is never built
    @pytest.mark.parametrize("count", [2**20, 2**20 + 1])
    def test_native_ncw_transition_count(self, count):
        doc = json.dumps({"kind": "ncw", "alphabet": ["a"], "states": 1, "initial": 0,
                          "transitions": [0] * count})
        with pytest.raises(FormatError) as err:
            parse_native(doc)
        if count <= 2**20:
            assert str(err.value) == "transition 0 must be an object"
        else:
            assert str(err.value) == f"document: {count} transitions exceed the limit of 1048576"

    # past Python's 4300-digit int-string limit, which raises a plain ValueError
    def test_long_hoa_integer(self):
        with pytest.raises(FormatError, match="line 2, column 9: integer literal of 5000 digits"):
            parse_hoa(UNIVERSAL_1AP.replace("States: 1", "States: " + "1" * 5000))
        with pytest.raises(FormatError, match="integer literal of 5000 digits"):
            parse_hoa(UNIVERSAL_1AP.replace("[t] 0", "[t] " + "1" * 5000))

    # under that limit an integer is read, and a message names it by its size
    @pytest.mark.parametrize("old, new, message", [
        ("State: 0", "State: " + "9" * 4000, "state <int of 13288 bits> out of range"),
        ("{0}\n", "{" + "9" * 4000 + "}\n", "acceptance set <int of 13288 bits> out of range"),
        ("[t]", "[" + "9" * 4000 + "]", "AP index <int of 13288 bits> out of range"),
        ("Acceptance: 1", "Acceptance: " + "9" * 4000,
         "Acceptance: declares <int of 13288 bits> sets but acc-name: says 1"),
        ('AP: 1 "go"', "AP: " + "9" * 4000,
         "AP: <int of 13288 bits> propositions exceed the limit of 16"),
    ], ids=["state", "set", "ap-index", "acceptance", "ap-count"])
    def test_long_hoa_integer_named_by_size(self, old, new, message):
        with pytest.raises(FormatError, match=message) as err:
            parse_hoa(UNIVERSAL_1AP.replace(old, new))
        assert len(str(err.value)) < 200

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
        with pytest.raises(FormatError, match=r"incomplete rows: \(state 1, letter '!p0&!p1&") as err:
            parse_hoa(text)
        message = str(err.value)
        assert len(message) < 1024
        assert message.count("(state 1, ") == 10 and "; ... and 1022966 more;" in message
        assert len(parse_hoa(text, allow_incomplete=True).transitions) == 1024

    def test_few_missing_rows_listed_in_full(self):
        text = UNIVERSAL_1AP.replace("States: 1", "States: 3")
        with pytest.raises(FormatError) as err:
            parse_hoa(text)
        assert str(err.value) == (
            "incomplete rows: (state 1, letter '!go') has no transition; "
            "(state 1, letter 'go') has no transition; (state 2, letter '!go') has no transition; "
            "(state 2, letter 'go') has no transition; "
            "parse with allow_incomplete=True and apply complete_dpa"
        )

    def test_nondeterminism_reported_before_missing_rows(self):
        text = UNIVERSAL_1AP.replace("States: 1", "States: 3").replace(
            "[t] 0 {0}", "[t] 0 {0}\nState: 2\n[0] 0 {0}\n[t] 1 {0}"
        )
        with pytest.raises(FormatError,
                           match=r"^nondeterministic: \(state 2, letter 'go'\) has 2 transitions$"):
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
        with pytest.raises(FormatError, match=r"^nondeterministic: \(state 0, letter 'x") as err:
            parse_hoa(text)
        assert len(str(err.value)) < 200 and "x" * 30 + "..." in str(err.value)

    @pytest.mark.parametrize("edge, count, seconds, megabytes, outcome", [
        ("[t]", 50, 0.5, 60, "nondeterministic: (state 0, letter "
         "'!a&!b&!c&!d&!e&!f&!g&!h&!i&!j&!k&!l&!m&!...') has 2 transitions"),
        ("[0]", 20, 0.35, 50, "nondeterministic: (state 0, letter "
         "'a&!b&!c&!d&!e&!f&!g&!h&!i&!j&!k&!l&!m&!n...') has 3 transitions"),
        ("[0&!0]", 50, 0.25, 25, None),
    ], ids=["true", "literal", "empty"])
    def test_short_body_over_many_aps(self, edge, count, seconds, megabytes, outcome):
        # under 1 KB each, with AP: 16 and one state: a parser per edge used
        # to rebuild the set of all 65536 valuations, and every edge's
        # valuations were listed before any row check; the three took 2.5,
        # 0.7 and 0.85 s and peaked at 679, 142 and 17 MB traced (Python
        # 3.11, shared 2-vCPU host), against about 0.1, 0.1 and 0.05 s and
        # 28, 23 and 10 MB now
        aps = " ".join(f'"{chr(97 + j)}"' for j in range(16))
        text = UNIVERSAL_1AP.replace('AP: 1 "go"', f"AP: 16 {aps}").replace(
            "[t] 0 {0}\n", f"{edge} 0 {{0}}\n" * count)
        assert len(text.encode()) < 1024

        def parse():
            try:
                return parse_hoa(text, allow_incomplete=True)
            except FormatError as err:
                return str(err)

        found = parse()
        if outcome is None:
            assert found.transitions == ()
        else:
            assert found.startswith(outcome)
        assert any(_seconds(parse) < seconds for _ in range(3))
        tracemalloc.start()
        try:
            parse()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < megabytes * 1e6

    def test_body_read_up_to_the_row_cap(self):
        # two edges fill one row twice, so the body holds more rows than the
        # automaton has; reading stops there, before the fault after them
        text = UNIVERSAL_1AP.replace("[t] 0 {0}", "[t] 0 {0}\n[t] 0 {0}\n[t] 0 {7}\n[!")
        with pytest.raises(FormatError,
                           match=r"^nondeterministic: \(state 0, letter '!go'\) has 2 transitions$"):
            parse_hoa(text)

    def test_doubled_row_returned_as_read(self):
        # with allow_incomplete, as parse_native with validate=False: a
        # doubled row is kept for validate_dpa to list and complete_dpa to
        # refuse; a body cut short is refused in either mode
        a = ParityAutomaton(Alphabet(("!go", "go")), 2, 0, (
            T(0, 0, 1, 0), T(0, 1, 0, 1), T(0, 1, 1, 1), T(1, 0, 1, 1), T(1, 1, 0, 0)))
        doubled = "(state 0, letter 'go') has 2 transitions"
        lenient = parse_hoa(emit_hoa(a), allow_incomplete=True)
        assert lenient == parse_native(emit_native(a), validate=False) == a
        assert validate_dpa(lenient).violations == (doubled,)
        refusal = f"^{re.escape('nondeterministic: ' + doubled)}$"
        with pytest.raises(AutomatonError, match=refusal):
            complete_dpa(lenient)
        longer = emit_hoa(a).replace("--END--", "[0] 0 {0}\n--END--")
        for text, allow_incomplete in ((emit_hoa(a), False), (longer, True)):
            with pytest.raises(FormatError, match=refusal):
                parse_hoa(text, allow_incomplete=allow_incomplete)


def _seconds(f) -> float:
    start = time.perf_counter()
    f()
    return time.perf_counter() - start


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

    @pytest.mark.parametrize("old, new, letters", [
        ('AP: 1 "go"\n', "", ("t",)),
        ("State: 0", 'State: 0 "zero"', ("!go", "go")),
    ], ids=["no-ap-header", "state-name"])
    def test_optional_items(self, old, new, letters):
        # no ``AP:`` is an alphabet of one valuation; a state name is skipped
        assert old in UNIVERSAL_1AP
        a = parse_hoa(UNIVERSAL_1AP.replace(old, new))
        assert a.alphabet.letters == letters
        assert a.transitions == tuple(T(0, y, 0, 0) for y in range(len(letters)))

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

    def test_ap_names_round_trip(self):
        # names were written as JSON strings, but the reader takes a backslash
        # and the character after it as that character: "é" came back as
        # "u00e9" and a tab as "t"
        names = letter_names(["é", "a\tb", 'say "hi"', "back\\slash"])
        a = random_dpa(3, 2, 16, 5, letter_names=names)
        text = emit_hoa(a)
        assert 'AP: 4 "é" "a\tb" "say \\"hi\\"" "back\\\\slash"\n' in text
        assert parse_hoa(text) == a
        assert emit_hoa(parse_hoa(text)) == text

    def test_three_letter_alphabet_refused(self, flower):
        with pytest.raises(FormatError, match="native"):
            emit_hoa(flower)

    def test_universal_two_letter_golden(self):
        uni = ParityAutomaton(
            Alphabet(("a", "b")), 1, 0, (T(0, 0, 0, 0), T(0, 1, 0, 0))
        )
        assert emit_hoa(uni) == (GOLDEN / "universal2.hoa").read_text()

    def test_deep_acceptance_round_trips(self):
        # the acceptance formula nests one parenthesis per color
        a = ParityAutomaton(Alphabet(("a", "b")), 1, 0, (T(0, 0, 0, 3000), T(0, 1, 0, 0)))
        text = emit_hoa(a)
        assert "acc-name: parity min even 3001\n" in text
        assert text.count(" | (") + text.count(" & (") == 3000
        b = parse_hoa(text)
        assert b.transitions == a.transitions and b.max_color == 3000
        assert emit_hoa(b) == text

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


# Documents ``parse_hoa`` accepts, with 0 to 3 APs, and their AP counts;
# the round-trip property replaces their ``AP:`` line
_ROUND_TRIP_DOCS = (
    (UNIVERSAL_1AP, 1), (UNIVERSAL_1AP.replace('AP: 1 "go"\n', ""), 0), (_FLOWER_HOA, 1),
    (emit_hoa(random_dpa(4, 3, 4, 2)), 2), (emit_hoa(random_dpa(3, 2, 8, 1)), 3),
)
# AP names of quotes, backslashes, tabs, non-ASCII characters, "!"
# prefixes and "&" (refused), short enough to draw duplicates
_AP_NAMES = st.text(st.sampled_from(["a", "!", '"', "\\", "\t", "é", "&"]), max_size=3)


class TestHoaRoundTrip:
    """Every document ``parse_hoa`` accepts reads back from ``emit_hoa`` as
    the same automaton, letter names included.  An AP name with ``&``, with
    which letter names join APs, is refused, and so is a lone empty AP
    name, as it names a letter by the empty string."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(_ROUND_TRIP_DOCS).flatmap(lambda item: st.tuples(
        st.just(item[0]), st.lists(_AP_NAMES, min_size=item[1], max_size=item[1]))))
    def test_parse_emit_parse(self, case):
        doc, names = case
        quoted = "".join(' "' + n.replace("\\", "\\\\").replace('"', '\\"') + '"' for n in names)
        text = "\n".join(f"AP: {len(names)}{quoted}" if line.startswith("AP: ") else line
                         for line in doc.split("\n"))
        try:
            a = parse_hoa(text)
        except FormatError as err:
            assert any("&" in n for n in names) or names == [""], err
            return
        assert not any("&" in n for n in names)
        b = parse_hoa(emit_hoa(a))
        assert b == a and b.alphabet.letters == a.alphabet.letters


class TestHoaCost:
    """``parse_hoa`` reads one token at a time and keeps a few arguments per
    header item, so an ``Acceptance:`` formula, about six tokens per color,
    is read but never held."""

    @pytest.mark.parametrize("make, megabytes", [
        (lambda: ParityAutomaton(Alphabet(("a", "b")), 1, 0, (T(0, 0, 0, 2**16 - 1),
                                                               T(0, 1, 0, 0))), 1),
        (lambda: random_dpa(300, 5, 16, 4), 2),
    ], ids=["color-2^16", "random-300-states"])
    def test_traced_peak(self, make, megabytes):
        # 972 KB and 98 KB; with every token in one list the traced peaks were
        # 65.7 and 7.8 MB, against 0.01 and 0.8 MB read lazily (Python 3.11)
        a = make()
        text = emit_hoa(a)
        tracemalloc.start()
        try:
            b = parse_hoa(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert b.transitions == a.transitions and emit_hoa(b) == text
        assert peak < megabytes * 1e6


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
        ("[t]", "[f]", "incomplete rows: (state 0, letter '!go') has no transition; "
         "(state 0, letter 'go') has no transition", None),
        ("States: 1", "States: 1 1", "States: takes one integer", 2),
        ("Start: 0", "Start: 1", "initial state out of range", None),
        ("Start: 0", "Start: 0 @", "unexpected character '@'", 3),
        ("[t] 0 {0}", "[t] 0 @ {0}", "unexpected character '@'", 9),
        ("--END--\n", "--END--\n@\n", "unexpected character '@'", 11),
        ('"go"', '"a&b"', "AP name 'a&b' contains '&'", 4),
    ], ids=[
        "version", "no-body", "ap-count", "acceptance-count", "state-label",
        "state-twice", "state-range", "state-acceptance", "edge-outside-state",
        "universal", "set-not-int", "two-sets", "set-range", "ap-index",
        "unclosed-paren", "label-ends", "label-trailing", "false-label",
        "states-two-ints", "start-range", "stray-in-header", "stray-in-body",
        "stray-after-end", "ap-name-and",
    ])
    def test_rejection(self, old, new, message, line):
        assert old in UNIVERSAL_1AP
        with pytest.raises(FormatError) as err:
            parse_hoa(UNIVERSAL_1AP.replace(old, new))
        assert message in str(err.value)
        assert err.value.line == line

    @pytest.mark.parametrize("edits, message", [
        ([("States: 1", "States: 2"), ("[t] 0 {0}", "[t] 0 {0}\nState: 1\n[0] 7 {0}")],
         "incomplete rows: (state 1, letter '!go') has no transition; parse with "
         "allow_incomplete=True and apply complete_dpa"),
        ([("Start: 0", "Start: 7"), ("[t] 0 {0}", "[t] 0 {0}\n[0] 0 {0}")],
         "nondeterministic: (state 0, letter 'go') has 2 transitions"),
        ([("[t] 0 {0}", "[t] 0 {0}\n[0] 9 {0}")],
         "nondeterministic: (state 0, letter 'go') has 2 transitions"),
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
        tokens = list(_tokenize_hoa(label + "]"))
        stream = _TokenStream(tokens)
        mine = self._outcome(lambda: _LabelParser(stream, aps).label())
        theirs = self._outcome(lambda: frozenset(
            v for v in range(2**aps) if eval_label_oracle(tokens[:-1], v, aps)))
        assert mine == theirs, label
        if not isinstance(mine, str):
            assert stream.next is None  # read through the closing bracket

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
