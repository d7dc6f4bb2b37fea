"""Serialization: native JSON format, a HOA v1 subset, and DOT export."""

from __future__ import annotations

import json
import re
from itertools import chain
from typing import NamedTuple

from .canonical import _LEVEL_ROWS, _LevelRows
from .core import (
    Alphabet,
    AutomatonError,
    CoBuchiAutomaton,
    ParityAutomaton,
    Transition,
    _AUTOMATA,
    _MAX_ROWS,
    _bad_rows,
    _check_size,
    _clip,
    _expect,
    _missing_rows,
    _row_report,
    _shown,
    validate_dpa,
)


class FormatError(ValueError):
    """Malformed or unsupported document; carries a position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:  # each value shown, so that none can fail to convert
            shown = message if isinstance(message, str) else _shown(message)
            message = f"line {_shown(line)}, column {_shown(column)}: {shown}"
        super().__init__(message)
        self.line = line
        self.column = column


_MAX_APS = 16  # the letters of a HOA alphabet are all 2^|AP| valuations


# -- native JSON format ------------------------------------------------------

def _require(obj: dict, key: str, typ, where: str):
    if key not in obj:
        raise FormatError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, typ) or isinstance(value, bool):
        raise FormatError(f"{where}: field {key!r} must be of type {typ.__name__}")
    return value


def parse_native(text: str, *, validate: bool = True):
    """Parse the native format into a ParityAutomaton or CoBuchiAutomaton.

    DPA documents are checked for determinism and completeness unless
    ``validate`` is disabled (the validate CLI command reports instead of
    failing).
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise FormatError(err.msg, line=err.lineno, column=err.colno) from None
    except ValueError:  # past Python's int-string conversion limit
        raise FormatError("integer literal too long") from None
    except RecursionError:
        raise FormatError("document nested too deeply") from None
    except TypeError:  # neither a str nor bytes
        raise FormatError(
            f"document must be a str or bytes, got a {_clip(type(text).__name__)}"
        ) from None
    if not isinstance(obj, dict):
        raise FormatError("top-level value must be an object")
    kind = obj.get("kind")
    if kind not in ("dpa", "ncw"):
        raise FormatError(f'field "kind" must be "dpa" or "ncw", got {_shown(kind)}')
    letters = _require(obj, "alphabet", list, "document")
    states = _require(obj, "states", int, "document")
    initial = _require(obj, "initial", int, "document")
    raw_ts = _require(obj, "transitions", list, "document")
    if kind == "ncw" and len(raw_ts) > _MAX_ROWS:  # as no chain level holds more
        raise FormatError(f"document: {len(raw_ts)} transitions exceed the limit of {_MAX_ROWS}")
    try:  # by column; the items are walked one by one only to name an offender
        transitions = [Transition(t["src"], t["sym"], t["dst"], t["col"]) for t in raw_ts]
    except (KeyError, TypeError):
        transitions = []
    fields = chain.from_iterable(transitions)
    if len(transitions) < len(raw_ts) or not set(map(type, fields)) <= {int}:
        for idx, item in enumerate(raw_ts):
            if not isinstance(item, dict):
                raise FormatError(f"transition {idx} must be an object")
            where = f"transition {idx}"
            for key in ("src", "sym", "dst", "col"):
                _require(item, key, int, where)
    try:  # the constructors check the letter names and the sizes
        if kind == "ncw":
            gfg = obj.get("gfg", False)
            if not isinstance(gfg, bool):
                raise FormatError('field "gfg" must be a boolean')
            return CoBuchiAutomaton(
                alphabet=Alphabet(letters),
                state_count=states,
                initial=initial,
                transitions=tuple(transitions),
                gfg_claimed=gfg,
            )
        automaton = ParityAutomaton(
            alphabet=Alphabet(letters),
            state_count=states,
            initial=initial,
            transitions=tuple(transitions),
        )
    except AutomatonError as err:
        raise FormatError(str(err)) from None
    if validate:
        report = validate_dpa(automaton)
        if not report.ok:
            raise FormatError("invalid automaton: " + "; ".join(report.violations))
    return automaton


_ROW = '    {"src": %d, "sym": %d, "dst": %d, "col": %d}'
_ACCEPTING, _REJECTING = '"col": 2}', '"col": 1}'  # the ends of a deterministic row


def _rows_text(ts: tuple[Transition, ...]) -> str:
    """The rows of the native format: one ``%`` over all their fields."""
    return ",\n".join([_ROW] * len(ts)) % tuple(chain.from_iterable(ts))


def _level_rows(shared: _LevelRows, i: int) -> list[str]:
    """The pieces of the rows text of chain level i, whose chain's levels
    share ``shared``.  The first call for any level of the chain renders
    A_0's rows once and keeps them as ``shared.template``: the text cut at
    the end of each deterministic row (``_ACCEPTING``, which only those rows
    end with in A_0), with the ends in the odd places.  Level i fills the
    template with its colors: the rows of ``shared.groups[c]``, c < i, end
    in ``_REJECTING``.  Threads that race here render equal templates."""
    if shared.template is None:
        cut = _rows_text(shared.rows).split(_ACCEPTING)
        template = [_ACCEPTING] * (2 * len(cut) - 1)
        template[::2] = cut
        shared.template = template
    pieces = shared.template.copy()
    for group in shared.groups[:i]:
        for k in group:
            pieces[2 * k + 1] = _REJECTING
    return pieces


def emit_native(a) -> str:
    """Canonical serialization; byte-identical for equal automata.  The rows
    are one ``%`` of a row template per row over all their fields; a chain
    level's are its chain's template filled with its colors (see
    ``_level_rows``)."""
    _expect(_AUTOMATA, a)
    is_ncw = isinstance(a, CoBuchiAutomaton)
    lines = ["{"]
    lines.append(f'  "kind": {json.dumps("ncw" if is_ncw else "dpa")},')
    lines.append(f'  "alphabet": {json.dumps(list(a.alphabet.letters))},')
    lines.append(f'  "states": {a.state_count},')
    lines.append(f'  "initial": {a.initial},')
    if is_ncw:
        lines.append(f'  "gfg": {json.dumps(a.gfg_claimed)},')
    lines.append('  "transitions": [\n')
    level = getattr(a, _LEVEL_ROWS, None)
    rows = [_rows_text(a.transitions)] if level is None else _level_rows(*level)
    return "".join(["\n".join(lines), *rows, "\n  ]\n}\n"])  # one copy of the rows


# -- HOA v1 subset -----------------------------------------------------------

class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int


_HOA_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>/\*.*?\*/)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<marker>--[A-Za-z]+--)
      | (?P<header>[a-zA-Z_][\w.-]*:)
      | (?P<ident>[a-zA-Z_][\w.-]*)
      | (?P<int>\d+)
      | (?P<punct>[\[\]{}()!&|])
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize_hoa(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _HOA_TOKEN.match(text, pos)
        if match is None:
            raise FormatError(
                f"unexpected character {text[pos]!r}",
                line=line,
                column=pos - line_start + 1,
            )
        kind = match.lastgroup
        value = match.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rindex("\n") + 1
        pos = match.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise FormatError("unexpected end of document")
        self.pos += 1
        return tok

    def accept(self, value: str) -> bool:
        """Take the next token if it is ``value``; whether it was."""
        tok = self.peek()
        if tok is None or tok.value != value:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self.take()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise FormatError(
                f"expected {want}, got {_clip(tok.value)!r}", tok.line, tok.column
            )
        return tok


def _int(tok: _Token) -> int:
    """The value of an integer token; a digit run past Python's int-string
    conversion limit is a ``FormatError``, not a ``ValueError``."""
    if tok.kind != "int":
        raise FormatError(f"expected an integer, got {_clip(tok.value)!r}", tok.line, tok.column)
    try:
        return int(tok.value)
    except ValueError:
        raise FormatError(
            f"integer literal of {len(tok.value)} digits is too long", tok.line, tok.column
        ) from None


def _unquote(raw: str) -> str:
    return re.sub(r"\\(.)", r"\1", raw[1:-1])


def letter_names(aps: list[str]) -> tuple[str, ...]:
    """The canonical conjunction naming each AP valuation, indexed by
    valuation (bit j set: AP j holds): ``p0&!p1`` is valuation 1.  Built by
    doubling, each AP appending its literal to every name of the APs before
    it, so each name costs one concatenation per AP."""
    if not aps:
        return ("t",)
    names = ["!" + aps[0], aps[0]]
    for ap in aps[1:]:
        names = [n + "&!" + ap for n in names] + [n + "&" + ap for n in names]
    return tuple(names)


def _recover_aps(alphabet: Alphabet) -> list[str] | None:
    """Recognize alphabets produced by parse_hoa and recover the AP names."""
    size = len(alphabet)
    if size == 1:
        return [] if alphabet.letters[0] == "t" else None
    ap_count = size.bit_length() - 1
    parts = alphabet.letters[0].split("&")
    if len(parts) != ap_count or not all(p.startswith("!") and len(p) > 1 for p in parts):
        return None
    aps = [p[1:] for p in parts]
    return aps if alphabet.letters == letter_names(aps) else None


# Nesting of parentheses and negations in a label; each level costs up to
# three Python frames, so this stays well inside the default recursion limit.
_MAX_LABEL_DEPTH = 100


class _LabelParser:
    """Recursive descent over the label formula after an edge's ``[`` on the
    parser's token stream, valued in int masks of AP valuations (bit v set:
    v satisfies it), so ``!``, ``&`` and ``|`` cost a word operation per 64
    valuations; one parser reads a document's labels.  Methods, not nested
    functions: mutually recursive closures would leave a reference cycle
    per label for the cyclic collector."""

    def __init__(self, stream: _TokenStream, ap_count: int):
        self.stream, self.ap_count, size = stream, ap_count, 2**ap_count
        self.every = (1 << size) - 1
        # AP j holds on bit j of v: 2^j ones above 2^j zeros, repeated
        self.literals = [int(("1" * 2**j + "0" * 2**j) * (size >> j + 1), 2)
                         for j in range(ap_count)]

    def label(self) -> frozenset[int]:
        """The valuations satisfying the formula, read through the closing ``]``."""
        result = self.parse_or(0)
        tok = self.stream.take()
        if tok.value != "]":
            raise FormatError(f"trailing {_clip(tok.value)!r} in label", tok.line, tok.column)
        bits = format(result, "b")[::-1]  # bit v at index v
        return frozenset(v for v, bit in enumerate(bits) if bit == "1")

    def parse_or(self, depth: int) -> int:
        value = self.parse_and(depth)
        while self.stream.accept("|"):
            value |= self.parse_and(depth)
        return value

    def parse_and(self, depth: int) -> int:
        value = self.parse_atom(depth)
        while self.stream.accept("&"):
            value &= self.parse_atom(depth)
        return value

    def parse_atom(self, depth: int) -> int:
        tok = self.stream.take()
        if tok.value in ("!", "(") and depth >= _MAX_LABEL_DEPTH:
            raise FormatError(
                f"label nested deeper than {_MAX_LABEL_DEPTH} levels", tok.line, tok.column
            )
        if tok.value == "!":
            return self.every ^ self.parse_atom(depth + 1)
        if tok.value == "(":
            value = self.parse_or(depth + 1)
            closing = self.stream.take()
            if closing.value != ")":
                raise FormatError("expected ')'", closing.line, closing.column)
            return value
        if tok.kind == "ident" and tok.value == "t":
            return self.every
        if tok.kind == "ident" and tok.value == "f":
            return 0
        if tok.kind == "int":
            index = _int(tok)
            if index >= self.ap_count:
                raise FormatError(f"AP index {_shown(index)} out of range", tok.line, tok.column)
            return self.literals[index]
        raise FormatError(f"unsupported label element {_clip(tok.value)!r}", tok.line, tok.column)


def parse_hoa(text: str, *, allow_incomplete: bool = False) -> ParityAutomaton:
    """Parse a HOA v1 document with acceptance "parity min even".

    The alphabet becomes all 2^|AP| valuations, named by the canonical
    conjunction of (negated) AP names; each label formula is parsed once
    into the set of valuations satisfying it, and the single acceptance-set
    index of each transition is read as its color.  Determinism and
    completeness are enforced; with ``allow_incomplete`` the partial
    automaton is returned so the caller may apply complete_dpa.  Edges are
    read until they hold more than States x 2^|AP| rows, when some row holds
    two: it is reported with its count among the rows read.
    """
    if not isinstance(text, str):
        raise FormatError(f"document must be a str, got a {_clip(type(text).__name__)}")
    stream = _TokenStream(_tokenize_hoa(text))
    first = stream.expect("header", "HOA:")
    version = stream.take()
    if version.value != "v1":
        raise FormatError("only HOA v1 is supported", first.line, first.column)

    states = None
    start = None
    aps: list[str] | None = None
    acc_name: list[_Token] = []
    acc_sets = None
    while True:
        tok = stream.peek()
        if tok is None:
            raise FormatError("missing --BODY--")
        if tok.kind == "marker":
            if tok.value != "--BODY--":
                raise FormatError(f"unexpected {_clip(tok.value)}", tok.line, tok.column)
            stream.take()
            break
        if tok.kind != "header":
            raise FormatError(
                f"expected a header item, got {_clip(tok.value)!r}", tok.line, tok.column
            )
        stream.take()
        args = []
        while (nxt := stream.peek()) is not None and nxt.kind not in ("header", "marker"):
            args.append(stream.take())
        name = tok.value[:-1]
        if name == "States":
            if len(args) != 1 or args[0].kind != "int":
                raise FormatError("States: takes one integer", tok.line, tok.column)
            states = _int(args[0])
        elif name == "Start":
            if start is not None or len(args) != 1 or args[0].kind != "int":
                raise FormatError(
                    "only a single initial state is supported", tok.line, tok.column
                )
            start = _int(args[0])
        elif name == "AP":
            if not args or args[0].kind != "int":
                raise FormatError("AP: takes a count and names", tok.line, tok.column)
            count = _int(args[0])
            if count > _MAX_APS:
                raise FormatError(
                    f"AP: {_shown(count)} propositions exceed the limit of {_MAX_APS}",
                    tok.line,
                    tok.column,
                )
            if len(args) != count + 1 or any(t.kind != "string" for t in args[1:]):
                raise FormatError(
                    f"AP: expects {count} quoted names", tok.line, tok.column
                )
            aps = [_unquote(t.value) for t in args[1:]]
        elif name == "acc-name":
            acc_name = args
        elif name == "Acceptance":
            if not args or args[0].kind != "int":
                raise FormatError(
                    "Acceptance: takes a set count and a formula", tok.line, tok.column
                )
            acc_sets = _int(args[0])
        # all other headers (properties:, name:, tool:, x-*...) are ignored

    names = [t.value for t in acc_name]
    if len(names) != 4 or names[:3] != ["parity", "min", "even"]:
        raise FormatError(
            "unsupported acceptance: need acc-name: parity min even <k>, got "
            + (_clip(" ".join(names)) or "none")
        )
    color_count = _int(acc_name[3])
    if acc_sets is not None and acc_sets != color_count:
        raise FormatError(
            f"Acceptance: declares {_shown(acc_sets)} sets but acc-name: says {_shown(color_count)}"
        )
    if states is None:
        raise FormatError("missing States: header")
    if start is None:
        raise FormatError("missing Start: header")
    if aps is None:
        aps = []
    try:
        _check_size(states, 2 ** len(aps))
    except AutomatonError as err:
        raise FormatError(f"States: {err}") from None
    try:  # an empty AP name makes an empty letter name
        alphabet = Alphabet(letter_names(aps))
    except AutomatonError as err:
        raise FormatError(f"AP: {err}") from None

    labels, k = _LabelParser(stream, len(aps)), len(alphabet)
    body: list[tuple[int, int, int, int]] = []  # (state, valuation, dst, color)
    current = None
    declared = set()
    while True:
        tok = stream.take()
        if tok.kind == "marker" and tok.value == "--END--":
            break
        if tok.kind == "header" and tok.value == "State:":
            nxt = stream.peek()
            if nxt is not None and nxt.value == "[":
                raise FormatError("state labels are not supported", nxt.line, nxt.column)
            state_tok = stream.expect("int")
            current = _int(state_tok)
            if current in declared:
                raise FormatError(
                    f"state {_shown(current)} declared twice", state_tok.line, state_tok.column
                )
            if not 0 <= current < states:
                raise FormatError(
                    f"state {_shown(current)} out of range", state_tok.line, state_tok.column
                )
            declared.add(current)
            nxt = stream.peek()
            if nxt is not None and nxt.kind == "string":
                stream.take()  # state name, ignored
            nxt = stream.peek()
            if nxt is not None and nxt.value == "{":
                raise FormatError(
                    "state-based acceptance is not supported", nxt.line, nxt.column
                )
        elif tok.kind == "punct" and tok.value == "[":
            if current is None:
                raise FormatError("edge outside any State:", tok.line, tok.column)
            label = labels.label()
            dst_tok = stream.expect("int")
            dst = _int(dst_tok)
            nxt = stream.peek()
            if nxt is not None and nxt.value == "&":
                raise FormatError(
                    "universal branching is not supported", nxt.line, nxt.column
                )
            sets = []
            if stream.accept("{"):
                while (nxt := stream.take()).value != "}":
                    if nxt.kind != "int":
                        raise FormatError(
                            f"expected acceptance set index, got {_clip(nxt.value)!r}",
                            nxt.line,
                            nxt.column,
                        )
                    sets.append(_int(nxt))
            if len(sets) != 1:
                raise FormatError(
                    "each transition must carry exactly one acceptance set (its color)",
                    dst_tok.line,
                    dst_tok.column,
                )
            color = sets[0]
            if color >= color_count:
                raise FormatError(
                    f"acceptance set {_shown(color)} out of range (parity min even "
                    f"{_shown(color_count)})",
                    dst_tok.line,
                    dst_tok.column,
                )
            body += [(current, valuation, dst, color) for valuation in label]
            if len(body) > states * k:  # so some row holds two: the row check says which
                break
        else:
            raise FormatError(f"unexpected {_clip(tok.value)!r}", tok.line, tok.column)

    body.sort()
    try:  # the rows first: their faults are reported before range faults
        missing = _missing_rows(alphabet, _bad_rows([q * k + v for q, v, _, _ in body], states * k))
        if missing and not allow_incomplete:
            raise FormatError(f"incomplete rows: {'; '.join(_row_report(alphabet, missing))}; "
                              "parse with allow_incomplete=True and apply complete_dpa")
        return ParityAutomaton(
            alphabet=alphabet,
            state_count=states,
            initial=start,
            transitions=tuple(map(Transition._make, body)),
        )
    except AutomatonError as err:
        raise FormatError(str(err)) from None


def _parity_min_even_formula(k: int) -> str:
    """Inf(0) | (Fin(1) & (Inf(2) | ...)) over sets 0..k-1: every set but
    the last opens a parenthesis that closes at the end, so the text is
    built in one pass, in time linear in its length, at any depth."""
    last = k - 1
    opens = "".join(f"Inf({i}) | (" if i % 2 == 0 else f"Fin({i}) & (" for i in range(last))
    return opens + (f"Inf({last})" if last % 2 == 0 else f"Fin({last})") + ")" * last


def emit_hoa(a) -> str:
    """Emit HOA v1: parity min even for DPAs, Fin(0) for co-Buchi automata.

    The alphabet size must be a power of two; letters map to AP
    valuations, reusing the original AP names when the alphabet came from
    parse_hoa and synthesizing p0, p1, ... otherwise.  The GFG claim
    travels in the ignorable extra header "x-gfg: t".
    """
    _expect(_AUTOMATA, a)
    size = len(a.alphabet)
    if size & (size - 1):
        raise FormatError(
            f"alphabet size {size} is not a power of two; use the native format"
        )
    ap_count = size.bit_length() - 1
    aps = _recover_aps(a.alphabet)
    if aps is None:
        aps = [f"p{j}" for j in range(ap_count)]
    is_ncw = isinstance(a, CoBuchiAutomaton)
    lines = ["HOA: v1", f"States: {a.state_count}", f"Start: {a.initial}"]
    lines.append(" ".join(["AP:", str(ap_count)] + [json.dumps(ap) for ap in aps]))
    if is_ncw:
        lines.append("acc-name: co-Buchi")
        lines.append("Acceptance: 1 Fin(0)")
        if a.gfg_claimed:
            lines.append("x-gfg: t")
    else:
        k = a.max_color + 1
        lines.append(f"acc-name: parity min even {k}")
        lines.append(f"Acceptance: {k} {_parity_min_even_formula(k)}")
    lines.append("properties: trans-labels explicit-labels trans-acc")
    lines.append("--BODY--")
    body = [[f"State: {q}"] for q in range(a.state_count)]
    labels = letter_names([str(j) for j in range(ap_count)])
    for s, y, d, c in a.transitions:
        if is_ncw:
            suffix = "" if c == 2 else " {0}"
        else:
            suffix = f" {{{c}}}"
        body[s].append(f"[{labels[y]}] {d}{suffix}")
    lines += [line for state in body for line in state]
    lines.append("--END--")
    return "\n".join(lines) + "\n"


# -- DOT export --------------------------------------------------------------

def emit_dot(a) -> str:
    """Graphviz export: one node per state, one edge per transition labeled
    letter/color; accepting co-Buchi edges are bold.  Stable byte output."""
    _expect(_AUTOMATA, a)
    is_ncw = isinstance(a, CoBuchiAutomaton)
    lines = [
        "digraph automaton {",
        "  rankdir=LR;",
        "  node [shape=circle];",
        '  init [shape=point, label=""];',
    ]
    for q in range(a.state_count):
        lines.append(f"  s{q};")
    lines.append(f"  init -> s{a.initial};")
    for s, y, d, c in a.transitions:
        name = a.alphabet.letters[y].replace("\\", "\\\\").replace('"', '\\"')
        style = ", style=bold" if is_ncw and c == 2 else ""
        lines.append(f'  s{s} -> s{d} [label="{name}/{c}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
