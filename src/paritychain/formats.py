"""Serialization: native JSON format, a HOA v1 subset, and DOT export."""

from __future__ import annotations

import json
import re
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .canonical import _LEVEL_ROWS, _LevelRows
from .core import (
    Alphabet,
    AutomatonError,
    CoBuchiAutomaton,
    ParityAutomaton,
    Transition,
    _AUTOMATA,
    _MAX_ROWS,
    _MAX_SHOWN,
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
    gfg = obj.get("gfg", False)
    if kind == "ncw" and not isinstance(gfg, bool):
        raise FormatError('field "gfg" must be a boolean')
    cls, extra = (CoBuchiAutomaton, (gfg,)) if kind == "ncw" else (ParityAutomaton, ())
    try:  # the constructors check the letter names and the sizes
        automaton = cls(Alphabet(letters), states, initial, tuple(transitions), *extra)
    except AutomatonError as err:
        raise FormatError(str(err)) from None
    if kind == "dpa" and validate:
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
    in ``_REJECTING``."""
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
    are those of ``_rows_text``, or of ``_level_rows`` on a chain level."""
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

    def error(self, message: str) -> FormatError:
        """A ``FormatError`` positioned at this token."""
        return FormatError(message, self.line, self.column)


_HOA_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>/\*.*?\*/)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<marker>--[A-Za-z]+--)
      | (?P<header>[a-zA-Z_][\w.-]*:)
      | (?P<ident>[a-zA-Z_][\w.-]*)
      | (?P<int>\d+)
      | (?P<punct>[\[\]{}()!&|])
      | (?P<stray>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize_hoa(text: str) -> Iterator[_Token]:
    """The tokens of ``text`` one at a time, without whitespace and comments;
    a character that starts no token is an error when it is reached."""
    line, line_start = 1, 0
    for match in _HOA_TOKEN.finditer(text):
        kind, value = match.lastgroup, match.group()
        if kind != "ws" and kind != "comment":
            tok = _Token(kind, value, line, match.start() - line_start + 1)
            if kind == "stray":
                raise tok.error(f"unexpected character {value!r}")
            yield tok
        if "\n" in value:
            line += value.count("\n")
            line_start = match.start() + value.rindex("\n") + 1


class _TokenStream:
    """A token iterator with one token of lookahead, ``next`` (None at the end)."""

    def __init__(self, tokens: Iterable[_Token]):
        self.tokens = iter(tokens)
        self.next = next(self.tokens, None)

    def take(self) -> _Token:
        tok = self.next
        if tok is None:
            raise FormatError("unexpected end of document")
        self.next = next(self.tokens, None)
        return tok

    def at(self, value: str) -> bool:
        """Whether the next token is ``value``."""
        return self.next is not None and self.next.value == value

    def accept(self, value: str) -> bool:
        """Take the next token if it is ``value``; whether it was."""
        if not self.at(value):
            return False
        self.take()
        return True

    def expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self.take()
        if tok.kind != kind or (value is not None and tok.value != value):
            raise tok.error(f"expected {value or kind}, got {_clip(tok.value)!r}")
        return tok


def _int(tok: _Token) -> int:
    """The value of an integer token; a digit run past Python's int-string
    conversion limit is a ``FormatError``, not a ``ValueError``."""
    if tok.kind != "int":
        raise tok.error(f"expected an integer, got {_clip(tok.value)!r}")
    try:
        return int(tok.value)
    except ValueError:
        raise tok.error(f"integer literal of {len(tok.value)} digits is too long") from None


def _unquote(raw: str) -> str:
    return re.sub(r"\\(.)", r"\1", raw[1:-1])


def _escaped(name: str) -> str:
    """``name`` for a double-quoted HOA or DOT string: only ``\\`` and ``"``
    are escaped, by a backslash, as ``_unquote`` reads any escape as the
    character after the backslash."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


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
    if len(parts) != ap_count or not all(p.startswith("!") for p in parts):
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
            raise tok.error(f"trailing {_clip(tok.value)!r} in label")
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
            raise tok.error(f"label nested deeper than {_MAX_LABEL_DEPTH} levels")
        if tok.value == "!":
            return self.every ^ self.parse_atom(depth + 1)
        if tok.value == "(":
            value = self.parse_or(depth + 1)
            closing = self.stream.take()
            if closing.value != ")":
                raise closing.error("expected ')'")
            return value
        if tok.value == "t":
            return self.every
        if tok.value == "f":
            return 0
        if tok.kind == "int":
            index = _int(tok)
            if index >= self.ap_count:
                raise tok.error(f"AP index {_shown(index)} out of range")
            return self.literals[index]
        raise tok.error(f"unsupported label element {_clip(tok.value)!r}")


# Argument tokens kept per header item; the rest, such as an ``Acceptance:``
# formula, are read and dropped.  More than an ``AP:`` may have, and more
# than ``_clip`` keeps characters of the joined ``acc-name:`` arguments, so
# every check and message is the same as with all of them.
_HEADER_ARGS = _MAX_SHOWN + 1


def _read_header(stream: _TokenStream) -> tuple[int, int, list[str], int]:
    """The header items through ``--BODY--``: the state count, the initial
    state, the AP names and the color count of ``acc-name:``."""
    first = stream.expect("header", "HOA:")
    if stream.take().value != "v1":
        raise first.error("only HOA v1 is supported")
    states = start = acc_sets = None
    aps: list[str] = []
    acc_name: list[_Token] = []
    while not stream.accept("--BODY--"):
        if stream.next is None:
            raise FormatError("missing --BODY--")
        tok = stream.take()
        if tok.kind == "marker":
            raise tok.error(f"unexpected {_clip(tok.value)}")
        if tok.kind != "header":
            raise tok.error(f"expected a header item, got {_clip(tok.value)!r}")
        args = []
        while stream.next is not None and stream.next.kind not in ("header", "marker"):
            arg = stream.take()
            if len(args) < _HEADER_ARGS:
                args.append(arg)
        name = tok.value[:-1]
        if name == "States":
            if len(args) != 1 or args[0].kind != "int":
                raise tok.error("States: takes one integer")
            states = _int(args[0])
        elif name == "Start":
            if start is not None or len(args) != 1 or args[0].kind != "int":
                raise tok.error("only a single initial state is supported")
            start = _int(args[0])
        elif name == "AP":
            if not args or args[0].kind != "int":
                raise tok.error("AP: takes a count and names")
            count = _int(args[0])
            if count > _MAX_APS:
                raise tok.error(f"AP: {_shown(count)} propositions exceed the limit of {_MAX_APS}")
            if len(args) != count + 1 or any(t.kind != "string" for t in args[1:]):
                raise tok.error(f"AP: expects {count} quoted names")
            aps = [_unquote(t.value) for t in args[1:]]
            for ap, t in zip(aps, args[1:]):  # letter names join the APs by "&"
                if "&" in ap:
                    raise t.error(f"AP name {_clip(ap)!r} contains '&'")
        elif name == "acc-name":
            acc_name = args
        elif name == "Acceptance":
            if not args or args[0].kind != "int":
                raise tok.error("Acceptance: takes a set count and a formula")
            acc_sets = _int(args[0])
        # all other headers (properties:, name:, tool:, x-*...) are ignored

    names = [t.value for t in acc_name]
    if len(names) != 4 or names[:3] != ["parity", "min", "even"]:
        raise FormatError("unsupported acceptance: need acc-name: parity min even <k>, got "
                          + (_clip(" ".join(names)) or "none"))
    color_count = _int(acc_name[3])
    if acc_sets is not None and acc_sets != color_count:
        raise FormatError(f"Acceptance: declares {_shown(acc_sets)} sets but acc-name: says "
                          f"{_shown(color_count)}")
    if states is None:
        raise FormatError("missing States: header")
    if start is None:
        raise FormatError("missing Start: header")
    return states, start, aps, color_count


def _read_body(stream: _TokenStream, states: int, ap_count: int,
               color_count: int) -> tuple[list[tuple[int, int, int, int]], bool]:
    """The edges through ``--END--``, as (state, valuation, dst, color)
    rows, and whether they were read to the end: reading stops at an edge
    that starts once they hold more than ``states`` x 2^``ap_count`` rows,
    when some row holds two."""
    labels, k = _LabelParser(stream, ap_count), 2**ap_count
    body: list[tuple[int, int, int, int]] = []
    current = None
    declared = set()
    while (tok := stream.take()).value != "--END--":
        if tok.value == "State:":
            if stream.at("["):
                raise stream.next.error("state labels are not supported")
            state_tok = stream.expect("int")
            current = _int(state_tok)
            if current in declared:
                raise state_tok.error(f"state {_shown(current)} declared twice")
            if not 0 <= current < states:
                raise state_tok.error(f"state {_shown(current)} out of range")
            declared.add(current)
            if stream.next is not None and stream.next.kind == "string":
                stream.take()  # state name, ignored
            if stream.at("{"):
                raise stream.next.error("state-based acceptance is not supported")
        elif tok.value == "[":
            if len(body) > states * k:  # so some row holds two: the row check says which
                return body, False
            if current is None:
                raise tok.error("edge outside any State:")
            label = labels.label()
            dst_tok = stream.expect("int")
            dst = _int(dst_tok)
            if stream.at("&"):
                raise stream.next.error("universal branching is not supported")
            sets = []
            if stream.accept("{"):
                while (nxt := stream.take()).value != "}":
                    if nxt.kind != "int":
                        raise nxt.error(f"expected acceptance set index, got {_clip(nxt.value)!r}")
                    sets.append(_int(nxt))
            if len(sets) != 1:
                raise dst_tok.error(
                    "each transition must carry exactly one acceptance set (its color)")
            color = sets[0]
            if color >= color_count:
                raise dst_tok.error(f"acceptance set {_shown(color)} out of range "
                                    f"(parity min even {_shown(color_count)})")
            body += [(current, valuation, dst, color) for valuation in label]
        else:
            raise tok.error(f"unexpected {_clip(tok.value)!r}")
    return body, True


def parse_hoa(text: str, *, allow_incomplete: bool = False) -> ParityAutomaton:
    """Parse a HOA v1 document with acceptance "parity min even".

    The alphabet becomes all 2^|AP| valuations, named by the canonical
    conjunction of (negated) AP names; each label formula is parsed once
    into the set of valuations satisfying it, and the single acceptance-set
    index of each transition is read as its color.  Determinism and
    completeness are enforced; with ``allow_incomplete`` the rows are
    returned as read, missing or doubled, as ``parse_native`` returns them
    with ``validate=False``, for ``validate_dpa`` to list and
    ``complete_dpa`` to complete or refuse.  A body whose edges go on
    after they hold more rows than the automaton has is not read to its
    end (see ``_read_body``) and is refused in either mode, its doubled
    row reported with its count among the rows read.  The document is
    read in one pass of one token at a time, to its end.
    """
    if not isinstance(text, str):
        raise FormatError(f"document must be a str, got a {_clip(type(text).__name__)}")
    stream = _TokenStream(_tokenize_hoa(text))
    states, start, aps, color_count = _read_header(stream)
    try:
        _check_size(states, 2 ** len(aps))
    except AutomatonError as err:
        raise FormatError(f"States: {err}") from None
    try:  # an empty AP name makes an empty letter name
        alphabet = Alphabet(letter_names(aps))
    except AutomatonError as err:
        raise FormatError(f"AP: {err}") from None
    body, whole = _read_body(stream, states, len(aps), color_count)
    for _ in stream.tokens:  # what follows is tokenized too: a stray character is refused
        pass
    body.sort()
    k = len(alphabet)
    try:  # the rows first: their faults are reported before range faults
        if not (allow_incomplete and whole):  # a body cut short holds a doubled row
            keys = [q * k + v for q, v, _, _ in body]
            missing = _missing_rows(alphabet, _bad_rows(keys, states * k))
            if missing:
                raise FormatError(f"incomplete rows: {'; '.join(_row_report(alphabet, missing))}; "
                                  "parse with allow_incomplete=True and apply complete_dpa")
        return ParityAutomaton(alphabet, states, start, tuple(map(Transition._make, body)))
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
    lines.append(" ".join(["AP:", str(ap_count)] + [f'"{_escaped(ap)}"' for ap in aps]))
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
        name = _escaped(a.alphabet.letters[y])
        style = ", style=bold" if is_ncw and c == 2 else ""
        lines.append(f'  s{s} -> s{d} [label="{name}/{c}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
