"""Serialization: native JSON format, a HOA v1 subset, and DOT export."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .core import (
    Alphabet,
    AutomatonError,
    CoBuchiAutomaton,
    ParityAutomaton,
    Transition,
    _MAX_VIOLATIONS,
    _clip,
    validate_dpa,
)


class FormatError(ValueError):
    """Malformed or unsupported document; carries a position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


# Stated input limits, checked before anything is allocated per state or per
# letter: the letters of a HOA alphabet are all 2^|AP| valuations.
_MAX_STATES = 1_000_000
_MAX_APS = 16


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
    if not isinstance(obj, dict):
        raise FormatError("top-level value must be an object")
    kind = obj.get("kind")
    if kind not in ("dpa", "ncw"):
        raise FormatError(f'field "kind" must be "dpa" or "ncw", got {kind!r}')
    letters = _require(obj, "alphabet", list, "document")
    if not all(isinstance(x, str) for x in letters):
        raise FormatError("alphabet must be a list of strings")
    states = _require(obj, "states", int, "document")
    if states > _MAX_STATES:
        raise FormatError(f"document: {states} states exceed the limit of {_MAX_STATES}")
    initial = _require(obj, "initial", int, "document")
    raw_ts = _require(obj, "transitions", list, "document")
    transitions = []
    for idx, item in enumerate(raw_ts):
        if not isinstance(item, dict):
            raise FormatError(f"transition {idx} must be an object")
        where = f"transition {idx}"
        transitions.append(
            Transition(
                src=_require(item, "src", int, where),
                sym=_require(item, "sym", int, where),
                dst=_require(item, "dst", int, where),
                color=_require(item, "col", int, where),
            )
        )
    try:
        if kind == "ncw":
            gfg = obj.get("gfg", False)
            if not isinstance(gfg, bool):
                raise FormatError('field "gfg" must be a boolean')
            return CoBuchiAutomaton(
                alphabet=Alphabet(tuple(letters)),
                state_count=states,
                initial=initial,
                transitions=tuple(transitions),
                gfg_claimed=gfg,
            )
        automaton = ParityAutomaton(
            alphabet=Alphabet(tuple(letters)),
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


def emit_native(a) -> str:
    """Canonical serialization; byte-identical for equal automata."""
    is_ncw = isinstance(a, CoBuchiAutomaton)
    lines = ["{"]
    lines.append(f'  "kind": {json.dumps("ncw" if is_ncw else "dpa")},')
    lines.append(f'  "alphabet": {json.dumps(list(a.alphabet.letters))},')
    lines.append(f'  "states": {a.state_count},')
    lines.append(f'  "initial": {a.initial},')
    if is_ncw:
        lines.append(f'  "gfg": {json.dumps(a.gfg_claimed)},')
    lines.append('  "transitions": [')
    body = [
        f'    {{"src": {t.src}, "sym": {t.sym}, "dst": {t.dst}, "col": {t.color}}}'
        for t in a.transitions
    ]
    lines.append(",\n".join(body))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- HOA v1 subset -----------------------------------------------------------

@dataclass(frozen=True)
class _Token:
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


def letter_name(aps: list[str], valuation: int) -> str:
    """Canonical conjunction naming one alphabet letter per AP valuation."""
    if not aps:
        return "t"
    return "&".join(
        ap if valuation >> j & 1 else "!" + ap for j, ap in enumerate(aps)
    )


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
    for valuation, name in enumerate(alphabet.letters):
        if name != letter_name(aps, valuation):
            return None
    return aps


# Nesting of parentheses and negations in a label; each level costs up to
# three Python frames, so this stays well inside the default recursion limit.
_MAX_LABEL_DEPTH = 100


def _eval_label(tokens: list[_Token], valuation: int, ap_count: int) -> bool:
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise FormatError("label formula ends unexpectedly")
        tok = tokens[pos]
        pos += 1
        return tok

    def peek_value():
        return tokens[pos].value if pos < len(tokens) else None

    def parse_or(depth):
        value = parse_and(depth)
        while peek_value() == "|":
            take()
            rhs = parse_and(depth)
            value = value or rhs
        return value

    def parse_and(depth):
        value = parse_atom(depth)
        while peek_value() == "&":
            take()
            rhs = parse_atom(depth)
            value = value and rhs
        return value

    def deeper(depth, tok):
        if depth >= _MAX_LABEL_DEPTH:
            raise FormatError(
                f"label nested deeper than {_MAX_LABEL_DEPTH} levels", tok.line, tok.column
            )
        return depth + 1

    def parse_atom(depth):
        tok = take()
        if tok.value == "!":
            return not parse_atom(deeper(depth, tok))
        if tok.value == "(":
            value = parse_or(deeper(depth, tok))
            closing = take()
            if closing.value != ")":
                raise FormatError("expected ')'", closing.line, closing.column)
            return value
        if tok.kind == "ident" and tok.value == "t":
            return True
        if tok.kind == "ident" and tok.value == "f":
            return False
        if tok.kind == "int":
            index = _int(tok)
            if index >= ap_count:
                raise FormatError(
                    f"AP index {index} out of range", tok.line, tok.column
                )
            return bool(valuation >> index & 1)
        raise FormatError(
            f"unsupported label element {_clip(tok.value)!r}", tok.line, tok.column
        )

    result = parse_or(0)
    if pos != len(tokens):
        tok = tokens[pos]
        raise FormatError(f"trailing {_clip(tok.value)!r} in label", tok.line, tok.column)
    return result


def parse_hoa(text: str, *, allow_incomplete: bool = False) -> ParityAutomaton:
    """Parse a HOA v1 document with acceptance "parity min even".

    The alphabet becomes all 2^|AP| valuations, named by the canonical
    conjunction of (negated) AP names; label formulas are expanded per
    valuation and the single acceptance-set index of each transition is
    read as its color.  Determinism and completeness are enforced; with
    ``allow_incomplete`` the partial automaton is returned so the caller
    may apply complete_dpa.
    """
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
            if states > _MAX_STATES:
                raise FormatError(
                    f"States: {states} exceeds the limit of {_MAX_STATES}", tok.line, tok.column
                )
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
                    f"AP: {count} propositions exceed the limit of {_MAX_APS}",
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
            f"Acceptance: declares {acc_sets} sets but acc-name: says {color_count}"
        )
    if states is None:
        raise FormatError("missing States: header")
    if start is None:
        raise FormatError("missing Start: header")
    if aps is None:
        aps = []
    try:  # an empty AP name makes an empty letter name
        alphabet = Alphabet(tuple(letter_name(aps, v) for v in range(2 ** len(aps))))
    except AutomatonError as err:
        raise FormatError(f"AP: {err}") from None

    rows: dict[tuple[int, int], list[tuple[int, int]]] = {}
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
                    f"state {current} declared twice", state_tok.line, state_tok.column
                )
            if not 0 <= current < states:
                raise FormatError(
                    f"state {current} out of range", state_tok.line, state_tok.column
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
            label_tokens = []
            while (nxt := stream.take()).value != "]":
                label_tokens.append(nxt)
            dst_tok = stream.expect("int")
            dst = _int(dst_tok)
            nxt = stream.peek()
            if nxt is not None and nxt.value == "&":
                raise FormatError(
                    "universal branching is not supported", nxt.line, nxt.column
                )
            if nxt is None or nxt.value != "{":
                raise FormatError(
                    "each transition must carry exactly one acceptance set "
                    "(its color)",
                    dst_tok.line,
                    dst_tok.column,
                )
            stream.take()
            sets = []
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
                    "each transition must carry exactly one acceptance set "
                    "(its color)",
                    dst_tok.line,
                    dst_tok.column,
                )
            color = sets[0]
            if color >= color_count:
                raise FormatError(
                    f"acceptance set {color} out of range (parity min even "
                    f"{color_count})",
                    dst_tok.line,
                    dst_tok.column,
                )
            for valuation in range(len(alphabet)):
                if _eval_label(label_tokens, valuation, len(aps)):
                    rows.setdefault((current, valuation), []).append((dst, color))
        else:
            raise FormatError(f"unexpected {_clip(tok.value)!r}", tok.line, tok.column)

    transitions = []
    for (q, valuation), entries in sorted(rows.items()):
        if len(entries) > 1:
            raise FormatError(
                f"nondeterministic: state {q} has {len(entries)} transitions "
                f"on {_clip(alphabet.letters[valuation])}"
            )
        dst, color = entries[0]
        transitions.append(Transition(q, valuation, dst, color))
    absent = states * len(alphabet) - len(rows)
    if absent and not allow_incomplete:
        # the first missing rows in order, as validate_dpa lists them; each
        # step passes a present row or lists a missing one
        missing = []
        row = 0
        while len(missing) < min(absent, _MAX_VIOLATIONS):
            q, valuation = divmod(row, len(alphabet))
            if (q, valuation) not in rows:
                missing.append((q, _clip(alphabet.letters[valuation])))
            row += 1
        more = f" ... and {absent - len(missing)} more" if absent > len(missing) else ""
        raise FormatError(
            f"incomplete rows: {missing}{more}; parse with allow_incomplete=True "
            "and apply complete_dpa"
        )
    try:
        return ParityAutomaton(
            alphabet=alphabet,
            state_count=states,
            initial=start,
            transitions=tuple(transitions),
        )
    except AutomatonError as err:
        raise FormatError(str(err)) from None


def _parity_min_even_formula(k: int) -> str:
    def term(i: int) -> str:
        if i == k - 1:
            return f"Inf({i})" if i % 2 == 0 else f"Fin({i})"
        inner = term(i + 1)
        joiner = f"Inf({i}) | ({inner})" if i % 2 == 0 else f"Fin({i}) & ({inner})"
        return joiner

    return term(0)


def _label_expr(valuation: int, ap_count: int) -> str:
    if ap_count == 0:
        return "t"
    return "&".join(
        str(j) if valuation >> j & 1 else f"!{j}" for j in range(ap_count)
    )


def emit_hoa(a) -> str:
    """Emit HOA v1: parity min even for DPAs, Fin(0) for co-Buchi automata.

    The alphabet size must be a power of two; letters map to AP
    valuations, reusing the original AP names when the alphabet came from
    parse_hoa and synthesizing p0, p1, ... otherwise.  The GFG claim
    travels in the ignorable extra header "x-gfg: t".
    """
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
    for q in range(a.state_count):
        lines.append(f"State: {q}")
        for t in a.transitions:
            if t.src != q:
                continue
            label = _label_expr(t.sym, ap_count)
            if is_ncw:
                suffix = "" if t.color == 2 else " {0}"
            else:
                suffix = f" {{{t.color}}}"
            lines.append(f"[{label}] {t.dst}{suffix}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"


# -- DOT export --------------------------------------------------------------

def emit_dot(a) -> str:
    """Graphviz export: one node per state, one edge per transition labeled
    letter/color; accepting co-Buchi edges are bold.  Stable byte output."""
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
    for t in a.transitions:
        name = a.alphabet.letters[t.sym].replace("\\", "\\\\").replace('"', '\\"')
        style = ", style=bold" if is_ncw and t.color == 2 else ""
        lines.append(f'  s{t.src} -> s{t.dst} [label="{name}/{t.color}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
