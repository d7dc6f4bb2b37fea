"""Core data model: parity and co-Buchi automata, lasso words, partitions."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain, compress, groupby, pairwise, starmap
from operator import eq, itemgetter
from typing import NamedTuple


class AutomatonError(ValueError):
    """Raised for structurally invalid automata, words, or partitions."""


class PreconditionError(AutomatonError):
    """Raised when an operation is applied outside its stated precondition."""


_MAX_SHOWN = 40  # characters of a name or token quoted in an error message
_MAX_STATES = 1_000_000  # states of an automaton
_MAX_ROWS = 2**20  # (state, letter) rows of an automaton, or rows of a chain level
_MAX_COLOR = 2**20  # the largest color, as ``emit_hoa`` writes one acceptance set per color
_MAX_VIOLATIONS = 10  # bad rows listed in one report


def _clip(text: str) -> str:
    """``text`` for an error message: its first ``_MAX_SHOWN`` characters,
    then "...", so a huge name or token cannot make a huge message."""
    return text if len(text) <= _MAX_SHOWN else text[:_MAX_SHOWN] + "..."


def _shown(x) -> str:
    """``repr(x)`` for an error message, clipped (see ``_clip``); never raises,
    so a value whose ``repr`` fails is named by its class.  An int too long
    to show, also in a ``Transition``, is named by its size: it is never
    converted to text, which costs time and fails past 4300 digits."""
    if isinstance(x, int) and x.bit_length() > 3 * _MAX_SHOWN:
        return f"<{'negative ' * (x < 0)}int of {x.bit_length()} bits>"
    if type(x) is Transition:
        return f"Transition({', '.join(f'{f}={_shown(v)}' for f, v in zip(x._fields, x))})"
    try:
        return _clip(repr(x))
    except Exception:  # noqa: BLE001 - a long int inside x, x nested too deeply, or a raising repr
        return f"<a {_clip(type(x).__name__)}>"


def _check_size(states: int, letters: int) -> None:
    """Refuse more than ``_MAX_STATES`` states or more than ``_MAX_ROWS``
    (state, letter) rows, before anything is built per state or per row."""
    if states > _MAX_STATES:
        raise AutomatonError(f"{_shown(states)} states exceed the limit of {_MAX_STATES}")
    if states * letters > _MAX_ROWS:
        raise AutomatonError(f"{_shown(states)} states x {_shown(letters)} letters exceed "
                             f"the limit of {_MAX_ROWS} rows")


def _expect(cls: type | tuple[type, ...], x) -> None:
    """Reject an argument ``x`` that is not a ``cls`` (or not one of a tuple
    of classes) before any of it is read, so the wrong class fails at the
    boundary."""
    if not isinstance(x, cls):
        names = " or ".join(c.__name__ for c in cls) if isinstance(cls, tuple) else cls.__name__
        raise AutomatonError(f"expected a {names}, got a {_clip(type(x).__name__)}")


class _Frozen:
    """Base of the records that check their fields on construction or keep
    a memo in their ``__dict__``: equal when of one class with equal
    ``_fields``, hashed and shown by them, and read-only once built, as
    frozen dataclasses are.  Each ``__init__`` sets its fields through
    ``_set``."""

    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        """Set fields past ``__setattr__``.  No field touches ``__dict__``, so
        CPython 3.11+ builds none until a memo asks for it: a record without
        one, such as a ``LassoWord``, takes about 90 bytes in place of 240."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(_Frozen):
    """Finite ordered alphabet; letters are addressed by their index."""

    _fields = ("letters",)

    def __init__(self, letters: tuple[str, ...]):
        try:
            self._set(letters=tuple(letters))
        except TypeError:
            raise AutomatonError("alphabet must be a sequence of letter names") from None
        if not self.letters:
            raise AutomatonError("alphabet must be non-empty")
        if any(not isinstance(name, str) or not name for name in self.letters):
            raise AutomatonError("letter names must be non-empty strings")
        if len(set(self.letters)) != len(self.letters):
            raise AutomatonError("letter names must be pairwise distinct")

    def __len__(self):
        return len(self.letters)

    @cached_property
    def _index(self) -> dict[str, int]:
        """Each letter name's index, built on first lookup."""
        return {name: i for i, name in enumerate(self.letters)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except Exception:  # noqa: BLE001 - also an unhashable name, or a raising __hash__ or __eq__
            raise AutomatonError(f"unknown letter {_shown(name)}") from None


class Transition(NamedTuple):
    """One row (src, sym, dst, color); a tuple, so it orders, hashes and
    compares equal like the plain 4-tuple of its fields."""

    src: int
    sym: int
    dst: int
    color: int


# Field getters of a row; _ROW and _EDGE give its (src, sym) and (src, sym, dst).
_SYM, _DST, _COLOR = itemgetter(1), itemgetter(2), itemgetter(3)
_ROW, _EDGE = itemgetter(0, 1), itemgetter(0, 1, 2)


def _check_automaton(a) -> None:
    """Check the size of ``a`` (see ``_check_size``), sort its transitions,
    so equal automata compare equal, and check every field's range.

    The alphabet must be an ``Alphabet``, the state count, the initial
    state and every field of every row ints (``type(x) is int``), and every
    row a ``Transition``, so ``bool``, ``float`` and plain tuples are
    rejected.  The row checks run by column,
    with builtins: the sorted sources need only their first and last entry
    tested.  Only when a column check fails are the rows walked one by one,
    to name the first offender in sorted order."""
    _expect(Alphabet, a.alphabet)
    for name in ("state_count", "initial"):
        x = getattr(a, name)
        if type(x) is not int:
            raise AutomatonError(f"{name} is not an int: {_shown(x)}")
    if a.state_count < 1:
        raise AutomatonError("automaton needs at least one state")
    _check_size(a.state_count, len(a.alphabet))
    if not 0 <= a.initial < a.state_count:
        raise AutomatonError("initial state out of range")
    try:
        ts = tuple(a.transitions)
    except TypeError:
        raise AutomatonError("transitions must be a sequence of Transitions") from None
    if not set(map(type, ts)) <= {Transition}:
        i, t = next((i, t) for i, t in enumerate(ts) if type(t) is not Transition)
        raise AutomatonError(f"transition {i} is not a Transition: {_shown(t)}")
    if not set(map(type, chain.from_iterable(ts))) <= {int}:
        i, name, x = next((i, name, x) for i, t in enumerate(ts)
                          for name, x in zip(Transition._fields, t) if type(x) is not int)
        raise AutomatonError(f"transition {i} has a {name} that is not an int: {_shown(x)}")
    ts = tuple(sorted(ts))
    object.__setattr__(a, "transitions", ts)
    if not ts:
        return
    n, k = a.state_count, len(a.alphabet)
    if (0 <= ts[0].src and ts[-1].src < n
            and 0 <= min(map(_DST, ts)) and max(map(_DST, ts)) < n
            and 0 <= min(map(_SYM, ts)) and max(map(_SYM, ts)) < k
            and 0 <= min(map(_COLOR, ts)) and max(map(_COLOR, ts)) <= _MAX_COLOR):
        return
    for t in ts:
        if not 0 <= t.src < n or not 0 <= t.dst < n:
            raise AutomatonError(f"transition {_shown(t)} has a state index out of range")
        if not 0 <= t.sym < k:
            raise AutomatonError(f"transition {_shown(t)} has a letter index out of range")
        if not 0 <= t.color <= _MAX_COLOR:
            raise AutomatonError(f"transition {_shown(t)} has a color out of range 0..{_MAX_COLOR}")


def _bad_rows(keys: list[int], rows: int):
    """Runs (first, stop, count), in row order and lazily, of the rows
    below ``rows`` that do not hold exactly one of the sorted row ``keys``:
    rows first..stop-1 each hold ``count`` keys.  A gap between consecutive
    keys is one run of count 0, and a row with two keys or more a run of
    one, so the cost grows with the keys, not with the rows.  When key e is
    e for every e, every row holds one key, and nothing is yielded."""
    if len(keys) == rows and keys == list(range(rows)):
        return
    nxt = 0  # the row after the last key read
    for r, same in groupby(chain(keys, [rows])):  # ``rows`` closes the last gap
        if nxt < r:
            yield nxt, r, 0
        held = len([*same])
        if held > 1:
            yield r, r + 1, held
        nxt = r + 1


def _bad_row(alphabet: Alphabet, r: int, count: int) -> str:
    """The one text of bad row r = state * |Σ| + letter, holding ``count`` transitions."""
    state, sym = divmod(r, len(alphabet))
    held = f"{count} transitions" if count else "no transition"
    return f"(state {state}, letter {_clip(alphabet.letters[sym])!r}) has {held}"


def _row_report(alphabet: Alphabet, runs) -> list[str]:
    """The texts of the rows in ``runs`` of bad rows (see ``_bad_rows``), in
    row order: at most ``_MAX_VIOLATIONS``, then how many more there are."""
    texts, more = [], 0
    for first, stop, count in runs:
        shown = min(stop, first + _MAX_VIOLATIONS - len(texts))
        texts += [_bad_row(alphabet, r, count) for r in range(first, shown)]
        more += stop - shown
    if more:
        texts.append(f"... and {more} more")
    return texts


def _missing_rows(alphabet: Alphabet, runs) -> list[tuple[int, int, int]]:
    """Refuse the first row of ``runs`` that holds two transitions or more; else list ``runs``."""
    runs = list(runs)
    for first, _, count in runs:
        if count:
            raise AutomatonError("nondeterministic: " + _bad_row(alphabet, first, count))
    return runs


class _Rows:
    """The one row index of both automaton classes.  The transitions are
    sorted, so row r = src * |Σ| + sym, the transitions from src on sym, is
    one slice of them, found by bisection in their row keys."""

    @cached_property
    def _keys(self) -> list[int]:
        k = len(self.alphabet)
        return [s * k + y for s, y, _, _ in self.transitions]

    def row(self, src: int, sym: int) -> tuple[Transition, ...]:
        """The transitions from ``src`` on letter ``sym``."""
        k = len(self.alphabet)
        if type(src) is not int or type(sym) is not int:
            raise AutomatonError(f"row ({_shown(src)}, {_shown(sym)}) is not a pair of ints")
        if not (0 <= src < self.state_count and 0 <= sym < k):
            raise AutomatonError(f"row ({_shown(src)}, {_shown(sym)}) is out of range: "
                                 f"{self.state_count} states, {k} letters")
        r, keys = src * k + sym, self._keys
        return self.transitions[bisect_left(keys, r):bisect_right(keys, r)]

    def _bad_runs(self):
        """The runs of rows that do not hold exactly one transition (see
        ``_bad_rows``)."""
        return _bad_rows(self._keys, self.state_count * len(self.alphabet))


class ParityAutomaton(_Frozen, _Rows):
    """Transition-colored parity automaton, min-even acceptance.

    States are dense indices 0..state_count-1.  The class stores an edge
    list and performs only index-range checks, so partial automata can be
    represented; determinism and completeness are checked by
    ``validate_dpa`` (and required by the run-level operations).
    """

    _fields = ("alphabet", "state_count", "initial", "transitions")

    def __init__(self, alphabet: Alphabet, state_count: int, initial: int,
                 transitions: tuple[Transition, ...]):
        self._set(alphabet=alphabet, state_count=state_count, initial=initial,
                  transitions=transitions)
        _check_automaton(self)

    def step(self, src: int, sym: int) -> Transition:
        """The unique transition from ``src`` on letter ``sym``."""
        ts = self.row(src, sym)
        if len(ts) != 1:
            raise AutomatonError(_bad_row(self.alphabet, src * len(self.alphabet) + sym, len(ts)))
        return ts[0]

    @cached_property
    def flat(self) -> tuple[list[int], list[int]]:
        """Flat rows of a complete DPA, indexed by state * |Σ| + letter: the
        target and the color of each row's transition, sorted transition e
        being row e.  On any other automaton the first bad row raises its
        ``step`` error, reachable or not.  Callers must not mutate the
        lists."""
        for first, _, _ in self._bad_runs():
            self.step(*divmod(first, len(self.alphabet)))
        return list(map(_DST, self.transitions)), list(map(_COLOR, self.transitions))

    @cached_property
    def colors(self) -> tuple[int, ...]:
        return tuple(sorted(set(map(_COLOR, self.transitions))))

    @property
    def max_color(self) -> int:
        if not self.transitions:
            raise AutomatonError("automaton has no transitions, hence no colors")
        return self.colors[-1]


class CoBuchiAutomaton(_Frozen, _Rows):
    """Nondeterministic co-Buchi automaton with transition colors 1 and 2.

    Color 2 marks accepting transitions; a run accepts when it eventually
    takes accepting transitions only.  Per (state, letter) at most one
    outgoing transition may be accepting; this holds for every automaton
    in a chain extracted from a deterministic parity automaton and is
    enforced here on construction.
    """

    _fields = ("alphabet", "state_count", "initial", "transitions", "gfg_claimed")

    def __init__(self, alphabet: Alphabet, state_count: int, initial: int,
                 transitions: tuple[Transition, ...], gfg_claimed: bool = False):
        self._set(alphabet=alphabet, state_count=state_count, initial=initial,
                  transitions=transitions, gfg_claimed=gfg_claimed)
        _check_automaton(self)
        if type(gfg_claimed) is not bool:
            raise AutomatonError(f"gfg_claimed is not a bool: {_shown(gfg_claimed)}")
        # By column: the rows are sorted, so a repeated edge, or a second
        # accepting row on one letter, sits next to its twin.  The rows are
        # walked only to name the first offender.
        ts = self.transitions
        accepting = compress(map(_ROW, ts), map((2).__eq__, map(_COLOR, ts)))
        if (set(map(_COLOR, ts)) <= {1, 2} and not any(starmap(eq, pairwise(map(_EDGE, ts))))
                and not any(starmap(eq, pairwise(accepting)))):
            return
        seen_edges = set()
        accepting_rows = set()
        for t in ts:
            if t.color not in (1, 2):
                raise AutomatonError(f"co-Buchi colors must be 1 or 2, got {_shown(t.color)}")
            edge = (t.src, t.sym, t.dst)
            if edge in seen_edges:
                raise AutomatonError(f"duplicate transition {_shown(edge)}")
            seen_edges.add(edge)
            if t.color == 2:
                if (t.src, t.sym) in accepting_rows:
                    raise AutomatonError(
                        f"state {t.src} has two accepting transitions on letter "
                        f"{_clip(self.alphabet.letters[t.sym])!r}"
                    )
                accepting_rows.add((t.src, t.sym))

    @cached_property
    def flat(self) -> tuple[list[int], list[tuple[int, ...]]]:
        """Flat rows, indexed by state * |Σ| + letter: the target of the
        accepting transition (-1 if none; there is at most one) and the
        targets of all transitions.  Equal successor rows are one tuple
        object, so a caller may read each distinct row once by ``id`` (on a
        chain level a row is a whole class).  Callers must not mutate the
        lists."""
        k = len(self.alphabet)
        acc = [-1] * (self.state_count * k)
        succ: list[tuple[int, ...]] = [()] * len(acc)
        for s, y, d, c in self.transitions:
            r = s * k + y
            succ[r] += (d,)
            if c == 2:
                acc[r] = d
        shared: dict = {}
        for r, t in enumerate(succ):
            succ[r] = shared.setdefault(t, t)
        return acc, succ


_AUTOMATA = (ParityAutomaton, CoBuchiAutomaton)  # either class, for ``_expect``


class LassoWord(_Frozen):
    """Ultimately periodic word prefix . period^omega, letters as indices."""

    _fields = ("prefix", "period")

    def __init__(self, prefix: tuple[int, ...], period: tuple[int, ...]):
        try:
            self._set(prefix=tuple(prefix), period=tuple(period))
        except TypeError:
            raise AutomatonError("lasso prefix and period must be sequences of letters") from None
        if not self.period:
            raise AutomatonError("lasso period must be non-empty")
        for x in self.prefix + self.period:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise AutomatonError(f"letters must be non-negative ints, got {_shown(x)}")


def _expect_lasso(cls: type | tuple[type, ...], a, w) -> None:
    """Refuse a query of ``a``, a ``cls``, on the lasso ``w``: the wrong
    class (see ``_expect``), then a letter outside the alphabet of ``a``,
    the first in prefix-then-period order named.  Letters are non-negative
    ints (see ``LassoWord``), so only the largest is read."""
    _expect(cls, a)
    _expect(LassoWord, w)
    k = len(a.alphabet)
    if max(w.prefix, default=0) >= k or max(w.period) >= k:
        sym = next(x for x in chain(w.prefix, w.period) if x >= k)
        raise AutomatonError(
            f"letter index {_shown(sym)} is out of range for an alphabet of {k} letters")


def normalize_lasso(w: LassoWord) -> LassoWord:
    """Canonical form of a lasso word: primitive period, shortest prefix.

    The period is replaced by its primitive root and trailing prefix
    letters equal to the period's last letter are absorbed by rotating the
    period.  The result is the unique representation of the same infinite
    word with minimal period length and, for that period length, minimal
    prefix length; the function is idempotent.
    """
    _expect(LassoWord, w)
    period = list(w.period)
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            period = period[:d]
            break
    prefix = list(w.prefix)
    while prefix and prefix[-1] == period[-1]:
        prefix.pop()
        period = [period[-1]] + period[:-1]
    return LassoWord(tuple(prefix), tuple(period))


class Partition(_Frozen):
    """Partition of the state set 0..n-1 into language-equivalence classes.

    Classes are kept sorted by their smallest member, members sorted
    ascending, so the class ids are deterministic.
    """

    _fields = ("classes",)

    def __init__(self, classes: tuple[tuple[int, ...], ...]):
        message = "classes must partition a dense state range 0..n-1"
        try:
            classes = [tuple(sorted(c)) for c in classes]
            members = sorted(q for c in classes for q in c)
        except TypeError:  # no classes, a class, or states that do not compare
            raise AutomatonError(message) from None
        # ints only: a float or a bool would pass the range test
        if (not members or not set(map(type, members)) <= {int}
                or members != list(range(len(members))) or not all(classes)):
            raise AutomatonError(message)
        self._set(classes=tuple(sorted(classes, key=lambda c: c[0])))

    @cached_property
    def class_of(self) -> dict[int, int]:
        return {q: i for i, c in enumerate(self.classes) for q in c}

    @property
    def state_count(self) -> int:
        return len(self.class_of)

    def mates(self, q: int) -> tuple[int, ...]:
        """All states in the same class as ``q``, including ``q``."""
        if type(q) is not int or not 0 <= q < self.state_count:
            raise AutomatonError(f"state {_shown(q)} out of range")
        return self._by_state[q]

    @cached_property
    def _by_state(self) -> tuple[tuple[int, ...], ...]:  # mates(q) at index q
        return tuple(self.classes[self.class_of[q]] for q in range(self.state_count))


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self):
        return self.ok


def validate_dpa(a: ParityAutomaton) -> ValidationReport:
    """Check determinism and completeness; report the bad rows (see ``_row_report``)."""
    _expect(ParityAutomaton, a)
    violations = tuple(_row_report(a.alphabet, a._bad_runs()))
    return ValidationReport(ok=not violations, violations=violations)


def complete_dpa(a: ParityAutomaton) -> ParityAutomaton:
    """Complete a deterministic but possibly partial automaton.

    Missing (state, letter) rows are routed to one fresh rejecting sink
    (color 1 self-loops, within the row limit), so words that had no run
    are rejected; complete inputs are returned unchanged.
    """
    _expect(ParityAutomaton, a)
    k, sink = len(a.alphabet), a.state_count
    missing = _missing_rows(a.alphabet, a._bad_runs())
    if not missing:
        return a
    _check_size(sink + 1, k)  # before the sink's rows are built
    extra = [Transition(r // k, r % k, sink, 1) for first, stop, _ in missing
             for r in range(first, stop)]
    extra += [Transition(sink, sym, sink, 1) for sym in range(k)]
    return ParityAutomaton(
        alphabet=a.alphabet,
        state_count=a.state_count + 1,
        initial=a.initial,
        transitions=a.transitions + tuple(extra),
    )
