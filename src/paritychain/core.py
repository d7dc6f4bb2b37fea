"""Core data model: parity and co-Buchi automata, lasso words, partitions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class AutomatonError(ValueError):
    """Raised for structurally invalid automata, words, or partitions."""


class PreconditionError(AutomatonError):
    """Raised when an operation is applied outside its stated precondition."""


_MAX_SHOWN = 40  # characters of a name or token quoted in an error message


def _clip(text: str) -> str:
    """``text`` for an error message: its first ``_MAX_SHOWN`` characters,
    then "...", so a huge name or token cannot make a huge message."""
    return text if len(text) <= _MAX_SHOWN else text[:_MAX_SHOWN] + "..."


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered alphabet; letters are addressed by their index."""

    letters: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise AutomatonError("alphabet must be non-empty")
        if any(not isinstance(name, str) or not name for name in self.letters):
            raise AutomatonError("letter names must be non-empty strings")
        if len(set(self.letters)) != len(self.letters):
            raise AutomatonError("letter names must be pairwise distinct")

    def __len__(self):
        return len(self.letters)

    def index(self, name: str) -> int:
        try:
            return self.letters.index(name)
        except ValueError:
            raise AutomatonError(f"unknown letter {_clip(name)!r}") from None

    def check_letters(self, word) -> None:
        """Reject a word (letter indices) with a letter outside the alphabet."""
        for sym in word:
            if not 0 <= sym < len(self.letters):
                raise AutomatonError(
                    f"letter index {sym} is out of range for an alphabet of "
                    f"{len(self.letters)} letters"
                )


@dataclass(frozen=True, order=True)
class Transition:
    src: int
    sym: int
    dst: int
    color: int


def _check_automaton(a) -> None:
    """Sort the transitions of ``a``, so equal automata compare equal, and
    check every state, letter and color against its range."""
    object.__setattr__(a, "transitions", tuple(sorted(a.transitions)))
    if a.state_count < 1:
        raise AutomatonError("automaton needs at least one state")
    if not 0 <= a.initial < a.state_count:
        raise AutomatonError("initial state out of range")
    for t in a.transitions:
        if not 0 <= t.src < a.state_count or not 0 <= t.dst < a.state_count:
            raise AutomatonError(f"transition {t} has a state index out of range")
        if not 0 <= t.sym < len(a.alphabet):
            raise AutomatonError(f"transition {t} has a letter index out of range")
        if t.color < 0:
            raise AutomatonError(f"transition {t} has a negative color")


def _rows(a) -> dict[tuple[int, int], tuple[Transition, ...]]:
    """The transitions of ``a`` by (src, sym)."""
    rows: dict[tuple[int, int], list[Transition]] = {}
    for t in a.transitions:
        rows.setdefault((t.src, t.sym), []).append(t)
    return {key: tuple(ts) for key, ts in rows.items()}


@dataclass(frozen=True)
class ParityAutomaton:
    """Transition-colored parity automaton, min-even acceptance.

    States are dense indices 0..state_count-1.  The class stores an edge
    list and performs only index-range checks, so partial automata can be
    represented; determinism and completeness are checked by
    ``validate_dpa`` (and required by the run-level operations).
    Transitions are kept sorted, so equal automata compare equal.
    """

    alphabet: Alphabet
    state_count: int
    initial: int
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        _check_automaton(self)

    rows = cached_property(_rows)

    def step(self, src: int, sym: int) -> Transition:
        """The unique transition from ``src`` on letter ``sym``."""
        ts = self.rows.get((src, sym), ())
        if len(ts) != 1:
            letter = _clip(self.alphabet.letters[sym])
            kind = "no transition" if not ts else f"{len(ts)} transitions"
            raise AutomatonError(f"state {src} on letter {letter!r}: {kind}")
        return ts[0]

    @cached_property
    def colors(self) -> tuple[int, ...]:
        return tuple(sorted({t.color for t in self.transitions}))

    @property
    def max_color(self) -> int:
        if not self.transitions:
            raise AutomatonError("automaton has no transitions, hence no colors")
        return self.colors[-1]


@dataclass(frozen=True)
class CoBuchiAutomaton:
    """Nondeterministic co-Buchi automaton with transition colors 1 and 2.

    Color 2 marks accepting transitions; a run accepts when it eventually
    takes accepting transitions only.  Per (state, letter) at most one
    outgoing transition may be accepting; this holds for every automaton
    in a chain extracted from a deterministic parity automaton and is
    enforced here on construction.
    """

    alphabet: Alphabet
    state_count: int
    initial: int
    transitions: tuple[Transition, ...]
    gfg_claimed: bool = False

    def __post_init__(self):
        _check_automaton(self)
        seen_edges = set()
        accepting_rows = set()
        for t in self.transitions:
            if t.color not in (1, 2):
                raise AutomatonError(f"co-Buchi colors must be 1 or 2, got {t.color}")
            edge = (t.src, t.sym, t.dst)
            if edge in seen_edges:
                raise AutomatonError(f"duplicate transition {edge}")
            seen_edges.add(edge)
            if t.color == 2:
                if (t.src, t.sym) in accepting_rows:
                    raise AutomatonError(
                        f"state {t.src} has two accepting transitions on letter "
                        f"{_clip(self.alphabet.letters[t.sym])!r}"
                    )
                accepting_rows.add((t.src, t.sym))

    rows = cached_property(_rows)

    def successors(self, src: int, sym: int) -> tuple[Transition, ...]:
        return self.rows.get((src, sym), ())


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic word prefix . period^omega, letters as indices."""

    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise AutomatonError("lasso period must be non-empty")
        if any(x < 0 for x in self.prefix + self.period):
            raise AutomatonError("letter indices must be non-negative")

    def letter_at(self, k: int) -> int:
        if k < len(self.prefix):
            return self.prefix[k]
        return self.period[(k - len(self.prefix)) % len(self.period)]

    def head(self, n: int) -> tuple[int, ...]:
        """The first ``n`` letters of the infinite word."""
        return tuple(self.letter_at(k) for k in range(n))

    def suffix(self, p: int) -> "LassoWord":
        """The lasso obtained by dropping the first ``p`` letters."""
        if p <= len(self.prefix):
            return LassoWord(self.prefix[p:], self.period)
        k = (p - len(self.prefix)) % len(self.period)
        return LassoWord(self.period[k:], self.period)


def normalize_lasso(w: LassoWord) -> LassoWord:
    """Canonical form of a lasso word: primitive period, shortest prefix.

    The period is replaced by its primitive root and trailing prefix
    letters equal to the period's last letter are absorbed by rotating the
    period.  The result is the unique representation of the same infinite
    word with minimal period length and, for that period length, minimal
    prefix length; the function is idempotent.
    """
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


@dataclass(frozen=True)
class Partition:
    """Partition of the state set 0..n-1 into language-equivalence classes.

    Classes are kept sorted by their smallest member, members sorted
    ascending, so the class ids are deterministic.
    """

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        normalized = tuple(
            sorted((tuple(sorted(c)) for c in self.classes), key=lambda c: c[0])
        )
        object.__setattr__(self, "classes", normalized)
        members = [q for c in normalized for q in c]
        if sorted(members) != list(range(len(members))) or len(members) == 0:
            raise AutomatonError("classes must partition a dense state range 0..n-1")
        if len(set(members)) != len(members):
            raise AutomatonError("classes must be disjoint")

    @cached_property
    def class_of(self) -> dict[int, int]:
        return {q: i for i, c in enumerate(self.classes) for q in c}

    @property
    def state_count(self) -> int:
        return len(self.class_of)

    def mates(self, q: int) -> tuple[int, ...]:
        """All states in the same class as ``q``, including ``q``."""
        return self.classes[self.class_of[q]]


@dataclass(frozen=True)
class ChainRepresentation:
    """Chain of co-Buchi automata A_0..A_{cmax+1} over one state space, as a
    view of the streamlined DPA ``source`` and its ``partition``.

    Level i keeps every transition of ``source``, accepting (color 2) when
    its color is >= i and rejecting otherwise, and adds a rejecting jump
    transition to every other state language-equivalent to the
    deterministic target.  So a level is fixed by (``source``,
    ``partition``, i), and ``levels`` builds them on first access only.
    """

    source: ParityAutomaton
    partition: Partition

    @property
    def source_color_max(self) -> int:
        return self.source.max_color

    @cached_property
    def levels(self) -> tuple[CoBuchiAutomaton, ...]:
        a, mates = self.source, self.partition.mates
        jumps = tuple(Transition(t.src, t.sym, mate, 1)
                      for t in a.transitions for mate in mates(t.dst) if mate != t.dst)
        return tuple(
            CoBuchiAutomaton(a.alphabet, a.state_count, a.initial, tuple(
                Transition(t.src, t.sym, t.dst, 2 if t.color >= i else 1) for t in a.transitions
            ) + jumps, gfg_claimed=True)
            for i in range(a.max_color + 2)
        )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self):
        return self.ok


_MAX_VIOLATIONS = 10


def validate_dpa(a: ParityAutomaton) -> ValidationReport:
    """Check determinism and completeness; report the first offending rows,
    at most ``_MAX_VIOLATIONS`` of them, then how many more there are."""
    violations = []
    more = 0
    for src in range(a.state_count):
        for sym in range(len(a.alphabet)):
            ts = a.rows.get((src, sym), ())
            if len(ts) == 1:
                continue
            if len(violations) == _MAX_VIOLATIONS:
                more += 1
                continue
            letter = _clip(a.alphabet.letters[sym])
            if not ts:
                violations.append(f"(state {src}, letter {letter!r}) has no transition")
            else:
                violations.append(
                    f"(state {src}, letter {letter!r}) has {len(ts)} transitions"
                )
    if more:
        violations.append(f"... and {more} more")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def complete_dpa(a: ParityAutomaton) -> ParityAutomaton:
    """Complete a deterministic but possibly partial automaton.

    Missing (state, letter) rows are routed to one fresh rejecting sink
    (color 1 self-loops), so words that previously had no run are
    rejected; complete inputs are returned unchanged.
    """
    for (src, sym), ts in a.rows.items():
        if len(ts) > 1:
            raise AutomatonError(
                f"not deterministic: (state {src}, letter "
                f"{_clip(a.alphabet.letters[sym])!r}) has {len(ts)} transitions"
            )
    missing = [
        (src, sym)
        for src in range(a.state_count)
        for sym in range(len(a.alphabet))
        if (src, sym) not in a.rows
    ]
    if not missing:
        return a
    sink = a.state_count
    extra = [Transition(src, sym, sink, 1) for src, sym in missing]
    extra += [Transition(sink, sym, sink, 1) for sym in range(len(a.alphabet))]
    return ParityAutomaton(
        alphabet=a.alphabet,
        state_count=a.state_count + 1,
        initial=a.initial,
        transitions=a.transitions + tuple(extra),
    )
