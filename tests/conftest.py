import random

import pytest
from hypothesis import strategies as st

from paritychain import (
    Alphabet,
    LassoWord,
    ParityAutomaton,
    Transition,
    normalize_lasso,
    random_dpa,
    streamline,
    structure_dpa,
)

T = Transition


def flower_automaton() -> ParityAutomaton:
    """Four-state flower: center 0 with petals through 1, 2, 3 whose return
    loops dominate at colors 1..5.  States: 0=center; letters a=0, b=1, c=2."""
    return ParityAutomaton(
        alphabet=Alphabet(("a", "b", "c")),
        state_count=4,
        initial=0,
        transitions=(
            T(0, 0, 1, 3), T(0, 1, 2, 4), T(0, 2, 3, 5),
            T(1, 0, 0, 1), T(1, 1, 2, 2), T(1, 2, 2, 2),
            T(2, 0, 3, 3), T(2, 1, 0, 5), T(2, 2, 3, 3),
            T(3, 0, 0, 5), T(3, 1, 0, 5), T(3, 2, 0, 5),
        ),
    )


# Hand-derived fixpoint colors for the flower: the a-edge out of the center
# drops 3 -> 2 once state 1 runs out of unprocessed cycles, and the b-edge
# out of state 2 drops 5 -> 4 the same way; everything else is already tight.
FLOWER_STREAMLINED_COLORS = {
    (0, 0): 2, (0, 1): 4, (0, 2): 5,
    (1, 0): 1, (1, 1): 2, (1, 2): 2,
    (2, 0): 3, (2, 1): 4, (2, 2): 3,
    (3, 0): 5, (3, 1): 5, (3, 2): 5,
}

WORD_CA = LassoWord((), (2, 0))
WORD_CABB = LassoWord((), (2, 0, 1, 1))
WORD_AA = LassoWord((), (0, 0))


@pytest.fixture
def flower() -> ParityAutomaton:
    return flower_automaton()


def blowup(base: ParityAutomaton, m: int, rng: random.Random) -> ParityAutomaton:
    """Mod-m blow-up: state (q, j) is q*m + j; each transition adds 0 or 1
    to j mod m, so every class holds m copies of one base state."""
    shift = {(t.src, t.sym): rng.randrange(2) for t in base.transitions}
    ts = tuple(
        T(t.src * m + j, t.sym, t.dst * m + (j + shift[(t.src, t.sym)]) % m, t.color)
        for t in base.transitions
        for j in range(m)
    )
    return ParityAutomaton(base.alphabet, base.state_count * m, base.initial * m, ts)


def staircase(base: ParityAutomaton, copies: int, rng: random.Random) -> ParityAutomaton:
    """Copies of ``base`` in a row of SCCs; about one transition in three
    hops to the same target in the next copy, so equivalent states span
    SCCs."""
    n = base.state_count
    ts = tuple(
        T(c * n + t.src, t.sym, (c + (c + 1 < copies and rng.randrange(3) == 0)) * n + t.dst, t.color)
        for c in range(copies)
        for t in base.transitions
    )
    return ParityAutomaton(base.alphabet, copies * n, base.initial, ts)


def random_lasso(rng: random.Random, letters: int, max_len: int = 6) -> LassoWord:
    prefix = tuple(rng.randrange(letters) for _ in range(rng.randrange(0, max_len + 1)))
    period = tuple(rng.randrange(letters) for _ in range(rng.randrange(1, max_len + 1)))
    return normalize_lasso(LassoWord(prefix, period))


# Seeds of ``jumpy`` whose 40 ``jumpy_lassos`` hold 2, 3, 3, 1 and 3 words
# with a natural color above their run's dominating color, found by a search
# over s < 400: on random DPAs and blow-ups almost no word needs a jump
JUMPY_SEEDS = (50, 83, 232, 252, 266)


def jumpy(s: int) -> ParityAutomaton:
    """A streamlined random DPA of 2-6 states, 2-4 colors and 2-3 letters,
    some of whose language-equivalent mates sit on cycles of different
    least colors, so that a co-run's jump can lift a word's color above
    the one its run dominates."""
    return streamline(structure_dpa(random_dpa(2 + s % 5, 2 + (s // 5) % 3, 2 + (s // 15) % 2, s)))


def jumpy_lassos(s: int, letters: int) -> list[LassoWord]:
    """The 40 lassos of ``jumpy(s)``: prefix length 0-4, period length 1-5,
    drawn from ``random.Random(s)``."""
    rng = random.Random(s)
    return [
        LassoWord(tuple(rng.randrange(letters) for _ in range(rng.randrange(0, 5))),
                  tuple(rng.randrange(letters) for _ in range(rng.randrange(1, 6))))
        for _ in range(40)
    ]


def mutated(base: str):
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
