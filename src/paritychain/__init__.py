"""Canonical forms for deterministic parity automata.

Structure and streamline a DPA, extract its canonical chain of
good-for-games co-Buchi automata, and compute the natural color of any
ultimately periodic word via co-runs.
"""

from .canonical import (
    ChainLevelStats,
    ChainRepresentation,
    chain_stats,
    extract_chain,
    is_streamlined,
    is_structured,
    random_dpa,
    streamline,
    structure_dpa,
    structure_dpa_with_map,
)
from .colors import (
    CoRun,
    corun_color,
    coruns,
    natural_color_via_chain,
    resolve_run,
)
from .core import (
    Alphabet,
    AutomatonError,
    CoBuchiAutomaton,
    LassoWord,
    ParityAutomaton,
    Partition,
    PreconditionError,
    Transition,
    ValidationReport,
    complete_dpa,
    normalize_lasso,
    validate_dpa,
)
from .formats import FormatError, emit_dot, emit_hoa, emit_native, parse_hoa, parse_native
from .graphs import (
    RunAnalysis,
    SccDecomposition,
    dpa_language_equiv,
    dpa_lasso_run,
    gca_lasso_member,
    reachable_states,
    scc_decompose,
    state_equivalence,
)

__all__ = sorted(name for name, value in globals().items()
                 if getattr(value, "__module__", "").startswith(__name__ + "."))
