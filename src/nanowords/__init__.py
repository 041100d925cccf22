"""Nanowords and nanophrases: gated rewrite moves, lifting, invariants."""

from .core import (
    Alphabet,
    AlphabetMismatch,
    CanonicalForm,
    ConsistencyError,
    LetterCountError,
    MoveSystem,
    NanowordError,
    Nanophrase,
    UnknownSymbol,
    are_isomorphic,
    canonical_form,
    enumerate_nanophrases,
)
from .invariants import (
    NonGraphR,
    PiElement,
    SigmaVector,
    SoValue,
    clv_lifted,
    clv_phrase,
    lifted_invariants_applicable,
    lk_lifted,
    lk_phrase,
    phrase_invariants_applicable,
    sigma_table,
    so_lifted,
    so_phrase,
    t_from_so,
    t_invariant,
)
from .lift import (
    BUILTIN_NAMES,
    BuiltinData,
    ConditionViolation,
    ConditionsViolated,
    LiftedAlphabet,
    ProjectionNotLifted,
    UnknownName,
    builtin_data,
    check_conditions,
    diagonal_triples,
    lift_alphabet,
    phi,
    psi,
)
from .kernel import ALL_KINDS, INSERTION_KINDS, MATCH_KINDS, MoveSite
from .moves import (
    NeighborCache,
    PathStep,
    StaleSite,
    Verdict,
    apply_move,
    decide,
    equivalent,
    find_move_sites,
    replay_path,
)

__version__ = "0.1.0"
