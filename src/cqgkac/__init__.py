"""Exact engine for universal unitary/orthogonal quantum-group algebra
presentations, their Kac quotients via trace-positivity certificates, exact
characters that witness the generators that survive, and float residuals
that cross-check those characters.  The floats are plain Python complex
numbers: one-dimensional assignments, and classical points accepted by
Frobenius-norm defects.  The package needs nothing beyond the standard
library."""

from .algebra import (
    AlgElement,
    GeneratorId,
    ScalarMatrix,
    ShapeError,
    rat,
    rat_str,
    word_adjoint,
    word_key,
)
from .hopf import (
    HopfReport,
    TensorElement,
    antipode,
    central_morphism_check,
    coproduct,
    counit,
    hopf_axiom_check,
)
from .numeric import (
    CharacterCover,
    CharacterError,
    NumAssignment,
    ResidualReport,
    characters,
    classical_point,
    eval_residual,
    rep_search,
    verify_character,
    witness_characters,
)
from .presentations import (
    Block,
    BlockSpec,
    Presentation,
    build_presentation,
    build_universal_orthogonal,
    build_universal_unitary,
    reality_substitution,
    standard_form_matrix,
    symplectic_matrix,
)
from .quotient import (
    KacTarget,
    MatchVerdict,
    expected_kac_target,
    match_presentations,
    quotient_by_zero,
)
from .trace import (
    Certificate,
    CertificateError,
    KacReport,
    TraceEquationSet,
    TraceSymbol,
    Undetermined,
    cyclic_canonical,
    derive_trace_equations,
    forced_zero,
    generator_symbol,
    kac_fixpoint,
    trace_of,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
