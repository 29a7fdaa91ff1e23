"""Complete permutation polynomials over two-level finite field towers.

The package builds CPPs of F_{q^n} from complete mappings of F_q through
norm- and trace-composed liftings, verifies everything exhaustively at
desk scale, and ships grid sweeps that confront each construction's
prediction with ground truth over every parameter choice that fits.
"""

from .errors import (
    BadInput,
    BadTableLength,
    CppforgeError,
    DivisionByZero,
    FieldMismatch,
    HypothesisFails,
    MapEscapesKernel,
    NotIrreducible,
    NotPrime,
    OrderCapExceeded,
    OutOfRange,
    PreconditionViolated,
    ReconstructionMismatch,
    SearchCapExceeded,
)
from .fields import (
    FieldDesc,
    FieldElement,
    Poly,
    TowerDesc,
    embed_poly,
    make_extension,
    make_prime_field,
    make_tower,
)
from .maps import (
    KernelCriterionVerdict,
    PPoly,
    binomial_kernel_criterion,
    norm_exponent,
    ppoly_permutes_kernel,
    ppoly_quotient,
    rel_norm,
    rel_trace,
    trace_kernel,
)
from .permcheck import (
    DEFAULT_EXHAUSTIVE_CAP,
    CppCheck,
    FiberCriterionReport,
    PermVerdict,
    eval_poly,
    fiber_criterion_verify,
    is_complete_permutation,
    is_permutation,
    table_is_cpp,
    table_verdict,
    value_table,
)
from .lifts import (
    LiftResult,
    cppeg_construct,
    monomial_cpp_check,
    norm_lift,
    trace_lift_binomial,
    trace_lift_general,
    trace_lift_simple,
)
from .search import (
    CompleteMapping,
    brute_complete_mappings,
    enumerate_complete_mappings,
    lagrange_interpolate,
    to_h_form,
)

__version__ = "0.1.0"

# the sweeps run on numpy; loading them on first use keeps numpy out of
# processes that never sweep, such as a one-shot CLI verify
_FROM_GRIDS = ("REGISTRY", "SweepReport", "norm_lift_pairs", "tower_grid")


def __getattr__(name: str):
    if name in _FROM_GRIDS:
        from . import grids

        return getattr(grids, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def clear_caches() -> None:
    """Empty the package memo (fields._MEMO) and the CLI parser's cache.

    No result depends on them. The odd-p addition tables (69 at most) stay:
    a level built before the clear keeps its table, so a rebuilt one would
    be a second copy. A module that is not loaded yet is not imported here.
    """
    import sys

    from . import fields

    fields._MEMO.clear()
    cli = sys.modules.get(f"{__name__}.cli")
    if cli is not None:
        cli._build_parser.cache_clear()


__all__ = [
    "BadInput",
    "BadTableLength",
    "CppforgeError",
    "DivisionByZero",
    "FieldMismatch",
    "HypothesisFails",
    "MapEscapesKernel",
    "NotIrreducible",
    "NotPrime",
    "OrderCapExceeded",
    "OutOfRange",
    "PreconditionViolated",
    "ReconstructionMismatch",
    "SearchCapExceeded",
    "FieldDesc",
    "FieldElement",
    "Poly",
    "TowerDesc",
    "embed_poly",
    "make_extension",
    "make_prime_field",
    "make_tower",
    "KernelCriterionVerdict",
    "PPoly",
    "binomial_kernel_criterion",
    "norm_exponent",
    "ppoly_permutes_kernel",
    "ppoly_quotient",
    "rel_norm",
    "rel_trace",
    "trace_kernel",
    "DEFAULT_EXHAUSTIVE_CAP",
    "CppCheck",
    "FiberCriterionReport",
    "PermVerdict",
    "eval_poly",
    "fiber_criterion_verify",
    "is_complete_permutation",
    "is_permutation",
    "table_is_cpp",
    "table_verdict",
    "value_table",
    "LiftResult",
    "cppeg_construct",
    "monomial_cpp_check",
    "norm_lift",
    "trace_lift_binomial",
    "trace_lift_general",
    "trace_lift_simple",
    "CompleteMapping",
    "brute_complete_mappings",
    "enumerate_complete_mappings",
    "lagrange_interpolate",
    "to_h_form",
    "REGISTRY",
    "SweepReport",
    "norm_lift_pairs",
    "tower_grid",
    "clear_caches",
    "__version__",
]
