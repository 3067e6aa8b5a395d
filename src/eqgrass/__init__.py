"""Bredon cohomology of real Grassmannians via bigraded Poincare polynomials."""

from .bipoly import (
    BiPoly,
    K11,
    PolynomialParseError,
    UniPoly,
    kronholm_poly,
    parse_bipoly,
)
from .modalg import (
    FreeModule,
    module_from_poly,
    possible_differentials,
    render_rank_table,
)
from .schubert import (
    SignWord,
    cell_bidegree,
    e1_page,
    e1_quotient_page,
    enumerate_cells,
    normalize_parameters,
    sign_words,
    total_weight_formula,
    unique_e1_pages,
)
from .search import (
    Budget,
    BudgetExceededError,
    SolveReport,
    candidate_outcomes,
    reduce_pages,
    solve,
    subspace_filter,
)


def __getattr__(name: str):
    # The oracles, slow and unused by ``solve``, load on first use.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle
    return getattr(oracle, name)


__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "Budget",
    "BudgetExceededError",
    "FreeModule",
    "K11",
    "PageDiagnostics",
    "PolynomialParseError",
    "SignWord",
    "SolveReport",
    "UniPoly",
    "candidate_outcomes",
    "cell_bidegree",
    "e1_page",
    "e1_quotient_page",
    "enumerate_cells",
    "fixed_set_poincare",
    "gaussian_binomial",
    "kronholm_poly",
    "module_from_poly",
    "naive_solve",
    "normalize_parameters",
    "parse_bipoly",
    "possible_differentials",
    "reduce_pages",
    "render_rank_table",
    "sign_words",
    "solve",
    "subspace_filter",
    "total_weight_formula",
    "unique_e1_pages",
    "validate_page",
    "__version__",
]
