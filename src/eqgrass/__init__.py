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
from .oracle import (
    PageDiagnostics,
    fixed_set_poincare,
    gaussian_binomial,
    naive_solve,
    validate_page,
)

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
