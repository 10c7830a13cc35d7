"""Exact tools for edge-colourings of grid graphs avoiding alternating rectangles.

The grid graph on [m] x [n] is n vertical copies of K_m and m horizontal
copies of K_n; a rectangle is alternating when its parallel edges share
colours.  This package models such colourings, decides extendibility through
exact agreement-graph colouring, implements colour switching and
stabilisation, computes g(m, n) and G(r) at small sizes with two independent
oracles, and evaluates the named upper-bound formulas in exact integers.
"""

from .bounds import (
    BoundReport,
    IntersectionSpec,
    SetFamily,
    bound_table,
    check_L_intersecting,
    diag_inequality_check,
    diag_intersection_spec,
    extract_largest_classes,
    fisher_check,
    frankl_wilson_bound,
    intersection_profile,
    stabilised_partitions,
)
from .coloring import (
    GoodnessReport,
    chromatic_at_most,
    extend_to_full,
    is_good,
)
from .constructions import (
    RefutationWitness,
    TheoremParams,
    row_index_coloring,
    shelah_find_rectangle,
    shelah_refute,
    theorem_params,
)
from .core import (
    AgreementGraph,
    ColumnColoring,
    FullGridColoring,
    Rectangle,
    RowPartition,
    VerticalColoring,
    agreement_graph,
    enumerate_alternating_rectangles,
    is_alternating,
    pair_rank,
)
from .errors import (
    CertificateError,
    FisherHypothesisError,
    GridRamError,
    InternalContradictionError,
    NotColorableError,
    NotGoodError,
    PreconditionUnmetError,
    TooLargeError,
)
from .search import (
    G_exact,
    SearchResult,
    SearchStats,
    Verdict,
    g_exact_naive,
    g_exact_vertical,
    verify_certificate,
    verify_text,
)
from .transforms import (
    StabiliseStep,
    SwitchRecord,
    common_refinement,
    restrict_rows,
    stabilise_first,
    stabilise_step,
    switch,
)

__version__ = "0.1.0"
