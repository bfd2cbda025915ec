"""Paving of matrices over maximal abelian subalgebras, at desk scale."""

from .finite_vn import (
    MasaFrame,
    TracedMatrix,
    conditional_expectation,
    l2_norm,
    normalized_trace,
    op_norm,
    perpendicular_frame,
)
from .paving import (
    Partition,
    PavingReport,
    arc_partition,
    compress,
    dixmier_average,
    pave_search,
    paving_defect,
    paving_number_exact,
    refine,
    roots_of_unity_tuple,
    sign_split,
)

__version__ = "0.1.0"
