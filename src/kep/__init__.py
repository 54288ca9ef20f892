"""kep: exact invariants of the groupoids defined by an integer matrix pair.

A square nonnegative matrix A (no zero rows) and an equal-size integer
matrix B define a self-similar action on the paths of the graph of A and,
through it, an ample groupoid.  This package computes, in exact integer
arithmetic, the groupoid's homology and the K-theory of its algebra,
cross-checks the two through an independent inductive-limit model, decides
when two pairs cannot be Kakutani equivalent, and builds pairs realizing a
prescribed K-theory.
"""

from .abgroup import (
    FGAbelianGroup,
    direct_sum,
    from_cokernel,
)
from .dirlimit import (
    StationaryLimit,
    coker_one_minus_shift,
    eventual_kernel,
    ker_one_minus_shift,
)
from .errors import InputValidationError, InternalError
from .groupoid import (
    Slice,
    classify,
    compose_slices,
    invert_slice,
    refine_slice,
    slice_image_cylinder,
    slices_equal,
)
from .intmat import (
    IntMatrix,
    det,
    hnf,
    kernel_basis,
    snf,
)
from .invariants import (
    ComparisonReport,
    HkEvidence,
    HomologyTuple,
    InvariantReport,
    Operand,
    analyze,
    compare,
    hk_check,
    homology,
    ktheory,
    limit_route_homology,
    realize,
    sft_homology,
)
from .selfsim import (
    Edge,
    EventuallyPeriodicPath,
    Graph,
    Path,
    fixes_path,
    is_pseudo_free,
    kappa_edge,
    kappa_path,
    phi_vertex_sum,
)

__version__ = "0.1.0"

__all__ = [
    "FGAbelianGroup",
    "direct_sum",
    "from_cokernel",
    "StationaryLimit",
    "coker_one_minus_shift",
    "eventual_kernel",
    "ker_one_minus_shift",
    "InputValidationError",
    "InternalError",
    "Slice",
    "classify",
    "compose_slices",
    "invert_slice",
    "refine_slice",
    "slice_image_cylinder",
    "slices_equal",
    "IntMatrix",
    "det",
    "hnf",
    "kernel_basis",
    "snf",
    "ComparisonReport",
    "HkEvidence",
    "HomologyTuple",
    "InvariantReport",
    "Operand",
    "analyze",
    "compare",
    "hk_check",
    "homology",
    "ktheory",
    "limit_route_homology",
    "realize",
    "sft_homology",
    "Edge",
    "EventuallyPeriodicPath",
    "Graph",
    "Path",
    "fixes_path",
    "is_pseudo_free",
    "kappa_edge",
    "kappa_path",
    "phi_vertex_sum",
    "__version__",
]
