"""Stationary inductive limits of integer lattices and their shift maps.

A square matrix T defines the direct system Z^n -T-> Z^n -T-> ...; its limit
is the group of pairs [x, stage] under the identification [x, i] = [T x, i+1].
The one-step translation ("shift") sends [x, i] to [x, i+1].  This module
computes the cokernel of (identity - shift) on the limit, the route
independent of the closed matrix formulas used in :mod:`kep.invariants`.
`coker_one_minus_shift`, the route, reads it off one Gauss-Jordan
elimination of I - T, which `intmat.one_minus` builds, as it builds the
formula route's I - A and I - B; `kep` exports it with `StationaryLimit`,
its argument.  The kernel of (identity - shift) is free of rank
nullity(I - T), the free rank of that cokernel, and
`invariants.limit_route_homology` reads it there (the proof is in its
docstring).  ker(I - T) and coker(I - T) are ker(T - I) and coker(T - I):
a matrix and its negative share both.

`eventual_kernel` and `ker_one_minus_shift` are the lattice model that the
kernel rule replaces: they build the eventual kernel EK, the Hermite basis
of L' = {x : (I - T) x in EK} and the quotient L'/EK, at lattice-model
cost.  `kep` does not export them, and no command runs them.  Outside
their own tests they have two readers: `test_oracle_agreement`, which
holds the route to the model, and the benchmark's tracer, which wraps them
by name (`tests/test_bench_targets.py` requires its targets to exist).

Convention: a vertex matrix M acting on basis vectors by
1_v -> sum_w M[v, w] 1_w acts on coordinate columns through transpose(M).
Every reported group is insensitive to this choice (transposing a matrix
does not change its Smith diagonal or nullity), so callers never see it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abgroup import FGAbelianGroup, from_cokernel, kernel_group
from .errors import InternalError
from .intmat import IntMatrix, det_adjugate_gcd, hnf, kernel_basis, one_minus

Vector = tuple[int, ...]


@dataclass(frozen=True)
class StationaryLimit:
    """Direct limit of Z^n under the connecting map `matrix` (on columns)."""

    matrix: IntMatrix

    def __post_init__(self):
        if not self.matrix.is_square:
            raise ValueError("connecting map must be square")

    @classmethod
    def from_row_action(cls, m: IntMatrix) -> "StationaryLimit":
        """Limit whose connecting map sends 1_v to the row-v combination
        sum_w M[v, w] 1_w; on coordinate columns that is transpose(M)."""
        return cls(m.transpose())


def eventual_kernel(limit: StationaryLimit) -> list[Vector]:
    """Canonical basis of ker(T^n), the vectors that eventually die in the
    limit, computed without matrix powers.

    The chain K_0 = 0, K_(j+1) = {x : T x in K_j} climbs through ker T^j.
    Each K_j is saturated (k*x in K_j with k != 0 forces x in K_j), and
    nested saturated lattices of equal rank are equal, so the chain has
    reached ker T^n once its rank stops growing; rank n is all of Z^n.
    An injective T therefore costs one fraction-free rank of T itself and
    no Smith form.
    """
    t = limit.matrix
    ek: list[Vector] = []
    while True:
        nxt = _preimage(t, ek)
        if len(nxt) == len(ek) or len(nxt) == t.rows:
            return nxt
        ek = nxt


def _lattice_basis(vectors: list[Vector], dim: int) -> list[Vector]:
    """Canonical basis (column Hermite form) of the subgroup generated by
    `vectors` inside Z^dim."""
    nonzero = [v for v in vectors if any(v)]
    if not nonzero:
        return []
    h = hnf(IntMatrix.from_columns(nonzero))
    return [h.column(j) for j in range(h.cols) if any(h.column(j))]


def _preimage(m: IntMatrix, basis: list[Vector]) -> list[Vector]:
    """Canonical basis of {x : M x lies in the span of `basis`}.

    That lattice is the projection to the x-block of the kernel of the
    block matrix [M | -basis]; with `basis` empty it is ker M.
    """
    n = m.cols
    if not basis:
        return _lattice_basis(kernel_basis(m), n)
    combined = IntMatrix(list(row) + [-v[i] for v in basis] for i, row in enumerate(m))
    return _lattice_basis([v[:n] for v in kernel_basis(combined)], n)


def _solve_exact(basis: IntMatrix, targets: list[Vector]) -> list[Vector]:
    """Solve basis @ c = target over the integers for every target.

    Precondition: `basis` is a column Hermite form with no zero column, as
    `_lattice_basis` returns.  Each column's first nonzero entry (its pivot)
    then lies below the pivots of the columns before it, so c is unique and
    is found one coordinate at a time down the pivot rows.  A pivot that
    does not divide, or a final product basis @ c that misses the target on
    the other rows, raises InternalError.
    """
    pivots = [next(i for i, x in enumerate(basis.column(k)) if x) for k in range(basis.cols)]
    solutions = []
    for target in targets:
        c: list[int] = []
        for k, p in enumerate(pivots):
            q, r = divmod(target[p] - sum(x * y for x, y in zip(basis.row(p), c)), basis[p, k])
            if r:
                raise InternalError("vector not in lattice span")
            c.append(q)
        if basis.apply(c) != target:
            raise InternalError("vector not in lattice span")
        solutions.append(tuple(c))
    return solutions


def _fixed_sublattice(limit: StationaryLimit, ek: list[Vector]) -> list[Vector]:
    """Basis of L' = {x : (I - T) x lies in the eventual kernel}, given a
    basis `ek` of the eventual kernel."""
    return _preimage(one_minus(limit.matrix), ek)


def coker_one_minus_shift(limit: StationaryLimit) -> FGAbelianGroup:
    """Cokernel of (identity - shift) on the limit, coker(T - I), from one
    `det_adjugate_gcd` of M = I - T, built by `one_minus`: the route that
    `limit_route_homology` runs.

    T acts as the identity on coker M (T x = x - M x), so the stationary
    system of cokernels is constant and the limit cokernel is just coker M.
    With M nonsingular, `det_adjugate_gcd` gives d = det M and the gcd of
    adj M's entries, which are the (n-1)-minors of M up to sign.  So that
    gcd is the determinantal divisor D_(n-1) = s_1 ... s_(n-1) of M's Smith
    form (Cohen, *A Course in Computational Algebraic Number Theory*,
    §2.4).  If it is 1, then s_1 = ... = s_(n-1) = 1, s_n = |d|, and
    coker M is Z/|d| with no Smith form.  A singular M (gcd 0) or a
    non-cyclic one takes `_smith` on the whole of M through
    `from_cokernel`.  `det_adjugate_gcd` shares no code with the formula
    route's `det_smith_diagonal` (its Bareiss pass and its elimination
    modulo g, which a singular M takes too), so the two routes share the
    builder `one_minus` and, on a singular or non-cyclic M, `_smith`, and
    no other elimination: on a singular M, this route's `_smith` on M
    checks that elimination modulo g.
    """
    m = one_minus(limit.matrix)
    d, minor_gcd = det_adjugate_gcd(m)
    return FGAbelianGroup.from_cyclic_orders((d,)) if minor_gcd == 1 else from_cokernel(m)


def ker_one_minus_shift(limit: StationaryLimit) -> FGAbelianGroup:
    """Group of limit elements fixed by the shift, L'/EK, built from the
    lattice model: the eventual kernel EK, the Hermite basis of
    L' = {x : (I - T) x in EK} (`_fixed_sublattice`), EK solved for in that
    basis, and the quotient.  With EK = 0, L' is ker(I - T) itself.

    It costs what the lattice model costs, whose Hermite bases can take
    minutes on a dense kernel lattice at n = 64; the bounded route reads
    the kernel off `coker_one_minus_shift`, and the splitting
    L' = EK ⊕ ker(I - T) makes the two groups equal.  The quotient is
    torsion free because EK is saturated, so torsion there, or an empty L'
    over a nonempty EK, signals an internal defect.
    """
    ek = eventual_kernel(limit)
    if not ek:
        return kernel_group(one_minus(limit.matrix))
    fixed = _fixed_sublattice(limit, ek)
    if not fixed:
        raise InternalError("eventual kernel escaped the fixed sublattice")
    coords = _solve_exact(IntMatrix.from_columns(fixed), ek)
    quotient = from_cokernel(IntMatrix.from_columns(coords))
    if quotient.torsion:
        raise InternalError("fixed-point quotient acquired torsion")
    return quotient
