"""Stationary inductive limits of integer lattices and their shift maps.

A square matrix T defines the direct system Z^n -T-> Z^n -T-> ...; its limit
is the group of pairs [x, stage] under the identification [x, i] = [T x, i+1].
The one-step translation ("shift") sends [x, i] to [x, i+1].  This module
computes the kernel and cokernel of (identity - shift) directly from the
lattice model, which is the route independent of the closed matrix formulas
used in :mod:`kep.invariants`.

Convention: a vertex matrix M acting on basis vectors by
1_v -> sum_w M[v, w] 1_w acts on coordinate columns through transpose(M).
Every reported group is insensitive to this choice (transposing a matrix
does not change its Smith diagonal or nullity), so callers never see it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abgroup import FGAbelianGroup, from_cokernel
from .errors import InternalError
from .intmat import IntMatrix, hnf, hstack, kernel_basis, snf

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

    @property
    def dim(self) -> int:
        return self.matrix.rows


@dataclass(frozen=True)
class LimitElement:
    """A staged representative [vector, stage] of an element of the limit."""

    stage: int
    vector: Vector

    def __post_init__(self):
        if self.stage < 0:
            raise ValueError("stage must be nonnegative")


def _power(m: IntMatrix, k: int) -> IntMatrix:
    result = IntMatrix.identity(m.rows)
    for _ in range(k):
        result = result @ m
    return result


def limit_equal(limit: StationaryLimit, a: LimitElement, b: LimitElement) -> bool:
    """Whether two staged vectors define the same element of the limit.

    [x, i] and [y, j] (i <= j) agree iff T^k (T^(j-i) x - y) = 0 for some
    k >= 0; k = n always suffices because kernels of powers stabilize by
    dimension n.
    """
    n = limit.dim
    if len(a.vector) != n or len(b.vector) != n:
        raise ValueError("vector length does not match the limit dimension")
    if a.stage > b.stage:
        a, b = b, a
    shifted = _power(limit.matrix, b.stage - a.stage).apply(a.vector)
    diff = tuple(x - y for x, y in zip(shifted, b.vector))
    return all(x == 0 for x in _power(limit.matrix, n).apply(diff))


def eventual_kernel(limit: StationaryLimit) -> list[Vector]:
    """Basis of ker(T^n), the vectors that eventually die in the limit.

    The lattice is saturated: k*x in the span with k != 0 forces x in it.
    """
    return kernel_basis(_power(limit.matrix, limit.dim))


def _lattice_basis(vectors: list[Vector], dim: int) -> list[Vector]:
    """Canonical basis (column Hermite form) of the subgroup generated by
    `vectors` inside Z^dim."""
    nonzero = [v for v in vectors if any(v)]
    if not nonzero:
        return []
    h = hnf(IntMatrix.from_columns(nonzero))
    return [h.column(j) for j in range(h.cols) if any(h.column(j))]


def _solve_exact(basis: IntMatrix, targets: list[Vector]) -> list[Vector]:
    """Solve basis @ c = target over the integers for every target with one
    Smith form (basis has full column rank, so each solution is unique);
    raises InternalError if some target is unsolvable."""
    decomp = snf(basis)
    diag = decomp.diagonal()
    solutions = []
    for target in targets:
        rhs = decomp.U.apply(target)
        y = []
        for i in range(basis.rows):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if rhs[i] != 0:
                    raise InternalError("vector not in lattice span")
                if i < basis.cols:
                    y.append(0)
            else:
                if rhs[i] % d:
                    raise InternalError("vector not in lattice span")
                y.append(rhs[i] // d)
        solutions.append(decomp.V.apply(tuple(y)))
    return solutions


def _fixed_sublattice(limit: StationaryLimit, ek: list[Vector]) -> list[Vector]:
    """Basis of L' = {x : (T - I) x lies in the eventual kernel}, given a
    basis `ek` of the eventual kernel."""
    t = limit.matrix
    n = limit.dim
    t_minus_i = t - IntMatrix.identity(n)
    if not ek:
        return _lattice_basis(kernel_basis(t_minus_i), n)
    # {x : (T-I)x in <EK>} is the projection to the x-block of the kernel
    # of the block matrix [T-I | -EK].
    combined = hstack(t_minus_i, -IntMatrix.from_columns(ek))
    projected = [v[:n] for v in kernel_basis(combined)]
    return _lattice_basis(projected, n)


def ker_one_minus_shift(limit: StationaryLimit) -> FGAbelianGroup:
    """Group of limit elements fixed by the shift, computed as L'/EK.

    L' = {x : (T - I) x in EK} surjects onto the fixed subgroup with kernel
    exactly EK, and the quotient is torsion free because EK is saturated;
    any torsion in the quotient therefore signals an internal defect.
    The result is abstractly isomorphic to kernel_group(I - T).
    """
    ek = eventual_kernel(limit)
    fixed = _fixed_sublattice(limit, ek)
    if not fixed:
        if ek:
            raise InternalError("eventual kernel escaped the fixed sublattice")
        return FGAbelianGroup.trivial()
    if not ek:
        return FGAbelianGroup.free(len(fixed))
    coords = _solve_exact(IntMatrix.from_columns(fixed), ek)
    quotient = from_cokernel(IntMatrix.from_columns(coords))
    if quotient.torsion:
        raise InternalError("fixed-point quotient acquired torsion")
    return quotient


def coker_one_minus_shift(limit: StationaryLimit) -> FGAbelianGroup:
    """Cokernel of (identity - shift) on the limit.

    T acts as the identity on coker(T - I) (T x = x + (T - I) x), so the
    stationary system of cokernels is constant and the limit cokernel is
    just coker(T - I).
    """
    return from_cokernel(limit.matrix - IntMatrix.identity(limit.dim))
