"""Stationary inductive limits of integer lattices and their shift maps.

A square matrix T defines the direct system Z^n -T-> Z^n -T-> ...; its limit
is the group of pairs [x, stage] under the identification [x, i] = [T x, i+1].
The one-step translation ("shift") sends [x, i] to [x, i+1].  This module
computes the kernel and cokernel of (identity - shift) on the limit, the
route independent of the closed matrix formulas used in
:mod:`kep.invariants`.  `one_minus_shift`, the route, gets both from one
adjugate of T - I: the kernel is 0 when det(T - I) != 0 and otherwise free
of rank nullity(T - I), because the fixed sublattice L' splits as the
eventual kernel EK plus ker(T - I); `kep` exports it with
`StationaryLimit`, its argument.

`eventual_kernel` and `ker_one_minus_shift` are the lattice model that this
splitting replaces: they build EK, the Hermite basis of L' and the quotient
L'/EK, at lattice-model cost.  `kep` does not export them (nor
`coker_one_minus_shift`), and no command runs them.  Outside their own
tests they have two readers: `test_oracle_agreement`, which holds the
route to the model, and the benchmark's tracer, which wraps them by name
(`tests/test_bench_targets.py` requires its targets to exist).

Convention: a vertex matrix M acting on basis vectors by
1_v -> sum_w M[v, w] 1_w acts on coordinate columns through transpose(M).
Every reported group is insensitive to this choice (transposing a matrix
does not change its Smith diagonal or nullity), so callers never see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .abgroup import FGAbelianGroup, from_cokernel, kernel_group
from .errors import InternalError
from .intmat import IntMatrix, det_adjugate, hnf, kernel_basis

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
        if len(nxt) == len(ek) or len(nxt) == limit.dim:
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
    """Basis of L' = {x : (T - I) x lies in the eventual kernel}, given a
    basis `ek` of the eventual kernel."""
    return _preimage(limit.matrix - IntMatrix.identity(limit.dim), ek)


def one_minus_shift(limit: StationaryLimit) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """(kernel, cokernel) of (identity - shift) on the limit, from one
    `det_adjugate` of M = T - I: the bounded route that
    `limit_route_homology` runs.

    Cokernel.  T acts as the identity on coker M (T x = x + M x), so the
    stationary system of cokernels is constant and the limit cokernel is
    just coker M.  With M nonsingular, `det_adjugate` gives d = det M and
    adj M, whose entries are the (n-1)-minors of M up to sign.  So gcd(adj M)
    is the determinantal divisor D_(n-1) = s_1 ... s_(n-1) of M's Smith form
    (Cohen, *A Course in Computational Algebraic Number Theory*, §2.4).  If
    it is 1, then s_1 = ... = s_(n-1) = 1, s_n = |d|, and coker M is Z/|d|
    with no Smith form.  A singular or non-cyclic M takes `_smith` through
    `from_cokernel`.  `det_adjugate` shares no code with the formula
    route's `det` and its diagonal modulo |det|.

    Kernel.  The fixed subgroup is L'/EK, with EK the eventual kernel and
    L' = {x : M x in EK}: L' surjects onto it with kernel exactly EK, and
    T EK lies in EK, so EK lies in L'.  T is nilpotent on EK, so M
    restricted to EK is N - I with N nilpotent, which has the integer
    inverse -(I + N + N^2 + ...): M maps EK onto EK.  So for x in L' some
    y in EK has M y = M x, and x - y lies in ker M; and EK meets ker M in
    0, since M is injective on EK.  Hence L' = EK ⊕ ker M, and L'/EK is
    isomorphic to ker M, free of rank nullity(M): 0 when d != 0, and
    otherwise `kernel_group` reads it off one fraction-free rank.  Neither
    EK nor L' is computed; `ker_one_minus_shift` builds both.
    """
    m = limit.matrix - IntMatrix.identity(limit.dim)
    d, adj = det_adjugate(m)
    coker = FGAbelianGroup.from_cyclic_orders((d,)) if d and gcd(*adj.entries) == 1 else from_cokernel(m)
    return FGAbelianGroup.trivial() if d else kernel_group(m), coker


def ker_one_minus_shift(limit: StationaryLimit) -> FGAbelianGroup:
    """Group of limit elements fixed by the shift, L'/EK, built from the
    lattice model: the eventual kernel EK, the Hermite basis of
    L' = {x : (T - I) x in EK} (`_fixed_sublattice`), EK solved for in that
    basis, and the quotient.  With EK = 0, L' is ker(T - I) itself.

    It costs what the lattice model costs, whose Hermite bases can take
    minutes on a dense kernel lattice at n = 64; `one_minus_shift` is the
    bounded route, and its splitting L' = EK ⊕ ker(T - I) makes the two
    groups equal.  The quotient is torsion free because EK is saturated, so
    torsion there, or an empty L' over a nonempty EK, signals an internal
    defect.
    """
    ek = eventual_kernel(limit)
    if not ek:
        return kernel_group(limit.matrix - IntMatrix.identity(limit.dim))
    fixed = _fixed_sublattice(limit, ek)
    if not fixed:
        raise InternalError("eventual kernel escaped the fixed sublattice")
    coords = _solve_exact(IntMatrix.from_columns(fixed), ek)
    quotient = from_cokernel(IntMatrix.from_columns(coords))
    if quotient.torsion:
        raise InternalError("fixed-point quotient acquired torsion")
    return quotient


def coker_one_minus_shift(limit: StationaryLimit) -> FGAbelianGroup:
    """Cokernel of (identity - shift) on the limit, coker(T - I): the
    cokernel that `one_minus_shift` computes."""
    return one_minus_shift(limit)[1]
