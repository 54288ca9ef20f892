"""Exact dense integer matrices: Smith/Hermite normal forms, determinants,
adjugates, ranks and integer kernels.

All arithmetic is over Python ints, so nothing here can overflow.  Matrices
are immutable; every operation returns fresh values.

Two algorithms give Smith diagonals.  `_smith` eliminates by
smallest-entry pivots on the leading block of one list matrix, acting on
whole rows and columns.  `smith_diagonal` runs it on M alone, which is all
a cokernel of any shape needs; `snf` runs it on M bordered by identities,
[[M, I], [I, 0]], so the same operations build U in the right border and
V in the lower one.  U and V grow far longer than the diagonal, so only a
caller that reads them uses `snf`; in the library that is a nonzero
`kernel_basis` alone, which reads the columns of V.  `kernel_basis` serves
only the lattice model in `kep.dirlimit`, so `kep` does not export it, and
outside its own tests it has the model's two readers: the test that holds
the limit route to the model, and the benchmark's tracer, which wraps it by
name.  `snf` and `hnf` stay exported for the normal-form acceptance check.
`det_smith_diagonal` gives a square M's determinant and diagonal together:
the fraction-free `_bareiss` pass that yields det M also holds four
(n-1)-minors, and when their gcd g with det M is 1 the cokernel is cyclic
of order |det M| with no further work.  Otherwise `_hermite_mod` reduces
M's rows modulo the constant g, so no entry reaches g, and the pairwise-
coprime shortcut or `_smith` on that triangular form gives the first n - 1
entries.  Its Bezout coefficients, and those of `hnf`, come from `_xgcd`:
`math.gcd` and the modular inverse of `pow`, both computed in C.  Both
results are canonical (a Smith diagonal, a Hermite basis), so they do not
depend on which Bezout pair is used.
A third algorithm, not a Smith form, certifies cyclic cokernels on the
limit route, with no code shared with `_bareiss`: `det_adjugate` runs one
fraction-free Gauss-Jordan elimination for det M and adj M, whose entries'
gcd is the determinantal divisor D_(n-1), and D_(n-1) = 1 shows that
coker M is cyclic of order |det M|.
The lattice model's injectivity and nullity tests use the fraction-free
`rank`, whose entries are minors of the input; neither homology route runs
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable rows x cols matrix of arbitrary-precision integers.

    >>> m = IntMatrix([[1, 2], [3, 4]])
    >>> m[0, 1]
    2
    >>> (m @ IntMatrix.identity(2)) == m
    True
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Iterable[Sequence[int]]):
        rows = tuple(tuple(row) for row in data)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            for x in row:
                if not isinstance(x, int):
                    raise TypeError(f"matrix entries must be int, got {type(x).__name__}")
        self.rows = len(rows)
        self.cols = width
        self._data = rows

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(columns).transpose()

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._data[i][j]

    def __iter__(self):
        return iter(self._data)

    def row(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self._data)

    @property
    def entries(self) -> tuple[int, ...]:
        """Row-major flat view of the entries."""
        return tuple(x for row in self._data for x in row)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        return IntMatrix([self.column(j) for j in range(self.cols)])

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product M @ v."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(row[j] * vector[j] for j in range(self.cols)) for row in self._data)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._data, other._data)]
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        cols = [other.column(j) for j in range(other.cols)]
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._data]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(row) for row in self._data]})"

    def __str__(self) -> str:
        body = [[str(x) for x in row] for row in self._data]
        widths = [max(len(body[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        return "\n".join(
            "[" + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "]" for row in body
        )

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self._data]


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form U @ M @ V == D of a matrix M.

    U (rows x rows) and V (cols x cols) are unimodular; D is diagonal with
    nonnegative entries d_1 | d_2 | ... (trailing zeros allowed, unit
    factors retained).  D is unique given M.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        k = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(k))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g.

    x is the inverse of a/g modulo |b/g|, in [0, |b/g|), so a*x = g modulo
    b and y = (g - a*x) / b is exact; |x| <= max(1, |b|/g) and
    |y| <= max(1, |a|/g).  `math.gcd` and the modular inverse of `pow` run
    in C, with no interpreted step per Euclidean quotient.
    """
    if b == 0:
        return abs(a), (a > 0) - (a < 0), 0
    g = gcd(a, b)
    x = pow(a // g, -1, abs(b // g))
    return g, x, (g - a * x) // b


def _smith(a: list[list[int]], rows: int, cols: int) -> None:
    """Reduce the leading rows x cols block of the list matrix `a` to Smith
    form in place.

    Row operations act on whole rows of `a` and column operations on whole
    columns, so entries beside and below the block record them: `snf` borders
    M as [[M, I], [I, 0]], and the right border ends as U and the lower one
    as V, while the zero corner is never touched (Cohen, *A Course in
    Computational Algebraic Number Theory*, §2.4).

    Pivoting always selects the nonzero entry of smallest absolute value in
    the remaining block and reduces its row and column by it; this keeps
    intermediate entries from blowing up.  Before a pivot is finalized it is
    made to divide every entry of the remaining block, so the diagonal
    comes out as a divisor chain without a separate fix-up pass.
    """
    t = 0
    limit = min(rows, cols)
    while t < limit:
        # Smallest nonzero |entry| in the block [t:rows, t:cols] becomes the pivot.
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]

        top = a[t]
        p = top[t]
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], top)]
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if top[j]:
                q = top[j] // p
                for row in a:
                    row[j] -= q * row[t]
                if top[j]:
                    dirty = True
        if dirty:
            # A remainder survived; it is strictly smaller than the pivot,
            # so re-picking the pivot makes progress.
            continue

        bad = next(
            (i for i in range(t + 1, rows) if any(x % p for x in a[i][t + 1 : cols])), None
        )
        if bad is not None:
            # Pull the offending row up; the next reduction pass leaves a
            # remainder below |pivot|, shrinking the pivot.
            a[t] = [x + y for x, y in zip(top, a[bad])]
            continue
        t += 1

    for i in range(limit):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]


def snf(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form with unimodular transformation witnesses.

    `_smith` runs on the bordered matrix [[M, I_rows], [I_cols, 0]]: its
    row operations build U in the right border and its column operations
    build V in the lower one.  Carrying U and V costs far more than the
    diagonal once entries are large, so callers that need only the
    diagonal use `smith_diagonal`.
    """
    r, c = m.rows, m.cols
    a = [list(row) + [int(i == k) for k in range(r)] for i, row in enumerate(m)]
    a += [[int(i == j) for j in range(c)] + [0] * r for i in range(c)]
    _smith(a, r, c)
    return SnfDecomposition(
        U=IntMatrix(row[c:] for row in a[:r]),
        D=IntMatrix(row[:c] for row in a[:r]),
        V=IntMatrix(row[:c] for row in a[r:]),
    )


def smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """The Smith diagonal d_1 | d_2 | ... of M (min(rows, cols) entries,
    trailing zeros allowed), without the transforms `snf` carries.

    >>> smith_diagonal(IntMatrix([[2, 4], [6, 8]]))
    (2, 4)
    >>> smith_diagonal(IntMatrix([[-1, -1, -1], [-1, -1, -1]]))
    (1, 0)
    """
    a = m.to_lists()
    _smith(a, m.rows, m.cols)
    return tuple(a[i][i] for i in range(min(m.rows, m.cols)))


def one_minus(m: IntMatrix) -> IntMatrix:
    """I - M for a square M, built in one pass: the operator whose kernel
    and cokernel both homology routes read, I - A and I - B on the formula
    route and 1 - T on the limit route.

    >>> one_minus(IntMatrix([[2, 1], [0, 1]]))
    IntMatrix([[-1, -1], [0, 0]])
    """
    if not m.is_square:
        raise ValueError("I - M requires a square matrix")
    return IntMatrix([[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(m)])


def _bareiss(m: IntMatrix) -> tuple[int, int, int, tuple[int, ...]]:
    """Fraction-free (Bareiss) row echelon elimination of M.

    Returns (rank, sign, pivot, minors): sign is that of the row permutation
    used, and pivot is the last nonzero pivot, which for a nonsingular square
    M equals sign * det(M).  After k pivots every entry is a (k+1)-minor of
    M, so division by the previous pivot is exact and entries stay as short
    as those minors.  minors is the trailing 2x2 block when rows - 2 pivots
    fill the first cols - 2 columns, which for a nonsingular square M with
    n >= 2 they do: four (n-1)-minors of M's rows in the order reached, so
    (n-1)-minors of M up to sign.  Otherwise it is empty.
    """
    a = m.to_lists()
    rows, cols = m.rows, m.cols
    sign = 1
    prev = 1
    r = 0
    minors = ()
    for c in range(cols):
        if r == rows:
            break
        if r == rows - 2 and c == cols - 2:
            minors = (*a[r][c:], *a[r + 1][c:])
        p = next((i for i in range(r, rows) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        pivot_row = a[r]
        pivot = pivot_row[c]
        for i in range(r + 1, rows):
            row = a[i]
            x = row[c]
            for j in range(c + 1, cols):
                # Exact by the Bareiss identity: prev divides the numerator.
                row[j] = (row[j] * pivot - x * pivot_row[j]) // prev
        prev = pivot
        r += 1
    return r, sign, prev, minors


def det_adjugate(m: IntMatrix) -> tuple[int, IntMatrix | None]:
    """(det M, adj M) of a square M by one fraction-free (Bareiss)
    Gauss-Jordan elimination; (0, None) when M is singular.

    The arithmetic is that of Bareiss on [M | I], clearing each pivot's
    column in every other row: after the last step the left block is p I
    and the right block is p M^-1, p the last pivot.  It runs in place.
    Before step k, the right block's column for the row now at position k
    has only been scaled, to p_(k-1) e_k, so after the step it reads -a_ik
    in row i != k and p_(k-1) in row k.  It is stored where M's column k
    was, which the step turns into p_k e_k and need not be kept.  Each step
    touches n entries per row, not 2n.  After k pivots every entry is a (k+1)-minor of [M | I], so
    every division by the previous pivot is exact.

    A zero pivot swaps in a lower row with a nonzero entry in its column;
    if there is none, the first k + 1 columns are dependent and M is
    singular.  With the swaps' sign s, p = s det M and p M^-1 = s adj M,
    and the column stored at slot k belongs to the row swapped into
    position k, so the result is scaled by s and its columns are put back.

    >>> det_adjugate(IntMatrix([[2, 1], [4, 3]]))
    (2, IntMatrix([[3, -1], [-4, 2]]))
    >>> det_adjugate(IntMatrix([[0, 1], [1, 0]]))
    (-1, IntMatrix([[0, -1], [-1, 0]]))
    >>> det_adjugate(IntMatrix([[1, 2], [2, 4]]))
    (0, None)
    """
    if not m.is_square:
        raise ValueError("adjugate requires a square matrix")
    a = m.to_lists()
    n = m.rows
    order = list(range(n))
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            r = next((i for i in range(k + 1, n) if a[i][k]), None)
            if r is None:
                return 0, None
            a[k], a[r] = a[r], a[k]
            order[k], order[r] = order[r], order[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                x = a[i][k]
                # Exact by the Bareiss identity: prev divides the numerator.
                a[i] = [(u * p - x * v) // prev for u, v in zip(a[i], pivot_row)]
                a[i][k] = -x
        pivot_row[k] = prev
        prev = p
    slot = [0] * n
    for k, j in enumerate(order):
        slot[j] = k
    return sign * prev, IntMatrix([[sign * row[slot[j]] for j in range(n)] for row in a])


def det(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    r, sign, pivot, _ = _bareiss(m)
    return sign * pivot if r == m.rows else 0


def det_smith_diagonal(m: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """(det M, the Smith diagonal s_1 | ... | s_n of M) for a square M, from
    one Bareiss pass and at most one Hermite elimination modulo a divisor g
    of det M (Domich-Kannan-Trotter, Math. Oper. Res. 12 (1987)).  A singular
    M takes `smith_diagonal`.

    With D_k = s_1 ... s_k the gcd of M's k-minors, the result is M's
    diagonal because:

    - `_bareiss` returns four (n-1)-minors of M up to sign (M itself when
      n = 2), so g = gcd(det M, those four) is a multiple of D_(n-1).  When
      n = 1 there is no such minor, and the diagonal is (|det M|).
    - If g = 1, then D_(n-1) = 1, so s_1 = ... = s_(n-1) = 1 and
      s_n = |det M|, with no further elimination.
    - Otherwise take the row lattice L = Z^n M + g Z^n.  With U M V = S the
      Smith form, L V = Z^n S + g Z^n, so L's diagonal is gcd(s_i, g).  Each
      s_i with i < n divides D_(n-1) and so g: s_1, ..., s_(n-1) are the
      first n - 1 entries of L's diagonal, and s_n = |det M| / D_(n-1).
    - `_hermite_mod` gives a triangular basis H of L with entries below g.
      If H's diagonal is pairwise coprime, then localising at each prime p
      only one diagonal entry is not a unit, so eliminating with the unit
      pivots leaves one entry: L's quotient is cyclic and
      s_1 = ... = s_(n-1) = 1.  Otherwise `_smith` runs on H.

    >>> det_smith_diagonal(IntMatrix([[2, 4], [6, 8]]))
    (-8, (2, 4))
    >>> det_smith_diagonal(IntMatrix([[3, 1], [1, 3]]))
    (8, (1, 8))
    >>> det_smith_diagonal(IntMatrix([[1, 2], [2, 4]]))
    (0, (1, 0))
    """
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    r, sign, pivot, minors = _bareiss(m)
    if r < n:
        return 0, smith_diagonal(m)
    d = sign * pivot
    g = gcd(d, *minors)
    head = (1,) * (n - 1)
    if g > 1 and n > 1:
        h = _hermite_mod(m, g)
        diagonal = [h[t][t] for t in range(n)]
        if lcm(*diagonal) != prod(diagonal):
            _smith(h, n, n)
            head = tuple(h[t][t] for t in range(n - 1))
    return d, head + (abs(d) // prod(head),)


def _hermite_mod(m: IntMatrix, g: int) -> list[list[int]]:
    """An upper triangular basis H of the row lattice L = Z^n M + g Z^n of a
    square M, with entries reduced modulo g (Cohen, *A Course in
    Computational Algebraic Number Theory*, Alg. 2.4.8, with a constant
    modulus).  Why it spans L:

    - L contains g Z^n, so a generator may be reduced entrywise modulo g.
    - Column t seeds its pivot row with g e_t and folds each remaining row
      into it by a 2x2 unimodular row operation: one subtraction when the
      pivot divides the row's entry (the usual case once the pivot is 1),
      else the Bezout pair of `_xgcd`.  The span is unchanged, the pivot
      ends as g_t = gcd(g, column t), and every other row has 0 there.
    - The vectors of the span with 0 at t are spanned by the other rows and
      the g e_j with j > t, which later columns seed.  That includes
      (g / g_t) times the pivot row's tail, since g e_t and (g / g_t) times
      the pivot row both lie in the span.  So the pivot row is kept whole
      and g never shrinks: Cohen's shrinking modulus R / g_t holds only when
      R is the lattice's index, which g need not be.
    """
    n = m.rows
    rest = [[x % g for x in row] for row in m]
    h = []
    for t in range(n):
        pivot = [g] + [0] * (n - t - 1)
        for i, row in enumerate(rest):
            a, b = pivot[0], row[0]
            if b == 0:
                continue
            if b % a == 0:
                q = b // a
                rest[i] = [(v - q * u) % g for u, v in zip(pivot, row)]
                continue
            e, x, y = _xgcd(a, b)
            p, q = -(b // e), a // e
            pivot, rest[i] = (
                [(x * u + y * v) % g for u, v in zip(pivot, row)],
                [(p * u + q * v) % g for u, v in zip(pivot, row)],
            )
        h.append([0] * t + pivot)
        rest = [row[1:] for row in rest]
    return h


def rank(m: IntMatrix) -> int:
    """Rank of M over the rationals, by fraction-free elimination.

    >>> rank(IntMatrix([[1, 2, 3], [2, 4, 6]]))
    1
    >>> rank(IntMatrix([[0, 1], [1, 0], [1, 1]]))
    2
    """
    return _bareiss(m)[0]


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel lattice {x : M @ x = 0}.

    Its one caller in the library is the lattice model's `_preimage`.
    Full column rank is decided first by `rank`, with no Smith form.  A
    nonzero kernel is read off the columns of the Smith form's V that hit
    zero diagonal entries; that is the one place here that needs a
    transform, and it makes the basis saturated: if k*x lies in the span
    for some k != 0, then so does x.  Empty iff M is injective.
    """
    if rank(m) == m.cols:
        return []
    decomp = snf(m)
    diag = decomp.diagonal()
    basis = []
    for j in range(m.cols):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            basis.append(decomp.V.column(j))
    return basis


def hnf(m: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form spanning the same column lattice.

    Unimodular column operations only.  Pivots are positive and march down
    and to the right; in a pivot row, entries in earlier columns are reduced
    into [0, pivot); zero columns end up on the right.  The result is the
    canonical basis of the column lattice of M.
    """
    a = m.to_lists()
    rows, cols = m.rows, m.cols
    p = 0
    for i in range(rows):
        if p == cols:
            break
        for j in range(p + 1, cols):
            if a[i][j] == 0:
                continue
            g, x, y = _xgcd(a[i][p], a[i][j])
            s, t = -(a[i][j] // g), a[i][p] // g
            # (col_p, col_j) <- (x*col_p + y*col_j, s*col_p + t*col_j): the
            # 2x2 coefficient matrix has determinant (x*a_ip + y*a_ij)/g = 1.
            for row in a:
                cp, cj = row[p], row[j]
                row[p] = x * cp + y * cj
                row[j] = s * cp + t * cj
        if a[i][p] == 0:
            continue
        if a[i][p] < 0:
            for row in a:
                row[p] = -row[p]
        for j in range(p):
            q = a[i][j] // a[i][p]
            if q:
                for row in a:
                    row[j] -= q * row[p]
        p += 1
    return IntMatrix(a)
