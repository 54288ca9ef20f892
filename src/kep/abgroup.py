"""Finitely generated abelian groups as isomorphism classes.

A group is stored in canonical form: a free rank plus an invariant-factor
chain (each factor >= 2, each dividing the next).  By the structure theorem
two values are equal exactly when the groups are isomorphic, so equality,
hashing and printing are all decidable and stable.

`FGAbelianGroup.from_cyclic_orders` is the one canonicalizer: cokernels
(from a Smith diagonal) and direct sums are lists of cyclic orders handed
to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import decimal
from .intmat import IntMatrix, rank, smith_diagonal


def _invariant_chain(factors: list[int]) -> tuple[int, ...]:
    """Canonical divisor chain of the torsion group ⊕ Z/f.

    One triangular sweep of the exchange Z/a ⊕ Z/b = Z/gcd(a,b) ⊕
    Z/lcm(a,b): for i < j in turn, (a_i, a_j) <- (gcd, lcm).  After row i,
    a_i divides every later entry (each step of the row leaves a_i dividing
    the lcm it writes, and only shrinks a_i to a divisor).  Later rows
    replace two multiples of a_i with their gcd and lcm, again multiples of
    a_i, so that stays true.  The result is therefore a divisor chain,
    ascending, with its 1s in front; invariant factors are unique, so it is
    the chain.  Only gcd arithmetic, so hundred-digit factors are fine.
    """
    factors = [f for f in factors if f > 1]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            g = gcd(a, b)
            factors[i], factors[j] = g, a * b // g
    return tuple(f for f in factors if f > 1)


@dataclass(frozen=True)
class FGAbelianGroup:
    """Isomorphism class of a finitely generated abelian group.

    The free rank and every torsion factor are `int`s; a float or a bool
    raises TypeError where the group is built.

    >>> FGAbelianGroup(1, ())
    FGAbelianGroup(free_rank=1, torsion=())
    >>> print(FGAbelianGroup(0, (2, 4)))
    Z/2 ⊕ Z/4
    >>> print(FGAbelianGroup(0, ()))
    0
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for x in (self.free_rank, *self.torsion):
            if isinstance(x, bool) or not isinstance(x, int):
                raise TypeError(f"free rank and torsion factors must be int, got {type(x).__name__}")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = 1
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion factors must be >= 2")
            if d % prev:
                raise ValueError("torsion factors must form a divisor chain")
            prev = d

    @classmethod
    def trivial(cls) -> "FGAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank, ())

    @classmethod
    def from_cyclic_orders(cls, orders: tuple[int, ...] | list[int], free_rank: int = 0) -> "FGAbelianGroup":
        """Canonicalize a direct sum of cyclic groups Z/d (d = 0 meaning Z).

        >>> FGAbelianGroup.from_cyclic_orders([2, 3])
        FGAbelianGroup(free_rank=0, torsion=(6,))
        """
        rank = free_rank + sum(1 for d in orders if d == 0)
        return cls(rank, _invariant_chain([abs(d) for d in orders]))

    @property
    def is_free(self) -> bool:
        return not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{decimal(d)}" for d in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"


def from_cokernel(m: IntMatrix) -> FGAbelianGroup:
    """Z^rows / (column lattice of M), in canonical form.

    For a square n x n matrix this is Z^n / M Z^n with free rank
    n - rank(M) and torsion the invariant factors > 1.
    """
    return FGAbelianGroup.from_cyclic_orders(smith_diagonal(m), free_rank=m.rows - min(m.rows, m.cols))


def kernel_group(m: IntMatrix) -> FGAbelianGroup:
    """The kernel {x : M x = 0} as an abstract group: free of rank nullity(M),
    from one fraction-free rank.  Its one library reader is the lattice
    model's `ker_one_minus_shift`; both routes read a square M's kernel off
    the free rank of coker M instead."""
    return FGAbelianGroup.free(m.cols - rank(m))


def direct_sum(g: FGAbelianGroup, h: FGAbelianGroup) -> FGAbelianGroup:
    """Canonical form of G ⊕ H (torsion renormalized to a divisor chain).

    >>> direct_sum(FGAbelianGroup(0, (2,)), FGAbelianGroup(0, (3,)))
    FGAbelianGroup(free_rank=0, torsion=(6,))
    >>> direct_sum(FGAbelianGroup(0, (2,)), FGAbelianGroup(0, (4,))).torsion
    (2, 4)
    """
    return FGAbelianGroup.from_cyclic_orders(g.torsion + h.torsion, free_rank=g.free_rank + h.free_rank)
