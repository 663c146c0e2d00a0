"""Numerical class invariants: eigenspace profiles, class dimensions,
induced Jordan block counts, exterior/symmetric square fixed spaces, and
fixed-point dimensions on totally singular Grassmannians: by rule for
semisimple classes, from a catalog for some unipotent ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra_core import (
    ClassDescriptor,
    EigenPattern,
    GroupSpec,
    UnipotentData,
    _index,
    _part_counts,
    _whole,
    dim_and_rank,
    is_prime,
)
from .errors import NotApplicable, SchemaError, UnsupportedChar2Class


@dataclass(frozen=True)
class EigenProfile:
    d: int  # largest eigenspace dimension on the natural module
    e: int  # dimension of the 1-eigenspace


@dataclass(frozen=True)
class ClassDim:
    dim_class: int
    dim_centralizer: int


def _natural_profile(cls: ClassDescriptor) -> tuple:
    """(d, e, quadratic) on the natural module: the largest eigenspace, the
    1-eigenspace, and whether the minimal polynomial has degree 2."""
    if cls.kind == "unipotent":
        parts = cls.unip.partition
        return len(parts), len(parts), max(parts) == 2
    mults = cls.eigen.mults()
    return max(mults), cls.eigen.mult_one, len(mults) == 2


def eigen_profile(group: GroupSpec, cls: ClassDescriptor) -> EigenProfile:
    d, e, _ = _natural_profile(cls)
    return EigenProfile(d=d, e=e)


def is_quadratic(cls: ClassDescriptor) -> bool:
    """Minimal polynomial on the natural module has degree 2."""
    return _natural_profile(cls)[2]


def _semisimple_centralizer_dim(family: str, a: int, b: int, pair_mults=(), free_mults=()) -> int:
    """From the multiplicities: a and b of the eigenvalues 1 and -1, one
    entry per inverse pair {lam, lam^-1}, one per unpaired eigenvalue."""
    pair_sq = sum(m * m for m in pair_mults)
    if family == "Sp":
        return a * (a + 1) // 2 + b * (b + 1) // 2 + pair_sq
    if family in ("SO", "Spin8"):
        return a * (a - 1) // 2 + b * (b - 1) // 2 + pair_sq
    # SL: sum of squared multiplicities over all distinct eigenvalues, minus 1
    return a * a + b * b + 2 * pair_sq + sum(m * m for m in free_mults) - 1


def _pair_mins(partition) -> int:
    """The sum over pairs i < j of min(lambda_i, lambda_j): with the parts
    sorted down, sum (i - 1) lambda_i, as lambda_i is the smaller part of
    its pair with each of the i - 1 parts before it."""
    return sum(i * a for i, a in enumerate(sorted(partition, reverse=True)))


def _unipotent_centralizer_dim(group: GroupSpec, unip: UnipotentData) -> int:
    """sum (i - 1) lambda_i over the parts lambda_1 >= lambda_2 >= ..., plus
    one term per part: at odd p ceil(lambda/2) in Sp and floor(lambda/2) in
    SO and Spin8; at p = 2 Hesselink's index chi(lambda) (``_index``) in Sp
    and chi(lambda) - 1 in SO and Spin8. SL: sum (2i - 1) lambda_i - 1."""
    parts = unip.partition
    below = _pair_mins(parts)
    if group.family == "SL":
        return 2 * below + sum(parts) - 1
    if group.p == 2:
        return below + sum(_index(unip)) - (len(parts) if group.is_orthogonal else 0)
    if group.family == "Sp":
        return below + sum((a + 1) // 2 for a in parts)
    return below + sum(a // 2 for a in parts)


def class_dim(group: GroupSpec, cls: ClassDescriptor) -> ClassDim:
    target = group.class_group()
    dim_g, _ = dim_and_rank(target)
    if cls.kind == "semisimple":
        pat = cls.eigen
        cent = _semisimple_centralizer_dim(
            target.family,
            pat.mult_one,
            pat.mult_minus_one,
            [m for _, m in pat.pairs],
            [m for _, m in pat.free],
        )
    else:
        cent = _unipotent_centralizer_dim(target, cls.unip)
    return ClassDim(dim_class=dim_g - cent, dim_centralizer=cent)


def induced_block_count(kind: str, a: int, b: Optional[int] = None, p: int = 0) -> int:
    """Jordan block counts of J_a (x) J_b, wedge^2(J_a), S^2(J_a) in
    characteristic p. SchemaError before any work unless the block sizes
    are integers of at least 1 and p is 0 or a prime."""
    sizes = [_whole(a, "a")] + ([] if b is None else [_whole(b, "b")])
    if min(sizes) < 1:
        raise SchemaError(f"block sizes must be at least 1, not {sizes}")
    if (p := _whole(p, "p")) and not is_prime(p):
        raise SchemaError(f"p must be 0 or a prime, not {p}")
    a = sizes[0]
    if kind == "tensor":
        if b is None:
            raise NotApplicable("tensor needs two block sizes")
        return min(sizes)
    if kind == "wedge2":
        return a // 2
    if kind == "sym2":
        eps = 1 if (a % 2 == 0 and p == 2) else 0
        return (a + 1) // 2 + eps
    raise NotApplicable(f"unknown functor {kind!r}")


def _wedge2_blocks(partition: tuple) -> int:
    return sum(a // 2 for a in partition) + _pair_mins(partition)


def sym2_fixed_dim(partition, p: int = 0) -> int:
    """Fixed-space dimension (= block count) of a unipotent g on S^2(W)."""
    parts = list(partition)
    return sum(induced_block_count("sym2", a, p=p) for a in parts) + _pair_mins(parts)


def wedge2_fixed_dim(n: int, cls: ClassDescriptor) -> tuple[Optional[int], int]:
    """(exact, upper) for dim of the fixed space on the exterior square."""
    if cls.kind == "unipotent":
        parts = cls.unip.partition
        if cls.unip.decoration is not None and max(parts) > 2:
            raise UnsupportedChar2Class(
                "exterior-square fixed spaces need involutions in characteristic 2"
            )
        d = len(parts)
        exact: Optional[int] = _wedge2_blocks(parts)
        tighten = False
    else:
        pat = cls.eigen
        d = max(pat.mults())
        # the fixed space on the exterior square, so(V), is the SO centraliser
        exact = _semisimple_centralizer_dim("SO", pat.mult_one, pat.mult_minus_one, [m for _, m in pat.pairs])
        tighten = pat.mult_one > 0 and pat.mult_minus_one > 0
    upper = d * (n // 2)
    if tighten:
        # strictly below d(n-1)/2 when both +-1 occur as eigenvalues
        upper = min(upper, (d * (n - 1) - 1) // 2)
    return exact, upper


# Fixed-point dimensions on the k-dimensional totally singular Grassmannian
# of the unipotent classes that no rule gives, keyed by (family, n, k, partition)
_GRASS_CATALOG = {
    ("SO", 9, 4, (3, 3, 3)): 3,
    ("SO", 9, 4, (2, 2, 2, 2, 1)): 6,
    ("Sp", 6, 3, (2, 1, 1, 1, 1)): 3,
    ("Sp", 6, 3, (2, 2, 2)): 2,
    ("Sp", 8, 4, (3, 3, 2)): 3,
}


def _piece_dims(family: str, pat: EigenPattern) -> list:
    """Per eigenspace, the dimension of its fixed totally singular s-spaces,
    s = 0, 1, ...: of size N, a j-space of the 1- or -1-eigenspace; of
    multiplicity m, A + B in a pair V_lam + V_lam^-1, A in V_lam of dimension
    a and B in V_lam^-1 meeting A^perp in dimension s - a."""
    sign, ends = -1 if family == "Sp" else 1, (pat.mult_one, pat.mult_minus_one)
    pieces = [[j * (N - j) - j * (j + sign) // 2 for j in range(N // 2 + 1)] for N in ends]
    for _, m in pat.pairs:
        pieces.append([max(a * (m - a) + (s - a) * (m - s) for a in range(s + 1)) for s in range(m + 1)])
    return pieces


def grassmannian_fixed_dim(
    group: GroupSpec, cls: ClassDescriptor, k: int, subspace_type: str = "totally_singular"
) -> Optional[int]:
    """The dimension of the variety of totally singular k-spaces of the
    natural module that the class fixes. A semisimple class fixes the sums
    of one piece per eigenspace (``_piece_dims``): the largest sum over the
    splits of k (Taylor, *The Geometry of the Classical Groups*, 1992). None
    for SL and SO6 (SL4 data), another subspace type, a k with no split, and
    unipotent classes off the Levi rule and ``_GRASS_CATALOG``."""
    k = _whole(k, "k")
    if subspace_type != "totally_singular" or group.class_group().family == "SL":
        return None
    if cls.kind == "semisimple":
        best = [0]  # best[t]: the largest dimension of the pieces so far of total t
        for dims in _piece_dims(group.family, cls.eigen):
            best = [
                max(best[t - s] + d for s, d in enumerate(dims) if 0 <= t - s < len(best))
                for t in range(min(k + 1, len(best) + len(dims) - 1))
            ]
        return best[k] if 0 <= k < len(best) else None
    counts = _part_counts(cls.unip.partition)
    # Levi unipotent elements in Sp on the Lagrangian Grassmannian, at p = 2
    # those with no V summand: the S^2 fixed space of the half partition
    if group.family == "Sp" and 2 * k == group.n and all(c % 2 == 0 for c in counts.values()):
        if all(kind == "W" for kind, _, _ in cls.unip.decoration or ()):
            return sym2_fixed_dim([a for a, c in counts.items() for _ in range(c // 2)], group.p)
    return _GRASS_CATALOG.get((group.family, group.n, k, cls.unip.partition))
