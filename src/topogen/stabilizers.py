"""Generic-stabilizer utilities.

The generically-free dimension thresholds d(G) and d'(G), exhaustive
enumeration of prime-order-mod-center class shapes, and the constant
c(G) = max{r * dim C} over shapes C with their minimal generator counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .algebra_core import (
    ClassDescriptor,
    GroupSpec,
    _at_least,
    semisimple,
    unipotent,
    validate_class,
)
from .closure import _partitions, enumerate_unipotent_partitions
from .errors import BoundExceeded, SchemaError, UnsupportedCase, UnsupportedGroup

# Exceptional-type thresholds are pure data lookups keyed by type name.
_EXCEPTIONAL = {
    "G2": (Fraction(36), Fraction(48)),
    "F4": (Fraction(144), Fraction(240)),
    "E6": (Fraction(216), Fraction(360)),
    "E7": (Fraction(378), Fraction(630)),
    "E8": (Fraction(720), Fraction(1200)),
}


def _check_group(group) -> None:
    if not isinstance(group, (GroupSpec, str)):
        raise SchemaError(f"a group is a GroupSpec or an exceptional type name, not {group!r}")


def _thresholds(group: Union[GroupSpec, str]) -> tuple[Fraction, Fraction]:
    """(d(G), d'(G)) as exact rationals."""
    _check_group(group)
    if isinstance(group, str):
        if group in _EXCEPTIONAL:
            return _EXCEPTIONAL[group]
        raise UnsupportedGroup(f"no threshold row for {group!r}")
    n, p = group.n, group.p
    fam = group.family
    if fam == "SL":
        if n == 2:
            return Fraction(6), Fraction(9)
        d = Fraction(9, 4) * n * n
        return d, d
    if fam == "Sp":
        d = Fraction(9, 8) * n * n
        if n == 4 or (n, p) == (6, 2):
            d += 2
        return d, Fraction(3, 2) * n * n
    if fam in ("SO", "Spin8"):
        if fam == "SO" and n < 7:
            raise UnsupportedGroup("orthogonal threshold row needs n >= 7")
        return Fraction(9, 8) * n * n, Fraction(2) * (n - 1) * (n - 1)
    raise UnsupportedGroup(f"no threshold row for {fam}")


def d_value(group: Union[GroupSpec, str]) -> Fraction:
    return _thresholds(group)[0]


def dprime_value(group: Union[GroupSpec, str]) -> Fraction:
    return _thresholds(group)[1]


def generically_free(
    group: Union[GroupSpec, str], dimV: int, dimVG: int
) -> bool:
    """True iff dim V - dim V^G strictly exceeds d(G). The group's type is
    checked first, the dimensions next, the group's threshold row last."""
    _check_group(group)
    dimV, dimVG = _at_least(dimV, "dimV", 0), _at_least(dimVG, "dimVG", 0)
    if dimVG > dimV:
        raise UnsupportedGroup("fixed space cannot exceed the module")
    return Fraction(dimV - dimVG) > d_value(group)


# ---------------------------------------------------------------------------
# shape enumeration
# ---------------------------------------------------------------------------


def _unipotent_shapes(target: GroupSpec) -> list[ClassDescriptor]:
    n, p = target.n, target.p
    out = []
    if p == 2 and target.family in ("Sp", "SO", "Spin8"):
        # prime order at p = 2 means involutions; enumerate decorations
        vchoices = (0, 2) if target.is_orthogonal else (0, 1, 2)
        for s in range(1, n // 2 + 1):
            for v in vchoices:
                if v > s or (s - v) % 2:
                    continue
                dec = []
                if v:
                    dec.append({"V": 2, "mult": v})
                if s - v:
                    dec.append({"W": 2, "mult": (s - v) // 2})
                if n - 2 * s:
                    dec.append({"W": 1, "mult": (n - 2 * s) // 2})
                out.append(validate_class(target, unipotent(decoration=dec, order=2)))
        return out
    cap = p if p else None
    for pi in enumerate_unipotent_partitions(target, max_part=cap):
        out.append(validate_class(target, unipotent(partition=pi)))
    return out


def _semisimple_shapes(target: GroupSpec) -> list[ClassDescriptor]:
    n, p = target.n, target.p
    fam = target.family
    out = []
    if fam == "SL":
        # multiplicity pattern of symbolically independent eigenvalues
        for mults in _partitions(n):
            if len(mults) < 2:
                continue
            free = [(f"l{i + 1}", m) for i, m in enumerate(mults)]
            out.append(validate_class(target, semisimple(free=free)))
        return out
    # symplectic / orthogonal: eigenvalues come in {1, -1} and inverse pairs
    # involutions (order 2 mod center)
    if p != 2:
        for b in range(2, n, 2):
            out.append(validate_class(target, semisimple(ones=n - b, minus_ones=b, order=2)))
        if n % 2 == 0:
            # (lam I_{n/2}, lam^{-1} I_{n/2}) with lam^2 = -1: order 2 mod center
            out.append(
                validate_class(
                    target,
                    semisimple(
                        pairs=[("l1", n // 2)],
                        relations={"l1": "square_is_minus_one"},
                        order=2,
                    ),
                )
            )
    # odd prime order (order tag left generic): 1-eigenspace plus pairs
    for pair_total in range(1, n // 2 + 1):
        a = n - 2 * pair_total
        for mults in _partitions(pair_total):
            pairs = [(f"l{i + 1}", m) for i, m in enumerate(mults)]
            out.append(validate_class(target, semisimple(ones=a, pairs=pairs)))
    return out


@lru_cache(maxsize=256)
def _shape_table(target: GroupSpec) -> tuple[ClassDescriptor, ...]:
    """Every shape of ``target``, unipotent then semisimple, each once.

    Built once per class group; the bound of 256 holds every class group
    a typical caller cycles through (c_value over a sweep of groups), so
    the table does not thrash.
    """
    return tuple(_unipotent_shapes(target) + _semisimple_shapes(target))


def _bounded_class_group(group: GroupSpec, bound: int) -> GroupSpec:
    """group.class_group(), after checking the natural dimension against bound."""
    target = group.class_group()
    if target.n > bound:
        raise BoundExceeded(f"shape enumeration bounded at n = {bound}")
    return target


def enumerate_class_shapes(
    group: GroupSpec, constraints: Optional[dict] = None, bound: int = 12
) -> list[ClassDescriptor]:
    """Duplicate-free canonical shapes of prime-order-mod-center classes.

    Semisimple shapes are enumerated up to renaming of the symbolic
    eigenvalue labels. `constraints` may fix "kind" and/or "order". The
    result is a new list; the validated descriptors in it are shared.
    """
    target = _bounded_class_group(group, bound)
    constraints = constraints or {}
    want_kind = constraints.get("kind")
    want_order = constraints.get("order")
    return [
        c
        for c in _shape_table(target)
        if want_kind in (None, c.kind) and (want_order is None or c.order in (want_order, None))
    ]


# ---------------------------------------------------------------------------
# c(G)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CValue:
    c: int
    witness: ClassDescriptor
    r: int
    skipped: bool  # some shapes were skipped for lack of dimension data


def c_value(group: GroupSpec, bound: int = 12) -> CValue:
    """max{r * dim C} over class shapes C, r = minimal generator count.

    Computed once per group, in a table of at most 256 groups; the bound is
    checked on every call, before the table.
    """
    _bounded_class_group(group, bound)
    return _c_value(group)


@lru_cache(maxsize=256)
def _c_value(group: GroupSpec) -> CValue:
    from .invariants import class_dim
    from .oracle import min_generators

    best: Optional[tuple] = None
    skipped = False
    for cls in sorted(_shape_table(group.class_group()), key=repr):
        try:
            dim = class_dim(group, cls).dim_class
            r = min_generators(group, cls)
        except UnsupportedCase:
            skipped = True
            continue
        cand = (r * dim, cls, r)
        if best is None or cand[0] > best[0]:
            best = cand
    if best is None:
        raise UnsupportedCase("no shape with computable dimension data")
    return CValue(c=best[0], witness=best[1], r=best[2], skipped=skipped)
