"""Maximal-dimension prime-order classes over finite fields.

The field size q enters only through the multiplicative-order parameter i
(the least i with r | q^i - 1). Every optimum is in closed form, so no
class list is ranked. Semisimple: once the 1-eigenspace dimension is fixed,
the centralizer dimension grows with the sum of the squared multiplicities,
whose total is fixed, so the near-equal split is the one candidate
(exchange_gain is the one-step form of this argument), and the best
1-eigenspace dimension is found by bisection. Unipotent (r = p): the top of
the closure order among the classes of order p (Collingwood-McGovern 1993,
Lemma 6.3.3, away from p = 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra_core import (
    MAX_BLOCKS,
    ClassDescriptor,
    GroupSpec,
    _set_whole,
    _whole,
    dim_and_rank,
    is_prime,
    semisimple,
    unipotent,
    validate_class,
)
from .closure import _near_equal_partition
from .errors import BoundExceeded, Infeasible, NotApplicable, SchemaError
from .invariants import _semisimple_centralizer_dim, class_dim


# Most eigenvalue labels a class max_class builds may carry: one per slot
# and Frobenius orbit member, at most r - 1 and at most n of them.
MAX_LABELS = 4096


@dataclass(frozen=True)
class QContext:
    r: int  # prime order of the elements considered
    i: int = 1  # least i >= 1 with r dividing q^i - 1
    is_p: bool = False  # r equals the field characteristic

    def __post_init__(self):
        _set_whole(self, "r", "i")
        if not isinstance(self.is_p, bool):
            raise SchemaError(f"is_p must be a bool, not {self.is_p!r}")
        if not is_prime(self.r):
            raise SchemaError("r must be prime")
        if self.is_p:
            return
        if self.i < 1 or (self.r > 2 and (self.r - 1) % self.i != 0):
            raise SchemaError("i must divide r - 1")

    @property
    def t(self) -> int:
        return (self.r - 1) // self.i


def exchange_gain(i: int, e: int, a1: int) -> Fraction:
    """Class-dimension change when one orbit block of size i leaves the
    1-eigenspace: i * (e - a1 - i/2)."""
    return Fraction(i * (2 * (e - a1) - i), 2)


def _best(cands, build):
    """(build(key), dim) for the key of least repr among the (key, dim)
    candidates of greatest dimension; the others are never built or
    validated. Infeasible when there are none."""
    top, keys = None, []
    for key, dim in cands:
        if top is None or dim > top:
            top, keys = dim, [key]
        elif dim == top:
            keys.append(key)
    if not keys:
        raise Infeasible("no class of the requested order exists")
    return min(map(build, keys), key=repr), top


def _unipotent_max(group: GroupSpec):
    # class dimension rises strictly along the closure order
    n, p, fam = group.n, group.p, group.family
    if p == 2 and fam != "SL":
        # V(2)^v + W(2)^((s - v)/2) + W(1)^((n - 2s)/2) with s blocks of size
        # 2 in all: b_m (m odd) or c_m (m even) in Sp_2m, c_s in SO and Spin8
        m = n // 2
        s = m if fam == "Sp" else 2 * (m // 2)
        v = 1 if s % 2 else 2
        dec = [("V", 2, v), ("W", 2, (s - v) // 2), ("W", 1, (n - 2 * s) // 2)]
        raw = unipotent(decoration=[d for d in dec if d[2]], order=2)
    else:
        # the largest admissible partition with parts at most p: (p^k, rest),
        # with the parts that break the family's parity rule mended
        k, rest = divmod(n, p)
        tail = (rest,)
        if fam == "Sp" and k % 2:
            k, tail = k - 1, (p - 1, rest + 1)
        elif group.is_orthogonal and rest and rest % 2 == 0:
            tail = (rest - 1, 1)
        tail = tuple(a for a in tail if a)
        if k + len(tail) > MAX_BLOCKS:
            raise BoundExceeded(f"classes of more than {MAX_BLOCKS} Jordan blocks are not built")
        raw = unipotent(partition=(p,) * k + tail, order=p)
    cls = validate_class(group, raw)
    return cls, class_dim(group, cls).dim_class


def _involution_max(group: GroupSpec):
    n, fam = group.n, group.family
    dim_g = dim_and_rank(group)[0]
    # key b: (1^(n-b), (-1)^b), whose centralizer is least at the even b
    # nearest n/2, so n - b has the parity Sp and SO need; key 0:
    # (lam, lam^-1) with lam^2 = -1, each n/2 times
    evens = {2 * (n // 4), 2 * -(-n // 4)}
    cands = [(b, dim_g - _semisimple_centralizer_dim(fam, n - b, b)) for b in evens if 2 <= b < n]
    if n % 2 == 0:
        cands.append((0, dim_g - _semisimple_centralizer_dim(fam, 0, 0, pair_mults=(n // 2,))))

    def build(b):
        if b:
            return validate_class(group, semisimple(ones=n - b, minus_ones=b, order=2))
        lam = semisimple(pairs=[("l1", n // 2)], relations={"l1": "square_is_minus_one"}, order=2)
        return validate_class(group, lam)

    return _best(cands, build)


def _semisimple_max(group: GroupSpec, ctx: QContext):
    n = group.n
    r, i = ctx.r, ctx.i
    fam = group.family
    if fam == "SL":
        slots, weight, labels_per_slot = ctx.t, i, i
    elif i % 2 == 0:
        slots, weight, labels_per_slot = ctx.t, i, i // 2
    else:
        slots, weight, labels_per_slot = ctx.t // 2, 2 * i, i
    if slots == 0:
        raise Infeasible(f"no order-{r} torus element with i = {i}")
    dim_g = dim_and_rank(group)[0]

    def cent(s):
        # s blocks of dimension weight leave a 1-eigenspace of dimension
        # e = n - weight * s, of the parity Sp and SO need (weight is even
        # for inverse pairs); they are spread near equally over the slots
        # (at most s of them are used, so large r costs nothing), and each
        # slot's multiplicity a adds labels_per_slot * a^2; no eigenvalue
        # fills V: with i = 1 there are r - 1 >= 2 slots, else weight >= 2
        a, extra = divmod(s, min(s, slots))
        squares = min(s, slots) * a * a + extra * (2 * a + 1)
        return _semisimple_centralizer_dim(fam, n - weight * s, 0) + labels_per_slot * squares

    # cent is strictly convex in s: the 1-eigenspace term is a convex
    # quadratic in s, and the near-equal sum of squares grows by
    # 2 * (s // slots) + 1 from s to s + 1. Its least value is at the least s
    # where it stops falling, and at s + 1 too when that ties.
    top = n // weight
    lo, hi = 1, top
    while lo < hi:
        mid = (lo + hi) // 2
        if cent(mid + 1) >= cent(mid):
            hi = mid
        else:
            lo = mid + 1
    best = [s for s in (lo, lo + 1) if s <= top and cent(s) == cent(lo)]
    if best and min(best[-1], slots) * labels_per_slot > MAX_LABELS:
        raise BoundExceeded(f"the maximal class would carry more than {MAX_LABELS} eigenvalue labels")
    cands = [(_near_equal_partition(s, min(s, slots)), dim_g - cent(s)) for s in best]

    def build(mults):
        labels = []
        for j, a in enumerate(mults):
            for k in range(labels_per_slot):
                labels.append((f"l{j + 1}_{k + 1}", a))
        relations = {lab: f"order:{r}" for lab, _ in labels}
        eigen = {"free" if fam == "SL" else "pairs": labels}
        raw = semisimple(order=r, ones=n - weight * sum(mults), relations=relations, **eigen)
        return validate_class(group, raw)

    return _best(cands, build)


def max_class(group: GroupSpec, ctx: QContext) -> tuple[ClassDescriptor, int]:
    """The maximal-dimension class of elements of order r modulo the center,
    together with its dimension."""
    target = group.class_group()
    if ctx.is_p:
        if target.p == 0:
            raise SchemaError("r = p needs positive characteristic")
        if ctx.r != target.p:
            raise SchemaError(f"is_p needs r = p = {target.p}, got r = {ctx.r}")
        return _unipotent_max(target)
    if ctx.r == target.p:
        raise SchemaError("set is_p when r equals the characteristic")
    if ctx.r == 2:
        return _involution_max(target)
    return _semisimple_max(target, ctx)


def rs_limit(family: str, n: int, p: int, r: int, s: int) -> Fraction:
    """Limit of the probability that a random (order r, order s) pair
    topologically generates, along the family at fixed (r, s)."""
    r, s = _whole(r, "r"), _whole(s, "s")
    if not (is_prime(r) and is_prime(s) and s > 2):
        raise NotApplicable("r, s must be prime with s > 2")
    GroupSpec(family, n, p)  # validates the family
    key = tuple(sorted((r, s)))
    if family == "Sp" and n == 4:
        if key == (2, 3):
            return Fraction(0) if p in (2, 3) else Fraction(1, 2)
        if key == (3, 3):
            if p == 3:
                return Fraction(0)
            return Fraction(1, 2) if p == 2 else Fraction(3, 4)
    return Fraction(1)
