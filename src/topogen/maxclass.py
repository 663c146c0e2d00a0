"""Maximal-dimension prime-order classes over finite fields.

The field size q enters only through the multiplicative-order parameter i
(the least i with r | q^i - 1). For semisimple classes the optimum is in
closed form: once the 1-eigenspace dimension is fixed, the centralizer
dimension grows with the sum of the squared multiplicities, whose total is
fixed, so the near-equal split is the one candidate (exchange_gain is the
one-step form of this argument), and the best 1-eigenspace dimension is
found by bisection. Unipotent classes (r = p) and Sp/SO/Spin8
involutions are ranked over the class shape table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra_core import (
    ClassDescriptor,
    GroupSpec,
    _set_whole,
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


def _argmax(candidates):
    best = None
    for cls, dim in candidates:
        if best is None or dim > best[1] or (dim == best[1] and repr(cls) < repr(best[0])):
            best = (cls, dim)
    if best is None:
        raise Infeasible("no class of the requested order exists")
    return best


def _unipotent_max(group: GroupSpec, p_order: int):
    from .stabilizers import enumerate_class_shapes

    shapes = enumerate_class_shapes(group, constraints={"kind": "unipotent"})
    return _argmax(
        (cls, class_dim(group, cls).dim_class)
        for cls in shapes
        if cls.unip.decoration is not None or max(cls.unip.partition) <= p_order
    )


def _best(cands, build):
    """_argmax over build(key) for the (key, dim) candidates of greatest
    dimension; the others are never built or validated."""
    top, keys = None, []
    for key, dim in cands:
        if top is None or dim > top:
            top, keys = dim, [key]
        elif dim == top:
            keys.append(key)
    return _argmax((build(key), top) for key in keys)


def _involution_max(group: GroupSpec):
    if group.family == "SL":
        n = group.n
        dim_g = dim_and_rank(group)[0]
        # key b: (1^(n-b), (-1)^b), whose centralizer (n-b)^2 + b^2 - 1 is
        # least at the even b nearest n/2; key 0: (lam, lam^-1) with
        # lam^2 = -1, each n/2 times
        evens = {2 * (n // 4), 2 * -(-n // 4)}
        cands = [(b, dim_g - _semisimple_centralizer_dim("SL", n - b, b)) for b in evens if 2 <= b < n]
        if n % 2 == 0:
            cands.append((0, dim_g - _semisimple_centralizer_dim("SL", 0, 0, pair_mults=(n // 2,))))

        def build(b):
            if b:
                return validate_class(group, semisimple(ones=n - b, minus_ones=b, order=2))
            return validate_class(
                group,
                semisimple(
                    pairs=[("l1", n // 2)],
                    relations={"l1": "square_is_minus_one"},
                    order=2,
                ),
            )

        return _best(cands, build)
    from .stabilizers import enumerate_class_shapes

    shapes = enumerate_class_shapes(
        group, constraints={"kind": "semisimple", "order": 2}
    )
    shapes = [c for c in shapes if c.order == 2]
    return _argmax((c, class_dim(group, c).dim_class) for c in shapes)


def _semisimple_max(group: GroupSpec, ctx: QContext):
    n = group.n
    r, i = ctx.r, ctx.i
    fam = group.family
    if fam == "SL":
        slots, weight, labels_per_slot = ctx.t, i, i
        pairing = "free"
    elif i % 2 == 0:
        slots, weight, labels_per_slot = ctx.t, i, i // 2
        pairing = "pairs"
    else:
        slots, weight, labels_per_slot = ctx.t // 2, 2 * i, i
        pairing = "pairs"
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
        e = n - weight * sum(mults)
        kwargs = {"relations": {lab: f"order:{r}" for lab, _ in labels}, "order": r}
        if pairing == "pairs":
            return validate_class(group, semisimple(ones=e, pairs=labels, **kwargs))
        return validate_class(group, semisimple(free=labels, ones=e, **kwargs))

    return _best(cands, build)


def max_class(group: GroupSpec, ctx: QContext) -> tuple[ClassDescriptor, int]:
    """The maximal-dimension class of elements of order r modulo the center,
    together with its dimension."""
    target = group.class_group()
    if ctx.is_p:
        if target.p == 0:
            raise SchemaError("r = p needs positive characteristic")
        return _unipotent_max(target, target.p)
    if ctx.r == target.p:
        raise SchemaError("set is_p when r equals the characteristic")
    if ctx.r == 2:
        return _involution_max(target)
    return _semisimple_max(target, ctx)


def rs_limit(family: str, n: int, p: int, r: int, s: int) -> Fraction:
    """Limit of the probability that a random (order r, order s) pair
    topologically generates, along the family at fixed (r, s)."""
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
