"""Degeneration (closure) order on unipotent classes.

SL, and Sp, SO and Spin8 in odd characteristic: dominance of partitions.
Sp, SO and Spin8 in characteristic 2: Hesselink's order on indexed
partitions (Hesselink, *Nilpotency in classical groups over a field of
characteristic 2*, Math. Z. 166, 1979; Spaltenstein, *Classes unipotentes
et sous-groupes de Borel*, LNM 946, 1982), read off the V/W decoration.
The parts lambda_1 >= lambda_2 >= ... are the Jordan block sizes (W(m)
gives m twice, V(2k) gives 2k once), and the index is chi(m) = m/2 if V(m)
is a summand and m // 2 + 1 otherwise (``algebra_core._index``), with
chi(0) = 0 for the padding parts. With P_i the sum of the first i parts, a
class lies in the closure of another iff for every i both P_i and
P_i - chi(lambda_i) are at most those of the other. With chi = 0 that is
dominance, so both orders are one comparison, one pass over the parts.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator

from .algebra_core import MAX_BLOCKS, ClassDescriptor, GroupSpec, _index, _unpaired_parts, _whole, unipotent, validate_class
from .errors import BoundExceeded, MixedKinds, NoSuchClass, NotApplicable, SizeMismatch


# chi = 0 for every part: zip draws from it, and it never runs out
_NO_INDEX = repeat(0)


def dominates(pi1: Iterable[int], pi2: Iterable[int]) -> bool:
    return _dominates(sorted(pi1, reverse=True), sorted(pi2, reverse=True), _NO_INDEX, _NO_INDEX)


def _dominates(a, b, chi_a, chi_b) -> bool:
    """Whether P_i and P_i - chi_b[i] of the parts b are at most P_i and
    P_i - chi_a[i] of the parts a for every i, P_i the sum of the first i
    parts: dominance with chi = 0, Hesselink's order with his index."""
    if sum(a) != sum(b):
        raise SizeMismatch("partitions of different sizes")
    # past its last part a class has P_i = P_i - chi(0) = the dimension, so
    # b's extra parts pass, and a's extra parts fail at b's last
    sa = sb = 0
    for x, y, cx, cy in zip(a, b, chi_a, chi_b):
        sa += x
        sb += y
        if sb > sa or sb - cy > sa - cx:
            return False
    return True


def _partitions(n: int, cap: int | None = None) -> Iterator[tuple]:
    cap = cap or n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _contains(target: GroupSpec, upper: ClassDescriptor, lower: ClassDescriptor) -> bool:
    """Whether lower lies in the closure of upper in the class group target:
    ``_dominates`` with Hesselink's index (``_index``) at p = 2 in Sp, SO
    and Spin8, and with chi = 0 elsewhere."""
    a, b = upper.unip, lower.unip
    if target.p == 2 and target.family != "SL":
        return _dominates(a.partition, b.partition, _index(a), _index(b))
    return dominates(a.partition, b.partition)


def in_closure(group: GroupSpec, upper: ClassDescriptor, lower: ClassDescriptor) -> bool:
    if upper.kind != "unipotent" or lower.kind != "unipotent":
        raise MixedKinds("closure order is defined on unipotent classes")
    return _contains(group.class_group(), upper, lower)


def _near_equal_partition(n: int, m: int) -> tuple:
    q, s = divmod(n, m)
    return (q + 1,) * s + (q,) * (m - s)


def smallest_class_with_blocks(group: GroupSpec, m: int) -> ClassDescriptor:
    target = group.class_group()
    n, m = target.n, _whole(m, "m")
    if not 1 <= m < n:
        raise NoSuchClass(f"no noncentral class with {m} blocks in dimension {n}")
    if m > MAX_BLOCKS:
        raise BoundExceeded(f"classes of more than {MAX_BLOCKS} Jordan blocks are not built")
    if target.family == "SL" or target.p != 2:
        if target.is_orthogonal and (n - m) % 2:
            raise NoSuchClass("block count must match n mod 2 for SO")
        pi = _near_equal_partition(n, m)
        assert not _unpaired_parts(target.family, pi), pi
        return validate_class(target, unipotent(partition=pi))
    # characteristic 2, Sp/SO: the unique smallest class exists for m even
    # and is the all-W class with near-equal W parts
    if m % 2:
        raise NoSuchClass("no unique smallest class with an odd block count at p = 2")
    half = _near_equal_partition(n // 2, m // 2)
    dec = [("W", size, count) for size, count in Counter(half).items()]
    return validate_class(target, unipotent(decoration=dec))


def splits_in_G(group: GroupSpec, cls: ClassDescriptor) -> bool:
    target = group.class_group()
    if not target.is_orthogonal:
        raise NotApplicable("class splitting concerns orthogonal groups")
    if cls.kind == "semisimple":
        return cls.eigen.mult_one == 0 and cls.eigen.mult_minus_one == 0
    if target.p == 2:
        dec = cls.unip.decoration
        return all(kind == "W" and size % 2 == 0 for kind, size, _ in dec)
    return all(a % 2 == 0 for a in cls.unip.partition)


def enumerate_unipotent_partitions(group: GroupSpec, max_part: int | None = None):
    """All admissible noncentral unipotent partitions (odd characteristic)."""
    target = group.class_group()
    cap = max_part or target.n
    out = []
    for pi in _partitions(target.n, cap):
        if max(pi) > 1 and not _unpaired_parts(target.family, pi):
            out.append(pi)
    return out


def closure_poset_dot(group: GroupSpec) -> str:
    """DOT rendering of the closure order on prime-order unipotent classes.

    Computed once per class group, in a table of at most 256 class groups.
    """
    return _poset_dot(group.class_group())


@lru_cache(maxsize=256)
def _poset_dot(target: GroupSpec) -> str:
    from .stabilizers import enumerate_class_shapes

    shapes = enumerate_class_shapes(target, constraints={"kind": "unipotent"})

    def name(c):
        if c.unip.decoration:
            return "|".join(f"{k}{s}x{m}" for k, s, m in c.unip.decoration)
        return ",".join(map(str, c.unip.partition))

    # below[i]: indices of the shapes other than shape i in its closure
    below = [
        {j for j, b in enumerate(shapes) if j != i and _contains(target, a, b)}
        for i, a in enumerate(shapes)
    ]
    lines = ["digraph closure {"]
    for c in shapes:
        lines.append(f'  "{name(c)}";')
    for i, a in enumerate(shapes):
        # transitive reduction: drop b when some shape in between exists
        hasse = below[i].difference(*(below[k] for k in below[i]))
        for j in sorted(hasse):
            lines.append(f'  "{name(a)}" -> "{name(shapes[j])}";')
    lines.append("}")
    return "\n".join(lines)
