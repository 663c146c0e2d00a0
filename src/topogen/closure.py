"""Degeneration (closure) order on unipotent classes.

SL, and Sp, SO and Spin8 in odd characteristic: dominance of partitions.
Sp, SO and Spin8 in characteristic 2: Hesselink's order on indexed
partitions (Hesselink, *Nilpotency in classical groups over a field of
characteristic 2*, Math. Z. 166, 1979; Spaltenstein, *Classes unipotentes
et sous-groupes de Borel*, LNM 946, 1982), read off the V/W decoration.
The parts lambda_1 >= lambda_2 >= ... are the Jordan block sizes (W(m)
gives m twice, V(2k) gives 2k once), and the index is chi(m) = m/2 if V(m)
is a summand and m // 2 + 1 otherwise, with chi(0) = 0 for the padding
parts. With P_i the sum of the first i parts, a class lies in the closure
of another iff for every i both P_i and P_i - chi(lambda_i) are at most
those of the other. Either test is one pass over the parts.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator

from .algebra_core import MAX_BLOCKS, ClassDescriptor, GroupSpec, _unpaired_parts, unipotent, validate_class
from .errors import BoundExceeded, MixedKinds, NoSuchClass, NotApplicable, SizeMismatch


def dominates(pi1: Iterable[int], pi2: Iterable[int]) -> bool:
    a = sorted(pi1, reverse=True)
    b = sorted(pi2, reverse=True)
    if sum(a) != sum(b):
        raise SizeMismatch("partitions of different sizes")
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
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


def _index_sums(cls: ClassDescriptor) -> list[tuple[int, int]]:
    """(P_i, P_i - chi(lambda_i)) over the Jordan block sizes lambda_1 >=
    lambda_2 >= ... of a decorated class, P_i the sum of the first i; the
    index chi(m) is m/2 if V(m) is a summand and m // 2 + 1 otherwise."""
    vs = {size for kind, size, _ in cls.unip.decoration if kind == "V"}
    out = []
    total = 0
    for m in cls.unip.partition:
        total += m
        out.append((total, total - (m // 2 if m in vs else m // 2 + 1)))
    return out


def _contains(target: GroupSpec, upper: ClassDescriptor, lower: ClassDescriptor) -> bool:
    """Whether lower lies in the closure of upper in the class group target:
    dominance of partitions, or at p = 2 in Sp, SO and Spin8 dominance of
    both partial sums of the indexed partitions."""
    if target.p != 2 or target.family == "SL":
        return dominates(upper.unip.partition, lower.unip.partition)
    a = _index_sums(upper)
    b = _index_sums(lower)
    if a[-1][0] != b[-1][0]:
        raise SizeMismatch("classes live in different dimensions")
    # past its last part a class has P_i = P_i - chi(0) = the dimension, so
    # upper needs no more parts than lower, and lower's extra parts pass
    return len(a) <= len(b) and all(pb <= pa and qb <= qa for (pa, qa), (pb, qb) in zip(a, b))


def in_closure(group: GroupSpec, upper: ClassDescriptor, lower: ClassDescriptor) -> bool:
    if upper.kind != "unipotent" or lower.kind != "unipotent":
        raise MixedKinds("closure order is defined on unipotent classes")
    return _contains(group.class_group(), upper, lower)


def _near_equal_partition(n: int, m: int) -> tuple:
    q, s = divmod(n, m)
    return (q + 1,) * s + (q,) * (m - s)


def smallest_class_with_blocks(group: GroupSpec, m: int) -> ClassDescriptor:
    target = group.class_group()
    n = target.n
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
