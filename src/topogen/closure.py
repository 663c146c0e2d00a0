"""Degeneration (closure) order on unipotent classes.

Odd characteristic: dominance order restricted to admissible partitions.
Characteristic 2: an explicit rewriting engine over V/W decompositions,
sound but possibly incomplete (documented); dominance is used among the
W-summands, two local rules trade V-summands.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator

from .algebra_core import MAX_BLOCKS, ClassDescriptor, GroupSpec, _unpaired_parts, unipotent, validate_class
from .errors import BoundExceeded, EnumerationTooLarge, MixedKinds, NoSuchClass, NotApplicable, SizeMismatch


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


def _dec_state(cls: ClassDescriptor) -> tuple:
    """(sorted V sizes, sorted W sizes) with multiplicity."""
    vs: list[int] = []
    ws: list[int] = []
    for kind, size, mult in cls.unip.decoration:
        (vs if kind == "V" else ws).extend([size] * mult)
    return tuple(sorted(vs, reverse=True)), tuple(sorted(ws, reverse=True))


def _state_valid(group: GroupSpec, vs: tuple, ws: tuple) -> bool:
    if any(c > 2 for c in Counter(vs).values()):
        return False
    if group.is_orthogonal and len(vs) % 2:
        return False
    return True


def _char2_successors(group: GroupSpec, state: tuple) -> Iterator[tuple]:
    vs, ws = state
    vlist = list(vs)
    # rule: a pair of V summands (a phantom V(0) is allowed as the second)
    # shifts weight (V(2m1), V(2m2)) -> (V(2m1-2), V(2m2+2)) for m1 > m2
    choices = set()
    for i in range(len(vlist)):
        for j in range(len(vlist)):
            if i != j and vlist[i] > vlist[j]:
                choices.add((vlist[i], vlist[j]))
        if vlist[i] > 2:
            choices.add((vlist[i], 0))
    for big, small in choices:
        rest = list(vlist)
        rest.remove(big)
        if small:
            rest.remove(small)
        new = [x for x in rest + [big - 2, small + 2] if x > 0]
        cand = (tuple(sorted(new, reverse=True)), ws)
        if _state_valid(group, *cand):
            yield cand
    # rule: V(2m1) + V(2m2) -> W(m1 + m2)
    for i in range(len(vlist)):
        for j in range(i + 1, len(vlist)):
            rest = [x for k, x in enumerate(vlist) if k not in (i, j)]
            new_w = tuple(sorted(list(ws) + [(vlist[i] + vlist[j]) // 2], reverse=True))
            cand = (tuple(sorted(rest, reverse=True)), new_w)
            if _state_valid(group, *cand):
                yield cand
    # rule: dominance among the W summands, V summands carried along, one
    # box at a time: a box of a row of size a moves to a row of size
    # b <= a - 2 (a phantom W(0) is allowed). Repeated, these moves reach
    # every partition the W part dominates (Brylawski, 1973). The V
    # summands, and so the validity of the state, stay as they are
    if not _state_valid(group, vs, ws):
        return
    for a in set(ws):
        for b in set(ws) | {0}:
            if a - b >= 2:
                rest = list(ws)
                rest.remove(a)
                if b:
                    rest.remove(b)
                yield vs, tuple(sorted([x for x in rest + [a - 1, b + 1] if x], reverse=True))


def _bfs(start, moves) -> Iterator:
    """Everything reachable from ``start`` by repeated ``moves`` (a map from
    an element to its neighbours), each once, breadth first, ``start``
    first; lazy, so a search for one goal stops where it finds it."""
    seen = {start}
    queue = [start]
    yield start
    for a in queue:
        for b in moves(a):
            if b not in seen:
                seen.add(b)
                queue.append(b)
                yield b


# the most states the characteristic-2 rules may visit from one class
MAX_CLOSURE_STATES = 2 * 10**4


def _reachable(target: GroupSpec, start: tuple) -> Iterator[tuple]:
    """``_bfs`` over the characteristic-2 rules from ``start``. Raises
    EnumerationTooLarge past MAX_CLOSURE_STATES states."""
    for k, state in enumerate(_bfs(start, lambda s: _char2_successors(target, s))):
        if k == MAX_CLOSURE_STATES:
            raise EnumerationTooLarge(f"the closure order visits more than {MAX_CLOSURE_STATES} states")
        yield state


def _by_dominance(target: GroupSpec) -> bool:
    """Whether the closure order of target is dominance of partitions
    (otherwise it is reachability under the characteristic-2 rules)."""
    return target.p != 2 or target.family == "SL"


def in_closure(group: GroupSpec, upper: ClassDescriptor, lower: ClassDescriptor) -> bool:
    if upper.kind != "unipotent" or lower.kind != "unipotent":
        raise MixedKinds("closure order is defined on unipotent classes")
    target = group.class_group()
    if _by_dominance(target):
        return dominates(upper.unip.partition, lower.unip.partition)
    start = _dec_state(upper)
    goal = _dec_state(lower)
    if sum(start[0]) + 2 * sum(start[1]) != sum(goal[0]) + 2 * sum(goal[1]):
        raise SizeMismatch("classes live in different dimensions")
    return goal in _reachable(target, start)


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
    if _by_dominance(target):
        parts = [c.unip.partition for c in shapes]
        below = [
            {j for j, b in enumerate(parts) if j != i and dominates(a, b)}
            for i, a in enumerate(parts)
        ]
    else:
        states = [_dec_state(c) for c in shapes]
        below = []
        for i, a in enumerate(states):
            reach = set(_reachable(target, a))
            below.append({j for j, b in enumerate(states) if j != i and b in reach})
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
