"""Symbolic data model: groups, prime-order-mod-center conjugacy classes.

Classes are described symbolically: semisimple classes by an eigenvalue
multiplicity pattern over opaque labels (with optional order tags), unipotent
classes by a Jordan partition, decorated in characteristic 2 by the V/W
form-module decomposition. No field elements appear at this layer.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from operator import index
from typing import Optional, Union

from .errors import (
    BoundExceeded,
    CentralClass,
    DimensionMismatch,
    OrderViolation,
    ParityViolation,
    SchemaError,
    UnsupportedChar2Class,
    UnsupportedGroup,
)

FAMILIES = ("SL", "Sp", "SO", "Spin8")

UNIPOTENT_CHAR_0 = "unipotent-char-0"

# Most Jordan blocks of a partition built from counts (the multiplicities of
# a decoration, a block count) rather than listed part by part.
MAX_BLOCKS = 2**16

# Relation tags attachable to an eigenvalue label.
REL_SQUARE_MINUS_ONE = "square_is_minus_one"


# Miller-Rabin with the prime bases up to 41 decides primality exactly below
# _PRIME_LIMIT (Sorenson and Webster, Math. Comp. 2017); larger numbers are
# refused, so no query can make the test slow or wrong
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981
# the small numbers most queries carry (p, class orders) are looked up; below
# 43^2 a number is prime iff no smaller base divides it
_SMALL_PRIMES = frozenset(m for m in range(2, 43 * 43) if all(m % a for a in _PRIME_BASES if a < m))


def is_prime(m: int) -> bool:
    """Whether ``m`` is prime; BoundExceeded for ``m`` of 3.3e24 and more."""
    if m < 43 * 43:
        return m in _SMALL_PRIMES
    if m >= _PRIME_LIMIT:
        raise BoundExceeded(f"primality is decided below {_PRIME_LIMIT} only, got {m}")
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def conjugate_partition(partition: Sequence[int]) -> tuple[int, ...]:
    if not partition:
        return ()
    top = max(partition)
    return tuple(sum(1 for a in partition if a >= j) for j in range(1, top + 1))


@dataclass(frozen=True)
class GroupSpec:
    family: str
    n: int
    p: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedGroup(f"unknown family {self.family!r}")
        _set_whole(self, "n", "p")
        if self.p != 0 and not is_prime(self.p):
            raise SchemaError(f"characteristic must be 0 or prime, got {self.p}")
        if self.n < 1:
            raise SchemaError("n must be positive")
        f, n = self.family, self.n
        if f == "SL" and n < 2:
            raise UnsupportedGroup("SL requires n >= 2")
        if f == "Sp" and (n % 2 or n < 4):
            raise UnsupportedGroup("Sp requires even n >= 4")
        if f == "SO":
            if n < 5:
                raise UnsupportedGroup("SO requires n >= 5")
            if n == 8:
                raise UnsupportedGroup("use family Spin8 for the 8-dimensional orthogonal group")
            if n % 2 and self.p == 2:
                raise UnsupportedGroup("odd orthogonal groups require p != 2")
        if f == "Spin8" and n != 8:
            raise UnsupportedGroup("Spin8 fixes n = 8")
        if f == "SO" and n == 6:
            # built once here, not in each class_group() call; an attribute,
            # not a field, so equality, hash and repr do not see it
            object.__setattr__(self, "_sl4", GroupSpec("SL", 4, self.p))

    @property
    def is_orthogonal(self) -> bool:
        return self.family in ("SO", "Spin8")

    def class_group(self) -> "GroupSpec":
        """The group whose descriptor conventions classes of self follow.

        SO6 carries companion SL4 data (its natural module is the exterior
        square of the 4-dimensional linear module); everything else is
        self-describing.
        """
        if self.family == "SO" and self.n == 6:
            return self._sl4
        return self


@dataclass(frozen=True)
class EigenPattern:
    mult_one: int = 0
    mult_minus_one: int = 0
    pairs: tuple = ()  # ((label, mult), ...): eigenvalues {label, label^-1}
    free: tuple = ()  # ((label, mult), ...): unpaired eigenvalues (SL only)
    relations: tuple = ()  # ((label, tag), ...)
    variant: str = "unspecified"  # plus | minus | unspecified (SO even)

    def total(self) -> int:
        total = self.mult_one + self.mult_minus_one
        for _, m in self.pairs:
            total += 2 * m
        for _, m in self.free:
            total += m
        return total

    def mults(self) -> list[int]:
        """Multiplicities of all distinct eigenvalues."""
        out = []
        if self.mult_one:
            out.append(self.mult_one)
        if self.mult_minus_one:
            out.append(self.mult_minus_one)
        for _, m in self.pairs:
            out.extend((m, m))
        for _, m in self.free:
            out.append(m)
        return out

    def relation_of(self, label: str) -> Optional[str]:
        for lab, tag in self.relations:
            if lab == label:
                return tag
        return None


@dataclass(frozen=True)
class UnipotentData:
    partition: tuple = ()
    decoration: Optional[tuple] = None  # (("V", size, mult) | ("W", size, mult), ...)
    as_type: str = "none"  # a | b | c | none


@dataclass(frozen=True)
class ClassDescriptor:
    kind: str  # "semisimple" | "unipotent"
    order: Union[int, str, None] = None
    eigen: Optional[EigenPattern] = None
    unip: Optional[UnipotentData] = None
    # the class group validate_class checked this descriptor for; not part
    # of equality, hash or repr, and dropped by dataclasses.replace()
    validated_for: Optional[GroupSpec] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __getstate__(self):
        # the values _once keeps on a validated descriptor (attributes named
        # with a leading underscore) are not part of its state
        return {k: v for k, v in self.__dict__.items() if k[0] != "_"}


def _once(cls: ClassDescriptor, name: str, fn):
    """fn(cls), computed on the first call for the validated descriptor
    ``cls`` and kept on it as attribute ``name``, which starts with an
    underscore. A descriptor is one class of one class group (its
    ``validated_for``), so the value never goes stale; the attribute is not
    a field, so equality, hash, repr, replace() and pickling do not see it.
    Nothing is kept when fn raises."""
    value = cls.__dict__.get(name)
    if value is None:
        value = fn(cls)
        object.__setattr__(cls, name, value)
    return value


def _norm_labelled(items, what: str) -> tuple:
    """Normalize [(label, mult)] (also plain multiplicities -> auto labels)."""
    if not items:
        return ()
    merged: dict[str, int] = {}
    auto = 0
    for item in items:
        if isinstance(item, (tuple, list)):
            if len(item) != 2:
                raise SchemaError(f"a labelled {what} must be a (label, multiplicity) pair, not {item!r}")
            lab, m = str(item[0]), item[1]
        else:
            auto += 1
            lab, m = f"l{auto}", item
        if type(m) is not int:
            m = _whole(m, f"a {what} multiplicity")
        if m < 1:
            raise SchemaError(f"{what} multiplicity must be a positive integer")
        merged[lab] = merged.get(lab, 0) + m
    if len(merged) < 2:
        return tuple(merged.items())
    return tuple(sorted(merged.items(), key=lambda t: (-t[1], t[0])))


def _normal_pattern(ones: int, minus_ones: int, pairs, free, relations, variant) -> EigenPattern:
    """The pattern of a semisimple class with integer ``ones`` and
    ``minus_ones``: relations (a mapping or (label, tag) pairs) sorted, and
    pairs and free eigenvalues normalised by ``_norm_labelled``."""
    if relations:
        if isinstance(relations, Mapping):
            relations = relations.items()
        relations = tuple(sorted((str(lab), tag) for lab, tag in relations))
    pairs, free = _norm_labelled(pairs, "pair"), _norm_labelled(free, "free eigenvalue")
    return EigenPattern(ones, minus_ones, pairs, free, relations or (), variant)


def semisimple(
    order: Union[int, None] = None,
    ones: int = 0,
    minus_ones: int = 0,
    pairs: Iterable = (),
    free: Iterable = (),
    relations: Union[Mapping[str, str], Iterable, None] = None,
    variant: str = "unspecified",
) -> ClassDescriptor:
    ones, minus_ones = _whole(ones, "ones"), _whole(minus_ones, "minus_ones")
    pat = _normal_pattern(ones, minus_ones, pairs, free, relations, variant)
    return ClassDescriptor("semisimple", order, pat)


def _whole(x, what: str) -> int:
    """``x`` as an int, if it is an integer (an int, or a type with
    ``__index__``) and not a bool."""
    if not isinstance(x, bool):
        try:
            return index(x)
        except TypeError:
            pass
    raise SchemaError(f"{what} must be an integer, not {x!r}")


def _set_whole(obj, *names: str) -> None:
    """Check that the named fields of the frozen ``obj`` are integers
    (SchemaError otherwise) and store them as plain ints."""
    for name in names:
        object.__setattr__(obj, name, _whole(getattr(obj, name), name))


def _norm_decoration(decoration) -> Optional[tuple]:
    if decoration is None:
        return None
    merged: dict[tuple, int] = {}
    for item in decoration:
        if isinstance(item, Mapping):
            kind = "V" if "V" in item else "W" if "W" in item else None
            if kind is None:
                raise SchemaError(f"bad decoration record {item!r}")
            size, mult = item[kind], item.get("mult", 1)
        elif isinstance(item, (tuple, list)) and len(item) == 3:
            kind, size, mult = item
        else:
            raise SchemaError(f"a decoration item must be a mapping or a triple, not {item!r}")
        size = _whole(size, "a decoration size")
        mult = _whole(mult, "a decoration multiplicity")
        if kind not in ("V", "W") or size < 1 or mult < 1:
            raise SchemaError(f"bad decoration record {item!r}")
        if kind == "V" and size % 2:
            raise SchemaError("V summands have even dimension")
        merged[(kind, size)] = merged.get((kind, size), 0) + mult
    return tuple((k, s, m) for (k, s), m in sorted(merged.items(), key=lambda t: (t[0][0], -t[0][1])))


def _normal_unipotent(partition: Optional[Iterable], decoration) -> UnipotentData:
    """The Jordan data of a partition and a decoration (mappings or triples):
    the parts sorted down, derived from the decoration if any, its type."""
    dec = _norm_decoration(decoration)
    if partition is not None:
        partition = [a if type(a) is int else _whole(a, "a partition part") for a in partition]
    if dec is not None:
        if sum(mult if kind == "V" else 2 * mult for kind, _, mult in dec) > MAX_BLOCKS:
            raise BoundExceeded(f"a decoration of more than {MAX_BLOCKS} Jordan blocks is refused")
        parts = [size for kind, size, mult in dec for _ in range(mult if kind == "V" else 2 * mult)]
        parts = tuple(sorted(parts, reverse=True))
        if partition is not None and tuple(sorted(partition, reverse=True)) != parts:
            raise DimensionMismatch("partition inconsistent with decoration")
        # the a/b/c type of an involution: "none" for other classes and for
        # more than two V(2) summands, which validation refuses
        v2 = sum(mult for kind, size, mult in dec if kind == "V" and size == 2)
        as_type = "none" if not parts or parts[0] > 2 else {0: "a", 1: "b", 2: "c"}.get(v2, "none")
        return UnipotentData(parts, dec, as_type)
    if partition is None:
        raise SchemaError("unipotent class needs a partition or a decoration")
    parts = tuple(sorted(partition, reverse=True))
    if parts and parts[-1] < 1:
        raise SchemaError("partition parts must be positive")
    return UnipotentData(parts, None, "none")


def unipotent(
    partition: Optional[Sequence[int]] = None,
    order: Union[int, str, None] = None,
    decoration=None,
) -> ClassDescriptor:
    return ClassDescriptor("unipotent", order, unip=_normal_unipotent(partition, decoration))


def _index(unip: UnipotentData) -> list:
    """Hesselink's index of a decorated class in characteristic 2
    (Hesselink, Math. Z. 166, 1979), one value per part m of
    ``unip.partition``, in its order: chi(m) = m/2 if V(m) is a summand and
    m // 2 + 1 otherwise."""
    if unip.decoration is None:
        raise UnsupportedChar2Class("characteristic-2 Sp/SO classes need a V/W decoration")
    vs = {size for kind, size, _ in unip.decoration if kind == "V"}
    return [m // 2 if m in vs else m // 2 + 1 for m in unip.partition]


def _check_pattern(pat: EigenPattern) -> None:
    """The rules of a pattern that hold in every group: labels pairwise
    distinct, relations on its labels with known tags, at most one per
    label, a known variant."""
    known = dict(pat.pairs)
    known.update(pat.free)
    if len(known) != len(pat.pairs) + len(pat.free):
        raise SchemaError("labels must be pairwise distinct")
    for lab, tag in pat.relations:
        if lab not in known:
            raise SchemaError(f"relation on unknown label {lab!r}")
        order_tag = isinstance(tag, str) and tag.startswith("order:") and tag[6:].isdecimal()
        if not (tag == REL_SQUARE_MINUS_ONE or order_tag):
            raise SchemaError(f"unknown relation tag {tag!r}")
        if order_tag and int(tag[6:]) == 0:
            raise SchemaError(f"relation tag {tag!r}: an order is at least 1")
    if len(dict(pat.relations)) != len(pat.relations):
        raise SchemaError("a label carries at most one relation tag")
    if pat.variant not in ("plus", "minus", "unspecified"):
        raise SchemaError(f"variant must be plus, minus or unspecified, not {pat.variant!r}")


def _check_semisimple(group: GroupSpec, r, pat: EigenPattern) -> EigenPattern:
    """The pattern of a class of order ``r``, checked against ``group``,
    relations sorted."""
    n = group.n
    a, b = pat.mult_one, pat.mult_minus_one
    if a < 0 or b < 0:
        raise SchemaError("negative multiplicity")
    if pat.total() != n:
        raise DimensionMismatch(f"eigenvalue multiplicities sum to {pat.total()}, expected {n}")
    if group.p == 2 and b:
        raise ParityViolation("no -1 eigenvalue in characteristic 2")
    _check_pattern(pat)
    if group.family in ("Sp", "SO", "Spin8"):
        if pat.free:
            raise ParityViolation("eigenvalues must come in inverse pairs for Sp/SO")
        if group.family == "Sp" or n % 2 == 0:
            if a % 2 or b % 2:
                raise ParityViolation("+-1 eigenspaces must be even-dimensional")
        elif a % 2 == 0 or b % 2:
            raise ParityViolation("odd orthogonal: 1-eigenspace odd, -1-eigenspace even")
    # central iff a single eigenvalue carries everything
    if a == n or b == n or pat.free and any(m == n for _, m in pat.free):
        raise CentralClass("scalar eigenvalue pattern")
    # light order compatibility checks
    if r is not None:
        if not isinstance(r, int) or not is_prime(r):
            raise OrderViolation(f"semisimple order must be a prime, got {r!r}")
        if r == group.p:
            raise OrderViolation("semisimple class cannot have order p")
        for lab, tag in pat.relations:
            if tag == REL_SQUARE_MINUS_ONE:
                if group.p == 2:
                    raise OrderViolation("square_is_minus_one is vacuous at p = 2")
                if r != 2:
                    raise OrderViolation("square_is_minus_one forces order 2 mod center")
            elif (k := int(tag[6:])) < 3:
                raise OrderViolation("label order tag must be >= 3 (labels are != +-1)")
            elif k not in (r, 2 * r):
                raise OrderViolation(f"label order {k} incompatible with class order {r} mod center")
    if not pat.relations:
        return pat
    # a pattern built by hand may list its relations out of order
    rels = tuple(sorted((lab, tag) for lab, tag in pat.relations))
    if rels == pat.relations:
        return pat
    return EigenPattern(a, b, pat.pairs, pat.free, rels, pat.variant)


def _part_counts(partition: Iterable[int]) -> dict[int, int]:
    """{part: multiplicity}, the parts in the order they first occur."""
    counts: dict[int, int] = {}
    for a in partition:
        counts[a] = counts.get(a, 0) + 1
    return counts


def _unpaired_parts(family: str, partition: tuple) -> list:
    """The parts of a unipotent partition that break the family's parity
    rule, in the order they first occur: in Sp every odd part, in SO every
    even part, needs even multiplicity; SL has no rule."""
    if family == "SL":
        return []
    parity = 1 if family == "Sp" else 0
    return [a for a, c in _part_counts(partition).items() if a % 2 == parity and c % 2]


def _check_admissible_partition(group: GroupSpec, partition: tuple) -> None:
    if bad := _unpaired_parts(group.family, partition):
        if group.family == "Sp":
            raise ParityViolation(f"odd parts {bad} need even multiplicity in Sp")
        raise ParityViolation(f"even parts {bad} need even multiplicity in SO")


def _check_unipotent(group: GroupSpec, order, data: UnipotentData) -> Union[int, str, None]:
    """The order of a class with Jordan data ``data``, checked against
    ``group`` and derived if absent."""
    partition, dec, p = data.partition, data.decoration, group.p
    if sum(partition) != group.n:
        raise DimensionMismatch(f"partition sums to {sum(partition)}, expected {group.n}")
    if partition.count(1) == len(partition):
        raise CentralClass("trivial partition")
    if p == 0:
        if dec is not None:
            raise ParityViolation("decorations only exist in characteristic 2")
        if order is None:
            order = UNIPOTENT_CHAR_0
        elif order != UNIPOTENT_CHAR_0:
            raise OrderViolation("characteristic-0 unipotent classes use the symbolic order")
        _check_admissible_partition(group, partition)
        return order
    forms = p == 2 and group.family in ("Sp", "SO", "Spin8")
    if forms:
        if dec is None:
            raise ParityViolation("characteristic-2 Sp/SO classes need a V/W decoration")
        if any(kind == "V" and mult > 2 for kind, _, mult in dec):
            raise ParityViolation("V summands have multiplicity at most 2")
        if group.is_orthogonal and sum(m for k, _, m in dec if k == "V") % 2:
            raise ParityViolation("SO needs an even number of V summands")
    else:
        if dec is not None:
            raise ParityViolation("decorations only apply to Sp/SO in characteristic 2")
        _check_admissible_partition(group, partition)
    top = max(partition)
    if order is None and top <= p:
        order = p
    if order is not None:
        if not isinstance(order, int) or order != p:
            raise OrderViolation("unipotent classes have order p")
        if top > p:
            what = "an order-2" if forms else "a prime-order"
            raise OrderViolation(f"parts exceed p = {p} for {what} class")
    return order


def _checked_class(group: GroupSpec, kind, order, eigen, unip) -> ClassDescriptor:
    """The class with these fields checked against ``group``: one descriptor
    stamped with ``group.class_group()``. Raises on failure."""
    target = group.class_group()
    if kind == "semisimple":
        if eigen is None:
            raise SchemaError("semisimple descriptor without a pattern")
        eigen = _check_semisimple(target, order, eigen)
    elif kind == "unipotent":
        if unip is None:
            raise SchemaError("unipotent descriptor without a partition")
        order = _check_unipotent(target, order, unip)
    else:
        raise SchemaError(f"unknown class kind {kind!r}")
    out = ClassDescriptor(kind, order, eigen, unip)
    object.__setattr__(out, "validated_for", target)
    return out


def validate_class(group: GroupSpec, raw: ClassDescriptor) -> ClassDescriptor:
    """Canonicalize and check a descriptor against a group; raises on failure.

    The result is stamped with ``group.class_group()``; a descriptor that
    carries that stamp already is returned as it is.
    """
    stamp = raw.validated_for
    if stamp is not None and (stamp is group.class_group() or stamp == group.class_group()):
        return raw
    return _checked_class(group, raw.kind, raw.order, raw.eigen, raw.unip)


def check_unvalidated(group: GroupSpec, classes: Iterable[ClassDescriptor]) -> None:
    """Raise SchemaError unless every class lives in the natural dimension
    of ``group.class_group()`` and keeps the rules that hold in every group
    (an integer order or none, no negative multiplicity and
    ``_check_pattern`` for a semisimple class; an integer order, none or
    ``UNIPOTENT_CHAR_0`` for a unipotent one): what dimension formulas
    need of classes not validated."""
    target = group.class_group()
    for c in classes:
        total = sum(c.unip.partition) if c.kind == "unipotent" else c.eigen.total()
        if total != target.n:
            raise SchemaError(f"class lives in dimension {total}, expected {target.n}")
        if c.validated_for is not None:
            continue
        if c.kind == "semisimple":
            if c.order is not None and type(c.order) is not int:
                raise SchemaError(f"semisimple order must be an integer, not {c.order!r}")
            if c.eigen.mult_one < 0 or c.eigen.mult_minus_one < 0:
                raise SchemaError("negative multiplicity")
            _check_pattern(c.eigen)
        elif not (c.order is None or type(c.order) is int or c.order == UNIPOTENT_CHAR_0):
            raise SchemaError(f"unipotent order must be an integer or {UNIPOTENT_CHAR_0!r}, not {c.order!r}")


_DIM_RANK = {
    "SL": lambda n: (n * n - 1, n - 1),
    "Sp": lambda n: (n * (n + 1) // 2, n // 2),
    "SO": lambda n: (n * (n - 1) // 2, n // 2),
    "Spin8": lambda n: (28, 4),
}


def dim_and_rank(group: GroupSpec) -> tuple[int, int]:
    return _DIM_RANK[group.family](group.n)
