"""The central decision engine.

Given a group and a tuple of prime-order-mod-center classes, decide whether
the set of topologically generating tuples in the product of the classes is
empty, and report which obstruction fired. Also: the exterior-square
transfer for the 6-dimensional orthogonal group, triality profiles for
Spin8, the adjoint-module necessary condition, and the minimal generator
count search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, NamedTuple, Optional, Sequence

from .algebra_core import (
    REL_SQUARE_MINUS_ONE,
    ClassDescriptor,
    GroupSpec,
    _once,
    _part_counts,
    check_unvalidated,
    dim_and_rank,
    validate_class,
)
from .errors import (
    BadCharacteristic,
    MissingSpin8Profile,
    OutsideCatalog,
    SchemaError,
)
from .invariants import (
    EigenProfile,
    _natural_profile,
    _wedge2_blocks,
    class_dim,
)


@dataclass(frozen=True)
class Verdict:
    empty: bool
    # the rule of ``decide`` that fired: DimObstruction, SpChar2FixedVector,
    # QuadraticPair, TableRow or FamilyTheoremCase; Generic when none did
    reason: str
    case_id: Optional[str] = None
    witnesses: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# pattern matching helpers
# ---------------------------------------------------------------------------


def _ss_sig(cls: ClassDescriptor) -> Optional[tuple]:
    if cls.kind != "semisimple" or cls.eigen.free:
        return None
    pat = cls.eigen
    return (
        pat.mult_one,
        pat.mult_minus_one,
        tuple(sorted([m for _, m in pat.pairs], reverse=True)),
    )


def _row_key(cls: ClassDescriptor) -> tuple:
    """What the family rows read of a class: ``_ss_sig`` of a semisimple
    class; of a unipotent one, its partition as (part, count) runs with the
    parts decreasing, and its ``as_type`` at p = 2 (None undecorated); ()
    for a class with unpaired eigenvalues. Linear in the number of parts."""
    if cls.kind == "unipotent":
        unip = cls.unip
        runs = tuple(_part_counts(unip.partition).items())
        return runs, unip.as_type if unip.decoration is not None else None
    return _ss_sig(cls) or ()


def _ss(a: int, b: int, *pairs: int) -> tuple:
    """The row keys of the semisimple class (I_a, -I_b, one inverse pair of
    eigenvalues per multiplicity in ``pairs``, decreasing) and of its twist
    by the central -1, (I_b, -I_a, ...)."""
    return (a, b, pairs), (b, a, pairs)


def _u(*runs: tuple, as_type: Optional[str] = None) -> tuple:
    """The row key of the unipotent class whose partition is ``runs``, (part,
    count) pairs with the parts decreasing: ((3, 2), (2, 1)) is 3^2 2. It is
    the undecorated class, or with ``as_type`` the p = 2 class of that type
    ("none" for one that is no involution)."""
    return ((runs, as_type),)


# ---------------------------------------------------------------------------
# symbolic eigenvalue arithmetic for the exterior-square transfer
# ---------------------------------------------------------------------------


def _mul_symbols(relations: dict, s1, s2):
    """s1 * s2, each label's exponent reduced by its tag in relations."""
    sign = s1[0] * s2[0]
    exps = dict(s1[1])
    for lab, e in s2[1]:
        exps[lab] = exps.get(lab, 0) + e
    out = []
    for lab, e in sorted(exps.items()):
        rel = relations.get(lab)
        if rel == REL_SQUARE_MINUS_ONE:
            e %= 4
            if e >= 2:
                e -= 2
                sign = -sign
        elif rel and rel.startswith("order:"):
            e %= int(rel.split(":", 1)[1])
        if e:
            out.append((lab, e))
    return (sign, tuple(out))


def so6_transfer(sl4_class: ClassDescriptor) -> EigenProfile:
    """Profile of an SL4 class on the 6-dimensional exterior square.

    Unknown relations between distinct labels are resolved generically
    (distinct untagged labels are treated as multiplicatively independent).
    """
    if sl4_class.kind == "unipotent":
        total = sum(sl4_class.unip.partition)
    else:
        total = sl4_class.eigen.total()
    if total != 4:
        raise SchemaError("transfer expects a 4-dimensional class")
    d, e, _ = _so6_image(sl4_class)
    return EigenProfile(d=d, e=e)


def _so6_image(sl4_class: ClassDescriptor) -> tuple:
    """(d, e, quadratic) of an SL4 class on the exterior square, the natural
    module of SO6, as ``_natural_profile`` reads them on the natural module.
    Only the quadratic flag reads p: the class's stamp, or 0 unstamped."""
    if sl4_class.kind == "unipotent":
        parts = sl4_class.unip.partition
        blocks = _wedge2_blocks(parts)
        stamp = sl4_class.validated_for
        p = stamp.p if stamp is not None else 0
        # exterior-square Jordan types of the partitions of 4
        return blocks, blocks, parts == (2, 1, 1) or (parts == (2, 2) and p == 2)
    products = _so6_products(sl4_class.eigen)
    return max(products.values()), products.get((1, ()), 0), len(products) == 2


def _so6_products(pat) -> Counter:
    """Multiset of the products of pairs of the four eigenvalues, each a
    (sign, exponent-vector) symbol."""
    eigenvalues = [((1, ()), pat.mult_one), ((-1, ()), pat.mult_minus_one)]
    for lab, m in pat.pairs:
        eigenvalues += [((1, ((lab, 1),)), m), ((1, ((lab, -1),)), m)]
    eigenvalues += [((1, ((lab, 1),)), m) for lab, m in pat.free]
    four = [s for s, m in eigenvalues for _ in range(m)]
    relations = dict(pat.relations)
    return Counter(_mul_symbols(relations, s1, s2) for s1, s2 in combinations(four, 2))


# (family, n) -> case of a quadratic pair, where that needs one
_QUADRATIC_CASE = {("SO", 6): "so6", ("Spin8", 8): "so8"}


# ---------------------------------------------------------------------------
# Spin8 triality profiles
# ---------------------------------------------------------------------------


# spin8_profile by _row_key (_u gives a row's tuple of one key): unipotent
# classes, undecorated at odd p or of a named type at p = 2, then
# semisimple ones by _ss_sig
_SPIN8 = {
    _u((2, 4))[0]: (4, 6, 4),
    _u((2, 4), as_type="c")[0]: (4, 4, 4),
    _u((2, 2), (1, 4), as_type="c")[0]: (6, 6, 6),
    _u((3, 2), (1, 2))[0]: (4, 4, 4),
    _u((5, 1), (3, 1))[0]: (2, 2, 2),
    _u((7, 1), (1, 1))[0]: (2, 2, 2),
    _u((3, 1), (1, 5))[0]: (6, 4, 4),
    (4, 4, ()): (4, 4, 4),
    (6, 0, (1,)): (6, 4, 4),
    (2, 0, (3,)): (3, 4, 4),
    (4, 0, (2,)): (4, 3, 4),
    (4, 0, (1, 1)): (4, 2, 2),
    (0, 0, (2, 2)): (2, 4, 2),
}


def spin8_profile(cls: ClassDescriptor) -> tuple:
    """Largest-eigenspace dimensions across the three 8-dimensional modules."""
    profile = _SPIN8.get(_row_key(cls))
    if profile is not None:
        return profile
    if cls.kind == "semisimple":
        raise OutsideCatalog(f"no catalogued profile for pattern {_ss_sig(cls)}")
    parts = cls.unip.partition
    if parts == (2, 2, 2, 2) and cls.unip.decoration is not None:
        raise OutsideCatalog("only c-type (2^4) involutions are catalogued")
    raise OutsideCatalog(f"no catalogued profile for partition {parts}")


# ---------------------------------------------------------------------------
# family rows (the first three rules already checked)
# ---------------------------------------------------------------------------


def _one_of(keys):
    """Slot: a class whose row key is among keys(m)."""
    return lambda c, key, m: key in keys(m)


class _Row(NamedTuple):
    """A family case of the paper. It applies to the groups of ``family``
    that ``groups(n, p)`` accepts, and fires when some ordering of the r =
    len(slots) classes satisfies the slots one by one, each a predicate
    slot(cls, row key of cls, m) with m = n // 2. ``table_row`` names the
    published table row of the case, if any, with {n} for n."""

    family: str
    groups: Callable[[int, int], bool]
    slots: tuple
    case: str
    table_row: Optional[str]


_ORDER_2 = lambda c, key, m: c.order == 2
_QUADRATIC = lambda c, key, m: _natural(c)[2]
_NOT_REGULAR = lambda c, key, m: _natural(c)[0] >= 2
# (-I_2, I_{2m-2}) and (-I_4, I_{2m-4}) in Sp_2m, up to the central -1; the
# a-type involution of Sp4 at p = 2
_M2 = _one_of(lambda m: _ss(2 * m - 2, 2))
_M4 = _one_of(lambda m: _ss(2 * m - 4, 4))
_A2 = _one_of(lambda m: _u((2, 2), as_type="a"))
# the partners of (-I_2, I_4) in Sp6 and of (-I_4, I_4) in Sp8
_SP6_X2 = _one_of(lambda m: _u((3, 2)) + _ss(2, 0, 2))
_SP8_X2 = _one_of(lambda m: _ss(4, 0, 2) + _ss(4, 0, 1, 1) + _u((3, 2), (1, 2)))
# x1 and x2 of the r = 2 rows of D_m = SO_2m, m >= 5, for m odd and m even.
# The semisimple options x1 = (lambda I_{m-1}, lambda^-1 I_{m-1}, mu, mu^-1)
# and x2 = (lambda I_m, lambda^-1 I_m) complete the product: every pair they
# add is below the adjoint-module bound (scott_lower_bound), which is proved
# in good characteristic only, so at p = 2 they stay open, and so do the
# unipotent options of x1; there x2 is the a-type involution
_D_X1_P2 = _one_of(lambda m: _ss(2, 0, m - 1))
_D_X1_ODD = _one_of(lambda m: _ss(2, 0, m - 1) + _u((3, 2), (2, m - 3)) + _ss(0, 0, m - 1, 1))
_D_X1_EVEN = _one_of(
    lambda m: _ss(2, 0, m - 1) + _u((3, 2), (2, m - 4), (1, 2)) + _u((3, 1), (2, m - 2), (1, 1))
    + _ss(0, 0, m - 1, 1)
)
_D_X2_ODD = _one_of(lambda m: _u((2, m - 1), (1, 2)) + _ss(0, 0, m))
_D_X2_EVEN = _one_of(lambda m: _u((2, m)) + _ss(0, 0, m))
_D_X2_ODD_P2 = _one_of(lambda m: _u((2, m - 1), (1, 2), as_type="a"))
_D_X2_EVEN_P2 = _one_of(lambda m: _u((2, m), as_type="a"))
# the classes of the r = 3 row of SO5, and x1 and x2 of the r = 2 row of
# B_m = SO_2m+1, m even; x2 = (I_1, lambda I_m, lambda^-1 I_m) is not matched
# up to the central -1
_SO5_X = _one_of(lambda m: _u((2, 2), (1, 1)))
_B_X1 = _one_of(lambda m: _u((2, m), (1, 1)))
_B_X2 = _one_of(lambda m: ((1, 0, (m,)),))

# the family rows, in the order they are tried
_ROWS = (
    _Row("SL", lambda n, p: n == 2, (_ORDER_2, _ORDER_2), "sl2", None),
    # x2 first: it matches fewer classes, so most pairs fail at one slot
    _Row("SO", lambda n, p: n % 4 == 2 and n >= 10 and p != 2, (_D_X2_ODD, _D_X1_ODD), "so2nodd", "SO{n}-r2"),
    _Row("SO", lambda n, p: n % 4 == 2 and n >= 10 and p == 2, (_D_X2_ODD_P2, _D_X1_P2), "so2nodd", "SO{n}-r2"),
    _Row("SO", lambda n, p: n % 4 == 0 and n >= 12 and p != 2, (_D_X2_EVEN, _D_X1_EVEN), "so2neven", "SO{n}-r2"),
    _Row("SO", lambda n, p: n % 4 == 0 and n >= 12 and p == 2, (_D_X2_EVEN_P2, _D_X1_P2), "so2neven", "SO{n}-r2"),
    _Row("SO", lambda n, p: n == 5, (_SO5_X,) * 3, "oddorth-i", "SO5-r3"),
    _Row("SO", lambda n, p: n % 4 == 1, (_B_X1, _B_X2), "oddorth-ii", "SO{n}-r2"),
    _Row("Sp", lambda n, p: n == 4 and p != 2, (_M2, _NOT_REGULAR), "sp4odd-ii", "Sp4-r2"),
    # at least two (-I_2, I_2) and the rest quadratic, as slots: a
    # (-I_2, I_2) is quadratic itself; the same for a2 at p = 2 below
    _Row("Sp", lambda n, p: n == 4 and p != 2, (_M2, _M2, _QUADRATIC), "sp4odd-iii", "Sp4-r3"),
    _Row("Sp", lambda n, p: n == 4 and p != 2, (_M2,) * 4, "sp4odd-iv", "Sp4-r4"),
    _Row("Sp", lambda n, p: n == 6 and p != 2, (_M2, _SP6_X2), "sp6odd-ii", None),
    _Row("Sp", lambda n, p: n == 6 and p != 2, (_M2,) * 3, "sp6odd-iii", "Sp6-r3"),
    _Row("Sp", lambda n, p: n == 8 and p != 2, (_M4, _SP8_X2), "spodd-ii", None),
    _Row("Sp", lambda n, p: n == 8 and p != 2, (_M2, _M2, _M4), "spodd-iii", "Sp8-r3"),
    _Row("Sp", lambda n, p: n == 4 and p == 2, (_A2, _A2, _QUADRATIC), "sp4even-ii", "Sp4-r3"),
    _Row("Sp", lambda n, p: n == 4 and p == 2, (_A2,) * 4, "sp4even-iii", "Sp4-r4"),
)
# the rows of each family and r, in table order
_ROWS_OF: dict = {}
for _row in _ROWS:
    _ROWS_OF.setdefault((_row.family, len(_row.slots)), []).append(_row)


def _fires(slots: tuple, classes: list, m: int) -> bool:
    """Whether some ordering of the classes satisfies the slots one by one.
    Each class computes its row key once and keeps it (``_once``)."""
    if not slots:
        return True
    first, rest = slots[0], slots[1:]
    for i, c in enumerate(classes):
        if first(c, _once(c, "_row_key", _row_key), m) and _fires(rest, classes[:i] + classes[i + 1 :], m):
            return True
    return False


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def _spin8(cls: ClassDescriptor) -> tuple:
    try:
        return spin8_profile(cls)
    except OutsideCatalog as exc:
        raise MissingSpin8Profile(str(exc)) from exc


def _natural(cls: ClassDescriptor) -> tuple:
    """(d, e, quadratic) on the natural module of the class group."""
    return _once(cls, "_natural", _natural_profile)


def _module_profiles(group, classes, spin8_profiles=None) -> tuple:
    """(d, e, modules, bounded, quadratic): per class, the largest
    eigenspace and the 1-eigenspace on the natural module; the other
    modules the rules read, {name: {"dim", "d", "sum_d"}}; (case_id, dim,
    d) for each module the dimension rule reads, in order; and per class
    whether its minimal polynomial on the natural module has degree 2.
    SO6's natural module is V, the exterior square of the SL4 module W its
    classes are given on. Spin8's is triality module 1; its d and those of
    modules 3 and 4 come from ``spin8_profiles``, one (d1, d3, d4) per
    class, or ``spin8_profile``.

    Each validated class computes its profiles once, on first use, and
    keeps them (``_once``); profiles the caller passes are not kept."""
    if group.family == "Spin8":
        if spin8_profiles is None:
            spin8_profiles = [_once(c, "_spin8", _spin8) for c in classes]
        ds = [t[0] for t in spin8_profiles]
        bounded = [("module-1", 8, ds)]
        modules = {}
        for j, name in ((1, "module-3"), (2, "module-4")):
            d = [t[j] for t in spin8_profiles]
            modules[name] = {"dim": 8, "d": d, "sum_d": sum(d)}
            bounded.append((name, 8, d))
        profiles = [_natural(c) for c in classes]
        return ds, [t[1] for t in profiles], modules, bounded, [t[2] for t in profiles]
    profiles = [_natural(c) for c in classes]
    if group.family == "SO" and group.n == 6:
        d = [t[0] for t in profiles]
        modules = {"W": {"dim": 4, "d": d, "sum_d": sum(d)}}
        profiles = [_once(c, "_so6", _so6_image) for c in classes]
    else:
        modules = {}
    ds = [t[0] for t in profiles]
    return ds, [t[1] for t in profiles], modules, ((None, group.n, ds),), [t[2] for t in profiles]


def decide(
    group: GroupSpec,
    classes: Sequence[ClassDescriptor],
    spin8_profiles: Optional[Sequence] = None,
) -> Verdict:
    """Whether no tuple of the classes topologically generates the group:
    the first rule that fires, in the order below, or Generic. Witnesses:
    r, n, and d, e, sum_d, sum_e on the natural module; ``modules`` on the
    others (``_module_profiles``). Only Spin8 reads ``spin8_profiles``, but
    it is checked for every group, before the classes are."""
    if spin8_profiles is not None:
        if not isinstance(spin8_profiles, (list, tuple)) or len(spin8_profiles) != len(classes):
            raise SchemaError(f"need one profile triple per class, got {spin8_profiles!r}")
        # a noncentral element acts non-scalarly on each 8-dimensional module
        for t in spin8_profiles:
            if not (isinstance(t, (list, tuple)) and len(t) == 3 and all(type(d) is int and 1 <= d <= 7 for d in t)):
                raise SchemaError(f"a Spin8 profile is three integers (not bools) from 1 to 7, not {t!r}")
    classes = [validate_class(group, c) for c in classes]
    r = len(classes)
    if r < 2:
        raise SchemaError("need at least two classes")
    n = group.n
    ds, es, modules, bounded, quadratic = _module_profiles(group, classes, spin8_profiles)
    sum_e = sum(es)
    witnesses = {
        "r": r, "n": n, "d": ds, "e": es, "sum_d": sum(ds), "sum_e": sum_e, "modules": modules
    }
    for case_id, dim, d in bounded:
        if sum(d) > dim * (r - 1):
            return Verdict(True, "DimObstruction", case_id, witnesses)
    if group.family == "Sp" and group.p == 2 and sum_e >= n * (r - 1):
        return Verdict(True, "SpChar2FixedVector", witnesses=witnesses)
    if n >= 3 and r == 2 and all(quadratic):
        case = _QUADRATIC_CASE.get((group.family, n))
        return Verdict(True, "QuadraticPair", case, witnesses)
    if group.family == "SO" and n == 6:
        # the dimension bound on the SL4 module W; SO6 has no family rows
        w = modules["W"]
        if w["sum_d"] > w["dim"] * (r - 1):
            return Verdict(True, "FamilyTheoremCase", "so6", witnesses)
        return Verdict(False, "Generic", witnesses=witnesses)
    for row in _ROWS_OF.get((group.family, r), ()):
        if row.groups(n, group.p) and _fires(row.slots, classes, n // 2):
            if row.table_row is None:
                return Verdict(True, "FamilyTheoremCase", row.case, witnesses)
            return Verdict(True, "TableRow", row.table_row.format(n=n), witnesses)
    return Verdict(False, "Generic", witnesses=witnesses)


# ---------------------------------------------------------------------------
# adjoint-module necessary condition and generator counts
# ---------------------------------------------------------------------------


def scott_lower_bound(group: GroupSpec, classes: Sequence[ClassDescriptor]):
    # dimension-formula evaluation only: no family admissibility validation,
    # so the bound can also be evaluated on companion/auxiliary Jordan data
    check_unvalidated(group, classes)
    if group.family != "SL" and group.p == 2:
        raise BadCharacteristic(
            "adjoint-module bound implemented for good characteristic only"
        )
    dim_g, rank = dim_and_rank(group)
    z = 1 if (group.family == "SL" and group.p and group.n % group.p == 0) else 0
    lhs = sum(class_dim(group, c).dim_class for c in classes)
    rhs = dim_g + rank - z
    return (lhs >= rhs, lhs, rhs)


def min_generators(group: GroupSpec, cls: ClassDescriptor) -> int:
    """The least r for which r conjugates of the class can generate. The
    search starts at the least r the dimension rule allows on every module
    it reads: r (dim - d) >= dim."""
    cls = validate_class(group, cls)
    n = group.class_group().n
    bounded = _module_profiles(group, [cls])[3]
    start = max(2, *(-(-dim // (dim - d)) for _, dim, (d,) in bounded))
    for r in range(start, n + 2):
        if not decide(group, [cls] * r).empty:
            return r
    raise AssertionError("every class generates with at most n+1 conjugates")
