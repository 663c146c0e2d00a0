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
from typing import Optional, Sequence

from .algebra_core import (
    REL_SQUARE_MINUS_ONE,
    ClassDescriptor,
    GroupSpec,
    _once,
    check_class_size,
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
        tuple(sorted((m for _, m in pat.pairs), reverse=True)),
    )


def _is_ss(cls: ClassDescriptor, a: int, b: int, pair_mults=(), twist=True) -> bool:
    """Match a semisimple pattern, optionally up to the central -1 twist."""
    sig = _ss_sig(cls)
    if sig is None:
        return False
    want = tuple(sorted(pair_mults, reverse=True))
    if sig == (a, b, want):
        return True
    return twist and sig == (b, a, want)


def _is_unip(cls: ClassDescriptor, runs, a_type_if_char2=False) -> bool:
    """Match a unipotent class by its partition as ``runs``, (part, count)
    pairs with the parts decreasing: ((3, 2), (2, m - 3)) is 3^2 2^(m-3).
    The partition is built only when its length is the class's, so a huge
    n costs nothing."""
    if cls.kind != "unipotent":
        return False
    parts = cls.unip.partition
    if len(parts) != sum(c for _, c in runs) or parts != tuple(a for a, c in runs for _ in range(c)):
        return False
    if a_type_if_char2 and cls.unip.decoration is not None:
        return cls.unip.as_type == "a"
    return True


def _count(classes, pred) -> int:
    return sum(1 for c in classes if pred(c))


# ---------------------------------------------------------------------------
# symbolic eigenvalue arithmetic for the exterior-square transfer
# ---------------------------------------------------------------------------


def _symbols(pat) -> list:
    """Distinct eigenvalues as (sign, exponent-vector) symbols with mults."""
    syms = []
    if pat.mult_one:
        syms.append(((1, ()), pat.mult_one))
    if pat.mult_minus_one:
        syms.append(((-1, ()), pat.mult_minus_one))
    for lab, m in pat.pairs:
        syms.append(((1, ((lab, 1),)), m))
        syms.append(((1, ((lab, -1),)), m))
    for lab, m in pat.free:
        syms.append(((1, ((lab, 1),)), m))
    return syms


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
    return _so6_image(sl4_class, 0)[0]


def _so6_image(sl4_class: ClassDescriptor, p: int) -> tuple[EigenProfile, bool]:
    """so6_transfer's profile, and whether the minimal polynomial on the
    exterior square has degree 2 (in characteristic p)."""
    if sl4_class.kind == "unipotent":
        parts = sl4_class.unip.partition
        blocks = _wedge2_blocks(parts)
        # exterior-square Jordan types of the partitions of 4
        quadratic = parts == (2, 1, 1) or (parts == (2, 2) and p == 2)
        return EigenProfile(d=blocks, e=blocks), quadratic
    products = _so6_products(sl4_class.eigen)
    profile = EigenProfile(d=max(products.values()), e=products.get((1, ()), 0))
    return profile, len(products) == 2


def _so6_products(pat) -> Counter:
    """Multiset of pairwise eigenvalue products (symbols with multiplicity)."""
    syms = _symbols(pat)
    # the first tag of a label wins, as in EigenPattern.relation_of
    relations = dict(reversed(pat.relations))
    products: Counter = Counter()
    for i, (s1, m1) in enumerate(syms):
        products[_mul_symbols(relations, s1, s1)] += m1 * (m1 - 1) // 2
        for s2, m2 in syms[i + 1 :]:
            products[_mul_symbols(relations, s1, s2)] += m1 * m2
    return +products


# (family, n) -> case of a quadratic pair, where that needs one
_QUADRATIC_CASE = {("SO", 6): "so6", ("Spin8", 8): "so8"}


# ---------------------------------------------------------------------------
# Spin8 triality profiles
# ---------------------------------------------------------------------------


# spin8_profile by odd-characteristic partition and by _ss_sig
_SPIN8_UNIPOTENT = {
    (3, 3, 1, 1): (4, 4, 4),
    (5, 3): (2, 2, 2),
    (7, 1): (2, 2, 2),
    (3, 1, 1, 1, 1, 1): (6, 4, 4),
}
_SPIN8_SEMISIMPLE = {
    (4, 4, ()): (4, 4, 4),
    (6, 0, (1,)): (6, 4, 4),
    (2, 0, (3,)): (3, 4, 4),
    (4, 0, (2,)): (4, 3, 4),
    (4, 0, (1, 1)): (4, 2, 2),
    (0, 0, (2, 2)): (2, 4, 2),
}


def spin8_profile(cls: ClassDescriptor) -> tuple:
    """Largest-eigenspace dimensions across the three 8-dimensional modules."""
    if cls.kind == "unipotent":
        parts = cls.unip.partition
        char2 = cls.unip.decoration is not None
        if parts == (2, 2, 2, 2):
            if char2:
                if cls.unip.as_type == "c":
                    return (4, 4, 4)
                raise OutsideCatalog("only c-type (2^4) involutions are catalogued")
            return (4, 6, 4)
        if char2 and parts == (2, 2, 1, 1, 1, 1) and cls.unip.as_type == "c":
            return (6, 6, 6)
        if not char2 and parts in _SPIN8_UNIPOTENT:
            return _SPIN8_UNIPOTENT[parts]
        raise OutsideCatalog(f"no catalogued profile for partition {parts}")
    sig = _ss_sig(cls)
    if sig in _SPIN8_SEMISIMPLE:
        return _SPIN8_SEMISIMPLE[sig]
    raise OutsideCatalog(f"no catalogued profile for pattern {sig}")


# ---------------------------------------------------------------------------
# family-specific emptiness cases (the first three rules already checked)
# ---------------------------------------------------------------------------


def _sl_case(group, classes) -> Optional[str]:
    if group.n == 2:
        if len(classes) == 2 and all(c.order == 2 for c in classes):
            return "sl2"
    return None


def _so_even_case(group, classes) -> Optional[str]:
    n = group.n
    m = n // 2
    p = group.p
    if len(classes) != 2 or m < 5:
        return None
    # the semisimple options x1 = (lambda I_{m-1}, lambda^-1 I_{m-1}, mu, mu^-1)
    # and x2 = (lambda I_m, lambda^-1 I_m) complete the product: every pair
    # they add is below the adjoint-module bound (scott_lower_bound), which
    # is proved in good characteristic only, so at p = 2 they stay open
    ss_x1 = lambda c: p != 2 and _is_ss(c, 0, 0, (m - 1, 1))
    ss_x2 = lambda c: p != 2 and _is_ss(c, 0, 0, (m,))
    if m % 2:  # m >= 5 odd
        x1_opts = [
            lambda c: _is_ss(c, 2, 0, (m - 1,)),
            lambda c: p != 2 and _is_unip(c, ((3, 2), (2, m - 3))),
            ss_x1,
        ]
        x2 = lambda c: _is_unip(c, ((2, m - 1), (1, 2)), a_type_if_char2=True) or ss_x2(c)
        case = "so2nodd"
    else:  # m >= 6 even
        x1_opts = [
            lambda c: _is_ss(c, 2, 0, (m - 1,)),
            lambda c: p != 2 and _is_unip(c, ((3, 2), (2, m - 4), (1, 2))),
            lambda c: p != 2 and _is_unip(c, ((3, 1), (2, m - 2), (1, 1))),
            ss_x1,
        ]
        x2 = lambda c: _is_unip(c, ((2, m),), a_type_if_char2=True) or ss_x2(c)
        case = "so2neven"
    for a, b in (classes, classes[::-1]):
        if x2(b) and any(opt(a) for opt in x1_opts):
            return case
    return None


def _so_odd_case(group, classes) -> Optional[str]:
    n = group.n
    m = n // 2
    r = len(classes)
    if r == 3 and m == 2 and all(_is_unip(c, ((2, 2), (1, 1))) for c in classes):
        return "oddorth-i"
    if r == 2 and m % 2 == 0:
        for a, b in (classes, classes[::-1]):
            if _is_unip(a, ((2, m), (1, 1))) and _is_ss(b, 1, 0, (m,), twist=False):
                return "oddorth-ii"
    return None


def _sp_odd_case(group, classes) -> Optional[str]:
    n = group.n
    r = len(classes)
    minus = lambda c, ell: _is_ss(c, n - ell, ell, ())  # (-I_ell, I_{n-ell})
    if n == 4:
        if r == 2:
            for a, b in (classes, classes[::-1]):
                if minus(a, 2) and _natural(b)[0] >= 2:
                    return "sp4odd-ii"
        if r == 3 and _count(classes, lambda c: minus(c, 2)) >= 2:
            rest = [c for c in classes if not minus(c, 2)]
            if all(_natural(c)[2] for c in rest):
                return "sp4odd-iii"
        if r == 4 and all(minus(c, 2) for c in classes):
            return "sp4odd-iv"
    elif n == 6:
        if r == 2:
            for a, b in (classes, classes[::-1]):
                if minus(a, 2) and (_is_unip(b, ((3, 2),)) or _is_ss(b, 2, 0, (2,))):
                    return "sp6odd-ii"
        if r == 3 and all(minus(c, 2) for c in classes):
            return "sp6odd-iii"
    elif n == 8:
        if r == 2:
            for a, b in (classes, classes[::-1]):
                if minus(a, 4) and (
                    _is_ss(b, 4, 0, (2,))
                    or _is_ss(b, 4, 0, (1, 1))
                    or _is_unip(b, ((3, 2), (1, 2)))
                ):
                    return "spodd-ii"
        if r == 3:
            if _count(classes, lambda c: minus(c, 2)) == 2 and _count(
                classes, lambda c: minus(c, 4)
            ) == 1:
                return "spodd-iii"
    return None


def _sp_even_case(group, classes) -> Optional[str]:
    if group.n != 4:
        return None
    r = len(classes)
    a2 = lambda c: _is_unip(c, ((2, 2),)) and c.unip.as_type == "a"
    if r == 3 and _count(classes, a2) >= 2:
        rest = [c for c in classes if not a2(c)]
        if all(_natural(c)[2] for c in rest):
            return "sp4even-ii"
    if r == 4 and all(a2(c) for c in classes):
        return "sp4even-iii"
    return None


def _family_case(group, classes, modules) -> Optional[str]:
    fam = group.family
    if fam == "SL":
        return _sl_case(group, classes)
    if fam == "SO":
        if group.n == 6:
            # the dimension bound on the SL4 module W
            w = modules["W"]
            return "so6" if w["sum_d"] > w["dim"] * (len(classes) - 1) else None
        if group.n % 2 == 0:
            return _so_even_case(group, classes)
        return _so_odd_case(group, classes)
    if fam == "Sp":
        if group.p == 2:
            return _sp_even_case(group, classes)
        return _sp_odd_case(group, classes)
    return None


# family case -> identifier of the matching published table row; the cases
# sl2, sp6odd-ii and spodd-ii have none
_TABLE_ROW = {
    "so2nodd": "SO{n}-r2",
    "so2neven": "SO{n}-r2",
    "oddorth-ii": "SO{n}-r2",
    "oddorth-i": "SO5-r3",
    "sp4odd-ii": "Sp4-r2",
    "sp4odd-iii": "Sp4-r3",
    "sp4even-ii": "Sp4-r3",
    "sp4odd-iv": "Sp4-r4",
    "sp4even-iii": "Sp4-r4",
    "sp6odd-iii": "Sp6-r3",
    "spodd-iii": "Sp8-r3",
}


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def _so6_natural(cls: ClassDescriptor) -> tuple:
    """(d, e, quadratic) of an SL4 class on the exterior square, the natural
    module of SO6; the quadratic flag depends on p, which the descriptor's
    stamp fixes."""
    profile, quadratic = _so6_image(cls, cls.validated_for.p)
    return profile.d, profile.e, quadratic


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
        elif len(spin8_profiles) != len(classes):
            raise SchemaError("need one profile triple per class")
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
        profiles = [_once(c, "_so6", _so6_natural) for c in classes]
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
    others (``_module_profiles``). Only Spin8 reads ``spin8_profiles``."""
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
    case = _family_case(group, classes, modules)
    if case in _TABLE_ROW:
        row = _TABLE_ROW[case].format(n=n)
        return Verdict(True, "TableRow", case_id=row, witnesses=witnesses)
    if case is not None:
        return Verdict(True, "FamilyTheoremCase", case_id=case, witnesses=witnesses)
    return Verdict(False, "Generic", witnesses=witnesses)


# ---------------------------------------------------------------------------
# adjoint-module necessary condition and generator counts
# ---------------------------------------------------------------------------


def scott_lower_bound(group: GroupSpec, classes: Sequence[ClassDescriptor]):
    # dimension-formula evaluation only: no family admissibility validation,
    # so the bound can also be evaluated on companion/auxiliary Jordan data
    check_class_size(group, classes)
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
