"""Expected answers, kept apart from the code under test.

Everything here is either a value written down by hand from the paper and the
repository's tests (table rows, family cases, anchor dimensions, group orders,
probabilities, subspace counts) or an independent recomputation from the raw
class data (eigenspace dimensions, Jordan block counts, dominance order,
threshold formulas). None of it calls into ``topogen``; the descriptors it
reads are plain frozen dataclasses.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

# ---------------------------------------------------------------------------
# group data
# ---------------------------------------------------------------------------


def dim_rank(family: str, n: int) -> tuple[int, int]:
    if family == "SL":
        return n * n - 1, n - 1
    if family == "Sp":
        return n * (n + 1) // 2, n // 2
    if family == "SO":
        return n * (n - 1) // 2, n // 2
    return 28, 4  # Spin8


def class_target(family: str, n: int) -> tuple[str, int]:
    """The group whose conventions the classes follow (SO6 uses SL4 data)."""
    if family == "SO" and n == 6:
        return "SL", 4
    return family, n


def natural_dim(family: str, n: int) -> int:
    return 8 if family == "Spin8" else n


def threshold(group) -> Fraction:
    """d(G) from the paper's generically-free table; None when untabulated."""
    exceptional = {"G2": 36, "F4": 144, "E6": 216, "E7": 378, "E8": 720}
    if isinstance(group, str):
        return Fraction(exceptional[group])
    family, n, p = group
    if family == "SL":
        return Fraction(6) if n == 2 else Fraction(9 * n * n, 4)
    if family == "Sp":
        extra = 2 if n == 4 or (n, p) == (6, 2) else 0
        return Fraction(9 * n * n, 8) + extra
    if family == "SO" and n < 7:
        return None
    return Fraction(9 * n * n, 8)


def sl_order(n: int, q: int) -> int:
    order = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        order *= q**i - 1
    return order


def sp_order(n: int, q: int) -> int:
    m = n // 2
    order = q ** (m * m)
    for i in range(1, m + 1):
        order *= q ** (2 * i) - 1
    return order


def sl2_class_sizes(q: int) -> tuple[int, int]:
    """Elements of SL2(q) of order 2 and of order 3 modulo the center."""
    if q % 2 == 0:
        inv = q * q - 1
    else:
        inv = q * (q + (1 if q % 4 == 1 else -1))
    if q % 3 == 0:
        three = q * q - 1
    else:
        three = q * (q + (1 if q % 3 == 1 else -1))
    center = 1 if q % 2 == 0 else 2
    return inv, center * three


# ---------------------------------------------------------------------------
# class data read straight from descriptors
# ---------------------------------------------------------------------------


def eigen_mults(cls) -> list[int]:
    pat = cls.eigen
    out = [m for m in (pat.mult_one, pat.mult_minus_one) if m]
    for _, m in pat.pairs:
        out += [m, m]
    out += [m for _, m in pat.free]
    return out


def natural_profile(cls) -> tuple[int, int]:
    """(largest eigenspace, 1-eigenspace) on the natural module."""
    if cls.kind == "unipotent":
        blocks = len(cls.unip.partition)
        return blocks, blocks
    return max(eigen_mults(cls)), cls.eigen.mult_one


def is_quadratic(cls) -> bool:
    if cls.kind == "unipotent":
        return max(cls.unip.partition) == 2
    return len(eigen_mults(cls)) == 2


def involution_type(cls) -> str:
    """a/b/c type of a decorated involution: the number of V(2) summands."""
    v2 = sum(m for kind, size, m in cls.unip.decoration if kind == "V" and size == 2)
    return "abc"[v2]


def wedge2_blocks(partition) -> int:
    parts = list(partition)
    total = sum(a // 2 for a in parts)
    for i, a in enumerate(parts):
        for b in parts[i + 1 :]:
            total += min(a, b)
    return total


def dual_partition(partition) -> list[int]:
    return [sum(1 for a in partition if a > i) for i in range(max(partition))]


def class_dim(family: str, n: int, cls) -> int:
    """Dimension of an undecorated SL or SO class, dim G minus that of the
    centralizer: GL(m) for each eigenvalue (SL) or inverse pair (SO) of
    multiplicity m, SO(m) for the eigenvalues 1 and -1 of SO; for a
    unipotent class with dual partition l*, sum l*_i^2 - 1 (SL) or
    (sum l*_i^2 - #odd parts) / 2 (SO)."""
    dim, _ = dim_rank(family, n)
    if cls.kind == "unipotent":
        parts = cls.unip.partition
        squares = sum(x * x for x in dual_partition(parts))
        if family == "SL":
            return dim - (squares - 1)
        return dim - (squares - sum(1 for a in parts if a % 2)) // 2
    if family == "SL":
        return dim - (sum(m * m for m in eigen_mults(cls)) - 1)
    pat = cls.eigen
    ends = sum(m * (m - 1) // 2 for m in (pat.mult_one, pat.mult_minus_one))
    return dim - ends - sum(m * m for _, m in pat.pairs)


def below_adjoint_bound(key, classes) -> bool:
    """Whether classes of SO_2m at p = 0 or odd have dimensions adding up to
    less than dim G + rank, so that no tuple of them generates (the
    adjoint-module bound). False for every other group."""
    family, n, p = key
    if family != "SO" or n % 2 or p == 2:
        return False
    target = class_target(family, n)
    dim, rank = dim_rank(*target)
    return sum(class_dim(*target, c) for c in classes) < dim + rank


def so6_on_natural(cls, p: int) -> tuple[int, bool]:
    """(largest eigenspace, quadratic?) of an SL4 class on the exterior
    square, the natural module of SO6."""
    if cls.kind == "unipotent":
        parts = cls.unip.partition
        return wedge2_blocks(parts), parts == (2, 1, 1) or (parts == (2, 2) and p == 2)
    pat = cls.eigen
    if pat.mult_one or pat.mult_minus_one or pat.pairs or pat.relations:
        raise ValueError("benchmark only sends free-label SL4 patterns to SO6")
    # distinct free labels are independent: lam_i^2 and lam_i*lam_j are all distinct
    mults = [m for _, m in pat.free]
    products = [m * (m - 1) // 2 for m in mults if m > 1]
    products += [a * b for i, a in enumerate(mults) for b in mults[i + 1 :]]
    return max(products), len(products) == 2


# Largest eigenspace on the three 8-dimensional modules, from the paper's
# triality table; shapes not listed are expected to be unsupported.
SPIN8_UNIPOTENT = {
    (3, 3, 1, 1): (4, 4, 4),
    (5, 3): (2, 2, 2),
    (7, 1): (2, 2, 2),
    (3, 1, 1, 1, 1, 1): (6, 4, 4),
    (2, 2, 2, 2): (4, 6, 4),
}
SPIN8_CHAR2_C_TYPE = {(2, 2, 2, 2): (4, 4, 4), (2, 2, 1, 1, 1, 1): (6, 6, 6)}
SPIN8_SEMISIMPLE = {
    (4, 4, ()): (4, 4, 4),
    (6, 0, (1,)): (6, 4, 4),
    (2, 0, (3,)): (3, 4, 4),
    (4, 0, (2,)): (4, 3, 4),
    (4, 0, (1, 1)): (4, 2, 2),
    (0, 0, (2, 2)): (2, 4, 2),
}


def spin8_profile(cls):
    if cls.kind == "unipotent":
        parts = cls.unip.partition
        if cls.unip.decoration is not None:
            if involution_type(cls) == "c":
                return SPIN8_CHAR2_C_TYPE.get(parts)
            return None
        return SPIN8_UNIPOTENT.get(parts)
    pat = cls.eigen
    if pat.free:
        return None
    key = (pat.mult_one, pat.mult_minus_one, tuple(sorted((m for _, m in pat.pairs), reverse=True)))
    return SPIN8_SEMISIMPLE.get(key)


# ---------------------------------------------------------------------------
# expected verdicts
# ---------------------------------------------------------------------------

OPEN_REASONS = ("TableRow", "FamilyTheoremCase", "Generic")


class Expect:
    """What a query must produce.

    ``unsupported`` names the exception class of an expected refusal; else
    ``value`` is the exact answer, or ``None`` when only ``allowed`` (a set of
    reasons) and the properties checked elsewhere constrain it.
    """

    __slots__ = ("value", "allowed", "unsupported", "sum_d")

    def __init__(self, value=None, allowed=None, unsupported=None, sum_d=None):
        self.value = value
        self.allowed = allowed
        self.unsupported = unsupported
        self.sum_d = sum_d


def expected_verdict(key, classes) -> Expect:
    """Expected (empty, reason, case_id) from the three structural rules.

    The dimension obstruction, the Sp fixed-vector rule at p = 2 and the
    quadratic-pair rule are recomputed here from multiplicities and part
    counts; tuples that pass all three may be table rows, family cases or
    generic, which the anchors and the cross-query properties pin down.
    """
    family, n, p = key
    r = len(classes)
    if family == "Spin8":
        profiles = [spin8_profile(c) for c in classes]
        if None in profiles:
            return Expect(unsupported="MissingSpin8Profile")
        for j, module in enumerate((1, 3, 4)):
            if sum(t[j] for t in profiles) > 8 * (r - 1):
                return Expect((True, "DimObstruction", f"module-{module}"))
        if r == 2 and all(is_quadratic(c) for c in classes):
            return Expect((True, "QuadraticPair", "so8"))
        return Expect((False, "Generic", None))
    if family == "SO" and n == 6:
        on_v = [so6_on_natural(c, p) for c in classes]
        sum_d = sum(d for d, _ in on_v)
        if sum_d > 6 * (r - 1):
            return Expect((True, "DimObstruction", None), sum_d=sum_d)
        if r == 2 and all(q for _, q in on_v):
            return Expect((True, "QuadraticPair", "so6"), sum_d=sum_d)
        if sum(natural_profile(c)[0] for c in classes) > 4 * (r - 1):
            return Expect((True, "FamilyTheoremCase", "so6"), sum_d=sum_d)
        return Expect((False, "Generic", None), sum_d=sum_d)
    profiles = [natural_profile(c) for c in classes]
    sum_d = sum(d for d, _ in profiles)
    if sum_d > n * (r - 1):
        return Expect((True, "DimObstruction", None), sum_d=sum_d)
    if family == "Sp" and p == 2 and sum(e for _, e in profiles) >= n * (r - 1):
        return Expect((True, "SpChar2FixedVector", None), sum_d=sum_d)
    if n >= 3 and r == 2 and all(is_quadratic(c) for c in classes):
        return Expect((True, "QuadraticPair", None), sum_d=sum_d)
    return Expect(allowed=OPEN_REASONS, sum_d=sum_d)


def min_generators_bounds(key, cls):
    """(lower, upper) bounds on the minimal generator count, or None when
    the class is expected to be unsupported (uncatalogued Spin8 shape)."""
    family, n, p = key
    if family == "Spin8":
        prof = spin8_profile(cls)
        if prof is None:
            return None
        d, dim = max(prof), 8
    elif family == "SO" and n == 6:
        d, dim = so6_on_natural(cls, p)[0], 6
    else:
        d, dim = natural_profile(cls)[0], n
    lower = 2
    while lower * d > dim * (lower - 1):
        lower += 1
    return lower, dim + 1


# ---------------------------------------------------------------------------
# partitions and the dominance order
# ---------------------------------------------------------------------------


def partitions(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def dominates(a, b) -> bool:
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            return False
    return True


def admissible(family: str, partition) -> bool:
    counts = Counter(partition)
    if family == "Sp":
        return all(c % 2 == 0 for a, c in counts.items() if a % 2)
    if family in ("SO", "Spin8"):
        return all(c % 2 == 0 for a, c in counts.items() if a % 2 == 0)
    return True


def near_equal(n: int, m: int) -> tuple:
    q, s = divmod(n, m)
    return (q + 1,) * s + (q,) * (m - s)


def smallest_with_blocks(key, m):
    """Expected partition of the smallest class with m Jordan blocks, or
    None when no such class is expected (NoSuchClass)."""
    family, n = class_target(key[0], key[1])
    p = key[2]
    n = natural_dim(family, n)
    if not 1 <= m < n:
        return None
    if family == "SL" or p != 2:
        if family in ("SO", "Spin8") and (n - m) % 2:
            return None
        return near_equal(n, m)
    if m % 2:
        return None
    return tuple(sorted(near_equal(n // 2, m // 2) * 2, reverse=True))


def closure_dot(key):
    """(nodes, edges) expected in the DOT poset; edges is None when the
    closure engine is the characteristic-2 rewriting one (only properties
    of its edges are checked)."""
    family, n = class_target(key[0], key[1])
    p = key[2]
    n = natural_dim(family, n)
    if p == 2 and family != "SL":
        nodes = {}
        vchoices = (0, 2) if family in ("SO", "Spin8") else (0, 1, 2)
        for s in range(1, n // 2 + 1):
            for v in vchoices:
                if v > s or (s - v) % 2:
                    continue
                dec = [("V", 2, v), ("W", 2, (s - v) // 2), ("W", 1, (n - 2 * s) // 2)]
                name = "|".join(f"{k}{size}x{m}" for k, size, m in dec if m)
                nodes[name] = (2,) * s + (1,) * (n - 2 * s)
        return nodes, None
    cap = p if p else n
    parts = [pi for pi in partitions(n, cap) if max(pi) > 1 and admissible(family, pi)]
    nodes = {",".join(map(str, pi)): pi for pi in parts}
    edges = set()
    for a in parts:
        for b in parts:
            if a == b or not dominates(a, b):
                continue
            if any(c not in (a, b) and dominates(a, c) and dominates(c, b) for c in parts):
                continue
            edges.add((",".join(map(str, a)), ",".join(map(str, b))))
    return nodes, edges


def parse_dot(text: str):
    nodes, edges = set(), set()
    lines = text.strip().splitlines()
    if not lines or lines[0] != "digraph closure {" or lines[-1] != "}":
        raise ValueError("not a closure digraph")
    for line in lines[1:-1]:
        line = line.strip().rstrip(";")
        if " -> " in line:
            a, b = line.split(" -> ")
            edges.add((a.strip('"'), b.strip('"')))
        else:
            nodes.add(line.strip('"'))
    return nodes, edges


def dot_problem(key, text: str, cache: dict):
    """What is wrong with a DOT closure poset for the group ``key``, or
    None; ``cache`` keeps the expected posets between calls."""
    if key not in cache:
        cache[key] = closure_dot(key)
    want_nodes, want_edges = cache[key]
    nodes, edges = parse_dot(text)
    if nodes != set(want_nodes):
        return f"{key}: DOT nodes {sorted(nodes)} != {sorted(want_nodes)}"
    if want_edges is not None:
        return None if edges == want_edges else f"{key}: DOT edges differ from the dominance Hasse diagram"
    for a, b in edges:
        if a == b or (b, a) in edges or not dominates(want_nodes[a], want_nodes[b]):
            return f"{key}: DOT edge {a} -> {b} breaks Jordan-type dominance"
    return None


# ---------------------------------------------------------------------------
# rs limits and anchor tables
# ---------------------------------------------------------------------------


def rs_limit(family: str, n: int, p: int, r: int, s: int) -> Fraction:
    key = tuple(sorted((r, s)))
    if family == "Sp" and n == 4:
        if key == (2, 3):
            return Fraction(0) if p in (2, 3) else Fraction(1, 2)
        if key == (3, 3):
            if p == 3:
                return Fraction(0)
            return Fraction(1, 2) if p == 2 else Fraction(3, 4)
    return Fraction(1)


def _mi(T, ones, minus):
    return T.semisimple(ones=ones, minus_ones=minus, order=2)


def _lampair(T, m):
    return T.semisimple(pairs=[("l", m)], relations={"l": "square_is_minus_one"}, order=2)


def _invol(T, n, s, v):
    """Characteristic-2 involution with s blocks of size 2, v of them V(2)."""
    dec = []
    if v:
        dec.append({"V": 2, "mult": v})
    if (s - v) // 2:
        dec.append({"W": 2, "mult": (s - v) // 2})
    if n - 2 * s:
        dec.append({"W": 1, "mult": (n - 2 * s) // 2})
    return T.unipotent(decoration=dec, order=2)


def decide_anchors(T):
    """[(key, classes, (empty, reason, case_id))] from the paper's tables."""
    out = []

    def row(key, classes, reason, case):
        out.append((key, classes, (True, reason, case)))
        out.append((key, classes[::-1], (True, reason, case)))

    sspair = lambda ones, m: T.semisimple(ones=ones, pairs=[m])
    for m in (5, 6, 7, 8):
        if m % 2:
            x1s = [sspair(2, m - 1), T.unipotent((3, 3) + (2,) * (m - 3))]
            x2 = T.unipotent((2,) * (m - 1) + (1, 1))
            x2c = T.unipotent(decoration=[{"W": 2, "mult": (m - 1) // 2}, {"W": 1, "mult": 1}], order=2)
        else:
            x1s = [
                sspair(2, m - 1),
                T.unipotent((3, 3) + (2,) * (m - 4) + (1, 1)),
                T.unipotent((3,) + (2,) * (m - 2) + (1,)),
            ]
            x2 = T.unipotent((2,) * m)
            x2c = T.unipotent(decoration=[{"W": 2, "mult": m // 2}], order=2)
        for x1 in x1s:
            row(("SO", 2 * m, 0), [x1, x2], "TableRow", f"SO{2 * m}-r2")
        row(("SO", 2 * m, 2), [sspair(2, m - 1), x2c], "TableRow", f"SO{2 * m}-r2")
        out.append((("SO", 2 * m, 0), [sspair(4, m - 2), x2], (False, "Generic", None)))
    for m in (6, 8):
        x1 = T.unipotent((2,) * m + (1,))
        row(("SO", 2 * m + 1, 0), [x1, T.semisimple(ones=1, pairs=[m])], "TableRow", f"SO{2 * m + 1}-r2")
        out.append(
            (("SO", 2 * m + 1, 0), [x1, T.semisimple(ones=3, pairs=[m - 1])], (False, "Generic", None))
        )
    u221 = T.unipotent((2, 2, 1))
    row(("SO", 5, 0), [u221] * 3, "TableRow", "SO5-r3")
    out.append((("SO", 5, 0), [u221, u221, T.unipotent((3, 1, 1))], (False, "Generic", None)))
    for p in (0, 3, 5):
        row(("Sp", 4, p), [_mi(T, 2, 2), T.semisimple(ones=2, pairs=[1])], "TableRow", "Sp4-r2")
        row(("Sp", 4, p), [_mi(T, 2, 2), _mi(T, 2, 2), _lampair(T, 2)], "TableRow", "Sp4-r3")
        row(("Sp", 4, p), [_mi(T, 2, 2)] * 4, "TableRow", "Sp4-r4")
        row(("Sp", 6, p), [_mi(T, 4, 2)] * 3, "TableRow", "Sp6-r3")
        row(("Sp", 8, p), [_mi(T, 6, 2), _mi(T, 6, 2), _mi(T, 4, 4)], "TableRow", "Sp8-r3")
        row(("Sp", 6, p), [_mi(T, 4, 2), T.semisimple(ones=2, pairs=[2])], "FamilyTheoremCase", "sp6odd-ii")
        row(("Sp", 6, p), [_mi(T, 4, 2), T.unipotent((3, 3))], "FamilyTheoremCase", "sp6odd-ii")
        row(("Sp", 8, p), [_mi(T, 4, 4), T.unipotent((3, 3, 1, 1))], "FamilyTheoremCase", "spodd-ii")
        out.append((("Sp", 4, p), [_mi(T, 2, 2), T.semisimple(pairs=[("a", 1), ("b", 1)])], (False, "Generic", None)))
        out.append((("Sp", 4, p), [_mi(T, 2, 2)] * 3 + [_lampair(T, 2)], (False, "Generic", None)))
        out.append((("Sp", 6, p), [_mi(T, 4, 2), _mi(T, 4, 2), _lampair(T, 3)], (False, "Generic", None)))
        out.append((("Sp", 8, p), [_mi(T, 6, 2), _mi(T, 4, 4), _mi(T, 4, 4)], (False, "Generic", None)))
    a2 = _invol(T, 4, 2, 0)
    c2 = _invol(T, 4, 2, 2)
    row(("Sp", 4, 2), [a2, a2, c2], "TableRow", "Sp4-r3")
    row(("Sp", 4, 2), [a2] * 4, "TableRow", "Sp4-r4")
    out.append((("Sp", 4, 2), [a2, a2, a2, c2], (False, "Generic", None)))
    out.append((("Sp", 4, 2), [a2, a2, T.semisimple(ones=2, pairs=[1], order=3)], (False, "Generic", None)))
    return out


def classdim_anchors(T):
    """[(key, class, dim_class)]: the paper's anchors and hand-derived
    characteristic-2 values."""
    return [
        (("SO", 10, 0), T.unipotent((2, 2, 2, 2, 1, 1)), 20),
        (("SO", 10, 0), T.semisimple(ones=2, pairs=[4]), 28),
        (("SO", 11, 0), T.unipotent((2, 2, 2, 2, 2, 1)), 25),
        (("SO", 11, 0), T.semisimple(ones=1, pairs=[5]), 30),
        (("Sp", 4, 0), T.unipotent((2, 1, 1)), 4),
        (("Sp", 4, 2), _invol(T, 4, 2, 0), 4),
        (("Sp", 6, 2), _invol(T, 6, 2, 2), 10),
        (("Spin8", 8, 2), _invol(T, 8, 2, 2), 12),
        (("SO", 12, 2), _invol(T, 12, 6, 2), 36),
    ]


def min_generators_anchors(T):
    out = [(("Sp", n, 2), _invol(T, n, 1, 1), n + 1) for n in (4, 6, 8)]
    out.append((("Sp", 4, 0), _mi(T, 2, 2), 5))
    out.append((("SL", 5, 0), T.semisimple(free=[(f"l{i}", 1) for i in range(5)]), 2))
    return out


# (key, c, r or None)
C_VALUE_ANCHORS = [(("Sp", 4, 0), 20, 5), (("Sp", 4, 2), 20, None), (("Spin8", 8, 0), 48, 3)]

# (key, r, i, is_p, dim, known defect?): hand-derived maximal class dimensions.
# SL with i = 1: the regular semisimple class of order r wins (dimension
# n^2 - n), but the search aborts on the scalar candidate (CentralClass).
MAX_CLASS_ANCHORS = [
    (("Sp", 4, 0), 2, 1, False, 6, False),
    (("Sp", 6, 0), 2, 1, False, 12, False),
    (("Sp", 8, 0), 2, 1, False, 20, False),
    (("Sp", 4, 2), 2, 1, True, 6, False),
    (("SO", 10, 2), 2, 1, True, 24, False),
    (("Sp", 8, 3), 3, 1, True, 24, False),
    (("SO", 9, 3), 3, 1, True, 24, False),
    (("Sp", 8, 0), 5, 1, False, 28, False),
    (("Sp", 8, 0), 5, 4, False, 28, False),
]
# An SO10 pair below the adjoint-module bound (class dimensions 20 + 28 <
# 45 + 5) that decide answers Generic: (lam I5, lam^-1 I5), lam^2 = -1, and
# (I2, mu I4, mu^-1 I4). No tuple of these classes generates.
def adjoint_defect_pair(T):
    return ("SO", 10, 0), [_lampair(T, 5), T.semisimple(ones=2, pairs=[4])]


MAX_CLASS_DEFECTS = [
    (("SL", 2, 0), 3, 1, False, 2, True),
    (("SL", 3, 0), 3, 1, False, 6, True),
    (("SL", 4, 0), 5, 1, False, 12, True),
]


def closure_anchors(T):
    """[(key, upper, lower, in_closure)] for the characteristic-2 engine."""
    v4 = T.unipotent(decoration=[{"V": 4, "mult": 1}])
    w2 = T.unipotent(decoration=[{"W": 2, "mult": 1}], order=2)
    return [(("Sp", 4, 2), v4, w2, True), (("Sp", 4, 2), w2, v4, False)]


# ---------------------------------------------------------------------------
# brute-force invariant subspace count over a prime field
# ---------------------------------------------------------------------------


def _span_rank(rows, p) -> int:
    rows = [list(r) for r in rows]
    rank, col, ncols = 0, 0, len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def count_invariant_subspaces(g, form, form_kind, k, p):
    """Number of g-invariant totally singular k-subspaces of GF(p)^n, by
    listing every k-subspace once through its reduced echelon basis."""
    n = len(g)
    bil = form
    if form_kind == "quadratic":
        bil = [[(form[i][j] + form[j][i]) % p for j in range(n)] for i in range(n)]

    def b(u, v):
        return sum(u[i] * bil[i][j] * v[j] for i in range(n) for j in range(n)) % p

    def q(v):
        return sum(v[i] * form[i][j] * v[j] for i in range(n) for j in range(n)) % p

    count = 0
    for pivots in combinations(range(n), k):
        free = [(i, c) for i, pc in enumerate(pivots) for c in range(pc + 1, n) if c not in pivots]
        for values in product(range(p), repeat=len(free)):
            basis = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                basis[i][pc] = 1
            for (i, c), x in zip(free, values):
                basis[i][c] = x
            if any(q(u) for u in basis):
                continue
            if any(b(basis[i], basis[j]) for i in range(k) for j in range(i + 1, k)):
                continue
            images = [[sum(g[i][j] * u[j] for j in range(n)) % p for i in range(n)] for u in basis]
            if _span_rank(basis + images, p) == k:
                count += 1
    return count
