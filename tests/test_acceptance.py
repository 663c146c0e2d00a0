"""Acceptance suite: the eleven end-to-end criteria.

Each test times itself against its stated wall-clock budget in addition to
checking exact values.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations, product
from operator import mul

import pytest

from topogen import finfield
from topogen.algebra_core import GroupSpec, semisimple, unipotent
from topogen.closure import dominates, in_closure, enumerate_unipotent_partitions
from topogen.errors import UnsupportedCase
from topogen.invariants import class_dim, grassmannian_fixed_dim
from topogen.oracle import decide, min_generators, scott_lower_bound
from topogen.stabilizers import c_value, enumerate_class_shapes
from topogen import cli
from topogen.algebra_core import validate_class


def mi(ones, minus_ones):
    return semisimple(ones=ones, minus_ones=minus_ones, order=2)


def sspair(ones, m):
    return semisimple(ones=ones, pairs=[m])


def lampair(m):
    return semisimple(
        pairs=[("l", m)], relations={"l": "square_is_minus_one"}, order=2
    )


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.monotonic() - self.t0 < self.limit


# ---------------------------------------------------------------------------
# 1. table conformance
# ---------------------------------------------------------------------------


def _even_orthogonal_rows(m):
    """(x1 options, x2) for the two-class row of SO_{2m}, odd characteristic."""
    if m % 2:
        x1 = [sspair(2, m - 1), unipotent((3, 3) + (2,) * (m - 3))]
        x2 = unipotent((2,) * (m - 1) + (1, 1))
    else:
        x1 = [
            sspair(2, m - 1),
            unipotent((3, 3) + (2,) * (m - 4) + (1, 1)),
            unipotent((3,) + (2,) * (m - 2) + (1,)),
        ]
        x2 = unipotent((2,) * m)
    return x1, x2


def _even_orthogonal_char2_x2(m):
    """The a-type involution variant of the second class at p = 2."""
    if m % 2:
        dec = [{"W": 2, "mult": (m - 1) // 2}, {"W": 1, "mult": 1}]
    else:
        dec = [{"W": 2, "mult": m // 2}]
    return unipotent(decoration=dec, order=2)


class TestCriterion1TableConformance:
    def test_all_rows_and_perturbations(self):
        with Budget(1.0):
            self._so_even_rows()
            self._so_odd_rows()
            self._symplectic_rows()
            self._perturbations()

    def _expect_row(self, group, classes, row):
        for tup in (classes, classes[::-1]):
            v = decide(group, tup)
            assert v.empty, (row, tup)
            assert v.reason == "TableRow" and v.case_id == row, (row, v)

    def _so_even_rows(self):
        for m in (5, 6, 7, 8):
            g = GroupSpec("SO", 2 * m, 0)
            x1_opts, x2 = _even_orthogonal_rows(m)
            for x1 in x1_opts:
                self._expect_row(g, [x1, x2], f"SO{2 * m}-r2")
            # p = 2 variant: a-type involution second class
            g2 = GroupSpec("SO", 2 * m, 2)
            self._expect_row(
                g2, [sspair(2, m - 1), _even_orthogonal_char2_x2(m)], f"SO{2 * m}-r2"
            )

    def _so_odd_rows(self):
        for m in (6, 8):
            g = GroupSpec("SO", 2 * m + 1, 0)
            x1 = unipotent((2,) * m + (1,))
            x2 = semisimple(ones=1, pairs=[m])
            self._expect_row(g, [x1, x2], f"SO{2 * m + 1}-r2")

    def _symplectic_rows(self):
        so5 = GroupSpec("SO", 5, 0)
        self._expect_row(so5, [unipotent((2, 2, 1))] * 3, "SO5-r3")
        sp4 = GroupSpec("Sp", 4, 0)
        self._expect_row(sp4, [mi(2, 2), semisimple(ones=2, pairs=[1])], "Sp4-r2")
        self._expect_row(sp4, [mi(2, 2), mi(2, 2), lampair(2)], "Sp4-r3")
        self._expect_row(sp4, [mi(2, 2)] * 4, "Sp4-r4")
        sp6 = GroupSpec("Sp", 6, 0)
        self._expect_row(sp6, [mi(4, 2)] * 3, "Sp6-r3")
        sp8 = GroupSpec("Sp", 8, 0)
        self._expect_row(sp8, [mi(6, 2), mi(6, 2), mi(4, 4)], "Sp8-r3")
        sp4_2 = GroupSpec("Sp", 4, 2)
        a2 = unipotent(decoration=[{"W": 2, "mult": 1}], order=2)
        c2 = unipotent(decoration=[{"V": 2, "mult": 2}], order=2)
        self._expect_row(sp4_2, [a2, a2, c2], "Sp4-r3")
        self._expect_row(sp4_2, [a2] * 4, "Sp4-r4")

    def _perturbations(self):
        # a nearby admissible non-exceptional shape keeps the tuple generating
        cases = []
        for m in (5, 6, 7, 8):
            g = GroupSpec("SO", 2 * m, 0)
            _, x2 = _even_orthogonal_rows(m)
            cases.append((g, [sspair(4, m - 2), x2]))
            g2 = GroupSpec("SO", 2 * m, 2)
            if m % 2:
                # same Jordan type but c-type decoration
                ctype = unipotent(
                    decoration=[
                        {"V": 2, "mult": 2},
                        {"W": 2, "mult": (m - 3) // 2},
                        {"W": 1, "mult": 1},
                    ],
                    order=2,
                )
                cases.append((g2, [sspair(2, m - 1), ctype]))
            else:
                # perturbed first class against the a-type involution
                cases.append((g2, [sspair(4, m - 2), _even_orthogonal_char2_x2(m)]))
        for m in (6, 8):
            g = GroupSpec("SO", 2 * m + 1, 0)
            cases.append((g, [unipotent((2,) * m + (1,)), semisimple(ones=3, pairs=[m - 1])]))
        cases += [
            (GroupSpec("SO", 5, 0), [unipotent((2, 2, 1))] * 2 + [unipotent((3, 1, 1))]),
            (GroupSpec("Sp", 4, 0), [mi(2, 2), semisimple(pairs=[("a", 1), ("b", 1)])]),
            (GroupSpec("Sp", 4, 0), [mi(2, 2), mi(2, 2), semisimple(pairs=[("a", 1), ("b", 1)])]),
            (GroupSpec("Sp", 4, 0), [mi(2, 2)] * 3 + [lampair(2)]),
            (GroupSpec("Sp", 6, 0), [mi(4, 2), mi(4, 2), lampair(3)]),
            (GroupSpec("Sp", 8, 0), [mi(6, 2), mi(4, 4), mi(4, 4)]),
        ]
        a2 = unipotent(decoration=[{"W": 2, "mult": 1}], order=2)
        c2 = unipotent(decoration=[{"V": 2, "mult": 2}], order=2)
        cases += [
            (GroupSpec("Sp", 4, 2), [a2, a2, semisimple(ones=2, pairs=[1], order=3)]),
            (GroupSpec("Sp", 4, 2), [a2, a2, a2, c2]),
        ]
        for g, tup in cases:
            v = decide(g, tup)
            assert not v.empty, (g, tup, v)


# ---------------------------------------------------------------------------
# 2. family-theorem exceptions outside the tables
# ---------------------------------------------------------------------------


class TestCriterion2FamilyExceptions:
    def test_sp6_and_sp8(self):
        with Budget(1.0):
            sp6 = GroupSpec("Sp", 6, 0)
            for partner in (unipotent((3, 3)), semisimple(ones=2, pairs=[2])):
                v = decide(sp6, [mi(4, 2), partner])
                assert v.empty and v.reason == "FamilyTheoremCase"
                assert v.case_id == "sp6odd-ii"
            sp8 = GroupSpec("Sp", 8, 0)
            v = decide(sp8, [mi(4, 4), unipotent((3, 3, 1, 1))])
            assert v.empty and v.reason == "FamilyTheoremCase"
            assert v.case_id == "spodd-ii"


# ---------------------------------------------------------------------------
# 3. class-dimension anchors
# ---------------------------------------------------------------------------


class TestCriterion3ClassDimensions:
    def test_anchors(self):
        with Budget(1.0):
            anchors = [
                (GroupSpec("SO", 10, 0), unipotent((2, 2, 2, 2, 1, 1)), 20),
                (GroupSpec("SO", 10, 0), sspair(2, 4), 28),
                # evaluated as a formula: (2^5, 1) is auxiliary Jordan data,
                # not an orthogonal class
                (GroupSpec("SO", 11, 0), unipotent((2, 2, 2, 2, 2, 1)), 25),
                (GroupSpec("SO", 11, 0), semisimple(ones=1, pairs=[5]), 30),
                (GroupSpec("Sp", 4, 0), unipotent((2, 1, 1)), 4),
            ]
            for g, cls, want in anchors:
                assert class_dim(g, cls).dim_class == want, (g, cls)


# ---------------------------------------------------------------------------
# 4. induced-block oracle equivalence
# ---------------------------------------------------------------------------


class TestCriterion4InducedBlocks:
    def test_formulas_match_matrices(self):
        with Budget(10.0):
            out = cli._verify_blocks()
            assert out == {"passed": True, "checked": 320}


# ---------------------------------------------------------------------------
# 5. centralizer oracle equivalence
# ---------------------------------------------------------------------------


class TestCriterion5Centralizers:
    def test_centralizer_dims(self):
        with Budget(60.0):
            out = cli._verify_centralizers()
            assert out["passed"], out
            assert out["checked"] > 100


# ---------------------------------------------------------------------------
# 6. c(G) anchors
# ---------------------------------------------------------------------------


class TestCriterion6CValues:
    def test_anchors(self):
        with Budget(60.0):
            cv = c_value(GroupSpec("Sp", 4, 0))
            assert (cv.c, cv.r) == (20, 5)
            pat = cv.witness.eigen
            assert (pat.mult_one, pat.mult_minus_one, pat.pairs) == (2, 2, ())
            assert c_value(GroupSpec("Sp", 4, 2)).c == 20
            cv8 = c_value(GroupSpec("Spin8", 8, 0))
            assert (cv8.c, cv8.r) == (48, 3)


# ---------------------------------------------------------------------------
# 7. minimal generator counts
# ---------------------------------------------------------------------------


class TestCriterion7MinGenerators:
    def test_anchors(self):
        with Budget(5.0):
            for n in (4, 6, 8):
                g = GroupSpec("Sp", n, 2)
                longroot = unipotent(
                    decoration=[{"V": 2, "mult": 1}, {"W": 1, "mult": (n - 2) // 2}],
                    order=2,
                )
                assert min_generators(g, longroot) == n + 1
            assert min_generators(GroupSpec("Sp", 4, 0), mi(2, 2)) == 5
            reg = semisimple(free=[(f"l{i}", 1) for i in range(5)])
            assert min_generators(GroupSpec("SL", 5, 0), reg) == 2


# ---------------------------------------------------------------------------
# 8. PSp4(3) exact zeros
# ---------------------------------------------------------------------------


class TestCriterion8PSp43:
    def test_exact_enumeration(self):
        with Budget(600.0):
            order, _ = finfield.group_closure(finfield.standard_generators("Sp", 4, 3))
            assert order == finfield.group_order("Sp", 4, 3) == 51840
            assert finfield.projective_order("Sp", 4, 3) == 25920
            assert finfield.exact_generation_probability(("Sp", 4, 3), 2, 3) == 0
            assert finfield.exact_generation_probability(("Sp", 4, 3), 3, 3) == 0


# ---------------------------------------------------------------------------
# 9. Monte Carlo sanity on PSL2(q)
# ---------------------------------------------------------------------------


class TestCriterion9MonteCarlo:
    def test_psl2_against_exhaustive(self):
        with Budget(60.0):
            want = {5: Fraction(2, 5), 7: Fraction(2, 7), 9: Fraction(0)}
            for q, expected in want.items():
                exact = finfield.exact_generation_probability(("SL", 2, q), 2, 3)
                assert exact == expected, (q, exact)
                hits, trials = finfield.estimate_generation_probability(
                    ("SL", 2, q), 2, 3, trials=10**4, seed=1
                )
                tol = 3 * math.sqrt(float(exact) * (1 - float(exact)) / trials)
                assert abs(hits / trials - float(exact)) <= tol, (q, hits)


# ---------------------------------------------------------------------------
# 10. property suites
# ---------------------------------------------------------------------------


def _catalog_groups():
    groups = []
    for p in (0, 2, 3):
        for n in (2, 3, 4, 5):
            groups.append(GroupSpec("SL", n, p))
        for n in (4, 6, 8, 10):
            groups.append(GroupSpec("Sp", n, p))
        groups.append(GroupSpec("Spin8", 8, p))
        for n in (6, 10):
            groups.append(GroupSpec("SO", n, p))
    for p in (0, 3):
        for n in (5, 7, 9):
            groups.append(GroupSpec("SO", n, p))
    return groups


class TestCriterion10Properties:
    def test_oracle_and_closure_properties(self):
        with Budget(300.0):
            self._oracle_properties()
            self._closure_laws()
            self._closure_vs_dominance()

    def _oracle_properties(self):
        for g in _catalog_groups():
            shapes = enumerate_class_shapes(g)
            usable = []
            for c in shapes:
                try:
                    decide(g, [c, c])
                except UnsupportedCase:
                    continue
                usable.append(c)
            # monotonicity in r, Scott consistency, r >= 5 reasons
            scott_ok = g.p != 2 or g.family == "SL"
            for c in usable:
                verdicts = [decide(g, [c] * r) for r in range(2, 6)]
                empties = [v.empty for v in verdicts]
                for i in range(len(empties) - 1):
                    assert not (not empties[i] and empties[i + 1]), (g, c)
                assert verdicts[-1].reason in (
                    "DimObstruction",
                    "SpChar2FixedVector",
                    "Generic",
                ), (g, c, verdicts[-1])
                if scott_ok:
                    for r, v in zip(range(2, 6), verdicts):
                        if not v.empty:
                            holds, lhs, rhs = scott_lower_bound(g, [c] * r)
                            assert holds, (g, c, r, lhs, rhs)
            # permutation invariance on mixed pairs and triples
            for i, a in enumerate(usable):
                for b in usable[i + 1 :]:
                    try:
                        v1 = decide(g, [a, b])
                        v2 = decide(g, [b, a])
                    except UnsupportedCase:
                        continue
                    assert (v1.empty, v1.reason, v1.case_id) == (
                        v2.empty,
                        v2.reason,
                        v2.case_id,
                    ), (g, a, b)

    def _closure_laws(self):
        rng = random.Random(20260824)

        def rand_partition(n):
            parts = []
            while n:
                a = rng.randint(1, n)
                parts.append(a)
                n -= a
            return tuple(sorted(parts, reverse=True))

        for _ in range(10**4):
            n = rng.randint(4, 12)
            a, b, c = (rand_partition(n) for _ in range(3))
            assert dominates(a, a)
            if dominates(a, b) and dominates(b, a):
                assert a == b
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)

    def _closure_vs_dominance(self):
        g = GroupSpec("Sp", 6, 3)
        parts = enumerate_unipotent_partitions(g)
        classes = [validate_class(g, unipotent(partition=pi)) for pi in parts]
        for a in classes:
            for b in classes:
                assert in_closure(g, a, b) == dominates(
                    a.unip.partition, b.unip.partition
                )


# ---------------------------------------------------------------------------
# 11. Grassmannian spot check over GF(2) and GF(3)
# ---------------------------------------------------------------------------


def _singular_subspaces(m, k):
    """(all, invariant): the numbers of totally singular k-subspaces of
    GF(p)^n for the quadratic form v^T X v of ``m.form``, p prime, and of
    those that ``m`` maps into themselves. Each subspace is listed once, by
    its reduced echelon basis, row by row; the rows chosen so far are
    singular and pairwise orthogonal."""
    p, n, g, X = m.field.p, m.n, m.entries, m.form
    pol = [[(X[i][j] + X[j][i]) % p for j in range(n)] for i in range(n)]
    counts = [0, 0]

    def extend(chosen, pivots, rows):
        if not rows:
            counts[0] += 1
            for _, _, image in chosen:
                # reduce the image against the echelon basis
                for (v, _, _), pc in zip(chosen, pivots):
                    image = [(a - image[pc] * b) % p for a, b in zip(image, v)]
                if any(image):
                    return
            counts[1] += 1
            return
        for row in rows[0]:
            later = [[c for c in cands if sum(map(mul, c[0], row[1])) % p == 0] for cands in rows[1:]]
            extend(chosen + [row], pivots, later)

    for pivots in combinations(range(n), k):
        rows = []
        for pc in pivots:
            free = [c for c in range(pc + 1, n) if c not in pivots]
            cands = []
            for values in product(range(p), repeat=len(free)):
                v = [0] * n
                v[pc] = 1
                for c, x in zip(free, values):
                    v[c] = x
                if sum(v[i] * X[i][j] * v[j] for i in range(n) for j in range(n)) % p == 0:
                    polar = [sum(map(mul, r, v)) % p for r in pol]
                    cands.append((v, polar, [sum(map(mul, r, v)) % p for r in g]))
            rows.append(cands)
        extend([], pivots, rows)
    return tuple(counts)


class TestCriterion11GrassmannianCount:
    def test_so9_singular_four_spaces(self):
        with Budget(600.0):
            counts = {}
            for q in (2, 3):
                m = finfield.unipotent_matrix((2, 2, 2, 2, 1), q, "symmetric")
                counts[q] = finfield.invariant_subspace_count(m, 4, "totally_singular")
                # every maximal totally singular subspace of GF(q)^9, listed
                # independently: there are (q + 1)(q^2 + 1)(q^3 + 1)(q^4 + 1)
                total, invariant = _singular_subspaces(m, 4)
                assert total == math.prod(q**i + 1 for i in range(1, 5))
                assert counts[q] == invariant
            assert counts == {2: 39, 3: 1201}
            # consistent with the catalogued fixed-point dimension
            g = GroupSpec("SO", 9, 0)
            c = validate_class(g, unipotent(partition=(2, 2, 2, 2, 1)))
            assert grassmannian_fixed_dim(g, c, 4) == 6
