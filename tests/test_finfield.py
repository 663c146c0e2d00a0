"""Unit tests for the finite-field verification layer."""

import hashlib
import math
import operator
import random
import time
import tracemalloc
import types
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, product
from itertools import count as itertools_count
from math import gcd

import pytest

from topogen import finfield, oracle
from topogen.algebra_core import GroupSpec, conjugate_partition, is_prime, semisimple, unipotent, validate_class
from topogen.closure import _partitions
from topogen.errors import (
    EnumerationTooLarge,
    GroupTooLarge,
    NonSplit,
    NotApplicable,
    SchemaError,
    Uninstantiable,
    UnsupportedCase,
    UnsupportedGroup,
)
from topogen.finfield import (
    Field,
    GFMatrix,
    centralizer_lie_dim,
    fixed_space_dim,
    group_closure,
    group_order,
    induced_matrix,
    invariant_subspace_count,
    jordan_type,
    kron,
    matrix_from_class,
    projective_order,
    standard_generators,
    unipotent_matrix,
)
from topogen.invariants import _natural_profile
from topogen.stabilizers import enumerate_class_shapes


class TestField:
    def test_prime_field(self):
        F = Field(5)
        assert F.mul(3, 4) == 2
        assert F.inv(2) == 3
        assert F.element_order(2) == 4

    def test_extension_field(self):
        F = Field(9)
        assert len(F.elements()) == 9
        # multiplicative group is cyclic of order 8
        orders = {F.element_order(a) for a in F.elements() if a != F.zero}
        assert max(orders) == 8

    def test_element_of_order(self):
        F = Field(7)
        a = F.element_of_order(3)
        assert F.element_order(a) == 3
        assert F.element_of_order(5) is None  # 5 does not divide 6
        assert F.element_of_order(0) is None

    def test_element_of_order_is_the_least(self):
        # the first element of each order in elements(), found by listing
        for q in (7, 8, 9, 16, 25, 27, 49):
            F = finfield._field(q)
            for r in range(1, q + 1):
                want = next((a for a in F.elements() if a and F.element_order(a) == r), None)
                assert F.element_of_order(r) == want, (q, r)

    @pytest.mark.parametrize("q", [5, 4])
    def test_pow_is_repeated_multiplication(self, q):
        # zero included: 0^0 = 1 and 0^e = 0 for e > 0
        F = Field(q)
        for a in F.elements():
            x = F.one
            for e in range(2 * q):
                assert F.pow(a, e) == x, (a, e)
                x = F.mul(x, a)

    def test_non_prime_power_rejected(self):
        with pytest.raises(SchemaError):
            Field(6)

    def test_prime_power_factoring(self):
        # trial division up to sqrt(q), against the definition
        def by_definition(q):
            return next(
                ((p, k) for p in range(2, q + 1) if is_prime(p) for k in range(1, q.bit_length()) if p**k == q),
                None,
            )

        for q in range(-2, 1100):
            want = by_definition(q) if q > 1 else None
            if want is None:
                with pytest.raises(SchemaError):
                    finfield._factor_prime_power(q)
            else:
                assert finfield._factor_prime_power(q) == want, q

    @pytest.mark.parametrize("q", [finfield.MAX_FIELD_ORDER + 1, 1000003, 10**9 + 7, 2**61 - 1])
    def test_order_cap(self, q):
        # refused before the order is factored or the elements are listed
        with pytest.raises(SchemaError, match="refused"):
            finfield._field(q)

    def test_largest_field(self):
        F = Field(finfield.MAX_FIELD_ORDER)
        assert (F.p, F.k, len(F.elements())) == (2, 16, 2**16)

    def test_oversized_matrix_rejected(self, monkeypatch):
        # MAX_DIM bounds the digits of sums of products; past it they carry
        monkeypatch.setattr(finfield, "MAX_DIM", 2)
        with pytest.raises(SchemaError):
            GFMatrix(5, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(SchemaError, match="matrix must be square"):
            GFMatrix(5, ((1, 0, 0), (0, 1, 0)))

    @pytest.mark.parametrize("x", [(1, 2, 3), "x"])
    def test_coerce_refusals(self, x):
        # GF(9) takes two coefficients, each an integer
        with pytest.raises(SchemaError, match="cannot coerce"):
            Field(9).coerce(x)

    def test_zero_refusals(self):
        F = Field(5)
        with pytest.raises(ZeroDivisionError):
            F.inv(0)
        with pytest.raises(ZeroDivisionError):
            F.pow(0, -1)
        with pytest.raises(SchemaError, match="zero has no multiplicative order"):
            F.element_order(0)


EXTENSION_FIELDS = [4, 8, 9, 16]


class TestExtensionFields:
    @pytest.mark.parametrize("q", EXTENSION_FIELDS)
    def test_inverses_and_distributivity(self, q):
        F = Field(q)
        elems = F.elements()
        assert len(set(elems)) == q
        for a in elems:
            if a != F.zero:
                assert F.mul(a, F.inv(a)) == F.one
            for b in elems:
                for c in elems:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))

    @pytest.mark.parametrize("q", EXTENSION_FIELDS)
    def test_matrix_inverse_round_trip(self, q):
        F = finfield._field(q)
        elems = F.elements()
        rng = random.Random(q)
        identity = finfield._identity(F, 3)
        found = 0
        while found < 10:
            A = tuple(tuple(rng.choice(elems) for _ in range(3)) for _ in range(3))
            if finfield._rank(F, A) < 3:
                continue
            Ainv = finfield._mat_inv(F, A)
            assert finfield._mat_mul(F, A, Ainv) == identity
            assert finfield._mat_mul(F, Ainv, A) == identity
            found += 1

    @pytest.mark.parametrize("q", [4, 8, 9])
    def test_sl2_closure_matches_order(self, q):
        size, truncated = group_closure(standard_generators("SL", 2, q))
        assert (size, truncated) == (group_order("SL", 2, q), False)

    def test_exact_probabilities(self):
        # PSL2(4) = A5 and PSL2(9) = A6, which is not (2, 3)-generated
        assert finfield.exact_generation_probability(("SL", 2, 4), 2, 3) == Fraction(2, 5)
        assert finfield.exact_generation_probability(("SL", 2, 9), 2, 3) == 0


def _row_space_size(F, rows):
    """The number of vectors in the span of the rows, listed one by one."""
    span = {(F.zero,) * len(rows[0])}
    for row in rows:
        span = {tuple(map(F.add, s, (F.mul(c, x) for x in row))) for s in span for c in F.elements()}
    return len(span)


def _random_matrix(F, rng, nrows, ncols, rank):
    """A random nrows x ncols matrix of rank at most ``rank``: the product of
    random nrows x rank and rank x ncols matrices."""
    elems = F.elements()
    B = tuple(tuple(rng.choice(elems) for _ in range(rank)) for _ in range(nrows))
    C = tuple(tuple(rng.choice(elems) for _ in range(ncols)) for _ in range(rank))
    return _product(F, B, C)


class TestEchelonKernel:
    """``_rank``, ``_nullspace`` and ``_mat_inv``, which read the one sparse
    reduced echelon form, against the field's own arithmetic."""

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_rank_and_nullspace(self, q):
        F = finfield._field(q)
        rng = random.Random(q)
        for _ in range(12):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
            A = _random_matrix(F, rng, nrows, ncols, rng.randint(1, 4))
            rank = finfield._rank(F, A)
            assert q**rank == _row_space_size(F, A), A
            assert rank == finfield._rank(F, tuple(zip(*A)))
            # sparse rows give the same answers as dense ones
            sparse = [{j: x for j, x in enumerate(row) if x} for row in A]
            basis = finfield._nullspace(F, A, ncols)
            assert basis == finfield._nullspace(F, sparse, ncols)
            assert rank + len(basis) == ncols
            for v in basis:
                assert _product(F, A, tuple((x,) for x in v)) == tuple((F.zero,) for _ in A)
            if basis:
                assert finfield._rank(F, basis) == len(basis)

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_inverse(self, q):
        F = finfield._field(q)
        rng = random.Random(q)
        for _ in range(20):
            n = rng.randint(1, 4)
            A = _random_matrix(F, rng, n, n, n)
            if _row_space_size(F, A) < q**n:
                with pytest.raises(ZeroDivisionError):
                    finfield._mat_inv(F, A)
                continue
            assert _product(F, A, finfield._mat_inv(F, A)) == _scalar(F, F.one, n)
        with pytest.raises(ZeroDivisionError):
            finfield._mat_inv(F, ((F.one, F.one), (F.one, F.one)))


class TestJordanType:
    def test_diagonalizable(self):
        m = GFMatrix(5, ((2, 0), (0, 3)))
        jt = jordan_type(m)
        assert jt == {2: (1,), 3: (1,)}

    def test_nilpotent_blocks(self):
        F = finfield._field(5)
        m = GFMatrix(
            5, finfield._block_diag(F, [finfield._jordan_block(F, 3, F.one), finfield._jordan_block(F, 1, F.one)])
        )
        assert jordan_type(m) == {1: (3, 1)}

    def test_nonsplit_detected(self):
        # x^2 + 1 is irreducible over GF(3)
        m = GFMatrix(3, ((0, 2), (1, 0)))
        with pytest.raises(NonSplit):
            jordan_type(m)

    def test_restricted_eigenvalue_scan_skips_nonsplit(self):
        F = finfield._field(3)
        m = GFMatrix(3, ((0, 2), (1, 0)))
        assert jordan_type(m, eigenvalues=[F.one]) == {}

    def test_fixed_space(self):
        F = finfield._field(7)
        m = GFMatrix(7, finfield._jordan_block(F, 4, F.one))
        assert fixed_space_dim(m) == 1


class TestInducedMatrices:
    def test_wedge2_of_j5(self):
        F = finfield._field(7)
        m = GFMatrix(7, finfield._jordan_block(F, 5, F.one))
        w = induced_matrix(m, "wedge2")
        assert w.n == 10
        assert len(jordan_type(w, eigenvalues=[F.one])[F.one]) == 2

    def test_sym2_of_j4_char2(self):
        F = finfield._field(2)
        m = GFMatrix(2, finfield._jordan_block(F, 4, F.one))
        s = induced_matrix(m, "sym2")
        assert len(jordan_type(s, eigenvalues=[F.one])[F.one]) == 3

    def test_kron_of_jordan_blocks(self):
        F = finfield._field(3)
        a = GFMatrix(3, finfield._jordan_block(F, 2, F.one))
        t = kron(a, a)
        assert len(jordan_type(t, eigenvalues=[F.one])[F.one]) == 2

    @pytest.mark.parametrize("functor", ["sym2", "wedge2"])
    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_entries_are_coefficients_of_the_product(self, q, functor):
        # entry ((k, l), (i, j)) is the coefficient of e_k e_l, or of
        # e_k ^ e_l, in g(e_i) g(e_j) = sum_{a,b} g_ai g_bj e_a e_b, expanded
        # term by term, with e_b ^ e_a = -(e_a ^ e_b)
        F = finfield._field(q)
        rng = random.Random(q)
        elems = F.elements()
        wedge = functor == "wedge2"
        for n in (1, 2, 3, 3, 4, 4, 5, 5):
            g = [[rng.choice(elems) for _ in range(n)] for _ in range(n)]
            basis = [(i, j) for i in range(n) for j in range(i + wedge, n)]
            want = []
            for k, l in basis:
                row = []
                for i, j in basis:
                    c = F.zero
                    for a, b in product(range(n), repeat=2):
                        if (min(a, b), max(a, b)) == (k, l):
                            term = F.mul(g[a][i], g[b][j])
                            c = F.sub(c, term) if wedge and a > b else F.add(c, term)
                    row.append(c)
                want.append(tuple(row))
            assert induced_matrix(GFMatrix(q, g), functor).entries == tuple(want), (n, g)

    def test_unknown_functor_refused(self):
        with pytest.raises(NotApplicable, match="unknown functor"):
            induced_matrix(GFMatrix(3, ((1, 0), (0, 1))), "sym3")

    def test_kron_over_different_fields_refused(self):
        with pytest.raises(SchemaError, match="same field"):
            kron(GFMatrix(3, ((1, 0), (0, 1))), GFMatrix(5, ((1, 0), (0, 1))))


class TestMatrixFromClass:
    def test_unipotent_symplectic(self):
        g = GroupSpec("Sp", 4, 3)
        c = validate_class(g, unipotent(partition=(2, 1, 1)))
        m = matrix_from_class(g, c, 3)
        assert m.form_kind == "symplectic"
        assert jordan_type(m) == {1: (2, 1, 1)}

    def test_semisimple_involution(self):
        g = GroupSpec("Sp", 4, 0)
        c = validate_class(g, semisimple(ones=2, minus_ones=2, order=2))
        m = matrix_from_class(g, c, 5)
        jt = jordan_type(m)
        assert sorted(sum(v) for v in jt.values()) == [2, 2]

    def test_order_label_needs_root_of_unity(self):
        g = GroupSpec("Sp", 4, 0)
        c = validate_class(
            g, semisimple(pairs=[("a", 2)], relations={"a": "order:5"}, order=5)
        )
        with pytest.raises(Uninstantiable):
            matrix_from_class(g, c, 3)  # 5 does not divide 3 - 1 or 3 + 1
        m = matrix_from_class(g, c, 11)
        assert m.form_kind == "symplectic"

    def test_composite_order_tags_get_elements_of_that_order(self):
        # the second label of order 10 over GF(11) is a power of the first
        # that keeps order 10 (7 or 8 for the first label 2), not 2^2 = 4,
        # of order 5
        g = GroupSpec("Sp", 4, 0)
        c = validate_class(
            g, semisimple(pairs=[("a", 1), ("b", 1)], relations={"a": "order:10", "b": "order:10"}, order=5)
        )
        F = finfield._field(11)
        eigenvalues = jordan_type(matrix_from_class(g, c, 11))
        assert len(eigenvalues) == 4
        assert all(F.element_order(a) == 10 for a in eigenvalues)

    def test_too_few_elements_of_a_composite_order(self):
        # GF(7) has one inverse pair of elements of order 6 (3 and 5), and
        # 3^2 = 2 has order 3
        g = GroupSpec("Sp", 4, 0)
        c = validate_class(
            g, semisimple(pairs=[("a", 1), ("b", 1)], relations={"a": "order:6", "b": "order:6"}, order=3)
        )
        with pytest.raises(Uninstantiable, match="not enough roots of unity"):
            matrix_from_class(g, c, 7)

    def test_sl_free_eigenvalues_have_determinant_one(self):
        g = GroupSpec("SL", 3, 0)
        m = matrix_from_class(g, semisimple(ones=1, free=[("a", 1), ("b", 1)]), 7)
        assert jordan_type(m) == {1: (1,), 2: (1,), 4: (1,)}
        # (a, a, a^-2) with a = 2 would repeat a; a = 3 gives 3 * 3 * 4 = 1
        m = matrix_from_class(g, semisimple(free=[2, 1]), 7)
        assert jordan_type(m) == {3: (1, 1), 4: (1,)}
        # the last label keeps its order tag: 4 * 10 = 1 over GF(13), both of order 6
        c = semisimple(free=[("a", 1), ("b", 1)], relations={"a": "order:6", "b": "order:6"}, order=3)
        F = finfield._field(13)
        eigenvalues = jordan_type(matrix_from_class(GroupSpec("SL", 2, 0), c, 13))
        assert sorted(eigenvalues) == [4, 10] and all(F.element_order(a) == 6 for a in eigenvalues)
        # a pair's inverse is an eigenvalue too: over GF(7), a = 2 and b = 3
        # leave c = 3^-2 = 4 = a^-1, which would merge two eigenspaces
        g = GroupSpec("SL", 5, 0)
        c = semisimple(pairs=[("a", 1)], free=[("b", 2), ("c", 1)])
        with pytest.raises(Uninstantiable):
            matrix_from_class(g, c, 7)
        # over GF(11): a = 2, a^-1 = 6, b = 3 and c = 3^-2 = 5
        assert jordan_type(matrix_from_class(g, c, 11)) == {2: (1,), 6: (1,), 3: (1, 1), 5: (1,)}
        # no free label and determinant -1: diag(1, 1, -1) is scaled by -1
        c = semisimple(ones=2, minus_ones=1, order=2)
        assert jordan_type(matrix_from_class(GroupSpec("SL", 3, 0), c, 7)) == {6: (1, 1), 1: (1,)}
        # diag(1, -1) would need a scalar c with c^2 = -1, and GF(7) has none
        with pytest.raises(Uninstantiable):
            matrix_from_class(GroupSpec("SL", 2, 0), semisimple(ones=1, minus_ones=1, order=2), 7)

    @pytest.mark.parametrize("q", [7, 11, 13])
    def test_sl_shapes_lie_in_sl(self, q):
        # every semisimple shape of SL2-5 is refused or instantiated with
        # determinant 1 and the multiplicities of its pattern
        F = finfield._field(q)
        built = 0
        for n in range(2, 6):
            g = GroupSpec("SL", n, 0)
            for cls in enumerate_class_shapes(g, {"kind": "semisimple"}):
                try:
                    m = matrix_from_class(g, cls, q)
                except Uninstantiable:
                    continue
                jt = jordan_type(m)
                det = F.one
                for lam, blocks in jt.items():
                    det = F.mul(det, F.pow(lam, sum(blocks)))
                assert det == F.one, (n, cls)
                assert all(set(blocks) == {1} for blocks in jt.values())
                assert sorted(sum(blocks) for blocks in jt.values()) == sorted(cls.eigen.mults())
                built += 1
        assert built

    def test_order_zero_label_rejected(self):
        g = GroupSpec("Sp", 4, 0)
        c = semisimple(pairs=[("a", 2)], relations={"a": "order:0"})
        with pytest.raises(SchemaError):
            matrix_from_class(g, c, 5)

    def test_quadratic_form_at_char2(self):
        g = GroupSpec("SO", 10, 2)
        c = validate_class(
            g,
            unipotent(
                decoration=[{"W": 2, "mult": 2}, {"W": 1, "mult": 1}], order=2
            ),
        )
        m = matrix_from_class(g, c, 2)
        assert m.form_kind == "quadratic"

    @pytest.mark.parametrize("family,n", [("SO", 10), ("Spin8", 8)])
    def test_quadratic_forms_of_every_shape_at_char2(self, family, n):
        g = GroupSpec(family, n, 2)
        F = finfield._field(2)
        vectors = [[(x >> i) & 1 for i in range(n)] for x in range(2**n)]
        built = 0
        for cls in enumerate_class_shapes(g):
            try:
                m = matrix_from_class(g, cls, 2)
            except Uninstantiable:
                # GF(2) has no eigenvalue besides 1
                assert cls.kind == "semisimple"
                continue
            built += 1
            g_, X = m.entries, m.form
            assert m.form_kind == "quadratic"
            assert all(X[i][j] == 0 for i in range(n) for j in range(i))

            def Q(v):
                return sum(X[i][j] * v[i] * v[j] for i in range(n) for j in range(i, n)) % 2

            for v in vectors:
                gv = [sum(g_[i][j] * v[j] for j in range(n)) % 2 for i in range(n)]
                assert Q(gv) == Q(v), (cls, v)
            polarization = [[(X[i][j] + X[j][i]) % 2 for j in range(n)] for i in range(n)]
            assert finfield._rank(F, polarization) == n
        assert built

    def test_models_unchanged(self):
        # for every shape of enumerate_class_shapes, by kind: its
        # (entries, form, form_kind), or the name of the UnsupportedCase
        # raised; (count, sha256 of the repr of the list, first 16 hex
        # digits). The unipotent digests are those of the forms that
        # invariant_form_matrix found for semisimple and unipotent classes
        # alike, before semisimple classes carried the standard form; every
        # semisimple form is the standard one of the group's kind
        digests = {
            ("Sp", 4, 3): ((2, "0af9758387ccba87"), (5, "b7aa49c428752711")),
            ("Sp", 4, 5): ((3, "1eb0b52f019a046d"), (5, "301b88b3e7be3562")),
            ("Sp", 6, 3): ((4, "7ed0baccd6b14a6b"), (9, "6900db9fed488150")),
            ("Sp", 6, 5): ((6, "72ab57b3ba774f69"), (9, "9bbde2ff049e0c6b")),
            ("SO", 7, 3): ((4, "96bb82782f9f7292"), (9, "6a34b877d28d9314")),
            ("SO", 7, 5): ((5, "1aee3495296ba51c"), (9, "7c7da731be0dd4e4")),
            ("Spin8", 8, 3): ((5, "c9cd33311d0ed461"), (15, "fca940dd7ced602e")),
            ("Spin8", 8, 5): ((8, "c3d6c699517b8304"), (15, "1e7795955ca6f4e4")),
        }
        for (family, n, q), digest in digests.items():
            group = GroupSpec(family, n, q)
            standard = finfield._standard_form(finfield._field(q), n, finfield._FORM_KIND[family])
            models = {"unipotent": [], "semisimple": []}
            for cls in enumerate_class_shapes(group):
                try:
                    m = matrix_from_class(group, cls, q)
                except UnsupportedCase as exc:
                    models[cls.kind].append(type(exc).__name__)
                    continue
                if cls.kind == "semisimple":
                    assert m.form == standard, (family, n, q, cls)
                models[cls.kind].append((m.entries, m.form, m.form_kind))
            got = tuple((len(x), _digest(x)) for x in models.values())
            assert got == digest, (family, n, q)

    @pytest.mark.parametrize("q", [3, 5])
    def test_semisimple_classes_lie_in_the_generators_group(self, q):
        # every semisimple model of Sp4 carries the form of the standard
        # generators, and adding it to them leaves Sp4(q)
        group = GroupSpec("Sp", 4, q)
        gens = standard_generators("Sp", 4, q)
        built = 0
        for cls in enumerate_class_shapes(group, {"kind": "semisimple"}):
            try:
                m = matrix_from_class(group, cls, q)
            except Uninstantiable:
                continue
            assert m.form == gens[0].form, cls
            assert group_closure(gens + [m], cap=10**10) == (group_order("Sp", 4, q), False), cls
            built += 1
        assert built

    def test_semisimple_forms_need_no_search(self, monkeypatch):
        def search(*args):
            raise AssertionError("invariant form searched for")

        monkeypatch.setattr(finfield, "invariant_form_matrix", search)
        groups = [("Sp", 4), ("Sp", 6), ("Sp", 8), ("SO", 7), ("SO", 9), ("SO", 10), ("Spin8", 8)]
        cases = [(f, n, q) for f, n in groups for q in (3, 5)]
        cases += [(f, n, q) for f, n in (("SO", 10), ("Spin8", 8)) for q in (2, 4)]
        for family, n, q in cases:
            group = GroupSpec(family, n, finfield._field(q).p)
            built = 0
            for cls in enumerate_class_shapes(group, {"kind": "semisimple"}):
                try:
                    m = matrix_from_class(group, cls, q)
                except Uninstantiable:
                    continue
                assert m.form_kind == ("quadratic" if q % 2 == 0 else finfield._FORM_KIND[family])
                built += 1
            # GF(2) has no eigenvalue besides 1
            assert built or q == 2, (family, n, q)

    def test_one_unipotent_builder(self):
        # matrix_from_class reads every unipotent model, with its form, off
        # unipotent_matrix; the builder that tagged a matrix with a form is gone
        assert not hasattr(finfield, "_with_form")
        for family, n, q in (("SL", 4, 3), ("Sp", 6, 3), ("SO", 7, 5), ("SO", 10, 2), ("Spin8", 8, 4)):
            group = GroupSpec(family, n, finfield._field(q).p)
            for cls in enumerate_class_shapes(group, {"kind": "unipotent"}):
                try:
                    m = matrix_from_class(group, cls, q)
                except Uninstantiable:
                    m = None
                try:
                    want = unipotent_matrix(cls.unip.partition, q, finfield._FORM_KIND[family])
                except Uninstantiable:
                    want = None
                assert (m and (m.entries, m.form, m.form_kind)) == (want and (want.entries, want.form, want.form_kind))

    def test_jordan_blocks_larger_than_p(self):
        # a class of SL3 in characteristic 0 has no order-p model of a 3-block over GF(2)
        g = GroupSpec("SL", 3, 0)
        with pytest.raises(Uninstantiable, match="Jordan blocks larger than p have composite order"):
            matrix_from_class(g, unipotent(partition=(3,)), 2)

    @pytest.mark.parametrize("q", [7, 11])
    def test_labels_are_the_first_distinct_assignment(self, q):
        # the labels of every semisimple shape of SL2-5 are the first
        # assignment, in the order of the product of the field's elements,
        # of eigenvalues distinct from each other, from 0 and from +-1, a
        # pair label's inverse included, with determinant 1 when a label is
        # free; found here by listing the product. Over GF(11) the greedy
        # pass refused the regular class of SL3, though 2 * 4 * 7 = 1
        F = finfield._field(q)
        minus = F.neg(F.one)
        for n in range(2, 6):
            for cls in enumerate_class_shapes(GroupSpec("SL", n, 0), {"kind": "semisimple"}):
                pat = cls.eigen
                labels = pat.pairs + pat.free
                want = None
                for values in product(F.elements()[1:], repeat=len(labels)):
                    eigen = [F.one, minus, *values, *map(F.inv, values[: len(pat.pairs)])]
                    det = F.pow(minus, pat.mult_minus_one)
                    for a, (_, mult) in list(zip(values, labels))[len(pat.pairs) :]:
                        det = F.mul(det, F.pow(a, mult))
                    if len(set(eigen)) == len(eigen) and (det == F.one or not pat.free):
                        want = {lab: a for (lab, _), a in zip(labels, values)}
                        break
                try:
                    got = finfield._assign_labels(F, pat)
                except Uninstantiable:
                    got = None
                assert got == want, cls
        m = matrix_from_class(GroupSpec("SL", 3, 0), semisimple(free=[1, 1, 1]), 11)
        assert jordan_type(m) == {2: (1,), 4: (1,), 7: (1,)}

    def test_label_search_is_capped(self, monkeypatch):
        # the regular class of SL3 over GF(11) needs a third try: 2 for the
        # first label, then 3 and 4 for the second
        monkeypatch.setattr(finfield, "_MAX_LABEL_TRIES", 2)
        with pytest.raises(Uninstantiable, match="no distinct eigenvalues found in 2 tries"):
            matrix_from_class(GroupSpec("SL", 3, 0), semisimple(free=[1, 1, 1]), 11)

    def test_wrong_characteristic_rejected(self):
        g = GroupSpec("Sp", 4, 3)
        c = validate_class(g, unipotent(partition=(2, 2)))
        with pytest.raises(Uninstantiable):
            matrix_from_class(g, c, 5)


def _centralizer_by_n2_system(group, m) -> int:
    """The Lie centraliser as the n^2-unknown system that centralizer_lie_dim
    solved before it read fixed spaces on S^2 V and the exterior square:
    Xg = gX, with X^T J + J X = 0 (J the polarization of m's form) for Sp
    and SO, trace X = 0 for SL."""
    F, n, g = m.field, m.n, m.entries
    red, P = F.red, F._p_digits
    rows = []
    if group.class_group().family == "SL":
        rows.append({i * n + i: F.one for i in range(n)})
    else:
        J = finfield._polarization(F, m.form, m.form_kind)
        J_rows = [{j: x for j, x in enumerate(row) if x} for row in J]
        J_cols = [{i: x for i, x in enumerate(col) if x} for col in zip(*J)]
        # (X^T J + J X)_{kl} = sum_i X_{ik} J_{il} + sum_j J_{kj} X_{jl}
        for k in range(n):
            for l in range(n):
                coeffs = {i * n + k: x for i, x in J_cols[l].items()}
                for j, x in J_rows[k].items():
                    coeffs[j * n + l] = coeffs.get(j * n + l, 0) + x
                rows.append({v: x for v, c in coeffs.items() if (x := red[c])})
    g_rows = [{i: x for i, x in enumerate(row) if x} for row in g]
    g_cols = [{j: x for j, x in enumerate(col) if x} for col in zip(*g)]
    # (Xg - gX)_{kl} = sum_j X_{kj} g_{jl} - sum_i g_{ki} X_{il}
    for k in range(n):
        for l in range(n):
            coeffs = {k * n + j: x for j, x in g_cols[l].items()}
            for i, x in g_rows[k].items():
                coeffs[i * n + l] = coeffs.get(i * n + l, 0) + P - x
            rows.append({v: x for v, c in coeffs.items() if (x := red[c])})
    return n * n - finfield._rank(F, rows)


def _forms_by_n2_system(entries, q, kind, tries=2000):
    """invariant_form_matrix as the n^2-unknown system it solved before it
    read its equations off S^2 V and the exterior square: g^T X g = X with
    symmetry or alternation rows, or for "quadratic" g^T X g - X alternating
    with the lower triangle of X zero; then the same basis loop and seeded
    random fallback, of ``tries`` draws."""
    F = finfield._field(q)
    g = tuple(tuple(F.coerce(x) for x in row) for row in entries)
    n = len(g)
    red, minus_one = F.red, F.neg(F.one)
    g_cols = [{i: x for i, x in enumerate(col) if x} for col in zip(*g)]
    rows = []

    def invariance(*pairs):
        # the sum over the pairs (a, b) of (g^T X g - X)_{ab}, X_{ij} numbered i * n + j
        coeffs = {}
        for a, b in pairs:
            for i, x in g_cols[a].items():
                for j, y in g_cols[b].items():
                    coeffs[i * n + j] = coeffs.get(i * n + j, 0) + x * y
            coeffs[a * n + b] = coeffs.get(a * n + b, 0) + minus_one
        rows.append({v: x for v, c in coeffs.items() if (x := red[c])})

    if kind == "quadratic":
        for k in range(n):
            invariance((k, k))
            for l in range(k + 1, n):
                invariance((k, l), (l, k))
            rows.extend({k * n + j: F.one} for j in range(k))
    else:
        for k in range(n):
            for l in range(n):
                invariance((k, l))
        for i in range(n):
            if kind == "symplectic":
                rows.append({i * n + i: F.one})
            for j in range(i + 1, n):
                rows.append({i * n + j: F.one, j * n + i: F.one if kind == "symplectic" else minus_one})
    basis = finfield._nullspace(F, rows, n * n)
    if not basis:
        return None

    def good(X):
        if kind != "quadratic":
            return finfield._rank(F, X) == n
        pol = finfield._polarization(F, X, kind)
        want = n if (n % 2 == 0 or F.p != 2) else n - 1
        if finfield._rank(F, pol) < want:
            return False
        return want == n or not any(
            finfield._is_singular_vector(F, X, v) for v in finfield._nullspace(F, pol, n)
        )

    rng = random.Random(0xC0FFEE)
    elems, columns = F.elements(), finfield._transpose(basis)
    draws = (
        finfield._mat_vec(F, columns, [elems[rng.randrange(len(elems))] for _ in basis])
        for _ in range(tries)
    )
    for v in chain(basis, draws):
        X = tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n))
        if good(X):
            return X
    return None


def _form_search_cases():
    """(entries, q) over seven fields, four matrices for each n <= 6: a
    seeded random one, a block-Jordan one with seeded eigenvalues, and two
    unipotent block-Jordan ones conjugated by seeded invertible matrices."""
    rng = random.Random(1)
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = finfield._field(q)
        elems = F.elements()
        units = [a for a in elems if a]

        def block_jordan(eigen):
            part = rng.choice(list(_partitions(n)))
            return finfield._block_diag(F, [finfield._jordan_block(F, a, eigen()) for a in part])

        for n in range(1, 7):
            yield tuple(tuple(rng.choice(elems) for _ in range(n)) for _ in range(n)), q
            yield block_jordan(lambda: rng.choice(units)), q
            for _ in range(2):
                g = block_jordan(lambda: F.one)
                while finfield._rank(F, A := _random_matrix(F, rng, n, n, n)) < n:
                    pass
                yield finfield._mat_mul(F, finfield._mat_inv(F, A), finfield._mat_mul(F, g, A)), q


class TestInvariantForms:
    def test_equals_the_n2_system(self):
        # the form the n^2-unknown system finds, or None, for every kind;
        # the cases whose basis holds no nondegenerate form run 2000 seeded
        # draws on both sides, so a seeded sample of 30 of them is compared
        in_basis, fallback = 0, []
        for g, q in _form_search_cases():
            for kind in ("symplectic", "symmetric", "quadratic"):
                if (want := _forms_by_n2_system(g, q, kind, tries=0)) is None:
                    fallback.append((g, q, kind))
                    continue
                assert finfield.invariant_form_matrix(g, q, kind) == want, (g, q, kind)
                in_basis += 1
        drawn = 0
        for g, q, kind in random.Random(2).sample(fallback, 30):
            want = _forms_by_n2_system(g, q, kind)
            assert finfield.invariant_form_matrix(g, q, kind) == want, (g, q, kind)
            drawn += want is not None
        assert (in_basis, len(fallback), drawn) == (140, 364, 3)

    def test_unknown_kind_refused(self):
        with pytest.raises(SchemaError, match="unknown form kind"):
            finfield.invariant_form_matrix(((1, 0), (0, 1)), 3, "hermitian")

    @pytest.mark.parametrize("entries", [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1, 0]], [[1, 0, 0], [0, 1], [0, 0, 1]]])
    def test_matrix_must_be_square(self, entries):
        with pytest.raises(SchemaError, match="matrix must be square"):
            finfield.invariant_form_matrix(entries, 3, "symplectic")


CENTRALIZER_GROUPS = [
    (family, n, q)
    for family, n in (
        ("SL", 3), ("SL", 4), ("Sp", 4), ("Sp", 6), ("Sp", 8), ("SO", 7), ("SO", 9), ("SO", 10), ("Spin8", 8)
    )
    for q in (3, 5, 7, 9, 25)
] + [
    (family, n, q)
    for family, n in (("Sp", 4), ("Sp", 6), ("Sp", 8), ("Spin8", 8), ("SO", 10), ("SO", 12))
    for q in (2, 4, 8)
]


class TestCentralizers:
    @pytest.mark.parametrize("family,n,q", CENTRALIZER_GROUPS)
    def test_equals_the_n2_system(self, family, n, q):
        # every instantiable shape; for Sp, SO and Spin8 also the fixed
        # space on S^2 V (Sp, or p = 2) or on the exterior square (SO at odd p)
        F = finfield._field(q)
        group = GroupSpec(family, n, F.p)
        functor = "sym2" if family == "Sp" or F.p == 2 else "wedge2"
        checked = 0
        for cls in enumerate_class_shapes(group):
            try:
                m = matrix_from_class(group, cls, q)
            except UnsupportedCase:
                continue
            got = centralizer_lie_dim(group, m)
            assert got == _centralizer_by_n2_system(group, m), cls
            if family != "SL":
                assert got == fixed_space_dim(induced_matrix(m, functor)), cls
            checked += 1
        assert checked

    def test_transvection_in_sp4(self):
        g = GroupSpec("Sp", 4, 3)
        c = validate_class(g, unipotent(partition=(2, 1, 1)))
        m = matrix_from_class(g, c, 3)
        assert centralizer_lie_dim(g, m) == 10 - 4

    def test_so7_regular_unipotent(self):
        g = GroupSpec("SO", 7, 7)
        c = validate_class(g, unipotent(partition=(7,), order=7))
        m = matrix_from_class(g, c, 7)
        assert centralizer_lie_dim(g, m) == 3

    def test_matrix_of_another_size_refused(self):
        m = GFMatrix(3, ((1, 1), (0, 1)))
        with pytest.raises(SchemaError, match="a matrix of SL3 is 3 x 3, not 2 x 2"):
            centralizer_lie_dim(GroupSpec("SL", 3, 0), m)
        # SO6 classes are given on the 4-dimensional SL4 module
        with pytest.raises(SchemaError, match="a matrix of SL4 is 4 x 4, not 2 x 2"):
            centralizer_lie_dim(GroupSpec("SO", 6, 0), m)

    def test_sp_matrix_without_a_form_refused(self):
        m = GFMatrix(3, finfield._identity(finfield._field(3), 4))
        with pytest.raises(SchemaError, match="form-tagged"):
            centralizer_lie_dim(GroupSpec("Sp", 4, 3), m)


class TestGroupOrders:
    def test_order_polynomials(self):
        assert group_order("SL", 2, 5) == 120
        assert group_order("Sp", 4, 3) == 51840
        assert group_order("SO", 5, 3) == 51840  # B2 and C2 share an order
        # D3: q^6 (q^3 - 1)(q^2 - 1)(q^4 - 1)
        assert group_order("SO", 6, 3) == 3**6 * 26 * 8 * 80

    def test_projective_orders(self):
        assert projective_order("SL", 2, 5) == 60
        assert projective_order("SL", 2, 9) == 360
        assert projective_order("Sp", 4, 3) == 25920

    @pytest.mark.parametrize(
        "family,n,q,message",
        [
            ("SL", 0, 3, "n must be at least 2"),
            ("SL", 1, 3, "n must be at least 2"),
            ("SL", 2.0, 3, "n must be an integer"),
            ("SL", 2, 1, "1 is not a prime power"),
            ("SL", 2, 0, "0 is not a prime power"),
            ("SL", 2, 6, "6 is not a prime power"),
            ("SL", 2, 9.0, "q must be an integer"),
            ("Sp", 3, 3, "Sp needs even n"),
        ],
    )
    def test_malformed_groups_refused(self, family, n, q, message):
        for call in (group_order, projective_order, standard_generators):
            with pytest.raises(SchemaError, match=message):
                call(family, n, q)

    @pytest.mark.parametrize("epsilon", [0, 2, -2, 1.0])
    def test_epsilon_is_plus_or_minus_one(self, epsilon):
        with pytest.raises(SchemaError, match="epsilon"):
            group_order("SO", 6, 3, epsilon)
        # SO6 of minus type: q^6 (q^3 + 1)(q^2 - 1)(q^4 - 1)
        assert group_order("SO", 6, 3, -1) == 3**6 * 28 * 8 * 80

    def test_large_prime_field_order_answers_fast(self):
        # trial division up to sqrt(q) would take minutes here
        start = time.perf_counter()
        q = 2**61 - 1
        assert group_order("SL", 2, q) == q * (q * q - 1)
        assert finfield._factor_prime_power(3**40) == (3, 40)
        # past the primality bound: a power of a small prime, and a perfect
        # power of a composite
        assert finfield._factor_prime_power(2**100) == (2, 100)
        with pytest.raises(SchemaError, match="is not a prime power"):
            group_order("SL", 2, 10**30)
        assert time.perf_counter() - start < 0.5

    def test_only_sl_and_sp_are_listed(self):
        with pytest.raises(UnsupportedGroup, match="projective order implemented for SL and Sp"):
            projective_order("SO", 7, 3)
        with pytest.raises(UnsupportedGroup, match="standard generators implemented for SL and Sp"):
            standard_generators("SO", 7, 3)

    def test_closure_matches_polynomial(self):
        gens = standard_generators("SL", 2, 5)
        size, truncated = group_closure(gens, cap=10**4)
        assert (size, truncated) == (120, False)

    def test_closure_cap(self):
        gens = standard_generators("SL", 2, 7)
        size, truncated = group_closure(gens, cap=10)
        assert truncated and size >= 10


def _digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


class TestPinnedConstructions:
    """Answers of the matrix, form, field and order constructions, each
    computed before these constructions were reduced to one code path
    apiece; the digests are sha256 of the repr of the listed values, first
    16 hex digits."""

    def test_induced_matrices(self):
        # every functor of random n x n matrices, n <= 5, and of Jordan
        # blocks of sizes 2-6, over prime and extension fields
        out = []
        for q in (2, 3, 4, 5, 7, 8, 9):
            F = finfield._field(q)
            rng = random.Random(q)
            elems = F.elements()
            mats = [tuple(tuple(rng.choice(elems) for _ in range(n)) for _ in range(n)) for n in range(1, 6)]
            mats += [finfield._jordan_block(F, a, F.one) for a in range(2, 7)]
            for g in mats:
                for functor in ("tensor", "tensor_square", "wedge2", "sym2"):
                    out.append(induced_matrix(GFMatrix(q, g), functor).entries)
        assert (len(out), _digest(out)) == (280, "13d583d48b872308")

    def test_moduli(self):
        moduli = {
            4: (1, 1, 1),
            8: (1, 1, 0, 1),
            9: (1, 0, 1),
            16: (1, 1, 0, 0, 1),
            25: (2, 0, 1),
            27: (1, 2, 0, 1),
            32: (1, 0, 1, 0, 0, 1),
            49: (1, 0, 1),
            81: (2, 1, 0, 0, 1),
            121: (1, 0, 1),
            125: (1, 1, 0, 1),
            128: (1, 1, 0, 0, 0, 0, 0, 1),
            243: (1, 2, 0, 0, 0, 1),
            256: (1, 1, 0, 1, 1, 0, 0, 0, 1),
        }
        assert {q: Field(q).modulus for q in moduli} == moduli

    def test_group_orders(self):
        orders = {
            ("SL", 2, 2, 1): 6,
            ("SL", 2, 3, 1): 24,
            ("SL", 3, 2, 1): 168,
            ("SL", 3, 3, 1): 5616,
            ("SL", 4, 2, 1): 20160,
            ("SL", 4, 3, 1): 12130560,
            ("Sp", 2, 2, 1): 6,
            ("Sp", 2, 3, 1): 24,
            ("Sp", 4, 2, 1): 720,
            ("Sp", 4, 3, 1): 51840,
            ("Sp", 6, 2, 1): 1451520,
            ("Sp", 6, 3, 1): 9170703360,
            ("SO", 3, 2, 1): 6,
            ("SO", 3, 3, 1): 24,
            ("SO", 5, 2, 1): 720,
            ("SO", 5, 3, 1): 51840,
            ("SO", 7, 2, 1): 1451520,
            ("SO", 7, 3, 1): 9170703360,
            ("SO", 4, 2, 1): 36,
            ("SO", 4, 2, -1): 60,
            ("SO", 4, 3, 1): 576,
            ("SO", 4, 3, -1): 720,
            ("SO", 6, 2, 1): 20160,
            ("SO", 6, 2, -1): 25920,
            ("SO", 6, 3, 1): 12130560,
            ("SO", 6, 3, -1): 13063680,
            ("SO", 8, 2, 1): 174182400,
            ("SO", 8, 2, -1): 197406720,
            ("SO", 8, 3, 1): 19808719257600,
            ("SO", 8, 3, -1): 20303937239040,
        }
        assert {key: group_order(*key) for key in orders} == orders
        assert group_order("Spin8", 8, 3, -1) == orders[("SO", 8, 3, -1)]
        with pytest.raises(UnsupportedGroup):
            group_order("G2", 7, 3)

    def test_char2_form_models(self):
        # (entries, form, form_kind) of unipotent_matrix, or the name of the
        # UnsupportedCase raised, for every partition of n = 2..5 over GF(2)
        # and GF(4); symmetric asks for a quadratic form there, which for
        # odd n must not vanish on the radical of its polarization
        out = []
        for q in (2, 4):
            for n in range(2, 6):
                for part in _partitions(n):
                    for kind in ("symplectic", "symmetric")[n % 2 :]:
                        try:
                            m = unipotent_matrix(part, q, kind)
                        except UnsupportedCase as exc:
                            out.append(type(exc).__name__)
                            continue
                        out.append((m.entries, m.form, m.form_kind))
        assert (len(out), _digest(out)) == (48, "227d9b14dd602cfe")

    def test_unipotent_models(self):
        # (entries, form, form_kind) of unipotent_matrix, or the name and
        # message of the UnsupportedCase raised, for every partition of
        # n <= 6 over six fields, computed while every refusal still came
        # from the search for an invariant form
        out = []
        for q in (2, 3, 4, 5, 7, 9):
            for n in range(1, 7):
                for part in _partitions(n):
                    for kind in ("symplectic", "symmetric"):
                        try:
                            m = unipotent_matrix(part, q, kind)
                        except UnsupportedCase as exc:
                            out.append((type(exc).__name__, str(exc)))
                            continue
                        out.append((m.entries, m.form, m.form_kind))
        assert (len(out), _digest(out)) == (348, "6e130f0b0bb72e15")

    @pytest.mark.parametrize("part,message", [((2.5,), "an integer"), ((0, 2), "at least 1"), ((2, -1), "at least 1")])
    def test_parts_are_positive_integers(self, part, message):
        with pytest.raises(SchemaError, match=f"a partition part must be {message}"):
            unipotent_matrix(part, 3, None)

    @pytest.mark.parametrize("part,q,message", [(5, 3, "partition must be a list"), ((2,), "3", "q must be an integer")])
    def test_malformed_arguments_refused(self, part, q, message):
        with pytest.raises(SchemaError, match=message):
            unipotent_matrix(part, q, None)

    @pytest.mark.parametrize(
        "part,q,kind",
        [
            ((3, 1, 1), 3, "symplectic"),
            ((1,), 2, "symplectic"),
            ((2, 1, 1), 5, "symmetric"),
            ((3, 2), 7, "symmetric"),
            ((3, 1, 1, 1), 4, "symmetric"),
            ((3, 2), 2, "symmetric"),
            ((3, 2, 2), 4, "symmetric"),
            ((3, 2), 2, "quadratic"),
            ((2, 1), 3, "quadratic"),
        ],
    )
    def test_parity_refusals_skip_the_form_search(self, monkeypatch, part, q, kind):
        def search(*args):
            raise AssertionError("invariant form searched for")

        monkeypatch.setattr(finfield, "invariant_form_matrix", search)
        with pytest.raises(Uninstantiable, match="no nondegenerate invariant form over GF"):
            unipotent_matrix(part, q, kind)
        # quadratic forms, symmetric at p = 2, are still searched for where
        # the Sp rule allows the partition, at odd n with one unpaired part 1
        with pytest.raises(AssertionError):
            unipotent_matrix((2, 1, 1), 2, "symmetric")
        with pytest.raises(AssertionError):
            unipotent_matrix((2, 2, 1), 2, "symmetric")

    @pytest.mark.parametrize(
        "q,entries,form,kind,message",
        [
            (3, ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
             ((0, 0, 1, 0), (0, 0, 0, 1), (2, 0, 0, 0), (0, 2, 0, 0)), "symplectic",
             "matrix does not preserve the declared form"),
            (5, ((1, 1), (0, 1)), ((1, 0), (0, 1)), "symmetric",
             "matrix does not preserve the declared form"),
            # Q = x0 x1 over GF(2) and GF(3): Q(x0 + x1, x1) = x0 x1 + x1^2
            (2, ((1, 1), (0, 1)), ((0, 1), (0, 0)), "quadratic",
             "matrix does not preserve the quadratic form"),
            (3, ((1, 1), (0, 1)), ((0, 1), (0, 0)), "quadratic",
             "matrix does not preserve the quadratic form"),
            # Q = x0^2 + x0 x1 over GF(2): Q(x1, x0) = x1^2 + x0 x1
            (2, ((0, 1), (1, 0)), ((1, 1), (0, 0)), "quadratic",
             "matrix does not preserve the quadratic form"),
            (5, ((1, 0), (0, 1)), ((1, 0), (0, 1)), "hermitian", "unknown form kind 'hermitian'"),
            (5, ((1, 0), (0, 1)), ((1, 0), (0, 1)), None, "form matrix given without a form kind"),
        ],
    )
    def test_form_refusals(self, q, entries, form, kind, message):
        with pytest.raises(SchemaError) as exc:
            GFMatrix(q, entries, form=form, form_kind=kind)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "q,entries,form,kind",
        [
            (3, ((0, 0, 1, 0), (0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 0, 1)),
             ((0, 0, 1, 0), (0, 0, 0, 1), (2, 0, 0, 0), (0, 2, 0, 0)), "symplectic"),
            (5, ((0, 1), (1, 0)), ((1, 0), (0, 1)), "symmetric"),
            # swapping x0 and x1 preserves x0 x1, though g^T F g != F
            (2, ((0, 1), (1, 0)), ((0, 1), (0, 0)), "quadratic"),
            (3, ((0, 1), (1, 0)), ((0, 1), (0, 0)), "quadratic"),
        ],
    )
    def test_form_preserved(self, q, entries, form, kind):
        assert GFMatrix(q, entries, form=form, form_kind=kind).form_kind == kind


def _product(F, a, b):
    """The matrix product with the field's own arithmetic."""
    cols = tuple(zip(*b))
    return tuple([tuple([reduce(F.add, map(F.mul, row, col)) for col in cols]) for row in a])


def _scalar(F, lam, n):
    return tuple(tuple(lam if i == j else F.zero for j in range(n)) for i in range(n))


def _closure(F, gen_entries, limit, product=_product):
    """The group the matrices generate, listed breadth first, by default
    with the field's own arithmetic; stops once it holds more than ``limit``."""
    one = _scalar(F, F.one, len(gen_entries[0]))
    seen, queue = {one}, [one]
    for a in queue:
        for g in gen_entries:
            b = product(F, a, g)
            if b not in seen:
                seen.add(b)
                if len(seen) > limit:
                    return seen
                queue.append(b)
    return seen


CLOSURE_GROUPS = [("SL", 2, q) for q in (4, 5, 7, 8, 9, 11)] + [
    ("SL", 3, 2),
    ("SL", 3, 3),
    ("Sp", 4, 2),
]
# every group of standard generators whose GF(q)^n has at most 256
# nonzero vectors, the groups ``group_closure`` measures as byte permutations
BYTE_GROUPS = [("SL", 2, q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)] + [
    ("SL", 3, 2),
    ("SL", 3, 3),
    ("Sp", 4, 2),
    ("Sp", 4, 3),
]


def _check_closure_caps(gens, order):
    """group_closure against the contract (min(order, cap + 1), order > cap)
    for caps below, at and above the order."""
    for cap in (1, 10, order // 2, order - 1, order, order + 1, 10**6):
        want = (order, False) if order <= cap else (cap + 1, True)
        assert group_closure(gens, cap=cap) == want, cap


class TestGroupClosure:
    @pytest.mark.parametrize("family,n,q", CLOSURE_GROUPS)
    def test_standard_generators_against_bfs(self, family, n, q):
        gens = standard_generators(family, n, q)
        order = len(_closure(finfield._field(q), [g.entries for g in gens], 10**6))
        assert order == group_order(family, n, q)
        _check_closure_caps(gens, order)

    @pytest.mark.parametrize("q", [4, 9])
    def test_sp_over_extension_fields(self, q):
        # transvections over 0/1 vectors alone generate Sp4(p) only
        assert group_closure(standard_generators("Sp", 4, q), cap=10**10) == (group_order("Sp", 4, q), False)

    def test_sp4_4_group_data_over_the_cap(self):
        # PSp4(4) = Sp4(4), of order 979200, not PSp4(2) of order 720
        with pytest.raises(GroupTooLarge, match="979200"):
            finfield._group_data("Sp", 4, 4, 10**5)

    def test_proper_subgroup_against_bfs(self):
        # the upper triangular matrices of SL2(7): order 7 * 6
        gens = [GFMatrix(7, ((1, 1), (0, 1))), GFMatrix(7, ((3, 0), (0, 5)))]
        order = len(_closure(finfield._field(7), [g.entries for g in gens], 10**6))
        assert order == 42
        _check_closure_caps(gens, order)

    def test_large_groups_are_not_listed(self):
        # SL2(97) moves all 9408 nonzero vectors and has 912576 elements;
        # SL3(11), of order about 2e8, is over the default cap. Listing
        # either takes about 20 s and 200-300 MB.
        gens = standard_generators("SL", 2, 97)
        assert group_closure(gens) == (group_order("SL", 2, 97), False)
        assert group_closure(gens, cap=10**5) == (10**5 + 1, True)
        assert group_closure(standard_generators("SL", 3, 11)) == (10**6 + 1, True)

    @pytest.mark.parametrize(
        "other", [standard_generators("SL", 2, 7), standard_generators("SL", 3, 5)]
    )
    def test_mixed_generators_rejected(self, other):
        with pytest.raises(SchemaError):
            group_closure(standard_generators("SL", 2, 5) + other)

    def test_singular_generator_rejected(self):
        with pytest.raises(SchemaError):
            group_closure(standard_generators("SL", 2, 5) + [GFMatrix(5, ((1, 0), (0, 0)))])

    def test_no_generators_give_the_trivial_group(self):
        assert group_closure([]) == (1, False)
        # order 1 exceeds cap 0
        assert group_closure([], cap=0) == (1, True)

    @pytest.mark.parametrize("n,q", [(n, q) for n in (2, 4, 6, 8, 10) for q in (2, 3, 4, 9) if n < 10 or q <= 4])
    def test_sp_transvections_in_the_order_of_their_masks(self, n, q):
        # the transvections of every 0/1 vector v with one or two 1s, in
        # increasing order of v's bit mask
        F = finfield._field(q)
        adders = [F.one] + ([F.coerce(tuple([0, 1] + [0] * (F.k - 2)))] if F.k > 1 else [])
        J = finfield._standard_form(F, n, "symplectic")
        want = []
        for mask in range(1, 2**n):
            if bin(mask).count("1") > 2:
                continue
            v = [F.one if mask >> i & 1 else F.zero for i in range(n)]
            w = finfield._mat_vec(F, finfield._transpose(J), v)
            for c in adders:
                ent = [[F.add(F.one if i == j else F.zero, F.mul(F.mul(c, v[i]), w[j])) for j in range(n)] for i in range(n)]
                want.append(GFMatrix(q, ent, form=J, form_kind="symplectic"))
        gens = standard_generators("Sp", n, q)
        # GFMatrix equality ignores the form
        assert gens == want
        assert all(g.form == J and g.form_kind == "symplectic" for g in gens)

    def test_sp_transvections_grow_as_n_squared(self):
        # one per support {i, j}, i <= j: 24 * 25 / 2
        assert len(standard_generators("Sp", 24, 2)) == 300

    @pytest.mark.parametrize("family,n,q", BYTE_GROUPS)
    def test_byte_route_matches_the_matrix_route(self, family, n, q):
        # every group of standard generators on at most 256 nonzero
        # vectors, and seeded subsets of its generators, under caps below,
        # at and above each order
        F = finfield._field(q)
        gens = standard_generators(family, n, q)
        rng = random.Random(q**n)
        for subset in [gens] + [rng.sample(gens, k) for k in (1, 2, len(gens) // 2) for _ in range(2)]:
            order = finfield._closure_order(F, [g.entries for g in subset], 10**7)
            for cap in (0, 1, order // 2, order - 1, order, 10**6):
                size = finfield._closure_order(F, [g.entries for g in subset], cap)
                assert group_closure(subset, cap) == (size, size > cap), (len(subset), cap)

    def test_route_follows_the_vector_count(self, monkeypatch):
        # SL3(3) has 26 nonzero vectors and multiplies no matrix; SL2(17)
        # has 288 and builds no byte permutation
        def refuse(*args, **kwargs):
            raise AssertionError("wrong route")

        with monkeypatch.context() as m:
            m.setattr(finfield, "_mat_mul", refuse)
            assert group_closure(standard_generators("SL", 3, 3)) == (5616, False)
        monkeypatch.setattr(finfield, "_perm_group_order", refuse)
        assert group_closure(standard_generators("SL", 2, 17)) == (group_order("SL", 2, 17), False)


def _order_by_own_walk(F, a, scalars):
    """Order of a modulo the scalars from a power walk of a alone."""
    x, k = a, 1
    while x not in scalars:
        x = _product(F, x, a)
        k += 1
    return k


@lru_cache(maxsize=None)
def _listing(family, n, q):
    """(F, G, Z, order): the field, the matrices of the group G that
    ``standard_generators`` generate, listed by ``_closure``, its scalars
    lambda I with lambda^n = 1, and the order modulo Z of every matrix of G
    outside Z, each from its own power walk."""
    F = finfield._field(q)
    G = _closure(F, [g.entries for g in standard_generators(family, n, q)], 10**6)
    roots = [lam for lam in F.elements() if lam and F.pow(lam, n) == F.one]
    Z = [z for z in (_scalar(F, lam, n) for lam in roots) if z in G]
    order = {a: _order_by_own_walk(F, a, Z) for a in G if a not in Z}
    return F, G, Z, order


def _of_order(order, r):
    return sorted(a for a, k in order.items() if k == r)


def _by_all_pairs(group, r, s):
    """The generation probability over all pairs of elements of G/Z of
    orders r and s, one matrix for each scalar coset, each pair tested by
    listing the group it generates (``_bfs_generates``)."""
    F, G, Z, order = _listing(*group)

    def cosets(k):
        return {min(_product(F, a, z) for z in Z) for a in _of_order(order, k)}

    # the identity adds nothing to a generating set
    others = [z for z in Z if z != _scalar(F, F.one, group[1])]
    xr, xs = cosets(r), cosets(s)
    hits = sum(_bfs_generates(F, [x, y] + others, len(G)) for x in xr for y in xs)
    return Fraction(hits, len(xr) * len(xs))


class TestExactProbability:
    @pytest.mark.parametrize(
        "group,r,s",
        [(("SL", 2, q), 2, 3) for q in (4, 5, 7, 8)] + [(("SL", 3, 2), 2, 3), (("SL", 2, 7), 3, 3)],
    )
    def test_against_all_pairs(self, group, r, s):
        exact = finfield.exact_generation_probability(group, r, s)
        assert exact == _by_all_pairs(group, r, s)
        if (group, r, s) == (("SL", 2, 7), 3, 3):
            assert exact == Fraction(9, 28)

    @pytest.mark.parametrize("r,s", [(2, 5), (1, 3), (3, 1)])
    def test_missing_orders_not_applicable(self, r, s):
        # PSL2(7) has order 168 = 2^3 * 3 * 7; order 1 is the centre
        with pytest.raises(NotApplicable):
            finfield.exact_generation_probability(("SL", 2, 7), r, s)

    def test_cap_below_the_order(self):
        with pytest.raises(GroupTooLarge):
            finfield.exact_generation_probability(("SL", 2, 7), 2, 3, cap=100)


class TestOrdersModCenter:
    @pytest.mark.parametrize("family,n,q", [("SL", 2, 7), ("SL", 2, 9), ("Sp", 4, 2)])
    def test_shared_walks_match_one_walk_per_element(self, family, n, q):
        F, G, Z, order = _listing(family, n, q)
        # composite orders, whose powers have smaller orders
        assert any(not is_prime(k) for k in order.values())
        own: dict = {}
        for a, k in order.items():
            own.setdefault(finfield._projective_perm(F, a), set()).add(k)
        assert all(len(ks) == 1 for ks in own.values())
        data = finfield._group_data(family, n, q, 10**6)
        assert data.pg_orders == sorted((x, k) for x, (k,) in own.items())


def _plain_monte_carlo(group, trials, seed, cap=10**6):
    """The (2, 3) Monte Carlo estimate on the same stream, one
    random.Random(seed) whose next two draws are a trial's x and y, with x
    replaced by its least conjugate over all of PG by brute force and one
    subgroup search per drawn pair."""
    data = finfield._group_data(*group, cap)
    xr = [a for a, k in data.pg_orders if k == 2]
    xs = [a for a, k in data.pg_orders if k == 3]
    tables = [(g, finfield._table(g)) for g in data.pg_elements]
    least: dict = {}
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        x = xr[rng.randrange(len(xr))]
        y = xs[rng.randrange(len(xs))]
        if x not in least:
            least[x] = min(finfield._conjugate(x, *g) for g in tables)
        hits += finfield._generates([least[x], y], projective_order(*group))
    return hits, trials


def _generates_calls(monkeypatch, probability, *args, **kwargs):
    """The answer of one probability call and its count of ``_generates``
    calls."""
    generates, calls = finfield._generates, []

    def counted(perms, order):
        calls.append(perms)
        return generates(perms, order)

    with monkeypatch.context() as m:
        m.setattr(finfield, "_generates", counted)
        return probability(*args, **kwargs), len(calls)


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "group",
        [("SL", 2, q) for q in (5, 7, 9, 13)] + [("SL", 3, 3), ("Sp", 4, 2)],
        # SL2(5), SL2(7) and SL2(9) keep the ids of the SL2-only test
        ids=lambda g: str(g[2]) if g[:2] == ("SL", 2) and g[2] < 13 else "-".join(map(str, g)),
    )
    def test_reductions_change_no_answer(self, group):
        for seed in (0, 1, 7):
            got = finfield.estimate_generation_probability(group, 2, 3, trials=200, seed=seed)
            assert got == _plain_monte_carlo(group, 200, seed), (group, seed)

    def test_answers_unchanged_under_small_cap(self):
        # cap = |SL2(5)| admits the group but keeps few subgroups
        got = finfield.estimate_generation_probability(
            ("SL", 2, 5), 2, 3, trials=300, seed=3, cap=120
        )
        assert got == _plain_monte_carlo(("SL", 2, 5), 300, 3, cap=120)

    @pytest.mark.parametrize("group", [("SL", 2, 7), ("SL", 3, 3), ("Sp", 4, 2)], ids=lambda g: "-".join(map(str, g)))
    def test_class_walk_lists_the_class(self, group):
        # the walked class against the class listed from all of PG
        data, xr, _ = finfield._elements_of_orders(group, 2, 3, 10**5)
        a = xr[0]
        walk = finfield._conjugacy_class(a, data.gen_perms)
        assert walk == {finfield._conjugate(a, g, finfield._table(g)) for g in data.pg_elements}

    def test_one_stream_per_call(self):
        # trial t takes the next two draws of one stream, so a call with one
        # more trial repeats the hits of the shorter call and adds one test
        hits = [
            finfield.estimate_generation_probability(("SL", 2, 7), 2, 3, trials=t, seed=1)[0] for t in range(1, 61)
        ]
        assert all(0 <= b - a <= 1 for a, b in zip([0] + hits, hits))
        assert 0 < hits[-1] < 60

    @pytest.mark.parametrize(
        "group", [("SL", 2, 7), ("SL", 2, 9), ("SL", 2, 13), ("SL", 3, 3), ("Sp", 4, 2)], ids=lambda g: "-".join(map(str, g))
    )
    def test_one_generation_test_per_orbit(self, monkeypatch, group):
        # a drawn pair is tested by its orbit under PG, so Monte Carlo runs
        # no more generation tests than the exact probability, which runs
        # one per orbit
        _, exact_calls = _generates_calls(monkeypatch, finfield.exact_generation_probability, group, 2, 3)
        (hits, _), calls = _generates_calls(
            monkeypatch, finfield.estimate_generation_probability, group, 2, 3, trials=600, seed=1
        )
        assert calls <= exact_calls
        if group == ("SL", 2, 7):
            # PSL2(7): one class of 21 involutions, each centralised by a
            # dihedral group of order 8 that has 7 orbits on the 56
            # elements of order 3
            assert (hits, calls, exact_calls) == (173, 7, 7)


class TestArgumentRefusals:
    """The group entry points refuse malformed arguments with SchemaError
    before any permutation is built or any generator inspected: trials a
    positive integer, seed, r and s integers, cap a non-negative integer,
    (family, n, q) with n >= 2, even for Sp, and q a prime power; never a
    bool. The matrix constructors refuse entries, rows and forms that are
    not lists, and a q that is not an integer."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work done")

        # an empty cache, so that a refusal after the listing would build permutations
        finfield._group_data.cache_clear()
        for name in ("_projective_perm", "_closure_set", "_rank"):
            monkeypatch.setattr(finfield, name, refuse)

    @pytest.mark.parametrize("trials", [-5, 0, True, 2.5])
    def test_trials(self, trials):
        with pytest.raises(SchemaError, match="trials"):
            finfield.estimate_generation_probability(("SL", 2, 7), 2, 3, trials=trials, seed=1)

    @pytest.mark.parametrize("seed", [1.5, False, "1"])
    def test_seed(self, seed):
        with pytest.raises(SchemaError, match="seed"):
            finfield.estimate_generation_probability(("SL", 2, 7), 2, 3, trials=5, seed=seed)

    @pytest.mark.parametrize("cap", [-1, 10.5, True])
    def test_closure_cap(self, cap):
        with pytest.raises(SchemaError, match="cap"):
            group_closure(standard_generators("SL", 2, 5), cap=cap)

    @pytest.mark.parametrize(
        "groupspec",
        [("SL", 2, 1), ("SL", 2, 6), ("SL", 2.0, 7), ("SL", 2, 7.0), ("SL", 0, 7), ("SL", 1, 7), ("Sp", 3, 7),
         ("SL", True, 7), ("SL", 2, 7, 1)],
    )
    def test_group(self, groupspec):
        with pytest.raises(SchemaError):
            finfield.exact_generation_probability(groupspec, 2, 3)
        with pytest.raises(SchemaError):
            finfield.estimate_generation_probability(groupspec, 2, 3, trials=5, seed=1)

    @pytest.mark.parametrize("r,s,cap", [(2.0, 3, 10**5), (2, 3.0, 10**5), (True, 3, 10**5), (2, 3, -1), (2, 3, 2.5), (2, 3, True)])
    def test_orders_and_cap(self, r, s, cap):
        with pytest.raises(SchemaError):
            finfield.exact_generation_probability(("SL", 2, 7), r, s, cap=cap)
        with pytest.raises(SchemaError):
            finfield.estimate_generation_probability(("SL", 2, 7), r, s, trials=5, seed=1, cap=cap)

    @pytest.mark.parametrize(
        "build,match",
        [
            (lambda: GFMatrix(3, 5), "entries"),
            (lambda: GFMatrix(3, [5]), "row"),
            (lambda: GFMatrix(3, [[1]], form=5, form_kind="symmetric"), "form"),
            (lambda: GFMatrix(3, [[1]], form=[5], form_kind="symmetric"), "row"),
            (lambda: GFMatrix([3], [[1]]), "q"),
            (lambda: finfield.unipotent_matrix((2, 1), [3], None), "q"),
            (lambda: finfield.matrix_from_class(GroupSpec("SL", 2, 0), unipotent(partition=(2,)), [3]), "q"),
            (lambda: finfield.invariant_form_matrix([[1]], [3], "symmetric"), "q"),
        ],
        ids=["entries", "row", "form", "form-row", "q", "unipotent-q", "class-q", "form-search-q"],
    )
    def test_matrix_constructors(self, build, match):
        with pytest.raises(SchemaError, match=match):
            build()


def _bfs_generates(F, gen_entries, order):
    """The breadth-first generation test: list the generated group, and
    stop once it holds more than half of the order. The library's matrix
    product keeps the many listings fast; ``_listing`` pins it on G."""
    half = order // 2
    seen = _closure(F, gen_entries, half, finfield._mat_mul)
    return len(seen) > half or len(seen) == order


def _class_representatives(F, G, elements):
    """The smallest element of each conjugacy class of G within ``elements``."""
    inverse = {g: finfield._mat_inv(F, g) for g in G}
    remaining, reps = set(elements), []
    while remaining:
        rep = min(remaining)
        reps.append(rep)
        remaining -= {_product(F, _product(F, gi, rep), g) for g, gi in inverse.items()}
    return reps


PROJECTIVE_GROUPS = [("SL", 2, q) for q in (4, 5, 7, 8, 9, 11, 13, 16)] + [
    ("SL", 3, 2),
    ("SL", 3, 3),
    ("Sp", 4, 2),
    ("Sp", 4, 3),
]


class TestSchreierSims:
    @pytest.mark.parametrize("family,n,q", PROJECTIVE_GROUPS)
    def test_order_of_standard_generators(self, family, n, q):
        F = finfield._field(q)
        perms = [finfield._projective_perm(F, g.entries) for g in standard_generators(family, n, q)]
        assert len(perms[0]) == (q**n - 1) // (q - 1)
        assert finfield._perm_group_order(perms) == projective_order(family, n, q)

    @pytest.mark.parametrize("family,n,q", [("SL", 2, 7), ("SL", 2, 9), ("SL", 2, 8), ("Sp", 4, 2)])
    def test_generates_matches_bfs(self, family, n, q):
        F, G, Z, order = _listing(family, n, q)
        answers = []
        for x in _class_representatives(F, G, _of_order(order, 2)):
            for y in _of_order(order, 3):
                perms = [finfield._projective_perm(F, g) for g in (x, y)]
                answer = finfield._generates(perms, len(G) // len(Z))
                assert answer == _bfs_generates(F, [x, y] + Z, len(G)), (x, y)
                answers.append(answer)
        # PSL2(9) = A6 and Sp4(2) = S6 are not (2, 3)-generated
        assert any(answers) == ((family, q) in {("SL", 7), ("SL", 8)})

    @pytest.mark.parametrize("n,q", [(2, 5), (3, 4), (3, 7), (4, 3)])
    def test_scalars_only_give_order_one(self, n, q):
        F = finfield._field(q)
        # the scalars of SL_n(q): lambda I with lambda^n = 1
        scalars = [
            tuple(tuple(lam if i == j else 0 for j in range(n)) for i in range(n))
            for lam in F.elements()[1:]
            if F.pow(lam, n) == F.one
        ]
        assert len(scalars) == gcd(n, q - 1)
        perms = [finfield._projective_perm(F, z) for z in scalars]
        assert finfield._perm_group_order(perms) == 1
        assert finfield._generates(perms, 1)
        assert not finfield._generates(perms, 2)

    def test_no_permutations_give_order_one(self):
        # the chain of no generators has no level, and the empty product is 1
        assert finfield._perm_group_order([]) == 1


class TestByteTables:
    """PG = G/Z as permutations of at most 256 projective points, each the
    bytes of its images."""

    def test_one_representation(self):
        F = finfield._field(3)
        assert all(
            type(finfield._projective_perm(F, g.entries)) is bytes
            for g in standard_generators("Sp", 4, 3)
        )
        data = finfield._group_data("SL", 3, 3, 10**6)
        assert all(type(a) is bytes and len(a) == 13 for a in data.pg_elements)
        assert all(type(a) is bytes for a in data.gen_perms)
        for name in ("_commute", "_perm_mul", "_perm_inv"):
            assert not hasattr(finfield, name), name

    def test_more_than_256_points_refused_before_any_permutation(self, monkeypatch):
        def perm(*args):
            raise AssertionError("permutation built")

        monkeypatch.setattr(finfield, "_projective_perm", perm)
        with pytest.raises(GroupTooLarge, match="258 points"):
            finfield._group_data("SL", 2, 257, 10**9)

    def test_default_cap_refused_before_the_group_is_listed(self, monkeypatch):
        # PSL2(59), of order 102660 on 60 points, is over the default cap 10^5
        def listing(*args):
            raise AssertionError("group listed")

        monkeypatch.setattr(finfield, "_closure_set", listing)
        with pytest.raises(GroupTooLarge, match="102660, over the cap 100000"):
            finfield.exact_generation_probability(("SL", 2, 59), 2, 3)
        with pytest.raises(GroupTooLarge, match="102660, over the cap 100000"):
            finfield.estimate_generation_probability(("SL", 2, 59), 2, 3, trials=1, seed=0)

    def test_no_group_within_the_default_cap_has_more_than_256_points(self):
        # every SL_n(q) and Sp_n(q) whose G/Z has order at most 10^6, from
        # the order formulas; orders grow with n and q, so each sweep stops
        # at its first order over the cap
        prime_powers = [q for q in range(2, 300) if sum(is_prime(p) for p in range(2, q + 1) if q % p == 0) == 1]
        widest = {}
        for family, dims in (("SL", range(2, 20)), ("Sp", range(4, 20, 2))):
            for n in dims:
                for q in prime_powers:
                    if projective_order(family, n, q) > 10**6:
                        break
                    widest[family, n, q] = (q**n - 1) // (q - 1)
                if q == 2:
                    break
        assert max(widest.values()) == widest["SL", 2, 125] == 126
        assert ("SL", 2, 127) not in widest and ("Sp", 4, 4) in widest

    def test_benchmark_answers_pinned(self):
        # the exact (2, 3) probabilities and Monte Carlo draws of the
        # benchmark's finite-field jobs, and the sorted orders of PG that
        # the draws index, computed when permutations were tuples; the SL2(7)
        # hits read 170 with one stream per trial and 173 with one per call
        groups = [("SL", 2, q) for q in (4, 5, 7, 8, 9, 11, 13)] + [("SL", 3, 3), ("Sp", 4, 2)]
        got = [finfield.exact_generation_probability(g, 2, 3) for g in groups]
        want = [Fraction(*f) for f in ((2, 5), (2, 5), (2, 7), (6, 7), (0, 1), (12, 55), (48, 91), (24, 91), (0, 1))]
        assert got == want
        assert finfield.estimate_generation_probability(("SL", 2, 7), 2, 3, trials=600, seed=1) == (173, 600)
        assert finfield.estimate_generation_probability(("SL", 2, 9), 2, 3, trials=60, seed=1) == (0, 60)
        groups = [("SL", 2, q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)] + [("SL", 3, 3), ("Sp", 4, 2)]
        orders = [[(tuple(a), k) for a, k in finfield._group_data(*g, 10**6).pg_orders] for g in groups]
        assert (sum(map(len, orders)), _digest(orders)) == (9247, "8087e30340d5d5e6")


class TestProjectiveDraws:
    """Monte Carlo draws from PG = G/Z: a uniform draw of an element of PG
    of order r has the distribution of a uniform draw of a matrix of G of
    order r modulo Z, because each element of PG is the image of |Z| such
    matrices."""

    @pytest.mark.parametrize("q", [5, 7, 8, 9])
    def test_each_order_is_z_matrices_per_permutation(self, q):
        F, G, Z, order = _listing("SL", 2, q)
        pg_orders = finfield._group_data("SL", 2, q, 10**6).pg_orders
        assert set(order.values()) == {k for _, k in pg_orders}
        for r in set(order.values()):
            matrices = _of_order(order, r)
            perms = {a for a, k in pg_orders if k == r}
            assert len(matrices) == len(Z) * len(perms), r
            assert {finfield._projective_perm(F, a) for a in matrices} == perms, r


def test_one_elimination_kernel():
    # ``_echelon``: the dense and the rank-only eliminations it replaced are
    # gone
    assert isinstance(finfield._echelon, types.FunctionType)
    for name in ("_rref", "_sparse_rows", "_sparse_rank", "_sparse_mul"):
        assert not hasattr(finfield, name), name


def test_one_breadth_first_search(monkeypatch):
    # ``_bfs``: the subspace count, the listing of PG and the conjugacy
    # classes of the exact probabilities and of Monte Carlo all search
    # through it
    bfs, calls = finfield._bfs, []

    def counted(start, moves):
        calls.append(start)
        return bfs(start, moves)

    # Monte Carlo's class walks, not its listing of PG
    finfield._group_data("SL", 2, 5, 10**5)
    monkeypatch.setattr(finfield, "_bfs", counted)
    F = finfield._field(3)
    searches = [
        lambda: invariant_subspace_count(GFMatrix(3, finfield._identity(F, 3)), 1, "any"),
        lambda: finfield._closure_set([finfield._projective_perm(F, g.entries) for g in standard_generators("SL", 2, 3)]),
        lambda: finfield.exact_generation_probability(("SL", 2, 4), 2, 3),
        lambda: finfield.estimate_generation_probability(("SL", 2, 5), 2, 3, trials=5, seed=0),
    ]
    for search in searches:
        before = len(calls)
        search()
        assert len(calls) > before


def test_pg_is_measured_by_its_own_listing(monkeypatch):
    # ``_group_data`` reads the order of PG off its listing, with no
    # Schreier–Sims run and no order field, and the projective points are
    # one tuple, with no index of the nonzero vectors
    def refuse(*args, **kwargs):
        raise AssertionError("Schreier–Sims ran")

    monkeypatch.setattr(finfield, "_schreier_sims", refuse)
    finfield._group_data.cache_clear()
    assert len(finfield._group_data("SL", 3, 3, 10**5).pg_elements) == projective_order("SL", 3, 3)
    assert finfield._GroupData._fields == ("gen_perms", "pg_elements", "pg_orders")
    points = Field(5).projective_points(7)
    assert type(points) is tuple and len(points) == (5**7 - 1) // 4 == 19531


def test_ranks_take_the_forward_pass_alone(monkeypatch):
    # ``jordan_type``, ``fixed_space_dim`` and ``centralizer_lie_dim`` read
    # only the pivots of ``_forward``, never the reduced echelon form
    cases = [(GroupSpec("Sp", 4, 3), unipotent_matrix((2, 2), 3, "symplectic"))]
    for group in (GroupSpec("Sp", 4, 0), GroupSpec("SO", 7, 0), GroupSpec("SL", 3, 0)):
        cases += [(group, matrix_from_class(group, cls, 13)) for cls in enumerate_class_shapes(group)]
    want = [(jordan_type(m), fixed_space_dim(m), centralizer_lie_dim(g, m)) for g, m in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("back-substitution ran")

    monkeypatch.setattr(finfield, "_back_substitute", refuse)
    assert [(jordan_type(m), fixed_space_dim(m), centralizer_lie_dim(g, m)) for g, m in cases] == want
    with pytest.raises(AssertionError, match="back-substitution ran"):
        finfield._nullspace(finfield._field(3), [(1, 1)], 2)


def test_schreier_sims_inverts_each_generator_once(monkeypatch):
    # every other inverse is the product of two known ones
    schreier_sims, inversions = finfield._schreier_sims, []

    def counted(gens, identity, mul, inv, image, moved, cap=math.inf):
        def counted_inv(g):
            inversions.append(g)
            return inv(g)

        gens = list(gens)
        order = schreier_sims(gens, identity, mul, counted_inv, image, moved, cap)
        assert len(inversions) == len(gens) and all(map(operator.eq, inversions, gens))
        inversions.clear()
        return order

    monkeypatch.setattr(finfield, "_schreier_sims", counted)
    for family, n, q in (("SL", 3, 3), ("Sp", 4, 2)):
        assert group_closure(standard_generators(family, n, q)) == (group_order(family, n, q), False)
    data, xr, xs = finfield._elements_of_orders(("SL", 2, 7), 2, 3, 10**5)
    orders = {finfield._perm_group_order([x, y]) for x in xr[:8] for y in xs[:8]}
    assert projective_order("SL", 2, 7) == 168 in orders


class TestNaturalProfiles:
    """(d, e, quadratic) of ``_natural_profile``, which ``decide`` reads,
    against the Jordan type of a matrix of the class: the largest
    eigenspace is the most blocks of one eigenvalue, the 1-eigenspace the
    blocks of 1, and the minimal polynomial has one factor per eigenvalue,
    of degree its largest block."""

    @pytest.mark.parametrize("q,agree,refused", [(11, 180, 6), (13, 186, 0)])
    def test_read_off_jordan_types(self, q, agree, refused):
        groups = [("SL", n) for n in range(2, 7)] + [("Sp", n) for n in (4, 6, 8)] + [("SO", n) for n in (5, 7, 9, 10)]
        seen = {"agree": 0, "refused": 0}
        for family, n in groups:
            group = GroupSpec(family, n, 0)
            for cls in enumerate_class_shapes(group):
                try:
                    jt = jordan_type(matrix_from_class(group, cls, q))
                except Uninstantiable:
                    seen["refused"] += 1
                    continue
                got = (max(map(len, jt.values())), len(jt.get(1, ())), sum(p[0] for p in jt.values()) == 2)
                assert got == _natural_profile(cls), (family, n, cls)
                seen["agree"] += 1
        assert seen == {"agree": agree, "refused": refused}


class TestSO6ExteriorSquare:
    """(d, e, quadratic) of ``oracle._so6_image`` at p = 0, which ``decide``
    reads for SO6, against the Jordan type of the exterior square of a
    matrix of every SL4 shape over GF(q). Where they differ, the labels the
    matrix takes satisfy a relation the descriptor leaves out: for the
    regular class (l1, l2, l3, l4), l1 l2 = l3 l4 = +-1, a repeated
    eigenvalue of the exterior square; for (l1^2, l2^2), l1 l2 = 1, which
    fixes the four l1 l2 eigenvectors. A label choice that avoids those
    relations (ROADMAP item 12) changes the pins here."""

    # (ones, minus_ones, free multiplicities)
    REGULAR = (0, 0, (1, 1, 1, 1))
    TWO_SQUARES = (0, 0, (2, 2))

    @pytest.mark.parametrize(
        "q,agree,differ,refused",
        [
            (5, 4, {TWO_SQUARES: ((4, 0, False), (4, 4, True))}, 3),
            (7, 5, {REGULAR: ((1, 0, False), (2, 2, False))}, 2),
            (9, 5, {TWO_SQUARES: ((4, 0, False), (4, 4, True)), REGULAR: ((1, 0, False), (2, 2, False))}, 1),
            (11, 7, {REGULAR: ((1, 0, False), (2, 2, False))}, 0),
            (13, 7, {REGULAR: ((1, 0, False), (2, 0, False))}, 0),
        ],
    )
    def test_sweep(self, q, agree, differ, refused):
        group = GroupSpec("SL", 4, 0)
        seen = {"agree": 0, "differ": {}, "refused": 0}
        for cls in enumerate_class_shapes(group):
            try:
                jt = jordan_type(induced_matrix(matrix_from_class(group, cls, q), "wedge2"))
            except Uninstantiable:
                seen["refused"] += 1
                continue
            got = (max(map(len, jt.values())), len(jt.get(1, ())), sum(p[0] for p in jt.values()) == 2)
            want = oracle._so6_image(cls)
            if got == want:
                seen["agree"] += 1
            else:
                pat = cls.eigen
                seen["differ"][(pat.mult_one, pat.mult_minus_one, tuple(m for _, m in pat.free))] = (want, got)
        assert seen == {"agree": agree, "differ": differ, "refused": refused}


class TestInvariantSubspaceCount:
    def test_identity_line_count(self):
        F = finfield._field(3)
        m = GFMatrix(3, finfield._identity(F, 3))
        assert invariant_subspace_count(m, 1, "any") == (3**3 - 1) // 2

    def test_regular_unipotent_unique_line(self):
        F = finfield._field(3)
        m = GFMatrix(3, finfield._jordan_block(F, 3, F.one))
        assert invariant_subspace_count(m, 1, "any") == 1

    def test_singular_lines_for_so5_element(self):
        m = unipotent_matrix((2, 2, 1), 3, "symmetric")
        count = invariant_subspace_count(m, 1, "totally_singular")
        assert count >= 1

    def test_refusals(self):
        F = finfield._field(3)
        m = GFMatrix(3, finfield._identity(F, 3))
        for k in (-1, 4):
            with pytest.raises(SchemaError, match="k out of range"):
                invariant_subspace_count(m, k, "any")
        with pytest.raises(SchemaError, match="unknown subspace type"):
            invariant_subspace_count(m, 1, "isotropic")
        with pytest.raises(SchemaError, match="form-tagged"):
            invariant_subspace_count(m, 1, "totally_singular")

    def test_budget_bounds_the_nonzero_subspaces(self):
        # the identity on GF(3)^3 has 13 lines, the only nonzero subspaces
        # of dimension at most 1
        m = GFMatrix(3, finfield._identity(finfield._field(3), 3))
        with pytest.raises(EnumerationTooLarge, match="more than 12 invariant subspaces"):
            invariant_subspace_count(m, 1, "any", budget=12)
        assert invariant_subspace_count(m, 1, "any", budget=13) == 13

    @pytest.mark.parametrize("k", [2.0, True])
    def test_refuses_a_k_that_is_no_integer(self, k):
        m = GFMatrix(3, finfield._identity(finfield._field(3), 3))
        with pytest.raises(SchemaError, match="k must be an integer"):
            invariant_subspace_count(m, k, "any")

    @pytest.mark.parametrize("budget,match", [(-1, "at least 0"), (2.5, "an integer"), (True, "an integer")])
    def test_refuses_a_budget_that_is_no_count(self, budget, match):
        m = GFMatrix(3, finfield._identity(finfield._field(3), 3))
        with pytest.raises(SchemaError, match=f"budget must be {match}"):
            invariant_subspace_count(m, 1, "any", budget=budget)

    @pytest.mark.parametrize(
        "q,entries",
        [
            (3, ((1, 1, 0), (0, 1, 0), (0, 0, 2))),
            (2, ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1))),
            # diag(1, 1, x), x a generator of GF(4) over GF(2)
            (4, ((1, 0, 0), (0, 1, 0), (0, 0, (0, 1)))),
        ],
    )
    def test_any_type_against_all_subspaces(self, q, entries):
        m = GFMatrix(q, entries)
        F, g, n = m.field, m.entries, m.n
        assert jordan_type(m)  # the characteristic polynomial splits
        vectors = list(product(F.elements(), repeat=n))
        # every subspace of GF(q)^n as its set of vectors, dimension by dimension
        layer = {frozenset([(F.zero,) * n])}
        for k in range(n + 1):
            invariant = sum(
                all(tuple(reduce(F.add, map(F.mul, row, v)) for row in g) in S for v in S)
                for S in layer
            )
            assert invariant_subspace_count(m, k, "any") == invariant, k
            layer = {
                frozenset(tuple(map(F.add, s, (F.mul(c, x) for x in v))) for s in S for c in F.elements())
                for S in layer
                for v in vectors
                if v not in S
            }


def _gauss_jordan(F, rows, ncols):
    """The reduced row echelon form of the dense rows, {pivot column: row},
    by textbook Gauss–Jordan elimination with the field's own arithmetic."""
    A = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if (p := next((i for i in range(r, len(A)) if A[i][c] != F.zero), None)) is None:
            continue
        A[r], A[p] = A[p], A[r]
        A[r] = [F.mul(F.inv(A[r][c]), x) for x in A[r]]
        for i, row in enumerate(A):
            if i != r and row[c] != F.zero:
                A[i] = [F.sub(x, F.mul(row[c], y)) for x, y in zip(row, A[r])]
        pivots.append(c)
    return {c: tuple(A[i]) for i, c in enumerate(pivots)}


def _kernel_cases(q):
    """Seeded random matrices over GF(q), n up to 12, sparse and dense, of
    low and full rank, with zero and duplicate rows added."""
    F = finfield._field(q)
    rng = random.Random(1000 + q)
    elems = F.elements()
    for t in range(24):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        density = (0.15, 0.5, 1.0)[t % 3]
        if t % 2:
            A = [list(row) for row in _random_matrix(F, rng, nrows, ncols, rng.randint(1, min(nrows, ncols)))]
        else:
            A = [[rng.choice(elems) if rng.random() < density else F.zero for _ in range(ncols)] for _ in range(nrows)]
        if t % 4 == 0:
            A.insert(rng.randint(0, len(A)), [F.zero] * ncols)
        if t % 3 == 0:
            A.insert(rng.randint(0, len(A)), list(rng.choice(A)))
        yield F, [tuple(row) for row in A], ncols


class TestKernelAgainstGaussJordan:
    """``_echelon`` (with and without ``base``), ``_rank``, ``_nullspace``
    and ``_mat_inv`` against a dense Gauss–Jordan elimination."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 16])
    def test_echelon_rank_and_nullspace(self, q):
        for F, A, ncols in _kernel_cases(q):
            want = _gauss_jordan(F, A, ncols)
            sparse = [{j: x for j, x in enumerate(row) if x} for row in A]
            for rows in (A, sparse):
                form = finfield._echelon(F, rows)
                assert {c: tuple(row.get(j, F.zero) for j in range(ncols)) for c, row in form.items()} == want, A
                assert finfield._rank(F, rows) == len(want)
            null = [
                tuple(F.one if j == fc else F.neg(want[j][fc]) if j in want else F.zero for j in range(ncols))
                for fc in range(ncols)
                if fc not in want
            ]
            assert finfield._nullspace(F, A, ncols) == finfield._nullspace(F, sparse, ncols) == null

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 16])
    def test_echelon_onto_a_base(self, q):
        # the rows of the base count as rows of the system, and the base is left as it is
        rng = random.Random(q)
        for F, A, ncols in _kernel_cases(q):
            cut = rng.randint(0, len(A))
            base = finfield._echelon(F, A[:cut])
            kept = {c: dict(row) for c, row in base.items()}
            form = finfield._echelon(F, A[cut:], base)
            assert {c: tuple(row.get(j, F.zero) for j in range(ncols)) for c, row in form.items()} == _gauss_jordan(F, A, ncols)
            assert base == kept

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 16])
    def test_inverse(self, q):
        F = finfield._field(q)
        rng = random.Random(2000 + q)
        elems = F.elements()
        for n in list(range(1, 13)) * 2:
            A = tuple(tuple(rng.choice(elems) for _ in range(n)) for _ in range(n))
            want = _gauss_jordan(F, [row + e for row, e in zip(A, _scalar(F, F.one, n))], 2 * n)
            if max(want) >= n:
                with pytest.raises(ZeroDivisionError):
                    finfield._mat_inv(F, A)
                continue
            assert finfield._mat_inv(F, A) == tuple(want[i][n:] for i in range(n))


def _jordan_by_echelon_levels(m, eigenvalues=None):
    """Jordan types by the level loop on reduced echelon forms: the rank of
    (m - lam)^k from the reduced echelon rows of (m - lam)^(k-1) times
    m - lam, each level eliminated by ``_echelon``."""
    F, n = m.field, m.n
    result = {}
    for lam in F.elements() if eigenvalues is None else eigenvalues:
        N = [{j: y for j, x in enumerate(row) if (y := F.sub(x, lam) if i == j else x)} for i, row in enumerate(m.entries)]

        def times_n(w):
            acc = {}
            for i, x in w.items():
                for j, y in N[i].items():
                    acc[j] = F.add(acc.get(j, F.zero), F.mul(x, y))
            return {j: x for j, x in acc.items() if x}

        form = finfield._echelon(F, N)
        ranks = [n, len(form)]
        while ranks[-1] != ranks[-2]:
            form = finfield._echelon(F, map(times_n, form.values()))
            ranks.append(len(form))
        if ranks[1] < n:
            result[lam] = conjugate_partition([a - b for a, b in zip(ranks, ranks[1:])])
    return result


class TestJordanAgainstLevelLoop:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_blocks_job_matrices(self, q):
        # J_a (x) J_b, wedge2 J_a and sym2 J_a for a, b in 2..8
        F = finfield._field(q)
        blocks = {a: GFMatrix(q, finfield._jordan_block(F, a, F.one)) for a in range(2, 9)}
        matrices = [induced_matrix(j, f) for j in blocks.values() for f in ("wedge2", "sym2")]
        matrices += [kron(ja, jb) for ja in blocks.values() for jb in blocks.values()]
        for m in matrices:
            assert jordan_type(m, eigenvalues=[F.one]) == _jordan_by_echelon_levels(m, [F.one])

    @pytest.mark.parametrize("q", [11, 13])
    def test_natural_profile_matrices(self, q):
        # the matrices of ``TestNaturalProfiles``, with the full eigenvalue scan
        groups = [("SL", n) for n in range(2, 7)] + [("Sp", n) for n in (4, 6, 8)] + [("SO", n) for n in (5, 7, 9, 10)]
        seen = 0
        for family, n in groups:
            group = GroupSpec(family, n, 0)
            for cls in enumerate_class_shapes(group):
                try:
                    m = matrix_from_class(group, cls, q)
                except Uninstantiable:
                    continue
                assert jordan_type(m) == _jordan_by_echelon_levels(m), (family, n, cls)
                seen += 1
        assert seen == {11: 180, 13: 186}[q]


class TestKernelOutput:
    def test_kron_and_induced_matrices_refuse_before_they_build(self):
        # J_65 (x) J_65, sym2 J_91 and wedge2 J_92 would have dimension
        # 4225, 4186 and 4186, above MAX_DIM = 4096
        F = finfield._field(2)
        j65, j91, j92 = (GFMatrix(2, finfield._jordan_block(F, a, F.one)) for a in (65, 91, 92))
        builds = [lambda: kron(j65, j65), lambda: induced_matrix(j65, "tensor")]
        builds += [lambda: induced_matrix(j91, "sym2"), lambda: induced_matrix(j92, "wedge2")]
        tracemalloc.start()
        try:
            for build in builds:
                with pytest.raises(SchemaError, match=f"matrix dimension 4[0-9]* exceeds {finfield.MAX_DIM}"):
                    build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("q", [2, 4, 9])
    def test_outputs_are_matrices_of_elements(self, q):
        # built from reduced entries, without a coercion pass, they equal the
        # matrices of the same entries built through GFMatrix
        F = finfield._field(q)
        rng = random.Random(q)
        a, b = (GFMatrix(q, [[rng.choice(F.elements()) for _ in range(n)] for _ in range(n)]) for n in (3, 4))
        for m in (kron(a, b), induced_matrix(b, "wedge2"), induced_matrix(b, "sym2"), induced_matrix(a, "tensor")):
            same = GFMatrix(q, m.entries)
            assert (m, hash(m), m.n, m.field, m.form, m.form_kind) == (same, hash(same), same.n, same.field, None, None)
            assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries)

    def test_sl_centralizer_refuses_above_max_dim(self):
        # X's 65^2 = 4225 entries are the unknowns of {X : Xg = gX}
        m = GFMatrix(2, finfield._identity(finfield._field(2), 65))
        with pytest.raises(SchemaError, match=f"matrix dimension 4225 exceeds {finfield.MAX_DIM}"):
            centralizer_lie_dim(GroupSpec("SL", 65, 2), m)


def _dense_shift(F, g, lam):
    """g - lam I on dense rows, the shift before matrices carried sparse rows."""
    return tuple(row[:i] + (F.sub(row[i], lam),) + row[i + 1 :] for i, row in enumerate(g))


def _jordan_type_dense(m, eigenvalues=None):
    """``jordan_type`` before matrices carried sparse rows: each level's
    g - lam I built dense from ``entries`` and read back as dict rows."""
    F, n = m.field, m.n
    result, accounted, red = {}, 0, F.red
    scan = F.elements() if eigenvalues is None else [F.coerce(x) for x in eigenvalues]
    for lam in scan:
        N = list(map(finfield._sparse, _dense_shift(F, m.entries, lam)))

        def times_n(w):
            acc = {}
            for i, x in w.items():
                for j, y in N[i].items():
                    acc[j] = acc.get(j, 0) + x * y
            return {j: x for j, s in acc.items() if (x := red[s])}

        form = finfield._forward(F, N, {})
        ranks = [n, len(form)]
        while ranks[-1] != ranks[-2]:
            form = finfield._forward(F, map(times_n, form.values()), {})
            ranks.append(len(form))
        if ranks[1] == n:
            continue
        result[lam] = conjugate_partition([a - b for a, b in zip(ranks, ranks[1:])])
        accounted += sum(result[lam])
    if eigenvalues is None and accounted != n:
        raise NonSplit("characteristic polynomial does not split over GF(q)")
    return result


def _subspace_count_dense(m, k, type="totally_singular", budget=2_000_000):
    """``invariant_subspace_count`` before matrices carried sparse rows:
    dense conditions on W, a dense complement, and each candidate U + <v>
    keyed by its reduced echelon form from ``_echelon``."""
    F, n, red = m.field, m.n, m.field.red
    bil_cols = finfield._transpose(finfield._polarization(F, m.form, m.form_kind)) if m.form is not None else None
    shifts = [_dense_shift(F, m.entries, lam) for lam in _jordan_type_dense(m)]
    grown = itertools_count()

    def grow(key):
        if key and next(grown) >= budget:
            raise EnumerationTooLarge(f"more than {budget} invariant subspaces visited")
        if len(key) == k:
            return
        U = {row[0][0]: dict(row) for row in key}
        for shift in shifts:
            rows = []
            for i in range(n):
                if i in U:
                    continue
                row = shift[i]
                for c, u in U.items():
                    if i in u:
                        nf = F.neg(u[i])
                        row = [red[x + nf * y] for x, y in zip(row, shift[c])]
                rows.append(row)
            if type == "totally_singular":
                rows += [finfield._mat_vec(F, bil_cols, [u.get(i, 0) for i in range(n)]) for u in U.values()]
            W = finfield._forward(F, finfield._nullspace(F, rows, n), dict(U))
            E = [[row.get(j, 0) for j in range(n)] for c, row in W.items() if c not in U]
            ext_cols = finfield._transpose(E)
            if type == "totally_singular":
                gram = finfield._mat_mul(F, finfield._mat_mul(F, E, m.form), ext_cols)
            for coeffs in F.projective_points(len(E)):
                if type == "totally_singular" and not finfield._is_singular_vector(F, gram, coeffs):
                    continue
                form = finfield._echelon(F, [finfield._mat_vec(F, ext_cols, coeffs)], U)
                yield tuple(tuple(sorted(form[c].items())) for c in sorted(form))

    return sum(len(key) == k for key in finfield._bfs((), grow))


def _blocks_job_matrices(q):
    """The 63 matrices of the benchmark's Jordan block job over GF(q):
    wedge2 and sym2 of J_a, and J_a (x) J_b, for a, b in 2..8."""
    F = finfield._field(q)
    blocks = {a: GFMatrix(q, finfield._jordan_block(F, a, F.one)) for a in range(2, 9)}
    matrices = [induced_matrix(j, f) for j in blocks.values() for f in ("wedge2", "sym2")]
    return matrices + [kron(ja, jb) for ja in blocks.values() for jb in blocks.values()]


def _unipotent_sweep():
    """(n, q, partition, kind, k, type, matrix) over the unipotent matrices of
    every partition of n = 2..6 with a part above 1 (n = 6 only at q <= 3),
    q in 2..5 and each form kind that has one, every k and type."""
    for n in range(2, 7):
        for q in (2, 3, 4, 5)[: 2 if n == 6 else 4]:
            for part in _partitions(n):
                if max(part) == 1:
                    continue
                for kind in ("symplectic", "symmetric", None):
                    try:
                        m = unipotent_matrix(part, q, kind)
                    except Uninstantiable:
                        continue
                    for k in range(n + 1):
                        for type in ("any", "totally_singular")[: 1 if kind is None else 2]:
                            yield n, q, part, kind, k, type, m


class TestSparseRowsAgainstDenseReferences:
    """``jordan_type`` and ``invariant_subspace_count`` on sparse rows give
    the answers of the dense versions they replaced, kept above."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_jordan_on_the_blocks_job_matrices(self, q):
        for m in _blocks_job_matrices(q):
            assert jordan_type(m, eigenvalues=[1]) == _jordan_type_dense(m, [1])
            assert jordan_type(m) == _jordan_type_dense(m)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25])
    def test_jordan_on_random_conjugates_of_jordan_forms(self, q):
        F = finfield._field(q)
        rng = random.Random(3400 + q)
        elems = F.elements()
        for _ in range(10):
            n = rng.randint(1, 8)
            sizes = []
            while sum(sizes) < n:
                sizes.append(rng.randint(1, n - sum(sizes)))
            J = finfield._block_diag(F, [finfield._jordan_block(F, a, rng.choice(elems)) for a in sizes])
            while finfield._rank(F, A := [[rng.choice(elems) for _ in range(n)] for _ in range(n)]) < n:
                pass
            m = GFMatrix(q, finfield._mat_mul(F, finfield._mat_inv(F, A), finfield._mat_mul(F, J, A)))
            assert jordan_type(m) == _jordan_type_dense(m)
            some = rng.sample(elems, rng.randint(1, min(3, q)))
            assert jordan_type(m, eigenvalues=some) == _jordan_type_dense(m, some)
            # a random matrix: both answer, or both find no splitting
            g = GFMatrix(q, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])
            outcomes = []
            for jordan in (jordan_type, _jordan_type_dense):
                try:
                    outcomes.append(jordan(g))
                except NonSplit:
                    outcomes.append(NonSplit)
            assert outcomes[0] == outcomes[1]

    def test_subspace_counts_on_the_unipotent_sweep(self):
        # 1190 counts; their digest is the one the dense version gives,
        # which is compared count by count below n = 6 (n = 6 takes it
        # about 6 s more)
        counts = []
        for n, q, part, kind, k, type, m in _unipotent_sweep():
            counts.append((n, q, part, kind, k, type, invariant_subspace_count(m, k, type)))
            if n < 6:
                assert counts[-1][-1] == _subspace_count_dense(m, k, type), counts[-1]
        assert len(counts) == 1190
        assert hashlib.sha256(repr(counts).encode()).hexdigest()[:16] == "c0dea54aa8c80781"

    @pytest.mark.parametrize(
        "part,q,kind",
        [((2, 2, 1), 3, "symmetric"), ((2, 2), 3, "symplectic"), ((3, 1), 2, None), ((1, 1, 1), 3, None), ((2, 1, 1), 3, "symplectic")],
    )
    def test_raise_or_answer_at_small_budgets(self, part, q, kind):
        m = unipotent_matrix(part, q, kind)
        for k in range(m.n + 1):
            for type in ("any", "totally_singular")[: 1 if kind is None else 2]:
                for budget in range(0, 41, 2):
                    outcomes = []
                    for count_subspaces in (invariant_subspace_count, _subspace_count_dense):
                        try:
                            outcomes.append(count_subspaces(m, k, type, budget))
                        except EnumerationTooLarge:
                            outcomes.append(EnumerationTooLarge)
                    assert outcomes[0] == outcomes[1], (k, type, budget)


class TestSparseRowsStructure:
    @pytest.mark.parametrize("q", [2, 3])
    def test_kron_and_induced_matrices_never_build_entries(self, q):
        for m in _blocks_job_matrices(q)[::5]:
            jordan_type(m, eigenvalues=[1])
            jordan_type(m)
            fixed_space_dim(m)
            assert "entries" not in m.__dict__
        F = finfield._field(q)
        m = induced_matrix(GFMatrix(q, finfield._jordan_block(F, 3, F.one)), "tensor")
        fixed_space_dim(m)
        assert "entries" not in m.__dict__
        # built on the first read, from the rows
        assert m.entries == tuple(tuple(row.get(j, 0) for j in range(m.n)) for row in m.rows)

    def test_no_kernel_changes_the_rows(self):
        matrices = [
            unipotent_matrix((2, 2, 1), 3, "symmetric"),
            unipotent_matrix((2, 2), 5, "symplectic"),
            matrix_from_class(GroupSpec("Sp", 4, 0), validate_class(GroupSpec("Sp", 4, 0), semisimple(ones=2, minus_ones=2)), 5),
            kron(*(GFMatrix(3, finfield._jordan_block(finfield._field(3), a, 1)) for a in (2, 3))),
        ]
        for m in matrices:
            rows = m.rows
            before = [dict(row) for row in rows]
            jordan_type(m)
            fixed_space_dim(m)
            centralizer_lie_dim(GroupSpec("SL", m.n, 0), m)
            if m.form is not None:
                centralizer_lie_dim(GroupSpec("Sp" if m.form_kind == "symplectic" else "SO", m.n, 0), m)
                invariant_subspace_count(m, 2)
            invariant_subspace_count(m, 1, "any")
            kron(m, m)
            for functor in ("wedge2", "sym2", "tensor"):
                induced_matrix(m, functor)
            assert m.rows is rows and list(rows) == before

    def test_forward_leaves_its_rows_as_they_are(self):
        F = finfield._field(5)
        rows = [{0: 1, 2: 3}, {0: 2, 1: 4}, {1: 1}]
        before = [dict(row) for row in rows]
        assert len(finfield._forward(F, rows, {})) == 3
        assert rows == before

    @pytest.mark.parametrize(
        "part,q,kind,k,type",
        [((2, 2, 2, 2, 1), 2, "symmetric", 4, "totally_singular"), ((2, 2, 1), 3, None, 2, "any"), ((2, 2), 3, "symplectic", 2, "totally_singular")],
    )
    def test_one_elimination_per_node_and_eigenvalue(self, monkeypatch, part, q, kind, k, type):
        # each subspace of dimension below k is a node; a candidate line
        # is keyed without an elimination of its own
        m = unipotent_matrix(part, q, kind)
        nodes = sum(invariant_subspace_count(m, j, type) for j in range(k))
        calls = []
        echelon = finfield._echelon
        monkeypatch.setattr(finfield, "_echelon", lambda *args: calls.append(1) or echelon(*args))
        lines = invariant_subspace_count(m, k, type)
        assert 0 < len(calls) <= nodes * len(jordan_type(m))
        assert lines > 0
