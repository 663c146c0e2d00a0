"""Unit tests for eigenspace profiles, class dimensions and induced actions."""

import pytest

from topogen import finfield
from topogen.algebra_core import GroupSpec, dim_and_rank, semisimple, unipotent, validate_class
from topogen.closure import enumerate_unipotent_partitions, in_closure
from topogen.errors import NotApplicable, SchemaError, UnsupportedChar2Class
from topogen.invariants import (
    ClassDim,
    class_dim,
    eigen_profile,
    grassmannian_fixed_dim,
    induced_block_count,
    is_quadratic,
    sym2_fixed_dim,
    wedge2_fixed_dim,
)

from test_closure import _decorated_classes


class TestEigenProfile:
    def test_unipotent_profile_counts_blocks(self):
        g = GroupSpec("Sp", 6, 3)
        c = validate_class(g, unipotent(partition=(2, 2, 2)))
        pr = eigen_profile(g, c)
        assert (pr.d, pr.e) == (3, 3)

    def test_semisimple_profile(self):
        g = GroupSpec("Sp", 8, 0)
        c = validate_class(g, semisimple(ones=4, pairs=[2], order=3))
        pr = eigen_profile(g, c)
        assert (pr.d, pr.e) == (4, 4)

    def test_minus_one_eigenspace_can_dominate(self):
        g = GroupSpec("Sp", 8, 0)
        c = validate_class(g, semisimple(ones=2, minus_ones=6, order=2))
        pr = eigen_profile(g, c)
        assert (pr.d, pr.e) == (6, 2)


class TestIsQuadratic:
    def test_unipotent(self):
        g = GroupSpec("Sp", 4, 0)
        assert is_quadratic(validate_class(g, unipotent(partition=(2, 2))))
        g6 = GroupSpec("Sp", 6, 3)
        assert not is_quadratic(validate_class(g6, unipotent(partition=(3, 3))))

    def test_semisimple(self):
        g = GroupSpec("Sp", 4, 0)
        assert is_quadratic(validate_class(g, semisimple(ones=2, minus_ones=2, order=2)))
        assert not is_quadratic(validate_class(g, semisimple(ones=2, pairs=[1])))


class TestClassDim:
    def test_sl_regular_semisimple(self):
        g = GroupSpec("SL", 5, 0)
        c = validate_class(g, semisimple(free=[("a", 1), ("b", 1), ("c", 1), ("d", 1), ("e", 1)]))
        assert class_dim(g, c).dim_class == 20

    def test_sp4_minus_involution(self):
        g = GroupSpec("Sp", 4, 0)
        c = validate_class(g, semisimple(ones=2, minus_ones=2, order=2))
        assert class_dim(g, c).dim_class == 4

    def test_sp_odd_unipotent(self):
        g = GroupSpec("Sp", 6, 3)
        c = validate_class(g, unipotent(partition=(2, 2, 2)))
        # conjugate partition (3,3), no odd parts: (9 + 9 + 0)/2 = 9
        assert class_dim(g, c).dim_centralizer == 9
        assert class_dim(g, c).dim_class == 12

    def test_so_odd_unipotent(self):
        g = GroupSpec("SO", 9, 3)
        c = validate_class(g, unipotent(partition=(3, 3, 3)))
        # conjugate (3,3,3): (9+9+9 - 3)/2 = 12
        assert class_dim(g, c).dim_centralizer == 12
        assert class_dim(g, c).dim_class == 24

    def test_char2_beyond_involutions(self):
        # V(4) is the regular class of Sp4, whose centralizer has the
        # dimension of the rank, 2 (test_regular_and_subregular); V(4) + W(1)
        # in Sp6, refused before the one formula, gets its value 14
        sp4, sp6 = GroupSpec("Sp", 4, 2), GroupSpec("Sp", 6, 2)
        assert class_dim(sp4, validate_class(sp4, unipotent(decoration=[("V", 4, 1)]))) == ClassDim(8, 2)
        v4w1 = validate_class(sp6, unipotent(decoration=[{"V": 4, "mult": 1}, {"W": 1, "mult": 1}]))
        assert class_dim(sp6, v4w1) == ClassDim(14, 7)


def _former_centralizer_dim_odd(fam: str, partition: tuple) -> int:
    """The centraliser dimension formula class_dim used for every unipotent
    class away from p = 2 before the one formula over Hesselink's index:
    from the squared parts of the conjugate partition."""
    sq = sum((2 * i + 1) * a for i, a in enumerate(sorted(partition, reverse=True)))
    odd = sum(1 for a in partition if a % 2)
    if fam == "Sp":
        return (sq + odd) // 2
    if fam in ("SO", "Spin8"):
        return (sq - odd) // 2
    return sq - 1


def _former_centralizer_dim_char2(fam: str, cls) -> int:
    """The rule set class_dim used for decorated involutions at p = 2 before
    the one formula: the odd-p Sp value, plus s for an a-type class with s
    blocks of size 2, less the number of blocks in SO and Spin8."""
    partition = cls.unip.partition
    assert max(partition) <= 2 and cls.unip.decoration is not None
    base = _former_centralizer_dim_odd("Sp", partition)
    if cls.unip.as_type == "a":
        base += partition.count(2)
    return base - len(partition) if fam in ("SO", "Spin8") else base


def _formula_groups():
    for p in (0, 2, 3, 5, 7):
        for n in range(2, 13):
            yield GroupSpec("SL", n, p)
        for n in range(4, 17, 2):
            yield GroupSpec("Sp", n, p)
        for n in range(5, 17):
            if n != 8 and not (n % 2 and p == 2):
                yield GroupSpec("SO", n, p)
        yield GroupSpec("Spin8", 8, p)


def _char2_groups():
    return [GroupSpec("Sp", n, 2) for n in range(4, 13, 2)] + [GroupSpec("SO", n, 2) for n in (10, 12)] + [
        GroupSpec("Spin8", 8, 2)
    ]


class TestOneFormula:
    """Every unipotent centraliser dimension from sum (i - 1) lambda_i and
    one term per part, with Hesselink's index at p = 2."""

    def test_agrees_with_the_two_formulas_it_replaced(self):
        # every admissible partition, and every decorated involution at p = 2
        # in Sp, SO and Spin8: the 2364 prime-order unipotent shapes are
        # among these 3546 classes
        count = 0
        for g in _formula_groups():
            target = g.class_group()
            if g.p == 2 and target.family != "SL":
                classes = [c for c in _decorated_classes(target) if max(c.unip.partition) <= 2]
                want = [_former_centralizer_dim_char2(target.family, c) for c in classes]
            else:
                classes = [unipotent(pi) for pi in enumerate_unipotent_partitions(g)]
                want = [_former_centralizer_dim_odd(target.family, c.unip.partition) for c in classes]
            dim_g = dim_and_rank(target)[0]
            for c, cent in zip(classes, want):
                assert class_dim(g, c) == ClassDim(dim_g - cent, cent), (g, c.unip)
            count += len(classes)
        assert count == 3546

    @pytest.mark.parametrize(
        "group,containments",
        zip(_char2_groups(), (5, 26, 119, 378, 1156, 99, 338, 34)),
        ids=lambda v: f"{v.family}{v.n}" if isinstance(v, GroupSpec) else str(v),
    )
    def test_decorated_classes_even_and_falling_along_the_closure(self, group, containments):
        # containments: the strict ones among the group's decorated classes,
        # 2155 in all
        classes = _decorated_classes(group)
        dims = [class_dim(group, c).dim_class for c in classes]
        assert all(d % 2 == 0 for d in dims)
        strict = 0
        for upper, du in zip(classes, dims):
            for lower, dl in zip(classes, dims):
                if upper is not lower and in_closure(group, upper, lower):
                    assert du > dl, (upper.unip.decoration, lower.unip.decoration)
                    strict += 1
        assert strict == containments

    @pytest.mark.parametrize("group", _char2_groups(), ids=lambda g: f"{g.family}{g.n}")
    def test_regular_and_subregular(self, group):
        # Steinberg (Conjugacy classes in algebraic groups, LNM 366, 1974),
        # in every characteristic: the regular class has a centraliser of
        # dimension the rank, and the subregular class, the one class dense
        # among the rest, rank + 2
        rank = dim_and_rank(group)[1]
        m = group.n // 2
        dec = [("V", 2 * m, 1)] if group.family == "Sp" else [("V", 2 * m - 2, 1), ("V", 2, 1)]
        regular = validate_class(group, unipotent(decoration=dec))
        assert class_dim(group, regular).dim_centralizer == rank
        rest = [c for c in _decorated_classes(group) if c != regular]
        top = [c for c in rest if all(in_closure(group, c, b) for b in rest)]
        assert len(top) == 1
        assert class_dim(group, top[0]).dim_centralizer == rank + 2

    @pytest.mark.parametrize("n", range(4, 17, 2))
    def test_transvections(self, n):
        # x -> x + t B(x, v) v: one class for the lines <v> and t != 0, of
        # dimension n, the block type V(2) + W(1)^(n/2 - 1) at p = 2
        g = GroupSpec("Sp", n, 2)
        c = validate_class(g, unipotent(decoration=[("V", 2, 1), ("W", 1, n // 2 - 1)]))
        assert class_dim(g, c).dim_class == n

    @pytest.mark.parametrize(
        "family,upper,lower",
        [("Sp", (2, 2), (2, 1, 1)), ("SO", (3, 3, 1, 1, 1, 1), (2, 2) + (1,) * 6), ("Spin8", (2, 2, 2, 2), (3, 1) * 2)],
    )
    def test_undecorated_at_p2_unsupported(self, family, upper, lower):
        # validation refuses such a class; the dimension formula and the
        # closure order, which take classes as they are, refuse it too
        g = GroupSpec(family, sum(upper), 2)
        a, b = unipotent(upper), unipotent(lower)
        with pytest.raises(UnsupportedChar2Class, match="need a V/W decoration"):
            class_dim(g, a)
        with pytest.raises(UnsupportedChar2Class, match="need a V/W decoration"):
            in_closure(g, a, b)


class TestInducedBlockCount:
    def test_tensor(self):
        assert induced_block_count("tensor", 4, 7) == 4
        with pytest.raises(NotApplicable):
            induced_block_count("tensor", 4)

    def test_wedge2(self):
        assert induced_block_count("wedge2", 5) == 2
        assert induced_block_count("wedge2", 6) == 3

    def test_sym2_epsilon(self):
        assert induced_block_count("sym2", 4, p=3) == 2
        assert induced_block_count("sym2", 4, p=2) == 3
        assert induced_block_count("sym2", 5, p=2) == 3

    def test_unknown_functor(self):
        with pytest.raises(NotApplicable):
            induced_block_count("cube", 3)

    @pytest.mark.parametrize("kind,a,b", [("tensor", 2.5, 3), ("tensor", 3, 2.5), ("wedge2", True, None)])
    def test_refuses_a_block_size_that_is_no_integer(self, kind, a, b):
        with pytest.raises(SchemaError, match="must be an integer"):
            induced_block_count(kind, a, b)

    @pytest.mark.parametrize(
        "kind,a,b", [("wedge2", -3, None), ("tensor", 0, 5), ("tensor", 5, 0), ("sym2", 0, None), ("cube", 0, None)]
    )
    def test_refuses_a_block_size_below_one(self, kind, a, b):
        # before any work: an unknown functor is not reached
        with pytest.raises(SchemaError, match="block sizes must be at least 1"):
            induced_block_count(kind, a, b)

    @pytest.mark.parametrize("p", [1, 4, 9, -2])
    def test_refuses_a_p_that_is_neither_zero_nor_prime(self, p):
        with pytest.raises(SchemaError, match=f"p must be 0 or a prime, not {p}"):
            induced_block_count("sym2", 4, p=p)

    @pytest.mark.parametrize("a,b,p,what", [(4, None, True, "p"), (4, None, False, "p"), (3, True, 0, "b")])
    def test_refuses_a_bool(self, a, b, p, what):
        with pytest.raises(SchemaError, match=f"{what} must be an integer"):
            induced_block_count("tensor" if b is not None else "sym2", a, b, p=p)


class TestFixedSpaces:
    def test_sym2_fixed_dim_cross_terms(self):
        # S^2(J2 + J2): 1 + 1 + min(2,2) = 4 blocks at odd p
        assert sym2_fixed_dim((2, 2), 3) == 4

    def test_wedge2_upper_tightened(self):
        g = GroupSpec("Sp", 8, 0)
        c = validate_class(g, semisimple(ones=4, minus_ones=4, order=2))
        exact, upper = wedge2_fixed_dim(8, c)
        assert exact == 12
        assert upper == (4 * 7 - 1) // 2  # below d(n-1)/2 when +-1 both occur

    def test_wedge2_unipotent(self):
        g = GroupSpec("Sp", 6, 3)
        c = validate_class(g, unipotent(partition=(3, 3)))
        exact, upper = wedge2_fixed_dim(6, c)
        assert exact == 1 + 1 + 3
        assert exact <= upper

    def test_wedge2_of_a_decorated_class_that_is_no_involution(self):
        # V(4) is a Jordan block of size 4: the class has order 4 at p = 2
        with pytest.raises(UnsupportedChar2Class, match="need involutions"):
            wedge2_fixed_dim(4, unipotent(decoration=[{"V": 4}]))


class TestGrassmannianCatalog:
    def test_so9_entries(self):
        g = GroupSpec("SO", 9, 0)
        u = validate_class(g, unipotent(partition=(3, 3, 3)))
        assert grassmannian_fixed_dim(g, u, 4) == 3
        w = validate_class(g, unipotent(partition=(2, 2, 2, 2, 1)))
        assert grassmannian_fixed_dim(g, w, 4) == 6
        s = validate_class(g, semisimple(ones=3, pairs=[3], order=3))
        assert grassmannian_fixed_dim(g, s, 4) == 3

    def test_sp6_lagrangian_levi_path(self):
        g = GroupSpec("Sp", 6, 3)
        c = validate_class(g, unipotent(partition=(2, 2, 1, 1)))
        # doubled Levi class (2,1): S^2 fixed space 1 + 1 + min(2,1) = 3
        assert grassmannian_fixed_dim(g, c, 3) == 3

    def test_outside_catalog_is_none(self):
        g = GroupSpec("SO", 9, 5)
        c = validate_class(g, unipotent(partition=(5, 3, 1), order=5))
        assert grassmannian_fixed_dim(g, c, 4) is None

    def test_non_singular_type_is_none(self):
        g = GroupSpec("SO", 9, 3)
        c = validate_class(g, unipotent(partition=(3, 3, 3)))
        assert grassmannian_fixed_dim(g, c, 4, subspace_type="arbitrary") is None

    def test_refuses_a_k_that_is_no_integer(self):
        g = GroupSpec("SO", 9, 0)
        c = validate_class(g, semisimple(ones=3, pairs=[3], order=3))
        with pytest.raises(SchemaError, match="k must be an integer"):
            grassmannian_fixed_dim(g, c, 4.0)


def _count_and_dim(group, cls, k, q):
    """(invariant totally singular k-spaces over GF(q), the fixed-point dimension)."""
    count = finfield.invariant_subspace_count(finfield.matrix_from_class(group, cls, q), k)
    return count, grassmannian_fixed_dim(group, cls, k)


class TestGrassmannianEigenspaceRule:
    @pytest.mark.parametrize(
        "family,n,k,pattern,dim",
        [
            # SO9 at k = 4, and Sp6 and Sp8 on the Lagrangian Grassmannian
            ("SO", 9, 4, dict(ones=3, pairs=[3], order=3), 3),
            ("Sp", 6, 3, dict(ones=4, minus_ones=2, order=2), 4),
            ("Sp", 6, 3, dict(ones=2, minus_ones=4, order=2), 4),
            ("Sp", 6, 3, dict(ones=4, pairs=[1], order=3), 3),
            ("Sp", 6, 3, dict(pairs=[3], order=3), 2),
            ("Sp", 8, 4, dict(ones=6, minus_ones=2, order=2), 7),
            ("Sp", 8, 4, dict(ones=2, minus_ones=6, order=2), 7),
            ("Sp", 8, 4, dict(ones=4, minus_ones=4, order=2), 6),
            # beyond it: a Lagrangian plane of the 1-eigenspace (3) plus A + B
            # of dimension 3 in the pair, a = 1 and b = 2 (2)
            ("Sp", 10, 5, dict(ones=4, pairs=[3], order=3), 5),
            # a singular plane of the 1-eigenspace (1) plus A + B of
            # dimension 4 in the pair, a = b = 2 (4)
            ("SO", 12, 6, dict(ones=4, pairs=[4], order=3), 5),
        ],
    )
    def test_semisimple_values(self, family, n, k, pattern, dim):
        g = GroupSpec(family, n, 0)
        assert grassmannian_fixed_dim(g, validate_class(g, semisimple(**pattern)), k) == dim

    @pytest.mark.parametrize(
        "family,n,k,pattern,counts",
        [
            ("Sp", 4, 2, dict(ones=2, minus_ones=2, order=2), {5: 36, 7: 64}),
            ("Sp", 6, 3, dict(ones=4, minus_ones=2, order=2), {5: 936, 7: 3200}),
            ("Sp", 6, 3, dict(ones=4, pairs=[1], order=3), {5: 312, 7: 800}),
            ("Sp", 6, 3, dict(pairs=[3], order=3), {5: 64, 7: 116}),
            ("SO", 7, 2, dict(ones=3, pairs=[2], order=3), {5: 80, 7: 138}),
            ("SO", 7, 3, dict(ones=3, pairs=[2], order=3), {5: 48, 7: 80}),
            # two top components: (q + 1)^2 (q + 3) + 4 (q + 1)^2 points, so
            # the bracket needs q >= 5
            ("Spin8", 8, 3, dict(ones=4, pairs=[2], order=3), {5: 432}),
            ("Spin8", 8, 4, dict(ones=4, pairs=[2], order=3), {5: 96}),
            # the labels of order 3 need q = 1 mod 3
            ("SO", 9, 4, dict(ones=3, pairs=[3], order=3), {7: 928}),
        ],
    )
    def test_point_counts_grow_as_q_to_the_dimension(self, family, n, k, pattern, counts):
        # Lang-Weil: the points over GF(q) of a variety of dimension d grow as q^d
        g = GroupSpec(family, n, 0)
        c = validate_class(g, semisimple(**pattern))
        for q, expected in counts.items():
            count, d = _count_and_dim(g, c, k, q)
            assert count == expected
            assert q**d <= count < q ** (d + 1), (q, count, d)

    def test_none_without_a_natural_form_or_a_split(self):
        # SL has no form; SO6 classes are SL4 data, not natural-module patterns
        for family, n in (("SL", 4), ("SO", 6)):
            g = GroupSpec(family, n, 0)
            assert grassmannian_fixed_dim(g, validate_class(g, semisimple(ones=2, pairs=[1], order=3)), 2) is None
        g = GroupSpec("Sp", 6, 0)
        c = validate_class(g, semisimple(pairs=[3], order=3))
        assert grassmannian_fixed_dim(g, c, 3, subspace_type="any") is None
        # k beyond the Witt index has no split
        assert grassmannian_fixed_dim(g, c, 4) is None
        g = GroupSpec("SO", 9, 0)
        assert grassmannian_fixed_dim(g, validate_class(g, semisimple(ones=3, pairs=[3], order=3)), 5) is None


class TestGrassmannianCatalogPins:
    @pytest.mark.parametrize(
        "family,n,k,partition,counts",
        [
            ("SO", 9, 4, (3, 3, 3), {3: 40, 5: 156}),
            ("Sp", 6, 3, (2, 1, 1, 1, 1), {3: 40, 5: 156}),
            # q^2 + q + 1: a conic of lines b in V/W isotropic for
            # B(u, (x - 1) v), W = im(x - 1), plus one affine parameter
            ("Sp", 6, 3, (2, 2, 2), {3: 13, 5: 31}),
            ("Sp", 8, 4, (3, 3, 2), {3: 40, 5: 156}),
            # q = 5 takes about 25 s: pinned at q = 3 only
            ("SO", 9, 4, (2, 2, 2, 2, 1), {3: 1201}),
        ],
    )
    def test_unipotent_entries_bracket_their_point_counts(self, family, n, k, partition, counts):
        g = GroupSpec(family, n, 0)
        c = validate_class(g, unipotent(partition))
        for q, expected in counts.items():
            count, d = _count_and_dim(g, c, k, q)
            assert count == expected
            assert q**d <= count < q ** (d + 1), (q, count, d)


def _sp_unipotent_p2(q, sizes, v2=()):
    """A unipotent element of Sp over GF(q), q even, on the basis e_1..e_m,
    f_1..f_m of ``_standard_form``: diag(A, A^-T), A = diag(J_a for a in
    sizes), a W(a) summand per block; then the transvection f_i -> f_i + e_i
    for each i in v2 (whose block J_1 in A is then part of a V(2) summand)."""
    F = finfield._field(q)
    A = finfield._block_diag(F, [finfield._jordan_block(F, a, F.one) for a in sizes])
    B = finfield._transpose(finfield._mat_inv(F, A))
    m = len(A)
    g = [list(row) + [F.zero] * m for row in A] + [[F.zero] * m + list(row) for row in B]
    for i in v2:
        g[i][m + i] = F.one
    form = finfield._standard_form(F, 2 * m, "symplectic")
    return finfield.GFMatrix(q, g, form=form, form_kind="symplectic")


class TestGrassmannianLeviRuleAtP2:
    @pytest.mark.parametrize(
        "decoration,sizes,v2,counts,dim",
        [
            # a2: q^2 + q + 1
            ([("W", 2, 1)], (2,), (), {2: 7, 4: 21}, 2),
            # c2 and b1 have a V summand and are not Levi: q + 1, dimension 1
            ([("V", 2, 2)], (1, 1), (0, 1), {2: 3, 4: 5}, None),
            ([("V", 2, 1), ("W", 1, 1)], (1, 1), (0,), {2: 3, 4: 5}, None),
            # q^4 + 2q^3 + q^2 + q + 1
            ([("W", 2, 1), ("W", 1, 1)], (2, 1), (), {4: 405}, 4),
        ],
    )
    def test_lagrangian_counts(self, decoration, sizes, v2, counts, dim):
        # matrix_from_class reads the partition only, so the matrix is built by hand
        g = GroupSpec("Sp", 2 * sum(sizes), 2)
        c = validate_class(g, unipotent(decoration=decoration))
        assert grassmannian_fixed_dim(g, c, g.n // 2) == dim
        for q, expected in counts.items():
            count = finfield.invariant_subspace_count(_sp_unipotent_p2(q, sizes, v2), g.n // 2)
            assert count == expected
            if dim is not None:
                assert q**dim <= count < q ** (dim + 1), (q, count)
