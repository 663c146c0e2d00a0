"""Unit tests for eigenspace profiles, class dimensions and induced actions."""

import pytest

from topogen.algebra_core import GroupSpec, dim_and_rank, semisimple, unipotent, validate_class
from topogen.closure import enumerate_unipotent_partitions, in_closure
from topogen.errors import NotApplicable, UnsupportedChar2Class
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
