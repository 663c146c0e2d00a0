"""Oracle tests for values derived by hand rather than quoted directly.

Each expected value below was worked out independently (by explicit small
matrix computation, exhaustive enumeration, or the calibrated characteristic-2
dimension rules) before the corresponding library code was written.
"""

import pytest

from topogen.algebra_core import GroupSpec, semisimple, unipotent, validate_class
from topogen.closure import in_closure, smallest_class_with_blocks
from topogen.errors import SchemaError
from topogen.invariants import class_dim, sym2_fixed_dim, wedge2_fixed_dim
from topogen.maxclass import exchange_gain
from topogen.oracle import _so6_image, so6_transfer
from topogen.stabilizers import enumerate_class_shapes
from topogen import finfield


SP4_2 = GroupSpec("Sp", 4, 2)
SP6_2 = GroupSpec("Sp", 6, 2)
SP8_2 = GroupSpec("Sp", 8, 2)
SO8_2 = GroupSpec("SO", 10, 2)  # placeholder; real SO8 goes through Spin8


def invol(group, s, vcount):
    """Char-2 involution with s Jordan blocks of size 2, vcount V(2) summands."""
    dec = []
    if vcount:
        dec.append({"V": 2, "mult": vcount})
    w2 = (s - vcount) // 2
    if w2:
        dec.append({"W": 2, "mult": w2})
    w1 = (group.n - 2 * s) // 2
    if w1:
        dec.append({"W": 1, "mult": w1})
    return validate_class(group, unipotent(decoration=dec, order=2))


class TestChar2ClassDimensions:
    """Calibrated characteristic-2 centralizer dimensions.

    Rule: for an involution with Jordan type (2^s, 1^(n-2s)) in Sp_n the
    centralizer dimension is the odd-characteristic value, plus s exactly
    for a-type decorations; the SO_n value is the Sp_n value minus the
    number of Jordan blocks.
    """

    def test_sp4_a2_class_dim_4(self):
        c = invol(SP4_2, 2, 0)
        assert class_dim(SP4_2, c).dim_class == 4

    def test_sp4_b1_class_dim_4(self):
        c = invol(SP4_2, 1, 1)
        assert class_dim(SP4_2, c).dim_class == 4

    def test_sp6_b1_class_dim_6(self):
        c = invol(SP6_2, 1, 1)
        assert class_dim(SP6_2, c).dim_class == 6

    def test_sp6_a2_class_dim_8(self):
        c = invol(SP6_2, 2, 0)
        assert class_dim(SP6_2, c).dim_class == 8

    def test_sp6_c2_class_dim_10(self):
        c = invol(SP6_2, 2, 2)
        assert class_dim(SP6_2, c).dim_class == 10

    def test_sp8_a4_class_dim_16(self):
        c = invol(SP8_2, 4, 0)
        assert class_dim(SP8_2, c).dim_class == 16

    def test_spin8_c2_class_dim_12(self):
        g = GroupSpec("Spin8", 8, 2)
        c = invol(g, 2, 2)
        assert class_dim(g, c).dim_class == 12

    def test_spin8_a2_class_dim_10(self):
        g = GroupSpec("Spin8", 8, 2)
        c = invol(g, 2, 0)
        assert class_dim(g, c).dim_class == 10

    def test_spin8_c4_class_dim_16(self):
        g = GroupSpec("Spin8", 8, 2)
        c = invol(g, 4, 2)
        assert class_dim(g, c).dim_class == 16

    def test_so12_c6_class_dim_36(self):
        g = GroupSpec("SO", 12, 2)
        c = invol(g, 6, 2)
        # n^2/4 for the largest involution class when n = 0 mod 4
        assert class_dim(g, c).dim_class == 36

    def test_sp8_char2_semisimple_dim_14(self):
        g = GroupSpec("Sp", 8, 2)
        c = validate_class(g, semisimple(ones=6, pairs=[1], order=3))
        assert class_dim(g, c).dim_class == 14


class TestSym2FixedDim:
    def test_partition_2_1_char2_is_4(self):
        # Independently checked by forming S^2(J2 + J1) over GF(2) (6-dim)
        # and counting Jordan blocks via rank(g - 1).
        assert sym2_fixed_dim((2, 1), 2) == 4

    def test_matches_explicit_matrix_over_gf2(self):
        F = finfield.Field(2)
        a = ((1, 1, 0), (0, 1, 0), (0, 0, 1))  # J2 + J1
        m = finfield.GFMatrix(q=2, entries=a, form=None, form_kind=None)
        s2 = finfield.induced_matrix(m, "sym2")
        jt = finfield.jordan_type(s2)
        assert sum(1 for _ in jt[F.one]) == 4

    def test_trivial_partition(self):
        assert sym2_fixed_dim((1, 1, 1), 5) == 6


class TestClosureChar2:
    def test_v4_reaches_w2(self):
        g = GroupSpec("Sp", 4, 2)
        upper = validate_class(g, unipotent(decoration=[{"V": 4, "mult": 1}]))
        lower = validate_class(g, unipotent(decoration=[{"W": 2, "mult": 1}], order=2))
        assert in_closure(g, upper, lower)

    def test_w2_not_above_v4(self):
        g = GroupSpec("Sp", 4, 2)
        upper = validate_class(g, unipotent(decoration=[{"V": 4, "mult": 1}]))
        lower = validate_class(g, unipotent(decoration=[{"W": 2, "mult": 1}], order=2))
        assert not in_closure(g, lower, upper)


class TestSmallestClass:
    def test_sp6_three_blocks(self):
        g = GroupSpec("Sp", 6, 3)
        c = smallest_class_with_blocks(g, 3)
        assert c.unip.partition == (2, 2, 2)

    def test_so10_six_blocks(self):
        g = GroupSpec("SO", 10, 3)
        c = smallest_class_with_blocks(g, 6)
        assert c.unip.partition == (2, 2, 2, 2, 1, 1)

    def test_sl5_two_blocks(self):
        g = GroupSpec("SL", 5, 0)
        c = smallest_class_with_blocks(g, 2)
        assert c.unip.partition == (3, 2)


class TestSO6Transfer:
    def test_quadratic_pair_pattern(self):
        # (lam I2, lam^-1 I2) in SL4: products lam^2, 1 (x4), lam^-2
        cls = validate_class(GroupSpec("SL", 4, 0), semisimple(pairs=[2], order=None))
        prof = so6_transfer(cls)
        assert prof.d == 4 and prof.e == 4

    def test_unipotent_22(self):
        cls = validate_class(GroupSpec("SL", 4, 3), unipotent(partition=(2, 2), order=3))
        prof = so6_transfer(cls)
        assert prof.d == 4 and prof.e == 4

    def test_three_one_semisimple(self):
        # (mu I3, nu): products mu^2 (x3) and mu*nu (x3): d = 3, e = 0
        cls = validate_class(
            GroupSpec("SL", 4, 0), semisimple(free=[("m", 3), ("n", 1)])
        )
        prof = so6_transfer(cls)
        assert prof.d == 3 and prof.e == 0

    @pytest.mark.parametrize(
        "group,shape",
        [
            (GroupSpec("SL", 3, 0), semisimple(ones=2, minus_ones=1, order=2)),
            (GroupSpec("SL", 5, 3), unipotent(partition=(2, 2, 1), order=3)),
        ],
    )
    def test_refuses_other_dimensions(self, group, shape):
        with pytest.raises(SchemaError, match="transfer expects a 4-dimensional class"):
            so6_transfer(validate_class(group, shape))

    @pytest.mark.parametrize(
        "shape,want",
        [
            # (1, 1, -1, -1): products 1 (x2) and -1 (x4)
            (semisimple(ones=2, minus_ones=2, order=2), (4, 2, True)),
            # (a, a, a^-1, a^-1), a of order 4: a^2 = a^-2 (x2) and 1 (x4)
            (semisimple(pairs=[("a", 2)], relations={"a": "order:4"}, order=2), (4, 4, True)),
        ],
    )
    def test_against_the_exterior_square_matrix(self, shape, want):
        # (d, e, quadratic) of the symbolic products against the Jordan type
        # of a matrix of the class on the exterior square over GF(5)
        cls = validate_class(GroupSpec("SL", 4, 0), shape)
        prof, quadratic = _so6_image(cls, 0)
        assert (prof.d, prof.e, quadratic) == want
        assert so6_transfer(cls) == prof
        m = finfield.matrix_from_class(GroupSpec("SL", 4, 5), shape, 5)
        jt = finfield.jordan_type(finfield.induced_matrix(m, "wedge2"))
        assert (max(map(len, jt.values())), len(jt.get(1, ())), sum(max(p) for p in jt.values()) == 2) == want


class TestWedge2:
    def test_j2m_j1_exact(self):
        # (J2^m, J1) on the exterior square has m(m+1) Jordan blocks
        for m in (2, 4):
            n = 2 * m + 1
            g = GroupSpec("SO", n, 3)
            cls = validate_class(g, unipotent(partition=(2,) * m + (1,), order=3))
            exact, upper = wedge2_fixed_dim(n, cls)
            assert exact == m * (m + 1)
            assert exact <= upper

    def test_semisimple_exact_example(self):
        g = GroupSpec("SL", 5, 0)
        cls = validate_class(g, semisimple(pairs=[2], free=[("m", 1)]))
        exact, upper = wedge2_fixed_dim(5, cls)
        assert exact == 4


class TestShapeEnumeration:
    def test_sp4_unipotent_shapes_p3(self):
        g = GroupSpec("Sp", 4, 3)
        shapes = enumerate_class_shapes(g, constraints={"kind": "unipotent"})
        parts = sorted(c.unip.partition for c in shapes)
        assert parts == [(2, 1, 1), (2, 2)]

    def test_so5_unipotent_shapes_p5(self):
        g = GroupSpec("SO", 5, 5)
        shapes = enumerate_class_shapes(g, constraints={"kind": "unipotent"})
        parts = sorted(c.unip.partition for c in shapes)
        assert parts == [(2, 2, 1), (3, 1, 1), (5,)]

    def test_sp4_involution_shapes(self):
        g = GroupSpec("Sp", 4, 0)
        shapes = enumerate_class_shapes(
            g, constraints={"kind": "semisimple", "order": 2}
        )
        keys = set()
        for c in shapes:
            keys.add((c.eigen.mult_one, c.eigen.mult_minus_one, c.eigen.pairs))
        assert ((2, 2, ()) in keys) or ((0, 2, ()) in keys)  # (-I2, I2)
        assert any(p == (("l1", 2),) for (_, _, p) in keys)  # (lam I2, lam^-1 I2)


class TestExchangeBound:
    def test_gain_formula(self):
        # moving one i-block out of the 1-eigenspace changes the class
        # dimension by i*(e - a1 - i/2)
        assert exchange_gain(i=2, e=6, a1=1) == 2 * (6 - 1 - 1)
        assert exchange_gain(i=4, e=8, a1=0) == 4 * (8 - 0 - 2)


class TestFinfieldDerived:
    def test_so10_semisimple_eigendims(self):
        g = GroupSpec("SO", 10, 0)
        cls = validate_class(
            g, semisimple(ones=2, pairs=[("a", 4)], relations={"a": "order:5"}, order=5)
        )
        m = finfield.matrix_from_class(g, cls, 11)
        jt = finfield.jordan_type(m)
        dims = sorted(sum(part) for part in jt.values())
        assert dims == [2, 4, 4]

    def test_so10_unipotent_centralizer(self):
        g = GroupSpec("SO", 10, 3)
        cls = validate_class(g, unipotent(partition=(2, 2, 2, 2, 1, 1), order=3))
        m = finfield.matrix_from_class(g, cls, 3)
        assert finfield.centralizer_lie_dim(g, m) == 25

    def test_sp4_q3_order(self):
        gens = finfield.standard_generators("Sp", 4, 3)
        size, truncated = finfield.group_closure(gens, cap=60000)
        assert not truncated
        assert size == 51840 == finfield.group_order("Sp", 4, 3)
