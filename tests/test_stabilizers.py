"""Unit tests for generically-free thresholds, shape enumeration and c(G)."""

from fractions import Fraction

import pytest

from topogen.algebra_core import GroupSpec
from topogen.errors import BoundExceeded, SchemaError, TopogenError, UnsupportedGroup
import topogen.oracle
from topogen.stabilizers import (
    _c_value,
    _semisimple_shapes,
    _unipotent_shapes,
    c_value,
    d_value,
    dprime_value,
    enumerate_class_shapes,
    generically_free,
)

from test_oracle import _sweep_groups


class TestThresholds:
    def test_sl2_row(self):
        assert d_value(GroupSpec("SL", 2, 0)) == 6
        assert dprime_value(GroupSpec("SL", 2, 0)) == 9

    def test_sl_general(self):
        assert d_value(GroupSpec("SL", 4, 0)) == Fraction(9, 4) * 16

    def test_sp_correction_terms(self):
        assert d_value(GroupSpec("Sp", 4, 0)) == Fraction(9, 8) * 16 + 2
        assert d_value(GroupSpec("Sp", 6, 2)) == Fraction(9, 8) * 36 + 2
        assert d_value(GroupSpec("Sp", 6, 3)) == Fraction(9, 8) * 36
        assert dprime_value(GroupSpec("Sp", 6, 3)) == Fraction(3, 2) * 36

    def test_orthogonal_rows(self):
        assert d_value(GroupSpec("SO", 9, 3)) == Fraction(9, 8) * 81
        assert dprime_value(GroupSpec("SO", 9, 3)) == 2 * 64
        assert d_value(GroupSpec("Spin8", 8, 0)) == Fraction(9, 8) * 64

    def test_exceptional_lookup(self):
        assert d_value("E8") == 720
        assert dprime_value("G2") == 48
        with pytest.raises(UnsupportedGroup):
            d_value("E9")

    def test_small_orthogonal_untabulated(self):
        with pytest.raises(UnsupportedGroup):
            d_value(GroupSpec("SO", 5, 3))


class TestGenericallyFree:
    def test_strict_inequality(self):
        g = GroupSpec("SL", 2, 0)
        assert not generically_free(g, 6, 0)  # 6 is not > 6
        assert generically_free(g, 7, 0)
        assert not generically_free(g, 10, 4)

    def test_fixed_space_sanity(self):
        with pytest.raises(UnsupportedGroup):
            generically_free("E8", 10, 11)

    def test_dimensions_must_be_integers(self):
        g = GroupSpec("SL", 2, 0)
        with pytest.raises(SchemaError, match="dimV must be an integer, not 30.5"):
            generically_free(g, 30.5, 0)
        with pytest.raises(SchemaError, match="dimVG must be an integer"):
            generically_free(g, 30, 0.0)

    def test_group_must_be_a_group_or_a_type_name(self):
        with pytest.raises(SchemaError, match="not 5"):
            generically_free(5, 30, 0)


class TestShapeEnumeration:
    def test_bound_exceeded(self):
        with pytest.raises(BoundExceeded):
            enumerate_class_shapes(GroupSpec("SL", 14, 0))

    def test_constraints_filter(self):
        g = GroupSpec("Sp", 4, 0)
        unip = enumerate_class_shapes(g, constraints={"kind": "unipotent"})
        assert all(c.kind == "unipotent" for c in unip)
        invols = enumerate_class_shapes(g, constraints={"kind": "semisimple", "order": 2})
        assert all(c.kind == "semisimple" for c in invols)
        assert len(invols) >= 2  # (-I2, I2) and the lam-pair at least

    def test_char2_decorated_involutions(self):
        g = GroupSpec("Sp", 6, 2)
        unip = enumerate_class_shapes(g, constraints={"kind": "unipotent"})
        labels = sorted(c.unip.as_type for c in unip)
        # a1..a?, b1, b2, c... : all types occur
        assert "a" in labels and "b" in labels and "c" in labels
        assert all(max(c.unip.partition) == 2 for c in unip)

    def test_no_duplicates(self):
        g = GroupSpec("SO", 9, 3)
        shapes = enumerate_class_shapes(g)
        reprs = [repr(c) for c in shapes]
        assert len(reprs) == len(set(reprs))


def _fresh_shapes(group, constraints):
    """The shapes as enumerate_class_shapes built them on every call before
    they were tabled: the kinds asked for, filtered by order, deduplicated."""
    target = group.class_group()
    kind, order = constraints.get("kind"), constraints.get("order")
    shapes = []
    if kind in (None, "unipotent"):
        shapes.extend(_unipotent_shapes(target))
    if kind in (None, "semisimple"):
        shapes.extend(_semisimple_shapes(target))
    if order is not None:
        shapes = [c for c in shapes if c.order in (order, None)]
    unique = []
    for c in shapes:
        if repr(c) not in map(repr, unique):
            unique.append(c)
    return unique


class TestShapeTable:
    CONSTRAINTS = (
        {},
        {"kind": "unipotent"},
        {"kind": "semisimple"},
        {"order": 2},
        {"order": 3},
        {"order": 5},
        {"kind": "unipotent", "order": 2},
        {"kind": "unipotent", "order": 3},
        {"kind": "semisimple", "order": 2},
        {"kind": "semisimple", "order": 3},
    )

    def test_matches_a_fresh_build(self):
        for g in _sweep_groups((0, 2, 3, 5)):
            for constraints in self.CONSTRAINTS:
                want = [repr(c) for c in _fresh_shapes(g, constraints)]
                for _ in range(2):
                    got = enumerate_class_shapes(g, constraints or None)
                    assert [repr(c) for c in got] == want, (g, constraints)

    def test_returned_list_is_the_callers(self):
        g = GroupSpec("Sp", 6, 3)
        want = enumerate_class_shapes(g)
        mutated = enumerate_class_shapes(g)
        assert mutated == want and mutated is not want
        mutated.reverse()
        mutated.pop()
        assert enumerate_class_shapes(g) == want == _fresh_shapes(g, {})

    def test_bound_checked_before_the_table(self):
        for g, bound in ((GroupSpec("SL", 10, 0), 9), (GroupSpec("Spin8", 8, 3), 7)):
            assert enumerate_class_shapes(g)
            with pytest.raises(BoundExceeded):
                enumerate_class_shapes(g, bound=bound)
            assert enumerate_class_shapes(g, bound=bound + 1) == enumerate_class_shapes(g)


class TestCValue:
    def test_sp4_odd(self):
        cv = c_value(GroupSpec("Sp", 4, 0))
        assert cv.c == 20
        assert cv.r == 5
        pat = cv.witness.eigen
        assert (pat.mult_one, pat.mult_minus_one) in ((2, 2),)

    def test_sp4_char2(self):
        cv = c_value(GroupSpec("Sp", 4, 2))
        assert cv.c == 20

    def test_spin8(self):
        cv = c_value(GroupSpec("Spin8", 8, 0))
        assert cv.c == 48
        assert cv.r == 3
        assert cv.skipped  # some shapes have no catalogued dimension data


def _outcome(fn, group):
    try:
        return fn(group)
    except TopogenError as exc:
        return type(exc).__name__


class TestCValueTable:
    def test_repeat_and_fresh_calls_agree(self):
        # the sweep includes SO6, whose class group is SL4
        groups = _sweep_groups((0, 2, 3, 5))
        first = [_outcome(c_value, g) for g in groups]
        second = [_outcome(c_value, g) for g in groups]
        _c_value.cache_clear()
        fresh = [_outcome(c_value, g) for g in groups]
        assert first == second == fresh

    def test_so6_has_its_own_entry(self, monkeypatch):
        # SO6 shares SL4's shapes but its r and dim C come from SO6 itself
        seen = []
        real = topogen.oracle.min_generators

        def recording(group, cls):
            seen.append(group)
            return real(group, cls)

        monkeypatch.setattr(topogen.oracle, "min_generators", recording)
        _c_value.cache_clear()
        for p in (0, 2, 3, 5):
            so6, sl4 = GroupSpec("SO", 6, p), GroupSpec("SL", 4, p)
            c_value(sl4)
            seen.clear()
            assert c_value(so6) == _c_value.__wrapped__(so6)
            assert seen and set(seen) == {so6}
        assert _c_value.cache_info().currsize == 8

    def test_bound_checked_before_the_table(self):
        g = GroupSpec("Sp", 12, 3)
        cv = c_value(g)
        with pytest.raises(BoundExceeded):
            c_value(g, bound=8)
        assert c_value(g, bound=12) == cv
