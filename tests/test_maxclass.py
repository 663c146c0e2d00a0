"""Unit tests for maximal prime-order classes and the (r, s) limit table."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from topogen.algebra_core import GroupSpec
from topogen.errors import Infeasible, NotApplicable, SchemaError, TopogenError
from topogen.maxclass import QContext, _mult_vectors, exchange_gain, max_class, rs_limit


class TestQContext:
    def test_i_must_divide_r_minus_1(self):
        QContext(r=5, i=4)
        QContext(r=5, i=2)
        with pytest.raises(SchemaError):
            QContext(r=5, i=3)

    def test_r_must_be_prime(self):
        with pytest.raises(SchemaError):
            QContext(r=9)

    def test_t_property(self):
        assert QContext(r=7, i=2).t == 3


class TestExchangeGain:
    def test_formula(self):
        assert exchange_gain(2, 6, 1) == 8
        assert exchange_gain(3, 5, 0) == Fraction(3 * (2 * 5 - 3), 2)


class TestInvolutions:
    def test_sp_odd_char_lambda_pair_wins(self):
        for n, want in ((4, 6), (6, 12), (8, 20)):
            cls, dim = max_class(GroupSpec("Sp", n, 0), QContext(r=2))
            assert dim == want == n * (n + 2) // 4
            assert cls.eigen.pairs and cls.eigen.relations

    def test_sp4_char2(self):
        # involutions at p = 2 are unipotent, so they go through is_p
        cls, dim = max_class(GroupSpec("Sp", 4, 2), QContext(r=2, is_p=True))
        assert dim == 6
        assert cls.unip.as_type == "c"

    def test_so10_char2(self):
        cls, dim = max_class(GroupSpec("SO", 10, 2), QContext(r=2, is_p=True))
        assert dim == 24
        assert cls.unip.partition == (2, 2, 2, 2, 1, 1)


class TestUnipotentMax:
    def test_sp8_p3(self):
        cls, dim = max_class(GroupSpec("Sp", 8, 3), QContext(r=3, is_p=True))
        assert dim == 24
        assert cls.unip.partition == (3, 3, 2)

    def test_so9_p3(self):
        cls, dim = max_class(GroupSpec("SO", 9, 3), QContext(r=3, is_p=True))
        assert dim == 24
        assert cls.unip.partition == (3, 3, 3)

    def test_is_p_needs_positive_characteristic(self):
        with pytest.raises(SchemaError):
            max_class(GroupSpec("Sp", 4, 0), QContext(r=3, is_p=True))

    def test_r_equal_p_needs_flag(self):
        with pytest.raises(SchemaError):
            max_class(GroupSpec("Sp", 4, 3), QContext(r=3))


class TestSemisimpleMax:
    def test_sp8_r5_dims_match_across_i(self):
        g = GroupSpec("Sp", 8, 0)
        _, d1 = max_class(g, QContext(r=5, i=1))
        _, d4 = max_class(g, QContext(r=5, i=4))
        assert d1 == d4 == 28

    @pytest.mark.parametrize("n, r, want", [(2, 3, 2), (3, 3, 6), (4, 5, 12)])
    def test_sl_i1_skips_scalar_candidate(self, n, r, want):
        # with i = 1 the candidate putting one eigenvalue on all of V is
        # central; the maximum is a regular semisimple class, dim n^2 - n
        _, dim = max_class(GroupSpec("SL", n, 0), QContext(r=r, i=1))
        assert dim == want

    def test_sl_r3_i1_near_equal_split(self):
        # three eigenvalues 1, w, w^2 with multiplicities e, a1, a2: the
        # centralizer has dimension e^2 + a1^2 + a2^2 - 1, least when the
        # split of n is near equal
        for n in range(2, 61):
            q, s = divmod(n, 3)
            split = (q + 1,) * s + (q,) * (3 - s)
            _, dim = max_class(GroupSpec("SL", n, 0), QContext(r=3, i=1))
            assert dim == n * n - sum(a * a for a in split), n

    def test_mult_vectors_are_streamed(self):
        # about n^2 / 2 vectors for two slots: never listed at once
        vectors = _mult_vectors(2, 1, 2000)
        assert iter(vectors) is vectors
        assert next(vectors) == (1,)

    def test_infeasible_large_orbit(self):
        # i = 10 eigenvalue orbits cannot fit into dimension 4
        with pytest.raises(Infeasible):
            max_class(GroupSpec("Sp", 4, 0), QContext(r=11, i=10))


def _contexts(p, r):
    """Every QContext of order r in characteristic p."""
    if r == p:
        return [QContext(r=r, is_p=True)]
    if r == 2:
        return [QContext(r=2)]
    return [QContext(r=r, i=i) for i in range(1, r) if (r - 1) % i == 0]


class TestPinnedAnswers:
    GROUPS = {
        "SL": [("SL", n) for n in range(2, 13)],
        "Sp": [("Sp", n) for n in range(4, 13, 2)],
        "SO": [("SO", n) for n in (7, 9, 10, 11, 12)],
    }

    def test_unchanged(self):
        # sha256 of the repr of (class, dim), or of the name of the error
        # raised, for SL2-12, Sp4-12 and SO7-12 at p = 0, 2, 3, 5 and every
        # r in (2, 3, 5, 7) and i, as computed when every candidate class was
        # built and validated; first 16 hex digits
        digests = {
            "SL": (407, "2973f4c60c634790"),
            "Sp": (185, "c6bde9767a80f7c6"),
            "SO": (155, "71aededa3dd0be98"),
        }
        got = {}
        for key, groups in self.GROUPS.items():
            answers = []
            for (family, n), p, r in itertools.product(groups, (0, 2, 3, 5), (2, 3, 5, 7)):
                if family == "SO" and n % 2 and p == 2:
                    continue
                for ctx in _contexts(p, r):
                    try:
                        answers.append(max_class(GroupSpec(family, n, p), ctx))
                    except TopogenError as exc:
                        answers.append(type(exc).__name__)
            got[key] = (len(answers), hashlib.sha256(repr(answers).encode()).hexdigest()[:16])
        assert got == digests

    def test_sl2000(self):
        g = GroupSpec("SL", 2000, 0)
        # (1^1000, (-1)^1000) ties at n^2 / 2; repr order picks the lam pair
        cls, dim = max_class(g, QContext(r=2))
        assert dim == 2000**2 // 2
        assert cls.eigen.pairs == (("l1", 1000),) and cls.eigen.mult_one == 0
        # i = 2: one Frobenius orbit of two order-3 eigenvalues, each a times,
        # and 1 on the other 2000 - 2a; a = 667 spreads them most evenly
        cls, dim = max_class(g, QContext(r=3, i=2))
        assert dim == 2000**2 - 666**2 - 2 * 667**2
        assert cls.eigen.mult_one == 666


class TestRsLimit:
    def test_sp4_exceptional_rows(self):
        assert rs_limit("Sp", 4, 2, 2, 3) == 0
        assert rs_limit("Sp", 4, 3, 2, 3) == 0
        assert rs_limit("Sp", 4, 7, 2, 3) == Fraction(1, 2)
        assert rs_limit("Sp", 4, 3, 3, 3) == 0
        assert rs_limit("Sp", 4, 2, 3, 3) == Fraction(1, 2)
        assert rs_limit("Sp", 4, 7, 3, 3) == Fraction(3, 4)

    def test_generic_limit_is_one(self):
        assert rs_limit("Sp", 8, 0, 2, 3) == 1
        assert rs_limit("SL", 5, 0, 3, 5) == 1

    def test_two_involutions_not_applicable(self):
        with pytest.raises(NotApplicable):
            rs_limit("Sp", 8, 0, 2, 2)

    def test_nonprime_rejected(self):
        with pytest.raises(NotApplicable):
            rs_limit("Sp", 8, 0, 4, 3)
