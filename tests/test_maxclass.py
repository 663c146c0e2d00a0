"""Unit tests for maximal prime-order classes and the (r, s) limit table."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from topogen import maxclass
from topogen.algebra_core import MAX_BLOCKS, GroupSpec, semisimple, validate_class
from topogen.errors import BoundExceeded, Infeasible, NotApplicable, SchemaError, TopogenError
from topogen.invariants import class_dim
from topogen.maxclass import MAX_LABELS, QContext, exchange_gain, max_class, rs_limit
from topogen.stabilizers import _shape_table


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

    @pytest.mark.parametrize("r", [2, 7])
    def test_flag_needs_r_equal_p(self, r):
        with pytest.raises(SchemaError, match="is_p needs r = p"):
            max_class(GroupSpec("Sp", 4, 3), QContext(r=r, is_p=True))

    def test_past_n_12(self):
        # Sp14 at p = 3 pairs lam with lam^-1 = -lam, 7 times each
        cls, dim = max_class(GroupSpec("Sp", 14, 3), QContext(r=2))
        assert dim == 105 - 49 and cls.eigen.pairs == (("l1", 7),)
        # SO14 at p = 2: c_6 = V(2)^2 + W(2)^2 + W(1)
        cls, dim = max_class(GroupSpec("SO", 14, 2), QContext(r=2, is_p=True))
        assert cls.unip.decoration == (("V", 2, 2), ("W", 2, 2), ("W", 1, 1))
        assert dim == 48

    def test_block_cap(self, monkeypatch):
        # (3^333333, 1) has more than MAX_BLOCKS blocks; it is refused before
        # the partition is built
        def unbuilt(**kwargs):
            raise AssertionError("the partition was built")

        monkeypatch.setattr(maxclass, "unipotent", unbuilt)
        with pytest.raises(BoundExceeded, match=str(MAX_BLOCKS)):
            max_class(GroupSpec("SL", 10**6, 3), QContext(r=3, is_p=True))


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


def _argmax_by_dim(classes, group):
    """(class, dim) of greatest class dimension among those of ``classes``
    that validate in ``group``, ties going to the least repr; None if none
    does."""
    best = None
    for cls in classes:
        try:
            cls = validate_class(group, cls)
        except TopogenError:
            continue
        dim = class_dim(group, cls).dim_class
        if best is None or dim > best[1] or (dim == best[1] and repr(cls) < repr(best[0])):
            best = (cls, dim)
    return best


def _reference_semisimple_max(group, ctx):
    """max_class by exhaustive search: one class for every nonincreasing
    multiplicity vector (a_1 >= ... >= a_k) with k at most the number of
    eigenvalue slots and i-orbits of total dimension at most n."""
    n, r, i = group.n, ctx.r, ctx.i
    if group.family == "SL":
        slots, weight, per_slot, kind = ctx.t, i, i, "free"
    elif i % 2 == 0:
        slots, weight, per_slot, kind = ctx.t, i, i // 2, "pairs"
    else:
        slots, weight, per_slot, kind = ctx.t // 2, 2 * i, i, "pairs"

    def vectors(prefix, cap, left):
        for a in range(1, min(cap, left // weight) + 1):
            yield prefix + (a,)
            if len(prefix) + 1 < slots:
                yield from vectors(prefix + (a,), a, left - weight * a)

    def classes():
        for mults in vectors((), n, n) if slots else ():
            labels = [(f"l{j + 1}_{k + 1}", a) for j, a in enumerate(mults) for k in range(per_slot)]
            yield semisimple(
                ones=n - weight * sum(mults),
                relations={lab: f"order:{r}" for lab, _ in labels},
                order=r,
                **{kind: labels},
            )

    return _argmax_by_dim(classes(), group)


class TestReferenceSearch:
    """max_class against a brute-force ranking of every candidate class."""

    @pytest.mark.parametrize(
        "family, ns",
        [("SL", range(2, 17)), ("Sp", range(4, 17, 2)), ("SO", [n for n in range(7, 17) if n != 8])],
    )
    def test_semisimple(self, family, ns):
        for n, p, r in itertools.product(ns, (0, 3, 5), (3, 5, 7, 11, 13)):
            if r == p:
                continue
            group = GroupSpec(family, n, p)
            for ctx in _contexts(p, r):
                want = _reference_semisimple_max(group, ctx)
                if want is None:
                    with pytest.raises(Infeasible):
                        max_class(group, ctx)
                    continue
                cls, dim = max_class(group, ctx)
                assert (repr(cls), dim) == (repr(want[0]), want[1]), (group, ctx)

    def test_sl_involutions(self):
        for n, p in itertools.product(range(2, 41), (0, 3, 5)):
            group = GroupSpec("SL", n, p)
            classes = [semisimple(ones=n - b, minus_ones=b, order=2) for b in range(2, n, 2)]
            if n % 2 == 0:
                classes.append(
                    semisimple(pairs=[("l1", n // 2)], relations={"l1": "square_is_minus_one"}, order=2)
                )
            cls, dim = max_class(group, QContext(r=2))
            want = _argmax_by_dim(classes, group)
            assert (repr(cls), dim) == (repr(want[0]), want[1]), n


def _shape_table_max(group, ctx):
    """(class, dim) of greatest class dimension, ties going to the least
    repr, among the shapes of order r in the class shape table, with no
    bound on n: the unipotent shapes for r = p, the involutions otherwise."""
    target = group.class_group()
    if ctx.is_p:
        shapes = [c for c in _shape_table(target) if c.kind == "unipotent"]
    else:
        shapes = [c for c in _shape_table(target) if c.kind == "semisimple" and c.order == 2]
    return _argmax_by_dim(shapes, target)


class TestShapeTableReference:
    """max_class in closed form against a ranking of the class shape table,
    past the n <= 12 bound of enumerate_class_shapes. The table lists no
    SL involution; test_sl_involutions ranks those."""

    GROUPS = (
        [("SL", n) for n in range(2, 29)]
        + [("Sp", n) for n in range(4, 29, 2)]
        + [("SO", n) for n in range(5, 29) if n != 8]
        + [("Spin8", 8)]
    )

    @pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 11])
    def test_agrees(self, p):
        checked = 0
        for family, n in self.GROUPS:
            if family == "SO" and n % 2 and p == 2:
                continue
            group = GroupSpec(family, n, p)
            for ctx in ([QContext(r=p, is_p=True)] if p else []) + ([QContext(r=2)] if p != 2 else []):
                if group.class_group().family == "SL" and not ctx.is_p:
                    continue
                want = _shape_table_max(group, ctx)
                cls, dim = max_class(group, ctx)
                assert (repr(cls), dim) == (repr(want[0]), want[1]), (group, ctx)
                checked += 1
        assert checked


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


class TestSemisimpleSweep:
    GROUPS = {
        "SL": [("SL", n) for n in range(2, 41)],
        "Sp": [("Sp", n) for n in range(4, 41, 2)],
        "SO": [("SO", n) for n in range(6, 41) if n != 8],
    }

    def test_unchanged(self):
        # sha256 of the repr of (class, dim), or of the name of the error
        # raised, for SL2-40, Sp4-40 and SO6-40 at p = 0, 2, 3, 5, 7, 11,
        # every r in (3, 5, 7, 11, 13) other than p and every i, as computed
        # by a search over every multiplicity vector; first 16 hex digits
        digests = {
            "SL": (3939, "0fed661afd3e1b3b"),
            "Sp": (1919, "dfe79ffbc77d60fd"),
            "SO": (3111, "6c448428ac379ae4"),
        }
        got = {}
        for key, groups in self.GROUPS.items():
            answers = []
            for (family, n), p, r in itertools.product(groups, (0, 2, 3, 5, 7, 11), (3, 5, 7, 11, 13)):
                if r == p or (family == "SO" and n % 2 and p == 2):
                    continue
                for ctx in _contexts(p, r):
                    try:
                        answers.append(max_class(GroupSpec(family, n, p), ctx))
                    except TopogenError as exc:
                        answers.append(type(exc).__name__)
            got[key] = (len(answers), hashlib.sha256(repr(answers).encode()).hexdigest()[:16])
        assert got == digests

    def test_sl2000_i1(self):
        g = GroupSpec("SL", 2000, 0)
        # r = 3: 1, w, w^2 split 2000 as 667, 667, 666
        _, dim = max_class(g, QContext(r=3, i=1))
        assert dim == 2666666 == 2000**2 - 2 * 667**2 - 666**2
        # r = 13: 13 eigenvalues, 2000 = 153 * 13 + 11
        _, dim = max_class(g, QContext(r=13, i=1))
        assert dim == 3692306 == 2000**2 - 11 * 154**2 - 2 * 153**2

    @pytest.mark.parametrize("r", [1000000007, 2**63 + 29])
    def test_large_r(self, r):
        # once there are more slots than blocks, r no longer changes the
        # answer; r - 1 slots must not be materialised
        sl3 = GroupSpec("SL", 3, 0)
        assert max_class(sl3, QContext(r=r))[1] == max_class(sl3, QContext(r=5))[1] == 6
        for family, n in [("SL", 7), ("Sp", 8), ("SO", 9), ("SO", 10)]:
            g = GroupSpec(family, n, 0)
            small, dim = max_class(g, QContext(r=11))
            cls, big_dim = max_class(g, QContext(r=r))
            assert big_dim == dim and cls.eigen.mult_one == small.eigen.mult_one


    def test_huge_n(self):
        # the best number of blocks is found by bisection, not by a scan over
        # every s up to n / weight
        n = 10**30
        cls, dim = max_class(GroupSpec("SL", n, 0), QContext(r=3))
        third = n // 3
        assert cls.eigen.mult_one == third and sorted(m for _, m in cls.eigen.free) == [third, third + 1]
        assert dim == n * n - 2 * third**2 - (third + 1) ** 2

    def test_label_cap(self):
        # every one of the r - 1 eigenvalues of order r is used once n is
        # large enough; past MAX_LABELS labels the class is refused
        g = GroupSpec("Sp", 2 * MAX_LABELS + 4, 0)
        with pytest.raises(BoundExceeded):
            max_class(g, QContext(r=1000003))
        # 8191 is prime: (8191 - 1) / 2 pairs of eigenvalues, just below the cap
        cls, _ = max_class(g, QContext(r=8191))
        assert len(cls.eigen.pairs) == 4095 < MAX_LABELS


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

    @pytest.mark.parametrize("r,s", [(2.0, 3), (2, 3.0)])
    def test_orders_must_be_integers(self, r, s):
        # 2.0 and 3.0 pass the primality test, and the table would answer 1/2
        with pytest.raises(SchemaError, match="must be an integer"):
            rs_limit("Sp", 4, 5, r, s)
