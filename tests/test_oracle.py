"""Unit tests for the emptiness decision engine."""

import dataclasses
import hashlib
import itertools
import pickle
import random

import pytest

from topogen.algebra_core import GroupSpec, semisimple, unipotent, validate_class
from topogen.errors import (
    BadCharacteristic,
    MissingSpin8Profile,
    OutsideCatalog,
    SchemaError,
    TopogenError,
    UnsupportedGroup,
)
from topogen.closure import in_closure
from topogen.invariants import class_dim, eigen_profile
from topogen.oracle import (
    decide,
    min_generators,
    scott_lower_bound,
    so6_transfer,
    spin8_profile,
)
from topogen.stabilizers import enumerate_class_shapes

SP4 = GroupSpec("Sp", 4, 0)
MI22 = semisimple(ones=2, minus_ones=2, order=2)


def lampair(n_half, order=2):
    return semisimple(
        pairs=[("l", n_half)], relations={"l": "square_is_minus_one"}, order=order
    )


class TestDispatchOrder:
    def test_needs_two_classes(self):
        with pytest.raises(SchemaError):
            decide(SP4, [MI22])

    def test_dim_obstruction_fires_first(self):
        g = GroupSpec("SL", 4, 0)
        big = semisimple(free=[("a", 3), ("b", 1)])
        v = decide(g, [big, big])
        assert v.empty and v.reason == "DimObstruction"
        assert v.witnesses["sum_d"] == 6

    def test_sp_char2_fixed_vector_rule(self):
        g = GroupSpec("Sp", 4, 2)
        # a2 pair: sum d = 4 = n(r-1) passes the eigenspace rule, but the
        # fixed-vector rule (>= rather than >) still rejects it
        a2 = unipotent(decoration=[{"W": 2, "mult": 1}], order=2)
        v = decide(g, [a2, a2])
        assert v.empty and v.reason == "SpChar2FixedVector"
        b1 = unipotent(decoration=[{"V": 2, "mult": 1}, {"W": 1, "mult": 1}], order=2)
        ss = semisimple(ones=2, pairs=[1], order=3)
        v2 = decide(g, [ss, b1, b1])
        assert v2.empty and v2.reason == "SpChar2FixedVector"
        assert v2.witnesses["sum_e"] == 8

    def test_quadratic_pair(self):
        g = GroupSpec("Sp", 6, 3)
        c = unipotent(partition=(2, 2, 2))
        v = decide(g, [c, c])
        assert v.empty and v.reason == "QuadraticPair"

    def test_sl2_order2_pair(self):
        g = GroupSpec("SL", 2, 0)
        c = lampair(1)
        v = decide(g, [c, c])
        assert v.empty and v.reason == "FamilyTheoremCase" and v.case_id == "sl2"

    def test_generic_nonempty(self):
        g = GroupSpec("SL", 5, 0)
        reg = semisimple(free=[(f"l{i}", 1) for i in range(5)])
        v = decide(g, [reg, reg])
        assert not v.empty and v.reason == "Generic"


class TestFamilyCases:
    def test_sp6_exception_both_partners(self):
        g = GroupSpec("Sp", 6, 3)
        mi = semisimple(ones=4, minus_ones=2, order=2)
        for partner in (unipotent(partition=(3, 3)), semisimple(ones=2, pairs=[2])):
            v = decide(g, [mi, partner])
            assert v.empty and v.case_id == "sp6odd-ii"
            # order of the tuple must not matter
            assert decide(g, [partner, mi]).case_id == "sp6odd-ii"

    def test_sp8_exception(self):
        g = GroupSpec("Sp", 8, 3)
        mi = semisimple(ones=4, minus_ones=4, order=2)
        for partner in (
            semisimple(ones=4, pairs=[2]),
            semisimple(ones=4, pairs=[1, 1]),
            unipotent(partition=(3, 3, 1, 1)),
        ):
            v = decide(g, [mi, partner])
            assert v.empty and v.case_id == "spodd-ii"

    def test_minus_twist_matching(self):
        # (-I2, I4) and (I2, -I4) label the same projective pair
        g = GroupSpec("Sp", 6, 3)
        mi_twisted = semisimple(ones=2, minus_ones=4, order=2)
        v = decide(g, [mi_twisted, unipotent(partition=(3, 3))])
        assert v.empty and v.case_id == "sp6odd-ii"

    def test_so_odd_semisimple_not_twisted(self):
        # the SO_{2m+1} r=2 row pairs (J2^m, J1) with (I1, lam I_m, ...) only
        g = GroupSpec("SO", 13, 3)
        u = unipotent(partition=(2,) * 6 + (1,))
        good = semisimple(ones=1, pairs=[6])
        v = decide(g, [u, good])
        assert v.empty and v.reason == "TableRow" and v.case_id == "SO13-r2"

    def test_sp4_char2_cases(self):
        g = GroupSpec("Sp", 4, 2)
        a2 = unipotent(decoration=[{"W": 2, "mult": 1}], order=2)
        c2 = unipotent(decoration=[{"V": 2, "mult": 2}], order=2)
        v3 = decide(g, [a2, a2, c2])
        assert v3.empty and v3.reason == "TableRow" and v3.case_id == "Sp4-r3"
        v4 = decide(g, [a2, a2, a2, a2])
        assert v4.empty and v4.reason == "TableRow" and v4.case_id == "Sp4-r4"


class TestSO6Route:
    def test_quadratic_on_natural_module(self):
        g = GroupSpec("SO", 6, 0)
        # (a I3, b): pairwise products a^2 (x3) and ab (x3), so the class is
        # quadratic on the 6-dimensional module with d = 3
        c = semisimple(free=[("a", 3), ("b", 1)])
        v = decide(g, [c, c])
        assert v.empty and v.reason == "QuadraticPair" and v.case_id == "so6"
        assert v.witnesses["sum_d"] == 6

    def test_dim_obstruction_on_natural_module(self):
        g = GroupSpec("SO", 6, 0)
        # (lam I2, lam^-1 I2), lam^2 = -1: d = 4 on V, 4 + 4 > 6
        c = lampair(2)
        v = decide(g, [c, c])
        assert v.empty and v.reason == "DimObstruction"

    def test_companion_obstruction(self):
        g = GroupSpec("SO", 6, 0)
        # mixed pair passing the V rules but with d = 3 + 2 > 4 on the
        # companion 4-dimensional module
        s = semisimple(free=[("a", 3), ("b", 1)])
        u = unipotent(partition=(3, 1))
        v = decide(g, [s, u])
        assert v.empty and v.reason == "FamilyTheoremCase" and v.case_id == "so6"
        assert v.witnesses["modules"]["W"]["d"] == [3, 2]

    def test_generic_pair(self):
        g = GroupSpec("SO", 6, 0)
        c = semisimple(free=[("a", 1), ("b", 1), ("c", 1), ("d", 1)])
        v = decide(g, [c, c])
        assert not v.empty

    def test_transfer_profile(self):
        c = validate_class(
            GroupSpec("SL", 4, 0), semisimple(free=[("a", 2), ("b", 2)])
        )
        pr = so6_transfer(c)
        assert pr.d == 4  # the product a*b appears with multiplicity 4


class TestSpin8:
    def test_catalog_profile(self):
        g = GroupSpec("Spin8", 8, 0)
        c = validate_class(g, unipotent(partition=(2, 2, 2, 2)))
        assert spin8_profile(c) == (4, 6, 4)

    def test_triality_obstruction_on_other_module(self):
        g = GroupSpec("Spin8", 8, 0)
        c = unipotent(partition=(2, 2, 2, 2))
        # 6 + 6 > 8 on the second module even though 4 + 4 <= 8 on the first
        v = decide(g, [c, c])
        assert v.empty and v.reason == "DimObstruction" and v.case_id == "module-3"

    def test_missing_profile(self):
        g = GroupSpec("Spin8", 8, 0)
        c = semisimple(ones=2, pairs=[2, 1])
        with pytest.raises(MissingSpin8Profile):
            decide(g, [c, c])

    def test_explicit_profiles_override(self):
        g = GroupSpec("Spin8", 8, 0)
        c = semisimple(ones=2, pairs=[2, 1])
        v = decide(g, [c, c, c], spin8_profiles=[(2, 2, 2)] * 3)
        assert not v.empty

    @pytest.mark.parametrize(
        "profile", [(100, -4, 0), (0, 0, 0), (8, 4, 4), (4, 4, 4.0), (True, 4, 4), (4, 4), (4, 4, 4, 4), 4]
    )
    def test_profiles_out_of_range_refused(self, profile):
        # a noncentral element acts non-scalarly on each 8-dimensional
        # module, so each entry is an int from 1 to 7
        g = GroupSpec("Spin8", 8, 0)
        c = semisimple(ones=2, pairs=[2, 1])
        with pytest.raises(SchemaError, match="from 1 to 7"):
            decide(g, [c, c], spin8_profiles=[(4, 4, 4), profile])
        decide(g, [c, c], spin8_profiles=[[1, 7, 4], (4, 4, 4)])

    def test_first_module_obstruction(self):
        g = GroupSpec("Spin8", 8, 3)
        c = unipotent(partition=(3, 1, 1, 1, 1, 1))
        # profile (6,4,4): 6 + 6 > 8 already on the first module
        v = decide(g, [c, c])
        assert v.empty and v.reason == "DimObstruction" and v.case_id == "module-1"

    def test_profile_boundary_pair_is_not_obstructed(self):
        g = GroupSpec("Spin8", 8, 3)
        c = unipotent(partition=(3, 3, 1, 1))
        # profile (4,4,4): sums exactly 8 on every module, and the class is
        # not quadratic, so the pair survives to Generic
        v = decide(g, [c, c])
        assert not v.empty

    def test_spin8_involutions_quadratic_pair(self):
        g = GroupSpec("Spin8", 8, 0)
        c = semisimple(ones=4, minus_ones=4, order=2)
        v = decide(g, [c, c])
        assert v.empty and v.reason == "QuadraticPair" and v.case_id == "so8"


class TestScottBound:
    def test_so11_anchor(self):
        g = GroupSpec("SO", 11, 0)
        u = unipotent(partition=(2, 2, 2, 2, 2, 1))
        s = semisimple(ones=1, pairs=[5])
        holds, lhs, rhs = scott_lower_bound(g, [u, s])
        assert (holds, lhs, rhs) == (False, 55, 60)

    def test_dimension_check_still_applies(self):
        g = GroupSpec("SO", 11, 0)
        with pytest.raises(SchemaError):
            scott_lower_bound(g, [unipotent(partition=(2, 2, 1))])

    def test_bad_characteristic(self):
        g = GroupSpec("Sp", 4, 2)
        with pytest.raises(BadCharacteristic):
            scott_lower_bound(g, [unipotent(decoration=[{"W": 2, "mult": 1}], order=2)])

    def test_sl_center_term(self):
        g = GroupSpec("SL", 3, 3)
        u = unipotent(partition=(2, 1))
        holds, lhs, rhs = scott_lower_bound(g, [u] * 3)
        assert rhs == 8 + 2 - 1
        assert holds and lhs == 12


class TestMinGenerators:
    def test_sp4_minus_involution(self):
        assert min_generators(SP4, MI22) == 5

    def test_sl5_regular_semisimple(self):
        g = GroupSpec("SL", 5, 0)
        reg = semisimple(free=[(f"l{i}", 1) for i in range(5)])
        assert min_generators(g, reg) == 2

    def test_sp6_char2_transvection(self):
        g = GroupSpec("Sp", 6, 2)
        b1 = unipotent(decoration=[{"V": 2, "mult": 1}, {"W": 1, "mult": 2}], order=2)
        assert min_generators(g, b1) == 7


# ---------------------------------------------------------------------------
# invariants of the one rule chain, over every class shape
# ---------------------------------------------------------------------------

WITNESS_KEYS = {"r", "n", "d", "e", "sum_d", "sum_e", "modules"}


def _natural_d(g, c):
    """Largest eigenspace on the natural module, computed apart from decide,
    or None for a Spin8 shape outside the triality catalogue."""
    if g.family == "Spin8":
        try:
            return spin8_profile(c)[0]
        except OutsideCatalog:
            return None
    if g.family == "SO" and g.n == 6:
        return so6_transfer(c).d
    return eigen_profile(g, c).d


def _verdict(g, classes):
    """decide's verdict, or None when it refuses for want of a Spin8 profile."""
    try:
        return decide(g, classes)
    except MissingSpin8Profile:
        return None


def _sweep_groups(primes=(0, 2, 3)):
    """Every group that enumerate_class_shapes accepts at ``primes``, with
    SL_n for n <= 6 only: SL_n has no family case for n >= 3, so larger n
    would only repeat the rules SL3..SL6 reach, at over three times the cost."""
    out = []
    for p, family, n in itertools.product(primes, ("SL", "Sp", "SO", "Spin8"), range(2, 13)):
        if family == "SL" and n > 6:
            continue
        try:
            out.append(GroupSpec(family, n, p))
        except UnsupportedGroup:
            continue
    return out


@pytest.fixture(scope="module")
def sweep():
    """(group, shapes, {(i, j): verdict}) for every ordered pair of shapes."""
    out = []
    for g in _sweep_groups():
        shapes = [validate_class(g, c) for c in enumerate_class_shapes(g)]
        verdicts = {
            (i, j): _verdict(g, [a, b])
            for (i, a), (j, b) in itertools.product(enumerate(shapes), repeat=2)
        }
        out.append((g, shapes, verdicts))
    return out


class TestSO6Pinned:
    def test_verdicts_unchanged(self):
        # sha256 of the repr of the verdicts, witnesses included, of every
        # multiset of two and of three SO6 shapes at p, as decide gave them
        # when so6_transfer and the quadratic test each computed the
        # exterior-square products; first 16 hex digits
        digests = {
            0: (156, "b50373f6dfde7bbb"),
            2: (77, "6516d8c1be9edba2"),
            3: (112, "d5c8c1c945010760"),
            5: (156, "b50373f6dfde7bbb"),
        }
        got = {}
        for p in digests:
            g = GroupSpec("SO", 6, p)
            shapes = enumerate_class_shapes(g)
            verdicts = [
                decide(g, tup)
                for r in (2, 3)
                for tup in itertools.combinations_with_replacement(shapes, r)
            ]
            got[p] = (len(verdicts), hashlib.sha256(repr(verdicts).encode()).hexdigest()[:16])
        assert got == digests


class TestRuleChainSweep:
    def test_covers_every_family(self, sweep):
        assert {g.family for g, _, _ in sweep} == {"SL", "Sp", "SO", "Spin8"}
        assert sum(len(shapes) for _, shapes, _ in sweep) == 980

    def test_symmetric(self, sweep):
        for g, shapes, verdicts in sweep:
            for (i, j), v in verdicts.items():
                w = verdicts[j, i]
                if v is None or w is None:
                    assert v is w, (g, i, j)
                    continue
                assert (v.empty, v.reason, v.case_id) == (w.empty, w.reason, w.case_id), (g, i, j)

    def test_one_witness_schema(self, sweep):
        for g, shapes, verdicts in sweep:
            natural = [_natural_d(g, c) for c in shapes]
            for (i, j), v in verdicts.items():
                if v is None:
                    continue
                w = v.witnesses
                assert w.keys() == WITNESS_KEYS, (g, i, j)
                assert w["sum_d"] == sum(w["d"]) == natural[i] + natural[j], (g, i, j)
                assert w["sum_e"] == sum(w["e"])
                for m in w["modules"].values():
                    assert m.keys() == {"dim", "d", "sum_d"} and m["sum_d"] == sum(m["d"])

    def test_third_class_keeps_nonempty(self, sweep):
        # each multiset of three shapes once, for n <= 8: it must not be
        # empty when one of its pairs is not
        for g, shapes, verdicts in sweep:
            if g.n > 8:
                continue
            for i, j, k in itertools.combinations_with_replacement(range(len(shapes)), 3):
                if all(v is None or v.empty for v in (verdicts[i, j], verdicts[i, k], verdicts[j, k])):
                    continue
                u = _verdict(g, [shapes[i], shapes[j], shapes[k]])
                assert u is None or not u.empty, (g, i, j, k)

    def test_no_generic_pair_below_the_adjoint_bound(self, sweep):
        # scott_lower_bound is necessary for generation wherever it is
        # defined, so a pair below it must be empty
        checked = set()
        for g, shapes, verdicts in sweep:
            if g.family != "SL" and g.p == 2:
                continue
            checked.add((g.family, g.n, g.p))
            for (i, j), v in verdicts.items():
                if v is not None and v.reason == "Generic":
                    assert scott_lower_bound(g, [shapes[i], shapes[j]])[0], (g, i, j)
        assert {("SO", n, p) for n in (10, 12) for p in (0, 3)} <= checked

    def test_closure_lowers_class_dim(self):
        # a class in the closure of another, distinct one has smaller dimension
        containments = 0
        for g in _sweep_groups((0, 2, 3, 5)):
            shapes = [c for c in enumerate_class_shapes(g) if c.kind == "unipotent"]
            dims = [(c, class_dim(g, c).dim_class) for c in shapes]
            for (upper, up), (lower, low) in itertools.permutations(dims, 2):
                if in_closure(g, upper, lower):
                    assert low < up, (g, upper, lower)
                    containments += 1
        # 30 of them are involution pairs of Sp4-12 at p = 2 (1, 3, 5, 9 and
        # 12): b_l over a_m and c_m, and c_l over b_m, for m < l
        assert containments == 2945

    def test_min_generators_bounds(self, sweep):
        for g, shapes, verdicts in sweep:
            for i, c in enumerate(shapes):
                v = verdicts[i, i]
                if v is None:
                    continue
                w = v.witnesses
                # the dimension rule reads the natural module and, for
                # Spin8, triality modules 3 and 4
                bounded = [(w["n"], w["d"][0])] + [
                    (m["dim"], m["d"][0]) for name, m in w["modules"].items() if name != "W"
                ]
                lower = 2
                while any(lower * d > dim * (lower - 1) for dim, d in bounded):
                    lower += 1
                r = min_generators(g, c)
                assert r >= lower, (g, c)
                assert not decide(g, [c] * r).empty, (g, c)
                assert r == 2 or decide(g, [c] * (r - 1)).empty, (g, c)


# ---------------------------------------------------------------------------
# answers pinned across the per-descriptor profiles decide keeps
# ---------------------------------------------------------------------------


def _query_groups():
    """The groups of the ``symbolic-queries`` benchmark workload."""
    out = []
    for p in (0, 2, 3, 5):
        out += [GroupSpec("SL", n, p) for n in range(2, 7)]
        out += [GroupSpec("Sp", n, p) for n in (4, 6, 8, 10, 12)]
        out += [GroupSpec("SO", n, p) for n in (5, 6, 7, 9, 10, 11, 12) if not (n % 2 and p == 2)]
        out.append(GroupSpec("Spin8", 8, p))
    return out


def _answer(fn, *args):
    """fn(*args), or the name of the topogen error it raises."""
    try:
        return fn(*args)
    except TopogenError as exc:
        return type(exc).__name__


def _digest(answers) -> tuple:
    return len(answers), hashlib.sha256(repr(answers).encode()).hexdigest()[:16]


class TestProfilesPinned:
    """decide and min_generators answer the same whether a descriptor's
    profiles are computed afresh or read from what an earlier call kept on
    it: every digest is taken twice in one process, on the same shared
    descriptors."""

    def _decide_answers(self):
        answers = []
        groups = _query_groups()
        for g in groups:
            shapes = enumerate_class_shapes(g)
            answers += [_answer(decide, g, [a, b]) for a, b in itertools.product(shapes, repeat=2)]
        rng = random.Random(19)
        for _ in range(500):
            g = rng.choice(groups)
            shapes = enumerate_class_shapes(g)
            answers.append(_answer(decide, g, [rng.choice(shapes) for _ in range(rng.randint(3, 6))]))
        return answers

    def test_decide(self):
        # sha256 of the repr of the verdicts, witnesses included, or of the
        # name of the error raised, of every ordered pair of shapes of every
        # group and of 500 seeded tuples with r = 3..6, as decide gave them
        # when it recomputed every profile on every call; first 16 hex digits
        want = (46088, "0b6b1e891dfcb5f2")
        assert _digest(self._decide_answers()) == want
        assert _digest(self._decide_answers()) == want

    def test_min_generators(self):
        # the same for min_generators on every shape of every group
        want = (1376, "e4a333ea663aa7e7")
        for _ in range(2):
            answers = [
                _answer(min_generators, g, c) for g in _query_groups() for c in enumerate_class_shapes(g)
            ]
            assert _digest(answers) == want


class TestDescriptorUnchangedByDecide:
    def test_equality_hash_repr_replace_pickle(self):
        for g in (GroupSpec("SL", 4, 0), GroupSpec("SO", 6, 2), GroupSpec("Spin8", 8, 3)):
            shapes = enumerate_class_shapes(g)
            before = [(c, hash(c), repr(c), dataclasses.replace(c), pickle.dumps(c)) for c in shapes]
            for a, b in itertools.product(shapes, repeat=2):
                _answer(decide, g, [a, b])
            for c in shapes:
                _answer(min_generators, g, c)
            after = [(c, hash(c), repr(c), dataclasses.replace(c), pickle.dumps(c)) for c in shapes]
            assert after == before
            for c, (_, _, _, _, state) in zip(shapes, before):
                assert pickle.loads(state) == c
                assert dataclasses.asdict(c) == dataclasses.asdict(pickle.loads(state))

    def test_raw_descriptor_is_left_alone(self):
        g = GroupSpec("Sp", 4, 3)
        raw = semisimple(ones=2, minus_ones=2, order=2)
        state = dict(raw.__dict__)
        decide(g, [raw, raw])
        min_generators(g, raw)
        assert raw.__dict__ == state

    def test_kept_profiles_follow_the_group(self):
        # a class validated at one p is validated afresh at another, so
        # the profiles kept on it, which may depend on p, stay with that p
        raw = semisimple(ones=2, pairs=[("a", 1)])
        at3 = validate_class(GroupSpec("SO", 6, 3), raw)
        decide(GroupSpec("SO", 6, 3), [at3, at3])
        for p in (0, 2, 5):
            g = GroupSpec("SO", 6, p)
            assert decide(g, [at3, at3]) == decide(g, [raw, raw])

    def test_spin8_profiles_passed_in_are_not_kept(self):
        g = GroupSpec("Spin8", 8, 0)
        shapes = enumerate_class_shapes(g)
        known = next(c for c in shapes if _natural_d(g, c) is not None)
        unknown = next(c for c in shapes if _natural_d(g, c) is None)
        fresh = decide(g, [known, known])
        decide(g, [known, known], spin8_profiles=[(1, 1, 1), (1, 1, 1)])
        decide(g, [unknown, known], spin8_profiles=[(1, 1, 1), (1, 1, 1)])
        assert decide(g, [known, known]) == fresh
        for _ in range(2):
            with pytest.raises(MissingSpin8Profile):
                decide(g, [unknown, known])


class TestTuplesPinned:
    def test_decide_on_every_multiset_of_three_and_four(self):
        # sha256 of the repr of the verdicts, witnesses included, or of the
        # name of the error raised, of every multiset of three and of four
        # shapes per group, as decide gave them when each family case had
        # its own matcher; first 16 hex digits. 47 of the 91348 fire a
        # family case, all of them table rows.
        want = {
            ("Sp", 4, 0): (450, "486dc23eba07c7d9"),
            ("Sp", 4, 2): (182, "08127a2b89dfd351"),
            ("Sp", 4, 3): (294, "5a6a0b81ccf2532a"),
            ("Sp", 4, 5): (450, "486dc23eba07c7d9"),
            ("Sp", 6, 0): (4692, "c84a81e62c8317ad"),
            ("Sp", 6, 2): (935, "825d7bd7077eb53d"),
            ("Sp", 6, 3): (2275, "c6ef4f681846e91f"),
            ("Sp", 6, 5): (3740, "cc2786ade67acea8"),
            ("Sp", 8, 0): (35525, "327ea6835283a748"),
            ("Sp", 8, 2): (5814, "06719e8f650bb94c"),
            ("Sp", 8, 3): (12397, "11664d38d53e4a02"),
            ("Sp", 8, 5): (23400, "5273c2507781989b"),
            ("SO", 5, 0): (450, "2aee0b2d84d76204"),
            ("SO", 5, 3): (294, "f4f22ddc06fdacaf"),
            ("SO", 5, 5): (450, "2aee0b2d84d76204"),
        }
        got = {}
        family_rows = 0
        for family, n, p in want:
            g = GroupSpec(family, n, p)
            shapes = enumerate_class_shapes(g)
            answers = [
                _answer(decide, g, tup)
                for r in (3, 4)
                for tup in itertools.combinations_with_replacement(shapes, r)
            ]
            family_rows += sum(a.reason in ("TableRow", "FamilyTheoremCase") for a in answers)
            got[family, n, p] = _digest(answers)
        assert got == want
        assert family_rows == 47


class TestGenericIsMonotone:
    def test_one_more_class_keeps_a_generic_tuple_generic(self):
        # adding a class to a tuple that topologically generates leaves one
        # that still does; the extra class is one decide profiles (Spin8
        # shapes outside the triality catalogue are not)
        rng = random.Random(20261020)
        groups = _query_groups()
        pools = {g: [c for c in enumerate_class_shapes(g) if _verdict(g, [c, c]) is not None] for g in groups}
        checked = 0
        while checked < 3000:
            g = rng.choice(groups)
            classes = [rng.choice(pools[g]) for _ in range(rng.randint(2, 5))]
            if _verdict(g, classes).reason != "Generic":
                continue
            extended = classes + [rng.choice(pools[g])]
            verdict = decide(g, extended)
            assert (verdict.empty, verdict.reason) == (False, "Generic"), (g, extended)
            checked += 1
