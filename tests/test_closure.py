"""Unit tests for the degeneration (closure) order on unipotent classes."""

import hashlib
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from topogen.algebra_core import GroupSpec, semisimple, unipotent, validate_class
from topogen.closure import (
    _partitions,
    _poset_dot,
    closure_poset_dot,
    dominates,
    enumerate_unipotent_partitions,
    in_closure,
    smallest_class_with_blocks,
    splits_in_G,
)
from topogen.cli import handle
from topogen.errors import MixedKinds, NoSuchClass, NotApplicable, SchemaError, SizeMismatch, TopogenError
from topogen.stabilizers import enumerate_class_shapes

from test_oracle import _sweep_groups


class TestDominance:
    def test_chain(self):
        assert dominates((4,), (2, 2))
        assert dominates((2, 2), (2, 1, 1))
        assert dominates((2, 1, 1), (1, 1, 1, 1))

    def test_incomparable(self):
        assert not dominates((3, 1, 1, 1), (2, 2, 2))
        assert not dominates((2, 2, 2), (3, 1, 1, 1))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            dominates((3, 1), (2, 2, 1))


class TestInClosureOddChar:
    def test_follows_dominance(self):
        g = GroupSpec("Sp", 6, 3)
        top = validate_class(g, unipotent(partition=(3, 3)))
        mid = validate_class(g, unipotent(partition=(2, 2, 2)))
        low = validate_class(g, unipotent(partition=(2, 2, 1, 1)))
        assert in_closure(g, top, mid)
        assert in_closure(g, mid, low)
        assert in_closure(g, top, low)
        assert not in_closure(g, low, top)

    def test_reflexive(self):
        g = GroupSpec("SL", 5, 0)
        c = validate_class(g, unipotent(partition=(3, 2)))
        assert in_closure(g, c, c)


def test_closure_order_is_on_unipotent_classes():
    g = GroupSpec("SL", 3, 0)
    u = validate_class(g, unipotent(partition=(2, 1)))
    s = validate_class(g, semisimple(ones=2, minus_ones=1, order=2))
    for upper, lower in ((u, s), (s, u), (s, s)):
        with pytest.raises(MixedKinds, match="closure order is defined on unipotent classes"):
            in_closure(g, upper, lower)


class TestInClosureChar2:
    def test_v4_v2_degenerates_to_split_involution(self):
        g = GroupSpec("Sp", 6, 2)
        upper = validate_class(
            g,
            unipotent(decoration=[{"V": 4, "mult": 1}, {"V": 2, "mult": 1}]),
        )
        lower = validate_class(
            g,
            unipotent(decoration=[{"W": 2, "mult": 1}, {"W": 1, "mult": 1}], order=2),
        )
        assert in_closure(g, upper, lower)
        assert not in_closure(g, lower, upper)

    def test_c_type_above_a_type_same_partition(self):
        g = GroupSpec("Sp", 4, 2)
        c2 = validate_class(g, unipotent(decoration=[{"V": 2, "mult": 2}], order=2))
        a2 = validate_class(g, unipotent(decoration=[{"W": 2, "mult": 1}], order=2))
        assert in_closure(g, c2, a2)
        assert not in_closure(g, a2, c2)

    def test_c2_above_transvection(self):
        # x_t = 1 + B(., u)u + t B(., w)w with B(u, w) = 0 is in c2 for t != 0
        # and a transvection, in b1, at t = 0
        g = GroupSpec("Sp", 4, 2)
        c2 = validate_class(g, unipotent(decoration=[{"V": 2, "mult": 2}], order=2))
        b1 = validate_class(g, unipotent(decoration=[{"V": 2, "mult": 1}, {"W": 1, "mult": 1}], order=2))
        assert in_closure(g, c2, b1)
        assert not in_closure(g, b1, c2)

    @pytest.mark.parametrize(
        "group",
        [GroupSpec("Sp", n, 2) for n in range(4, 13, 2)]
        + [GroupSpec("SO", n, 2) for n in (10, 12)]
        + [GroupSpec("Spin8", 8, 2)],
        ids=str,
    )
    def test_involution_order(self, group):
        # x = 1 + N with l = rank N lies in the closure of y = 1 + M with
        # m = rank M iff l <= m, and y is not a-type or x is: rank is lower
        # semicontinuous and "B(v, Nv) = 0 for all v" is a closed condition,
        # and curves like the one above, adding one vector at a time, give
        # the rest
        shapes = enumerate_class_shapes(group, constraints={"kind": "unipotent"})
        for upper in shapes:
            for lower in shapes:
                m, l = upper.unip.partition.count(2), lower.unip.partition.count(2)
                want = l <= m and (upper.unip.as_type != "a" or lower.unip.as_type == "a")
                assert in_closure(group, upper, lower) == want, (upper.unip.decoration, lower.unip.decoration)

    @pytest.mark.parametrize("n", range(4, 13, 2))
    def test_antisymmetric_and_within_dominance(self, n):
        g = GroupSpec("Sp", n, 2)
        classes = _decorated_classes(g)
        for upper in classes:
            for lower in classes:
                if upper is lower or not in_closure(g, upper, lower):
                    continue
                assert dominates(upper.unip.partition, lower.unip.partition), (_dec_name(upper), _dec_name(lower))
                assert not in_closure(g, lower, upper), (_dec_name(upper), _dec_name(lower))


def _decorations(rest, size):
    """V/W decorations of total dimension ``rest`` with summand sizes at
    most ``size``, larger sizes first: V(m) for even m, at most twice, and
    W(m) any number of times."""
    if rest == 0:
        yield ()
        return
    if size == 0:
        return
    for v in (0, 1, 2) if size % 2 == 0 else (0,):
        for w in range((rest - v * size) // (2 * size) + 1):
            head = (("V", size, v),) * (v > 0) + (("W", size, w),) * (w > 0)
            for tail in _decorations(rest - (v + 2 * w) * size, size - 1):
                yield head + tail


def _decorated_classes(group):
    """Every decorated unipotent class that ``validate_class`` accepts in an
    Sp, SO or Spin8 group at p = 2, in the order of ``_decorations``."""
    out = []
    for dec in _decorations(group.n, group.n):
        try:
            out.append(validate_class(group, unipotent(decoration=dec)))
        except TopogenError:
            continue
    return out


def _dec_name(cls):
    return "|".join(f"{k}{s}x{m}" for k, s, m in cls.unip.decoration)


def _from_name(group, name):
    dec = [(k, int(s), int(m)) for k, s, m in re.findall(r"([VW])(\d+)x(\d+)", name)]
    return validate_class(group, unipotent(decoration=dec))


def _group_from_name(name):
    family, n = re.fullmatch(r"(Sp|SO|Spin8)(\d*)", name).groups()
    return GroupSpec(family, int(n or 8), 2)


# containments at p = 2 pinned from the rewriting search that decided the
# order before the closed form: every one among all decorated classes of
# Sp4-14, SO10-14 and Spin8 ("tables": the classes in _decorated_classes
# order, and for each the indices of the others in its closure), and the
# 816 found among 3000 pairs drawn with random.Random(2024), a group of
# Sp4-22, SO10-22 or Spin8 and then two of its classes ("pairs")
CHAR2_PINS = json.loads((Path(__file__).parent / "char2_containments.json").read_text())


class TestChar2Pinned:
    @pytest.mark.parametrize("name", sorted(CHAR2_PINS["tables"]))
    def test_table_containments_hold(self, name):
        g = _group_from_name(name)
        table = CHAR2_PINS["tables"][name]
        classes = _decorated_classes(g)
        assert [_dec_name(c) for c in classes] == table["classes"]
        for upper, below in zip(classes, table["below"]):
            for j in below:
                assert in_closure(g, upper, classes[j]), (name, _dec_name(upper), table["classes"][j])

    def test_seeded_pair_containments_hold(self):
        pairs = CHAR2_PINS["pairs"]
        assert sum(map(len, pairs.values())) == 816
        for name, found in pairs.items():
            g = _group_from_name(name)
            for upper, lower in found:
                assert in_closure(g, _from_name(g, upper), _from_name(g, lower)), (name, upper, lower)


class TestSmallestClass:
    def test_char2_all_w_blocks(self):
        g = GroupSpec("Sp", 8, 2)
        c = smallest_class_with_blocks(g, 4)
        assert c.unip.partition == (2, 2, 2, 2)
        assert c.unip.as_type == "a"

    @pytest.mark.parametrize(
        "group",
        [GroupSpec("Sp", n, 2) for n in range(4, 17, 2)]
        + [GroupSpec("SO", n, 2) for n in range(10, 17, 2)]
        + [GroupSpec("Spin8", 8, 2)],
        ids=str,
    )
    def test_char2_even_block_count_is_the_unique_minimum(self, group):
        classes = _decorated_classes(group)
        for m in range(2, group.n, 2):
            smallest = smallest_class_with_blocks(group, m)
            with_m = [c for c in classes if len(c.unip.partition) == m]
            assert smallest.unip.decoration in [c.unip.decoration for c in with_m]
            for other in with_m:
                assert in_closure(group, other, smallest), (m, _dec_name(other))
                if other.unip.decoration != smallest.unip.decoration:
                    assert not in_closure(group, smallest, other), (m, _dec_name(other))

    def test_char2_odd_block_count_impossible_in_so(self):
        g = GroupSpec("SO", 10, 2)
        with pytest.raises(NoSuchClass):
            smallest_class_with_blocks(g, 3)

    def test_so_parity_unreachable(self):
        # SO7 with 2 blocks would need an even part with odd multiplicity
        g = GroupSpec("SO", 7, 3)
        with pytest.raises(NoSuchClass):
            smallest_class_with_blocks(g, 2)

    @pytest.mark.parametrize("m", [0, 5, 6])
    def test_block_count_out_of_range(self, m):
        # 1 <= m < n: n blocks are the identity, and no class has 0 or more
        with pytest.raises(NoSuchClass, match=f"no noncentral class with {m} blocks in dimension 5"):
            smallest_class_with_blocks(GroupSpec("SL", 5, 0), m)

    def test_block_count_must_be_an_integer(self):
        with pytest.raises(SchemaError, match="m must be an integer, not 2.0"):
            smallest_class_with_blocks(GroupSpec("SL", 5, 0), 2.0)


    @pytest.mark.parametrize("p", [0, 3, 5])
    def test_result_is_dominated_by_every_admissible_class(self, p):
        groups = (
            [("SL", n) for n in range(2, 7)]
            + [("Sp", n) for n in range(4, 13, 2)]
            + [("Spin8" if n == 8 else "SO", n) for n in range(5, 13)]
        )
        for family, n in groups:
            g = GroupSpec(family, n, p)
            # SO6 classes are computed in SL4
            target = g.class_group()
            for m in range(1, target.n):
                try:
                    pi = smallest_class_with_blocks(g, m).unip.partition
                except NoSuchClass:
                    continue
                assert len(pi) == m and _admissible(target.family, pi)
                for other in _partitions(target.n):
                    if len(other) == m and _admissible(target.family, other):
                        assert dominates(other, pi), (family, n, other, pi)


def _admissible(family, partition):
    """Jordan types of unipotent classes: in Sp odd parts, in SO and Spin8
    even parts occur with even multiplicity."""
    counts = Counter(partition)
    if family == "SL":
        return True
    parity = 1 if family == "Sp" else 0
    return all(c % 2 == 0 for a, c in counts.items() if a % 2 == parity)


class TestChar2LargeGroups:
    # W(12)^2 over V(2)^2 + W(1)^22, the c2 involution class of Sp48. By
    # Hesselink's theorem (Math. Z. 166, 1979; Spaltenstein, LNM 946, 1982)
    # it lies in the closure: P_i is 12, 24, 24, ... against 2, 4, 5, ...,
    # and P_i - chi(lambda_i) is 5, 17, 24, ... against 1, 3, 4, ... The
    # rewriting search this order replaced answered False: it had no move
    # from W summands to V summands
    def test_sp48_w12_pair(self):
        g = GroupSpec("Sp", 48, 2)
        upper = unipotent(decoration=[{"W": 12, "mult": 2}])
        lower = unipotent(decoration=[{"V": 2, "mult": 2}, {"W": 1, "mult": 22}])
        assert in_closure(g, upper, lower)
        assert not in_closure(g, lower, upper)

    @pytest.mark.parametrize("n", [48, 100])
    def test_documents_answer(self, n):
        w = n // 4
        doc = {
            "group": {"family": "Sp", "n": n, "p": 2},
            "upper": {"kind": "unipotent", "decoration": [{"W": w, "mult": 2}]},
            "lower": {"kind": "unipotent", "decoration": [{"V": 2, "mult": 2}, {"W": 1, "mult": n // 2 - 2}]},
        }
        assert handle("closure", doc) == (0, {"schema": "topogen/1", "in_closure": True})
        doc["upper"], doc["lower"] = doc["lower"], doc["upper"]
        assert handle("closure", doc) == (0, {"schema": "topogen/1", "in_closure": False})


class TestSplits:
    def test_semisimple_without_fixed_vectors_splits(self):
        g = GroupSpec("SO", 10, 3)
        from topogen.algebra_core import semisimple

        c = validate_class(g, semisimple(pairs=[5], order=None))
        assert splits_in_G(g, c)
        c2 = validate_class(g, semisimple(ones=2, pairs=[4], order=None))
        assert not splits_in_G(g, c2)

    def test_unipotent_odd_p_splits_when_every_part_is_even(self):
        g = GroupSpec("SO", 12, 3)
        assert splits_in_G(g, validate_class(g, unipotent(partition=(2,) * 6)))
        assert splits_in_G(g, validate_class(g, unipotent(partition=(4, 4, 2, 2))))
        assert not splits_in_G(g, validate_class(g, unipotent(partition=(3, 3, 2, 2, 1, 1))))
        assert not splits_in_G(g, validate_class(g, unipotent(partition=(2, 2, 2, 2, 1, 1, 1, 1))))

    def test_unipotent_p2_splits_when_every_summand_is_an_even_w(self):
        g = GroupSpec("SO", 12, 2)
        assert splits_in_G(g, validate_class(g, unipotent(decoration=[{"W": 2, "mult": 3}])))
        for dec in (
            [{"W": 2, "mult": 2}, {"W": 1, "mult": 2}],
            [{"V": 2, "mult": 2}, {"W": 2, "mult": 2}],
        ):
            assert not splits_in_G(g, validate_class(g, unipotent(decoration=dec))), dec

    def test_not_applicable_for_sp(self):
        g = GroupSpec("Sp", 4, 0)
        from topogen.algebra_core import semisimple

        with pytest.raises(NotApplicable):
            splits_in_G(g, validate_class(g, semisimple(pairs=[2])))


class TestEnumerationAndDot:
    def test_sp4_partitions_p3(self):
        g = GroupSpec("Sp", 4, 3)
        # (3,1) is excluded: odd parts need even multiplicity in Sp
        parts = sorted(enumerate_unipotent_partitions(g, max_part=3))
        assert parts == [(2, 1, 1), (2, 2)]

    def test_dot_output_mentions_all_classes(self):
        g = GroupSpec("Sp", 4, 3)
        dot = closure_poset_dot(g)
        assert dot.startswith("digraph")
        assert "2,2" in dot.replace(" ", "")


def _dot_by_triple_loop(group):
    """The closure poset as first written: a fresh in_closure for every
    edge and every possible intermediate class, O(k^3) searches."""
    shapes = enumerate_class_shapes(group, constraints={"kind": "unipotent"})

    def name(c):
        if c.unip.decoration:
            return "|".join(f"{k}{s}x{m}" for k, s, m in c.unip.decoration)
        return ",".join(map(str, c.unip.partition))

    lines = ["digraph closure {"]
    for c in shapes:
        lines.append(f'  "{name(c)}";')
    for a in shapes:
        for b in shapes:
            if a is b or not in_closure(group, a, b):
                continue
            if any(
                c is not a
                and c is not b
                and in_closure(group, a, c)
                and in_closure(group, c, b)
                for c in shapes
            ):
                continue
            lines.append(f'  "{name(a)}" -> "{name(b)}";')
    lines.append("}")
    return "\n".join(lines)


def _poset_groups():
    for p in (0, 2, 3, 5):
        for n in range(2, 7):
            yield GroupSpec("SL", n, p)
        for n in (4, 6, 8, 10, 12):
            yield GroupSpec("Sp", n, p)
        for n in (5, 6, 7, 9, 10, 11, 12):
            if not (n % 2 and p == 2):
                yield GroupSpec("SO", n, p)
        yield GroupSpec("Spin8", 8, p)


class TestPosetAgainstTripleLoop:
    @pytest.mark.parametrize(
        "group", list(_poset_groups()), ids=lambda g: f"{g.family}{g.n}-p{g.p}"
    )
    def test_dot_is_byte_identical(self, group):
        assert closure_poset_dot(group) == _dot_by_triple_loop(group)

    def test_dot_unchanged(self):
        # sha256 of the DOT texts of _poset_groups at each p, joined by blank
        # lines, as closure_poset_dot drew them when it enumerated the
        # shapes afresh on every call; first 16 hex digits. At p = 2 the Sp
        # posets are those of the involution order (test_involution_order),
        # with the chain c_l > b_(l-1) > c_(l-1)
        digests = {
            0: "2be0f9496ff466dd",
            2: "36d34233c5d6cc6a",
            3: "690a9a0b26859221",
            5: "14146af29f77e35c",
        }
        got = {}
        for g in _poset_groups():
            got.setdefault(g.p, []).append(closure_poset_dot(g))
        for p, texts in got.items():
            got[p] = hashlib.sha256("\n\n".join(texts).encode()).hexdigest()[:16]
        assert got == digests


class TestPosetTable:
    def test_repeat_and_fresh_calls_agree(self):
        # the sweep includes SO6, whose class group is SL4
        groups = _sweep_groups((0, 2, 3, 5))
        first = [closure_poset_dot(g) for g in groups]
        second = [closure_poset_dot(g) for g in groups]
        _poset_dot.cache_clear()
        fresh = [closure_poset_dot(g) for g in groups]
        assert first == second == fresh

    def test_keyed_by_class_group(self):
        _poset_dot.cache_clear()
        for p in (0, 2, 3, 5):
            assert closure_poset_dot(GroupSpec("SO", 6, p)) == closure_poset_dot(GroupSpec("SL", 4, p))
        assert _poset_dot.cache_info().currsize == 4
