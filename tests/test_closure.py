"""Unit tests for the degeneration (closure) order on unipotent classes."""

import hashlib
from collections import Counter

import pytest

from topogen.algebra_core import GroupSpec, unipotent, validate_class
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
from topogen import closure
from topogen.cli import handle
from topogen.errors import EnumerationTooLarge, NoSuchClass, NotApplicable, SizeMismatch
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


class TestSmallestClass:
    def test_char2_all_w_blocks(self):
        g = GroupSpec("Sp", 8, 2)
        c = smallest_class_with_blocks(g, 4)
        assert c.unip.partition == (2, 2, 2, 2)
        assert c.unip.as_type == "a"

    def test_char2_odd_block_count_impossible_in_so(self):
        g = GroupSpec("SO", 10, 2)
        with pytest.raises(NoSuchClass):
            smallest_class_with_blocks(g, 3)

    def test_so_parity_unreachable(self):
        # SO7 with 2 blocks would need an even part with odd multiplicity
        g = GroupSpec("SO", 7, 3)
        with pytest.raises(NoSuchClass):
            smallest_class_with_blocks(g, 2)


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


class TestChar2SearchCap:
    def test_capped_search_refuses(self, monkeypatch):
        # the search visits 1380 states, under the cap
        g = GroupSpec("Sp", 48, 2)
        upper = unipotent(decoration=[{"W": 12, "mult": 2}])
        lower = unipotent(decoration=[{"V": 2, "mult": 2}, {"W": 1, "mult": 22}])
        assert not in_closure(g, upper, lower)
        monkeypatch.setattr(closure, "MAX_CLOSURE_STATES", 1000)
        with pytest.raises(EnumerationTooLarge):
            in_closure(g, upper, lower)
        doc = {
            "group": {"family": "Sp", "n": 48, "p": 2},
            "upper": {"kind": "unipotent", "decoration": [{"W": 12, "mult": 2}]},
            "lower": {"kind": "unipotent", "decoration": [{"V": 2, "mult": 2}, {"W": 1, "mult": 22}]},
        }
        code, out = handle("closure", doc)
        assert code == 3 and "1000 states" in out


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
        # shapes afresh on every call; first 16 hex digits
        digests = {
            0: "2be0f9496ff466dd",
            2: "ad8737f2c449a82e",
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
