"""Unit tests for the symbolic group/class data model."""

import hashlib
from dataclasses import replace

import pytest

from topogen.algebra_core import (
    ClassDescriptor,
    EigenPattern,
    GroupSpec,
    UnipotentData,
    check_unvalidated,
    conjugate_partition,
    dim_and_rank,
    is_prime,
    semisimple,
    unipotent,
    validate_class,
)
from topogen.errors import (
    BoundExceeded,
    CentralClass,
    DimensionMismatch,
    OrderViolation,
    ParityViolation,
    SchemaError,
    TopogenError,
    UnsupportedGroup,
)
from topogen.cli import parse_class
from topogen.maxclass import QContext
from topogen.oracle import decide
from topogen.stabilizers import enumerate_class_shapes

from test_oracle import _sweep_groups


class TestGroupSpec:
    def test_valid_groups(self):
        GroupSpec("SL", 2, 0)
        GroupSpec("Sp", 4, 2)
        GroupSpec("SO", 5, 3)
        GroupSpec("SO", 10, 2)
        GroupSpec("Spin8", 8, 0)

    def test_so8_redirects_to_spin8(self):
        with pytest.raises(UnsupportedGroup):
            GroupSpec("SO", 8, 0)

    def test_sp_needs_even_n(self):
        with pytest.raises(UnsupportedGroup):
            GroupSpec("Sp", 5, 0)

    def test_so_odd_needs_odd_characteristic(self):
        with pytest.raises(UnsupportedGroup):
            GroupSpec("SO", 7, 2)

    def test_spin8_fixes_n(self):
        with pytest.raises(UnsupportedGroup):
            GroupSpec("Spin8", 10, 0)

    def test_characteristic_must_be_prime_or_zero(self):
        with pytest.raises(SchemaError):
            GroupSpec("SL", 3, 6)

    def test_so6_companion_group(self):
        assert GroupSpec("SO", 6, 3).class_group() == GroupSpec("SL", 4, 3)
        assert GroupSpec("Sp", 6, 3).class_group() == GroupSpec("Sp", 6, 3)

    def test_dim_and_rank(self):
        assert dim_and_rank(GroupSpec("SL", 5, 0)) == (24, 4)
        assert dim_and_rank(GroupSpec("Sp", 4, 0)) == (10, 2)
        assert dim_and_rank(GroupSpec("SO", 9, 3)) == (36, 4)
        assert dim_and_rank(GroupSpec("Spin8", 8, 0)) == (28, 4)


class _Index:
    """An integer type that is not int: it has ``__index__`` only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class TestIntegerFields:
    @pytest.mark.parametrize("bad", [3.0, True, "3"])
    def test_group_n(self, bad):
        with pytest.raises(SchemaError):
            GroupSpec("SL", bad, 0)

    @pytest.mark.parametrize("bad", [2.0, True, "2", 0.0])
    def test_group_p(self, bad):
        with pytest.raises(SchemaError):
            GroupSpec("SL", 3, bad)

    def test_group_index_types_become_ints(self):
        g = GroupSpec("Sp", _Index(4), _Index(3))
        assert type(g.n) is int and type(g.p) is int
        assert g == GroupSpec("Sp", 4, 3) and hash(g) == hash(GroupSpec("Sp", 4, 3))
        assert dim_and_rank(g) == (10, 2)

    @pytest.mark.parametrize("kwargs", [{"r": 3.0}, {"r": True}, {"r": "3"}, {"r": 5, "i": 2.0},
                                        {"r": 5, "i": True}, {"r": 5, "i": "2"},
                                        {"r": 3, "i": 1.0, "is_p": True}, {"r": 3, "is_p": "no"},
                                        {"r": 3, "is_p": 1}, {"r": 3, "is_p": None}])
    def test_qcontext(self, kwargs):
        with pytest.raises(SchemaError):
            QContext(**kwargs)

    def test_qcontext_index_types_become_ints(self):
        ctx = QContext(r=_Index(7), i=_Index(2))
        assert ctx == QContext(r=7, i=2) and type(ctx.r) is int and ctx.t == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ones": 2.0, "pairs": [("a", 1)]},
            {"ones": True, "minus_ones": 3},
            {"ones": "2", "pairs": [("a", 1)]},
            {"ones": 2, "minus_ones": 2.0},
            {"ones": 2, "minus_ones": False},
            {"ones": 2, "pairs": [("a", True)]},
            {"ones": 2, "pairs": [("a", 1.0)]},
            {"ones": 2, "pairs": [True]},
            {"free": [("a", 2), ("b", "2")]},
            {"free": [2.0, 2]},
            {"pairs": [("a", 1, 2)]},
            {"free": [("a",)]},
            {"pairs": [[]]},
        ],
    )
    def test_semisimple_multiplicities(self, kwargs):
        with pytest.raises(SchemaError):
            semisimple(**kwargs)

    def test_semisimple_index_types_become_ints(self):
        c = semisimple(ones=_Index(2), pairs=[("a", _Index(1))])
        assert c == semisimple(ones=2, pairs=[("a", 1)])
        assert type(c.eigen.mult_one) is int and type(c.eigen.pairs[0][1]) is int


class TestPartitionHelpers:
    def test_conjugate_partition(self):
        assert conjugate_partition((3, 2, 2, 1)) == (4, 3, 1)
        assert conjugate_partition(()) == ()

    def test_is_prime(self):
        assert [m for m in range(14) if is_prime(m)] == [2, 3, 5, 7, 11, 13]

    def test_is_prime_agrees_with_trial_division(self):
        sieve = [True] * 100000
        sieve[0] = sieve[1] = False
        for d in range(2, 317):
            sieve[d * d :: d] = [False] * len(range(d * d, 100000, d))
        assert all(is_prime(m) == sieve[m] for m in range(100000))

    def test_is_prime_large(self):
        # strong pseudoprime to the bases 2, 3, 5 and 7
        assert not is_prime(3215031751)
        assert is_prime(2**61 - 1) and is_prime(10**12 + 39)
        assert not is_prime((2**31 - 1) * (10**12 + 39))

    def test_is_prime_refuses_past_its_bound(self):
        with pytest.raises(BoundExceeded):
            is_prime(2**89 - 1)
        with pytest.raises(BoundExceeded):
            GroupSpec("SL", 2, 2**89 - 1)


class TestSemisimpleValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_class(GroupSpec("Sp", 4, 0), semisimple(ones=2, minus_ones=4))

    def test_central_class_rejected(self):
        with pytest.raises(CentralClass):
            validate_class(GroupSpec("Sp", 4, 0), semisimple(minus_ones=4))

    def test_sp_eigenspace_parity(self):
        with pytest.raises(ParityViolation):
            validate_class(GroupSpec("Sp", 4, 0), semisimple(ones=1, minus_ones=3))

    def test_so_odd_parity(self):
        # odd orthogonal: 1-eigenspace odd-dimensional, -1-eigenspace even
        validate_class(GroupSpec("SO", 5, 3), semisimple(ones=1, minus_ones=4))
        with pytest.raises(ParityViolation):
            validate_class(GroupSpec("SO", 5, 3), semisimple(ones=2, minus_ones=3))

    def test_no_minus_one_in_char_2(self):
        with pytest.raises(ParityViolation):
            validate_class(GroupSpec("Sp", 4, 2), semisimple(ones=2, minus_ones=2))

    def test_free_eigenvalues_sl_only(self):
        validate_class(GroupSpec("SL", 4, 0), semisimple(free=[("a", 3), ("b", 1)]))
        with pytest.raises(ParityViolation):
            validate_class(GroupSpec("Sp", 4, 0), semisimple(free=[("a", 3), ("b", 1)]))

    def test_order_relation_consistency(self):
        g = GroupSpec("Sp", 4, 0)
        validate_class(
            g, semisimple(pairs=[("a", 2)], relations={"a": "order:3"}, order=3)
        )
        with pytest.raises(OrderViolation):
            validate_class(
                g, semisimple(pairs=[("a", 2)], relations={"a": "order:5"}, order=3)
            )
        with pytest.raises(OrderViolation):
            validate_class(
                g,
                semisimple(
                    pairs=[("a", 2)], relations={"a": "square_is_minus_one"}, order=3
                ),
            )

    def test_order_relation_refusals(self):
        with pytest.raises(OrderViolation, match="vacuous at p = 2"):
            validate_class(
                GroupSpec("Sp", 4, 2),
                semisimple(pairs=[("a", 2)], relations={"a": "square_is_minus_one"}, order=3),
            )
        with pytest.raises(OrderViolation, match="must be >= 3"):
            validate_class(
                GroupSpec("Sp", 4, 0), semisimple(pairs=[("a", 2)], relations={"a": "order:2"}, order=2)
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaError):
            validate_class(
                GroupSpec("SL", 4, 0), semisimple(pairs=[("a", 1)], free=[("a", 2)])
            )

    def test_two_relation_tags_on_one_label_rejected(self):
        # the first tag used to win silently; both entry points of
        # _check_pattern now refuse the pattern
        g = GroupSpec("Sp", 4, 0)
        cls = semisimple(pairs=[("a", 2)], relations=[("a", "order:3"), ("a", "order:6")], order=3)
        with pytest.raises(SchemaError, match="at most one relation tag"):
            validate_class(g, cls)
        with pytest.raises(SchemaError, match="at most one relation tag"):
            check_unvalidated(g, [cls])
        check_unvalidated(g, [semisimple(pairs=[("a", 2)], relations=[("a", "order:3")], order=3)])


class TestUnipotentValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"partition": (2.5, 2)},
            {"partition": (2.0, 2)},
            {"partition": (True, 1)},
            {"decoration": [{"W": 2.5, "mult": 1}]},
            {"decoration": [{"V": 2, "mult": 1.0}]},
            {"decoration": [{"W": True}]},
            {"decoration": [("W", 2, 1.0)]},
            {"decoration": [("V", 2.0, 1)]},
        ],
    )
    def test_parts_sizes_and_mults_must_be_integers(self, kwargs):
        with pytest.raises(SchemaError):
            unipotent(**kwargs)

    @pytest.mark.parametrize("item", [("V", 2), 5, "VW", ("V", 2, 1, 0)])
    def test_decoration_items_are_mappings_or_triples(self, item):
        with pytest.raises(SchemaError):
            unipotent(decoration=[item])

    def test_integer_parts_accepted(self):
        assert unipotent(partition=[2, 3, 1]).unip.partition == (3, 2, 1)
        dec = unipotent(decoration=[("W", 2, 1), {"V": 2}]).unip.decoration
        assert dec == (("V", 2, 1), ("W", 2, 1))

    def test_sp_odd_part_parity(self):
        with pytest.raises(ParityViolation):
            validate_class(GroupSpec("Sp", 4, 0), unipotent(partition=(3, 1)))
        validate_class(GroupSpec("Sp", 4, 0), unipotent(partition=(2, 2)))

    def test_so_even_part_parity(self):
        validate_class(GroupSpec("SO", 5, 3), unipotent(partition=(2, 2, 1)))

    def test_so_single_even_part_rejected(self):
        with pytest.raises(ParityViolation):
            validate_class(GroupSpec("SO", 7, 3), unipotent(partition=(2, 1, 1, 1, 1, 1)))

    def test_prime_order_caps_block_size(self):
        with pytest.raises(OrderViolation):
            validate_class(GroupSpec("SL", 4, 3), unipotent(partition=(4,), order=3))

    @pytest.mark.parametrize(
        "group,raw",
        [
            (GroupSpec("SL", 3, 2), unipotent(partition=(2, 1), order=2.0)),
            (GroupSpec("Sp", 4, 2), unipotent(decoration=[{"W": 2}], order=2.0)),
            (GroupSpec("SL", 3, 3), unipotent(partition=(3,), order=3.0)),
        ],
    )
    def test_order_must_be_an_integer(self, group, raw):
        # 2.0 == 2, so a comparison with p alone would keep the order 2.0
        assert validate_class(group, replace(raw, order=group.p)).order == group.p
        with pytest.raises(OrderViolation, match="unipotent classes have order p"):
            validate_class(group, raw)

    def test_order_autoderived(self):
        c = validate_class(GroupSpec("SL", 4, 3), unipotent(partition=(3, 1)))
        assert c.order == 3
        c0 = validate_class(GroupSpec("SL", 4, 0), unipotent(partition=(3, 1)))
        assert c0.order == "unipotent-char-0"

    def test_char2_requires_decoration(self):
        with pytest.raises(ParityViolation):
            validate_class(GroupSpec("Sp", 4, 2), unipotent(partition=(2, 2)))

    def test_decoration_partition_consistency(self):
        with pytest.raises(DimensionMismatch):
            unipotent(partition=(2, 2), decoration=[{"W": 2, "mult": 2}])

    def test_v_multiplicity_bound(self):
        with pytest.raises(ParityViolation):
            validate_class(
                GroupSpec("Sp", 6, 2), unipotent(decoration=[{"V": 2, "mult": 3}])
            )

    def test_so_even_v_count(self):
        with pytest.raises(ParityViolation):
            validate_class(
                GroupSpec("SO", 10, 2),
                unipotent(
                    decoration=[{"V": 2, "mult": 1}, {"W": 1, "mult": 4}], order=2
                ),
            )

    def test_as_type_derivation(self):
        g = GroupSpec("Sp", 4, 2)
        a = validate_class(g, unipotent(decoration=[{"W": 2, "mult": 1}], order=2))
        assert a.unip.as_type == "a"
        b = validate_class(
            g,
            unipotent(
                decoration=[{"V": 2, "mult": 1}, {"W": 1, "mult": 1}], order=2
            ),
        )
        assert b.unip.as_type == "b"
        c = validate_class(g, unipotent(decoration=[{"V": 2, "mult": 2}], order=2))
        assert c.unip.as_type == "c"


class TestSO6Descriptors:
    def test_classes_live_in_dimension_4(self):
        g = GroupSpec("SO", 6, 0)
        validate_class(g, semisimple(free=[("a", 2), ("b", 2)]))
        with pytest.raises(DimensionMismatch):
            validate_class(g, semisimple(free=[("a", 3), ("b", 3)]))


class TestValidationStamp:
    def test_validated_descriptor_comes_back_unchanged(self):
        g = GroupSpec("Sp", 4, 3)
        raw = semisimple(ones=2, minus_ones=2, order=2)
        v = validate_class(g, raw)
        assert v is not raw and raw.validated_for is None
        assert v.validated_for == g
        assert validate_class(g, v) is v

    def test_replace_drops_the_stamp(self):
        g = GroupSpec("Sp", 4, 3)
        v = validate_class(g, semisimple(ones=2, minus_ones=2, order=2))
        assert replace(v, order=2).validated_for is None
        with pytest.raises(OrderViolation):
            validate_class(g, replace(v, order=4))

    def test_stamp_is_per_class_group(self):
        v = validate_class(GroupSpec("SL", 4, 0), semisimple(free=[("a", 2), ("b", 2)]))
        with pytest.raises(ParityViolation):
            validate_class(GroupSpec("Sp", 4, 0), v)

    def test_so6_stamp_is_its_sl4_class_group(self):
        v = validate_class(GroupSpec("SO", 6, 0), semisimple(free=[("a", 2), ("b", 2)]))
        assert validate_class(GroupSpec("SL", 4, 0), v) is v

    def test_stamp_leaves_equality_hash_and_repr_alone(self):
        g = GroupSpec("SO", 10, 2)
        raw = unipotent(decoration=[{"W": 2, "mult": 2}, {"W": 1, "mult": 1}])
        v = validate_class(g, raw)
        fresh = validate_class(g, raw)
        plain = replace(v)
        assert plain.validated_for is None
        for other in (fresh, plain):
            assert v == other and hash(v) == hash(other) and repr(v) == repr(other)

    @pytest.mark.parametrize("p", [0, 2, 3])
    @pytest.mark.parametrize("family,n", [("Sp", 4), ("SO", 10), ("SL", 4), ("Spin8", 8)])
    def test_decide_ignores_the_stamp(self, family, n, p):
        g = GroupSpec(family, n, p)
        shapes = enumerate_class_shapes(g)
        assert all(c.validated_for == g.class_group() for c in shapes)

        def outcome(classes):
            try:
                return decide(g, classes)
            except TopogenError as exc:  # a refusal must match as well
                return type(exc), str(exc)

        for a in shapes:
            for b in shapes:
                assert outcome([a, b]) == outcome([replace(a), replace(b)]), (a, b)


# class documents as the topogen/1 front end receives them; relations are
# listed out of order on purpose, and most documents fit some groups below
# and fail on the others
_SAMPLE_DOCS = [
    {"kind": "semisimple", "order": 2, "ones": 2, "minus_ones": 2},
    {"kind": "semisimple", "order": 2, "ones": 6, "minus_ones": 2},
    {"kind": "semisimple", "order": 2, "ones": 1, "minus_ones": 4},
    {"kind": "semisimple", "order": 3, "ones": 2, "pairs": [["a", 1]], "relations": {"a": "order:3"}},
    {"kind": "semisimple", "order": 5, "pairs": [["z", 1], ["a", 1]],
     "relations": {"z": "order:5", "a": "order:10"}},
    {"kind": "semisimple", "order": 3, "pairs": [["y", 2], ["b", 1], ["c", 1]],
     "relations": {"y": "order:3", "c": "order:3", "b": "order:6"}},
    {"kind": "semisimple", "order": 2, "pairs": [["i", 2]], "relations": {"i": "square_is_minus_one"}},
    {"kind": "semisimple", "order": 2, "pairs": [["i", 3]], "relations": {"i": "square_is_minus_one"}},
    {"kind": "semisimple", "pairs": [["a", 1], ["b", 1]], "relations": {"b": "order:7", "a": "order:4"}},
    {"kind": "semisimple", "ones": 2, "pairs": [["q", 1]], "relations": {"r": "order:3"}},
    {"kind": "semisimple", "ones": 2, "pairs": [["q", 1]], "relations": {"q": "order:0"}},
    {"kind": "semisimple", "ones": 2, "pairs": [["q", 1]], "relations": {"q": "cube"}},
    {"kind": "semisimple", "free": [["a", 2], ["b", 1], ["c", 1]]},
    {"kind": "semisimple", "free": [["a", 2], ["b", 2]], "relations": {"b": "order:3", "a": "order:3"}},
    {"kind": "semisimple", "free": [1, 1, 1, 1]},
    {"kind": "semisimple", "pairs": [["a", 1]], "free": [["a", 1], ["b", 1]]},
    {"kind": "semisimple", "ones": 4},
    {"kind": "semisimple", "order": 4, "ones": 2, "minus_ones": 2},
    {"kind": "semisimple", "order": 3, "ones": 1, "pairs": [["a", 1], ["b", 1]], "variant": "plus"},
    {"kind": "unipotent", "partition": [2, 2]},
    {"kind": "unipotent", "partition": [2, 1, 1]},
    {"kind": "unipotent", "partition": [3, 1]},
    {"kind": "unipotent", "partition": [3, 2, 1]},
    {"kind": "unipotent", "partition": [4, 2, 1]},
    {"kind": "unipotent", "partition": [2, 2, 1]},
    {"kind": "unipotent", "partition": [3, 3, 2, 2]},
    {"kind": "unipotent", "partition": [5, 3, 1, 1]},
    {"kind": "unipotent", "partition": [1, 1, 1, 1]},
    {"kind": "unipotent", "partition": [2, 2], "order": 3},
    {"kind": "unipotent", "partition": [2, 2], "order": "unipotent-char-0"},
    {"kind": "unipotent", "partition": [4], "order": 3},
    {"kind": "unipotent", "decoration": [{"W": 2, "mult": 1}]},
    {"kind": "unipotent", "decoration": [{"V": 2, "mult": 2}], "order": 2},
    {"kind": "unipotent", "decoration": [{"V": 2, "mult": 1}, {"W": 1, "mult": 1}]},
    {"kind": "unipotent", "decoration": [{"V": 2, "mult": 3}]},
    {"kind": "unipotent", "decoration": [{"V": 4, "mult": 1}]},
]

_SAMPLE_GROUPS = [
    GroupSpec("SL", 4, 0),
    GroupSpec("SL", 4, 3),
    GroupSpec("Sp", 4, 0),
    GroupSpec("Sp", 4, 2),
    GroupSpec("Sp", 6, 3),
    GroupSpec("Sp", 8, 5),
    GroupSpec("SO", 5, 3),
    GroupSpec("SO", 6, 0),
    GroupSpec("SO", 7, 3),
    GroupSpec("SO", 10, 2),
    GroupSpec("Spin8", 8, 0),
]

# descriptors built by hand, not by semisimple() or unipotent(): relations
# out of order or as lists, an unsorted partition, both payloads present
_HAND_BUILT = [
    ClassDescriptor(
        "semisimple",
        3,
        EigenPattern(
            mult_one=2, pairs=(("b", 1), ("a", 1)), relations=(("b", "order:3"), ("a", "order:6"))
        ),
    ),
    ClassDescriptor(
        "semisimple",
        None,
        EigenPattern(free=(("x", 2), ("y", 2)), relations=[["y", "order:5"], ["x", "order:5"]]),
    ),
    ClassDescriptor(
        "semisimple", 2, EigenPattern(mult_one=2, mult_minus_one=2), UnipotentData(partition=(2, 2))
    ),
    ClassDescriptor("unipotent", None, EigenPattern(mult_one=4), UnipotentData(partition=(2, 2))),
    ClassDescriptor("unipotent", None, None, UnipotentData(partition=(1, 2, 3))),
    ClassDescriptor("unipotent", None, None, UnipotentData(partition=(1, 2, 4))),
    ClassDescriptor("unipotent", None, None, UnipotentData(partition=[1, 1, 2])),
    ClassDescriptor("semisimple"),
    ClassDescriptor("unipotent"),
    ClassDescriptor("nilpotent", None, EigenPattern(mult_one=4)),
]


def _validation_outcome(group, raw):
    try:
        v = validate_class(group, raw)
    except TopogenError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{v!r} @ {v.validated_for!r}"


def _validation_cases():
    """(group, raw descriptor) pairs: every sweep shape, unstamped, against
    its group; the sample documents and hand-built descriptors against the
    sample groups."""
    for g in _sweep_groups((0, 2, 3, 5)):
        for shape in enumerate_class_shapes(g):
            yield g, replace(shape)
    raws = [parse_class(doc) for doc in _SAMPLE_DOCS] + _HAND_BUILT
    for g in _SAMPLE_GROUPS:
        for raw in raws:
            yield g, raw


def _validation_digest():
    lines = [f"{g!r} | {raw!r} | {_validation_outcome(g, raw)}" for g, raw in _validation_cases()]
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestValidationDigest:
    def test_results_match_the_pinned_digest(self):
        # pins every result (equality, repr, stamp) and every refusal text;
        # recompute it only for a deliberate change of validation output
        assert _validation_digest() == (
            1882,
            "3b98795919587190b633a43bee4a2fb36ca6c0a7fbcaf7bed5fe6435a590bb35",
        )

    def test_callers_object_stays_unstamped(self):
        for g, raw in _validation_cases():
            try:
                v = validate_class(g, raw)
            except TopogenError:
                continue
            assert v is not raw and raw.validated_for is None
            assert v.validated_for == g.class_group()

    def test_hand_built_relations_come_back_sorted(self):
        raw = _HAND_BUILT[0]
        v = validate_class(GroupSpec("Sp", 6, 0), raw)
        assert v.eigen.relations == (("a", "order:6"), ("b", "order:3"))
        assert raw.eigen.relations == (("b", "order:3"), ("a", "order:6"))
        assert v == replace(raw, eigen=replace(raw.eigen, relations=v.eigen.relations))

    def test_sorted_pattern_is_shared(self):
        raw = semisimple(order=3, ones=2, pairs=[("a", 1)], relations={"a": "order:3"})
        v = validate_class(GroupSpec("Sp", 4, 0), raw)
        assert v is not raw and v.eigen is raw.eigen

    @pytest.mark.parametrize(
        "group,partition,text",
        [
            (GroupSpec("Sp", 6, 0), (3, 2, 1), "odd parts [3, 1] need even multiplicity in Sp"),
            (GroupSpec("Sp", 6, 0), (1, 2, 3), "odd parts [1, 3] need even multiplicity in Sp"),
            (GroupSpec("Sp", 8, 5), (5, 3), "odd parts [5, 3] need even multiplicity in Sp"),
            (GroupSpec("SO", 7, 0), (4, 2, 1), "even parts [4, 2] need even multiplicity in SO"),
            (GroupSpec("SO", 7, 3), (1, 2, 4), "even parts [2, 4] need even multiplicity in SO"),
            (GroupSpec("Spin8", 8, 0), (4, 3, 1), "even parts [4] need even multiplicity in SO"),
        ],
    )
    def test_parity_violation_texts(self, group, partition, text):
        raw = ClassDescriptor("unipotent", None, None, UnipotentData(partition=partition))
        with pytest.raises(ParityViolation) as info:
            validate_class(group, raw)
        assert str(info.value) == text
