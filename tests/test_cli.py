"""End-to-end tests of the command-line interface."""

import io
import itertools
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from topogen import finfield
from topogen.algebra_core import validate_class
from topogen.cli import COMMANDS, _to_json, class_to_doc, handle, main, parse_class
from topogen.stabilizers import enumerate_class_shapes

from test_cli_fuzz import _documents
from test_handle_pin import _shape_documents
from test_oracle import _sweep_groups


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout, then stderr
    stderr: str
    exception: Optional[BaseException]  # what ended a run with a nonzero exit code


def run(args, payload=None, text=None):
    """``main.main(args)`` with stdin holding ``payload`` as JSON (or the
    raw ``text``), and stdout and stderr swapped for buffers."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(payload) if payload is not None else text or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main.main(args, prog_name="topogen")
        code, exception = 0, None
    except SystemExit as exc:
        code = exc.code or 0
        exception = exc if code else None
    except Exception as exc:
        code, exception = 1, exc
    finally:
        sys.stdin = stdin
    return Result(code, out.getvalue() + err.getvalue(), err.getvalue(), exception)


def run_json(args, payload):
    result = run(args, payload)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestDecideCommand:
    def test_table_row(self):
        payload = {
            "schema": "topogen/1",
            "group": {"family": "Sp", "n": 8, "p": 3},
            "classes": [
                {"kind": "semisimple", "order": 2, "ones": 6, "minus_ones": 2},
                {"kind": "semisimple", "order": 2, "ones": 6, "minus_ones": 2},
                {"kind": "semisimple", "order": 2, "ones": 4, "minus_ones": 4},
            ],
        }
        out = run_json(["decide"], payload)
        assert out["empty"] is True
        assert out["reason"] == "TableRow"
        assert out["row"] == "Sp8-r3"

    def test_generic(self):
        payload = {
            "group": {"family": "SL", "n": 5, "p": 0},
            "classes": [
                {"kind": "semisimple", "free": [["a", 1], ["b", 1], ["c", 1], ["d", 1], ["e", 1]]},
            ]
            * 2,
        }
        out = run_json(["decide"], payload)
        assert out["empty"] is False and out["reason"] == "Generic"

    def test_invalid_input_exit_2(self):
        payload = {
            "group": {"family": "Sp", "n": 4, "p": 0},
            "classes": [
                {"kind": "unipotent", "partition": [3, 1]},
                {"kind": "unipotent", "partition": [3, 1]},
            ],
        }
        result = run(["decide"], payload)
        assert result.exit_code == 2

    def test_unsupported_case_exit_3(self):
        payload = {
            "group": {"family": "Spin8", "n": 8, "p": 0},
            "classes": [
                {"kind": "semisimple", "ones": 2, "pairs": [2, 1]},
                {"kind": "semisimple", "ones": 2, "pairs": [2, 1]},
            ],
        }
        result = run(["decide"], payload)
        assert result.exit_code == 3

    def test_bad_schema_exit_2(self):
        result = run(["decide"], {"schema": "topogen/99", "group": {}})
        assert result.exit_code == 2

    def test_malformed_json_exit_2(self):
        result = run(["decide"], text="not json")
        assert result.exit_code == 2


class TestClassdimCommand:
    def test_so11_auxiliary_partition(self):
        payload = {
            "group": {"family": "SO", "n": 11, "p": 0},
            "class": {"kind": "unipotent", "partition": [2, 2, 2, 2, 2, 1]},
        }
        out = run_json(["classdim"], payload)
        assert out["dim_class"] == 25

    def test_char2_involution_keeps_its_type(self):
        payload = {
            "group": {"family": "Sp", "n": 4, "p": 2},
            "class": {"kind": "unipotent", "decoration": [{"W": 2, "mult": 1}]},
        }
        out = run_json(["classdim"], payload)
        assert out["dim_class"] == 4
        assert out["class"]["as_type"] == "a"

    def test_input_file(self, tmp_path):
        path = tmp_path / "query.json"
        path.write_text(
            json.dumps(
                {
                    "group": {"family": "SO", "n": 11, "p": 0},
                    "class": {"kind": "unipotent", "partition": [2, 2, 2, 2, 2, 1]},
                }
            )
        )
        result = run(["classdim", "--input", str(path)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["dim_class"] == 25

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_input_file_exit_2(self, tmp_path, name):
        result = run(["classdim", "--input", str(tmp_path / name)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "invalid input: cannot read the document" in result.output
        assert "Traceback" not in result.output

    def test_dimension_mismatch_exit_2(self):
        payload = {
            "group": {"family": "SO", "n": 11, "p": 0},
            "class": {"kind": "unipotent", "partition": [2, 2, 1]},
        }
        assert run(["classdim"], payload).exit_code == 2


class TestClosureCommand:
    def test_containment(self):
        payload = {
            "group": {"family": "Sp", "n": 6, "p": 3},
            "upper": {"kind": "unipotent", "partition": [3, 3]},
            "lower": {"kind": "unipotent", "partition": [2, 2, 2]},
        }
        out = run_json(["closure"], payload)
        assert out["in_closure"] is True

    def test_blocks(self):
        payload = {"group": {"family": "Sp", "n": 6, "p": 3}, "blocks": 3}
        out = run_json(["closure"], payload)
        assert out["class"]["partition"] == [2, 2, 2]

    def test_dot(self):
        result = run(["closure"], {"group": {"family": "Sp", "n": 4, "p": 3}, "dot": True})
        assert result.exit_code == 0
        assert result.output.startswith("digraph")

    def test_missing_query_exit_2(self):
        assert run(["closure"], {"group": {"family": "Sp", "n": 4, "p": 3}}).exit_code == 2


class TestOtherCommands:
    def test_genfree_exceptional(self):
        out = run_json(["genfree"], {"exceptional": "E8", "dimV": 721, "dimVG": 0})
        assert out["generically_free"] is True
        assert out["d"] == "720"

    def test_maxclass(self):
        payload = {"group": {"family": "Sp", "n": 8, "p": 3}, "r": 3, "is_p": True}
        out = run_json(["maxclass"], payload)
        assert out["dim"] == 24
        assert out["class"]["partition"] == [3, 3, 2]

    def test_rslimit(self):
        out = run_json(["rslimit"], {"family": "Sp", "n": 4, "p": 7, "r": 2, "s": 3})
        assert out["limit"] == "1/2"

    def test_rslimit_not_applicable_exit_2(self):
        # two involutions generate a dihedral group: the query itself is invalid
        assert (
            run(["rslimit"], {"family": "Sp", "n": 4, "p": 7, "r": 2, "s": 2}).exit_code
            == 2
        )

    def test_text_format(self):
        result = run(
            ["rslimit", "--format", "text"],
            {"family": "Sp", "n": 8, "p": 0, "r": 2, "s": 3},
        )
        assert result.exit_code == 0
        assert "limit: 1" in result.output


class TestMalformedDocumentsExit2:
    @pytest.mark.parametrize(
        "command,payload",
        [
            ("classdim", {"group": {"family": "SO", "n": 11, "p": 0}}),
            ("genfree", {"exceptional": "E8", "dimVG": 0}),
            ("maxclass", {"group": {"family": "Sp", "n": 8, "p": 3}, "r": "x"}),
            ("rslimit", {}),
        ],
        ids=["classdim-no-class", "genfree-no-dimV", "maxclass-bad-r", "rslimit-empty"],
    )
    def test_exit_2_without_traceback(self, command, payload):
        result = run([command], payload)
        assert result.exit_code == 2, result.output
        # a deliberate exit, not an exception the runner caught
        assert isinstance(result.exception, SystemExit)
        assert "invalid input" in result.output
        assert "Traceback" not in result.output


SP8 = {"family": "Sp", "n": 8, "p": 3}
INVOLUTION = {"kind": "semisimple", "order": 2, "ones": 6, "minus_ones": 2}
SPIN8 = {"family": "Spin8", "n": 8, "p": 0}
SPIN8_CLASS = {"kind": "semisimple", "ones": 2, "pairs": [2, 1]}
PARTITION = {"kind": "unipotent", "partition": [2, 2, 2, 2]}
RS = {"family": "Sp", "n": 4, "p": 7, "r": 2, "s": 3}


class TestHandleMalformedDocuments:
    """Every command, called in-process without click, answers a missing
    required key or a wrong-typed value of each key it reads with exit 2."""

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("decide", {"classes": [INVOLUTION] * 2}),
            ("decide", {"schema": 1, "group": SP8, "classes": [INVOLUTION] * 2}),
            ("decide", {"group": 5, "classes": [INVOLUTION] * 2}),
            ("decide", {"group": {**SP8, "family": 5}, "classes": [INVOLUTION] * 2}),
            ("decide", {"group": SP8, "classes": 5}),
            ("decide", {"group": SP8, "classes": [5, 5]}),
            ("decide", {"group": SPIN8, "classes": [SPIN8_CLASS] * 2, "spin8_profiles": [1, 2]}),
            ("decide", {"group": SPIN8, "classes": [SPIN8_CLASS] * 2, "spin8_profiles": 5}),
            (
                "decide",
                {"group": SPIN8, "classes": [SPIN8_CLASS] * 2, "spin8_profiles": [[1, 2, "x"]] * 2},
            ),
            ("decide", {"group": SPIN8, "classes": [SPIN8_CLASS] * 2, "spin8_profiles": [[100, -4, 0]] * 2}),
            ("decide", {"group": SPIN8, "classes": [SPIN8_CLASS] * 2, "spin8_profiles": [[0, 0, 0]] * 2}),
            ("decide", {"group": SPIN8, "classes": [SPIN8_CLASS] * 2, "spin8_profiles": [[4, 4, 4], [4, 8, 4]]}),
            (
                "decide",
                {
                    "group": {"family": "Sp", "n": 6, "p": 0},
                    "classes": [{"kind": "semisimple", "pairs": [["a", 1], ["b", 2]], "relations": {"a": 5}}] * 3,
                },
            ),
            ("classdim", {"class": PARTITION}),
            ("classdim", {"group": SP8}),
            ("classdim", {"group": "Sp", "class": PARTITION}),
            ("classdim", {"group": SP8, "class": 5}),
            ("closure", {"dot": True}),
            ("closure", {"group": SP8}),
            ("closure", {"group": [SP8], "dot": True}),
            ("closure", {"group": SP8, "upper": 5, "lower": PARTITION}),
            ("closure", {"group": SP8, "upper": PARTITION, "lower": "x"}),
            ("closure", {"group": SP8, "blocks": "x"}),
            ("closure", {"group": SP8, "dot": "yes"}),
            ("genfree", {"dimV": 721, "dimVG": 0}),
            ("genfree", {"exceptional": 5, "dimV": 721, "dimVG": 0}),
            ("genfree", {"group": [1], "dimV": 721, "dimVG": 0}),
            ("genfree", {"exceptional": "E8", "dimV": "x", "dimVG": 0}),
            ("genfree", {"exceptional": "E8", "dimV": 721}),
            ("genfree", {"exceptional": "E8", "dimV": 721, "dimVG": [0]}),
            ("maxclass", {"r": 3}),
            ("maxclass", {"group": SP8}),
            ("maxclass", {"group": 5, "r": 3}),
            ("maxclass", {"group": SP8, "r": "x"}),
            ("maxclass", {"group": SP8, "r": 5, "i": "x"}),
            ("maxclass", {"group": {"family": "Sp", "n": 4, "p": 3}, "r": 3, "is_p": "no"}),
            ("rslimit", {"n": 4, "p": 7, "r": 2, "s": 3}),
            ("rslimit", {**RS, "family": 5}),
            ("rslimit", {**RS, "n": "x"}),
            ("rslimit", {**RS, "p": "x"}),
            ("rslimit", {**RS, "r": [2]}),
            ("rslimit", {**RS, "s": {}}),
            ("verify", {}),
            ("verify", {"suite": 5}),
            ("verify", {"suite": "nope"}),
            # integer fields take JSON integers only: no floats, bools or strings
            ("rslimit", {**RS, "r": 2.9}),
            ("rslimit", {**RS, "n": True}),
            ("rslimit", {**RS, "p": "7"}),
            ("maxclass", {"group": SP8, "r": 5.9, "i": 4}),
            ("maxclass", {"group": SP8, "r": 5, "i": 4.0}),
            ("maxclass", {"group": SP8, "r": 5, "i": True}),
            ("genfree", {"exceptional": "E8", "dimV": 721.0, "dimVG": 0}),
            ("decide", {"group": {**SP8, "n": 8.0}, "classes": [INVOLUTION] * 3}),
            ("decide", {"group": {**SP8, "p": 3.0}, "classes": [INVOLUTION] * 3}),
            ("decide", {"group": SP8, "classes": [{**INVOLUTION, "ones": 6.0}] * 3}),
            ("decide", {"group": SP8, "classes": [{**INVOLUTION, "minus_ones": "2"}] * 3}),
            ("decide", {"group": SPIN8, "classes": [{**SPIN8_CLASS, "pairs": [2.0, 1]}] * 2}),
            ("decide", {"group": SP8, "classes": [{"kind": "semisimple", "ones": 6, "pairs": [["a", True]]}] * 3}),
            ("classdim", {"group": SP8, "class": {**PARTITION, "partition": [2, 2, 2, 2.0]}}),
            ("classdim", {"group": SP8, "class": {**PARTITION, "order": 3.0}}),
            (
                "classdim",
                {"group": {"family": "Sp", "n": 4, "p": 2}, "class": {"kind": "unipotent", "decoration": [{"W": 2.0, "mult": 1}]}},
            ),
            ("closure", {"group": SP8, "blocks": 2.5}),
            # a block count below 1 is malformed, not an unsupported case
            ("closure", {"group": SP8, "blocks": 0}),
            ("closure", {"group": SP8, "blocks": -3}),
            # a label of order 0 would divide by zero in the SO6 products
            (
                "decide",
                {
                    "group": {"family": "SO", "n": 6, "p": 0},
                    "classes": [{"kind": "semisimple", "ones": 2, "pairs": [["a", 1]], "relations": [["a", "order:0"]]}] * 2,
                },
            ),
            # is_p names the characteristic's unipotent classes, so r must be p
            ("maxclass", {"group": {"family": "Sp", "n": 4, "p": 3}, "r": 7, "is_p": True}),
            ("maxclass", {"group": {"family": "Sp", "n": 4, "p": 3}, "r": 2, "is_p": True}),
            # a dimension is never negative
            ("genfree", {"group": {"family": "Sp", "n": 4, "p": 3}, "dimV": -5, "dimVG": -10}),
            ("genfree", {"exceptional": "E8", "dimV": 721, "dimVG": -1}),
        ],
    )
    def test_exit_2(self, command, doc):
        code, out = handle(command, doc)
        assert code == 2, out
        assert out.startswith("invalid input: ")

    @pytest.mark.parametrize("doc", ["not json", "[1, 2]", [1, 2]])
    def test_not_a_json_object(self, doc):
        assert handle("decide", doc)[0] == 2


SO10 = {"family": "SO", "n": 10, "p": 0}
SL4 = {"family": "SL", "n": 4, "p": 0}
SO10_INVOLUTION = {"kind": "semisimple", "order": 2, "ones": 6, "minus_ones": 4}
SL4_CLASS = {"kind": "semisimple", "ones": 2, "pairs": [["a", 1]]}


class TestRulesOfEveryGroup:
    """The rules of a class that hold in every group apply to every command,
    classdim included, which skips only the group admissibility checks."""

    @pytest.mark.parametrize("variant", [5, ["x"], "foo", None, "Plus"])
    @pytest.mark.parametrize("command", ["classdim", "decide"])
    def test_unknown_variant_exit_2(self, command, variant):
        cls = {**SO10_INVOLUTION, "variant": variant}
        doc = {"group": SO10, "class": cls} if command == "classdim" else {"group": SO10, "classes": [cls] * 2}
        code, out = handle(command, doc)
        assert (code, out) == (2, f"invalid input: variant must be plus, minus or unspecified, not {variant!r}")

    @pytest.mark.parametrize("variant", ["plus", "minus", "unspecified"])
    def test_known_variant_is_echoed(self, variant):
        code, out = handle("classdim", {"group": SO10, "class": {**SO10_INVOLUTION, "variant": variant}})
        assert code == 0, out
        assert out["class"].get("variant", "unspecified") == variant

    @pytest.mark.parametrize(
        "group,cls,message",
        [
            (SL4, {**SL4_CLASS, "relations": {"a": "bogus"}}, "unknown relation tag 'bogus'"),
            (SL4, {**SL4_CLASS, "relations": {"a": "order:0"}}, "relation tag 'order:0': an order is at least 1"),
            (SO10, {**SO10_INVOLUTION, "relations": {"zz": "order:3"}}, "relation on unknown label 'zz'"),
            (SL4, {**SL4_CLASS, "order": "3"}, "semisimple order must be an integer, not '3'"),
            (SL4, {"kind": "semisimple", "pairs": [["a", 1]], "free": [["a", 1], ["b", 1]]},
             "labels must be pairwise distinct"),
            (SL4, {"kind": "semisimple", "pairs": [1], "free": [1, 1]}, "labels must be pairwise distinct"),
            (SL4, {"kind": "semisimple", "ones": -1, "free": [1, 1, 1, 2]}, "negative multiplicity"),
            (SL4, {"kind": "unipotent", "partition": [2, 2], "order": "foo"},
             "unipotent order must be an integer or 'unipotent-char-0', not 'foo'"),
        ],
    )
    def test_classdim_exit_2(self, group, cls, message):
        assert handle("classdim", {"group": group, "class": cls}) == (2, f"invalid input: {message}")

    @pytest.mark.parametrize("order", [None, "unipotent-char-0", 2, 3])
    def test_classdim_unipotent_order_integer_or_symbolic(self, order):
        cls = {"kind": "unipotent", "partition": [2, 2], "order": order}
        code, out = handle("classdim", {"group": SL4, "class": cls})
        assert (code, out["dim_class"], out["class"]["order"]) == (0, 8, order)

    def test_classdim_still_skips_group_admissibility(self):
        # an auxiliary pattern: odd -1-eigenspace in SO10, order 4, not prime
        cls = {"kind": "semisimple", "order": 4, "ones": 7, "minus_ones": 3}
        code, out = handle("classdim", {"group": SO10, "class": cls})
        assert code == 0, out
        assert out["class"] == {"kind": "semisimple", **cls}


class TestOnePassRoundTrip:
    @pytest.mark.parametrize("group", _sweep_groups((0, 2, 3, 5)), ids=repr)
    def test_every_shape(self, group):
        """A shape's document, read against its group in one pass, is the
        class validate_class makes of the shape, with the same stamp; and
        classdim echoes the document it was sent."""
        group_doc = {"family": group.family, "n": group.n, "p": group.p}
        for shape in enumerate_class_shapes(group):
            doc = class_to_doc(shape)
            got, want = parse_class(doc, group), validate_class(group, replace(shape))
            assert (got, repr(got)) == (want, repr(want)), doc
            assert got.validated_for == want.validated_for == group.class_group()
            code, out = handle("classdim", {"group": group_doc, "class": doc})
            assert (code, out["class"]) == (0, doc)


class TestVerifySuites:
    @pytest.mark.parametrize(
        "suite,want",
        [
            # PSp4(3) is not (2, 3)- or (3, 3)-generated
            ("psp4", {"passed": True, "projective_order": 25920, "p23": "0", "p33": "0"}),
            ("so9-count", {"passed": True, "counts": {2: 39, 3: 1201}}),
            ("centralizers", {"passed": True, "checked": 238}),
        ],
    )
    def test_suite(self, suite, want):
        assert handle("verify", {"suite": suite}) == (0, {"schema": "topogen/1", "suite": suite, **want})

    def test_failing_suite_exits_1(self, monkeypatch):
        # a wrong centraliser dimension fails the first class checked, in Sp4 over GF(3)
        monkeypatch.setattr(finfield, "centralizer_lie_dim", lambda group, m: -1)
        code, out = handle("verify", {"suite": "centralizers"})
        assert (code, out["passed"], out["at"][:3], out["got"]) == (1, False, ("Sp", 4, 3), -1)
        result = run(["verify", "centralizers"])
        assert result.exit_code == 1 and '"passed": false' in result.output


class TestEigenvalueLabels:
    @pytest.mark.parametrize("label", [None, True, [1], {"a": 1}, 3, 1.5])
    @pytest.mark.parametrize("field", ["pairs", "free"])
    def test_label_must_be_a_string(self, field, label):
        group = SP8 if field == "pairs" else {"family": "SL", "n": 4, "p": 0}
        cls = {"kind": "semisimple", "ones": 4 if field == "pairs" else 2, field: [[label, 1], ["b", 1]]}
        code, out = handle("classdim", {"group": group, "class": cls})
        assert code == 2, out
        assert out.startswith("invalid input: ")

    def test_null_label_exits_2_from_the_shell(self):
        cls = {"kind": "semisimple", "ones": 4, "pairs": [[None, 1], ["b", 1]]}
        result = run(["classdim"], {"group": SP8, "class": cls})
        assert result.exit_code == 2, result.output

    def test_string_labels_are_echoed(self):
        cls = {"kind": "semisimple", "ones": 4, "pairs": [["x", 1], ["b", 1]]}
        code, out = handle("classdim", {"group": SP8, "class": cls})
        assert code == 0, out
        assert sorted(map(tuple, out["class"]["pairs"])) == [("b", 1), ("x", 1)]


class TestHandle:
    def test_result_document(self):
        assert handle("rslimit", RS) == (0, {"schema": "topogen/1", "limit": "1/2"})
        assert handle("rslimit", json.dumps(RS)) == (0, {"schema": "topogen/1", "limit": "1/2"})

    def test_dot_text(self):
        code, out = handle("closure", {"group": {"family": "Sp", "n": 4, "p": 3}, "dot": True})
        assert code == 0 and out.startswith("digraph")

    def test_large_prime_answers_fast(self):
        # trial division up to sqrt(r) would take minutes here
        start = time.perf_counter()
        code, out = handle("rslimit", {**RS, "r": 2**61 - 1})
        assert (code, out) == (0, {"schema": "topogen/1", "limit": "1"})
        assert time.perf_counter() - start < 0.5

    def test_prime_past_the_bound_exit_3(self):
        code, out = handle("rslimit", {**RS, "r": 2**89 - 1})
        assert code == 3 and out.startswith("unsupported case: primality")

    def test_deeply_nested_json_exit_2(self):
        code, out = handle("decide", "[" * 100000)
        assert code == 2 and out.startswith("invalid input: input is not valid JSON: ")

    def test_unsupported_case_exit_3(self):
        code, out = handle("maxclass", {"group": {"family": "Sp", "n": 4, "p": 0}, "r": 11, "i": 10})
        assert code == 3 and out.startswith("unsupported case: ")


def call_main(monkeypatch, command, payload):
    """``main.main`` in the form an in-process caller uses: stdin and
    stdout swapped for buffers, ``standalone_mode=False``."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        main.main(args=[command], prog_name="topogen", standalone_mode=False)
    return out.getvalue()


class TestInProcessEntryForm:
    def test_exit_0_returns_and_prints_json(self, monkeypatch):
        out = call_main(monkeypatch, "rslimit", RS)
        assert json.loads(out) == {"schema": "topogen/1", "limit": "1/2"}

    @pytest.mark.parametrize(
        "command,payload,code",
        [
            ("rslimit", {**RS, "s": 2}, 2),
            ("maxclass", {"group": {"family": "Sp", "n": 4, "p": 0}, "r": 11, "i": 10}, 3),
        ],
    )
    def test_refusal_raises_system_exit(self, monkeypatch, command, payload, code):
        with pytest.raises(SystemExit) as info:
            call_main(monkeypatch, command, payload)
        assert info.value.code == code

    def test_dot_prints_digraph(self, monkeypatch):
        out = call_main(monkeypatch, "closure", {"group": {"family": "Sp", "n": 4, "p": 3}, "dot": True})
        assert out.startswith("digraph")


class TestShell:
    @pytest.mark.parametrize(
        "args",
        [
            ["bogus"],
            ["rslimit", "--format", "xml"],
            ["verify", "bogus"],
            [],
            ["rslimit", "--form", "text"],
            ["decide", "extra"],
            ["--", "rslimit"],
        ],
        ids=[
            "unknown-command", "format-xml", "verify-bogus", "no-command", "abbreviated-option",
            "extra-argument", "double-dash",
        ],
    )
    def test_usage_error_exit_2(self, args):
        result = run(args, RS)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("usage: topogen")
        assert result.output == result.stderr
        assert "Traceback" not in result.output

    def test_extra_argument_is_reported_by_the_command(self):
        # a command's arguments go straight to its own parser, which names it
        result = run(["decide", "extra"], RS)
        assert result.exit_code == 2
        usage, error = result.stderr.splitlines()
        assert usage.startswith("usage: topogen decide ")
        assert error == "topogen decide: error: unrecognized arguments: extra"

    @pytest.mark.parametrize("args", [["--help"], ["decide", "--help"], ["verify", "--help"]])
    def test_help_exit_0(self, args):
        result = run(args)
        assert result.exit_code == 0 and result.exception is None
        assert result.output.startswith("usage: topogen")

    def test_text_format(self):
        result = run(["rslimit", "--format", "text"], RS)
        assert (result.exit_code, result.output) == (0, "schema: topogen/1\nlimit: 1/2\n")

    def test_refusal_goes_to_stderr(self):
        result = run(["rslimit"], {**RS, "s": 2})
        assert result.exit_code == 2
        assert result.output == result.stderr
        assert result.stderr.startswith("invalid input: ") and result.stderr.endswith("\n")

    def test_console_script_call_exits_with_the_code(self, monkeypatch):
        # the console script calls main() and exits with what it returns
        monkeypatch.setattr(sys, "argv", ["topogen", "rslimit"])
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(RS)))
        with redirect_stdout(io.StringIO()) as out:
            assert main() is None
        assert json.loads(out.getvalue())["limit"] == "1/2"

    def test_module_run_end_to_end(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {"PYTHONPATH": src, "PATH": ""}
        done = subprocess.run(
            [sys.executable, "-m", "topogen.cli", "rslimit"],
            input=json.dumps(RS), capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout) == {"schema": "topogen/1", "limit": "1/2"}
        check = "import sys, topogen.cli; print('click' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", check], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


# one document per command, each answered with exit 0
ONE_PER_COMMAND = [
    (["decide"], {"group": SP8, "classes": [INVOLUTION, INVOLUTION, PARTITION]}),
    (["classdim"], {"group": SP8, "class": {"kind": "semisimple", "pairs": [["l1", 2]], "ones": 4}}),
    (["closure"], {"group": {"family": "Sp", "n": 6, "p": 3}, "blocks": 3}),
    (["genfree"], {"exceptional": "E8", "dimV": 721, "dimVG": 0}),
    (["maxclass"], {"group": SP8, "r": 3, "is_p": True}),
    (["rslimit"], RS),
    # the one output with keys that are not strings: its counts by q
    (["verify", "so9-count"], None),
]


class TestDirectDispatch:
    def test_every_command_is_covered(self):
        assert sorted(args[0] for args, _ in ONE_PER_COMMAND) == sorted(COMMANDS)

    @pytest.mark.parametrize("args,payload", ONE_PER_COMMAND, ids=[a[0] for a, _ in ONE_PER_COMMAND])
    def test_command_runs_without_the_top_level_parser(self, monkeypatch, args, payload):
        def refuse(*_):
            raise AssertionError("a command went through the top-level parser")

        monkeypatch.setattr(main.parser, "parse_args", refuse)
        result = run(args, payload)
        doc = {"suite": args[1]} if args[0] == "verify" else payload
        code, out = handle(args[0], doc)
        assert (result.exit_code, code) == (0, 0), result.output
        assert result.output == json.dumps(out, indent=2, default=str) + "\n"


class TestJsonWriter:
    def test_outputs_of_the_pinned_corpora(self):
        # every output document of the two corpora of test_handle_pin
        docs = itertools.chain(_documents(), _shape_documents())
        outputs = [out for cmd, doc in docs for _, out in [handle(cmd, doc)] if isinstance(out, dict)]
        assert len(outputs) > 4000
        for out in outputs:
            assert _to_json(out) == json.dumps(out, indent=2, default=str)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": [[], {}, ()], "d": [[[]]]},
            (1, (2, 3), [()]),
            "caf\u00e9 \u2028 \U0001d54a",
            "\x00\x1f\t\n\"\\/",
            {"\u00e9\n": "\x7f"},
            Fraction(-3, 4),
            {"limit": Fraction(1, 2), "more": [Fraction(0)]},
            True,
            False,
            None,
            [True, False, None, 0, -1],
            2**200,
            -(10**100),
            1.5,
            {1: "one", 2.5: [], True: None, None: {}, False: 0},
            {"counts": {2: 39, 3: 1201}},
        ],
        ids=[
            "empty-dict", "empty-list", "empty-tuple", "nested-empties", "tuples",
            "non-ascii", "control", "escaped-key", "fraction", "fractions-inside",
            "true", "false", "none", "constants", "large-int", "large-negative-int",
            "float", "non-string-keys", "int-keys",
        ],
    )
    def test_same_text_as_json(self, value):
        assert _to_json(value) == json.dumps(value, indent=2, default=str)

    def test_unencodable_key_is_refused(self):
        with pytest.raises(TypeError):
            json.dumps({(1, 2): 0}, indent=2, default=str)
        with pytest.raises(TypeError):
            _to_json({(1, 2): 0})
