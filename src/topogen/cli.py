"""Command-line front end.

Batch commands over a JSON input document (schema "topogen/1"):
decide, classdim, closure, genfree, maxclass, rslimit, verify.
Exit codes: 0 computed result (including Empty verdicts), 1 failed verify
suite, 2 invalid input (and usage errors), 3 well-formed but unsupported
case. ``handle`` is the in-process entry point; ``main`` is a thin argparse
shell on it, with its parser built once at import. A command's arguments go
straight to the command's own parser, and the output is the text of
``json.dumps(out, indent=2, default=str)``, written without json's
pure-Python indenting encoder.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra_core import (
    ClassDescriptor,
    GroupSpec,
    _checked_class,
    _normal_pattern,
    _normal_unipotent,
    check_unvalidated,
)
from .closure import closure_poset_dot, in_closure, smallest_class_with_blocks
from .errors import InvalidInput, SchemaError, UnsupportedCase
from .invariants import class_dim
from .maxclass import QContext, max_class, rs_limit
from .oracle import decide
from .stabilizers import d_value, generically_free

SCHEMA = "topogen/1"


# ---------------------------------------------------------------------------
# (de)serialization
# ---------------------------------------------------------------------------


def parse_group(doc: dict) -> GroupSpec:
    try:
        return GroupSpec(_typed(str)(doc["family"]), _int(doc["n"]), _int(doc.get("p", 0)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad group document: {exc}") from exc


def parse_class(doc: dict, group: GroupSpec | None = None) -> ClassDescriptor:
    """The class of a class document; with ``group``, checked against it and
    stamped as by ``validate_class``, in one pass that builds one descriptor."""
    fields = _class_fields(doc)
    return ClassDescriptor(*fields) if group is None else _checked_class(group, *fields)


def _class_fields(doc: dict) -> tuple:
    """(kind, order, eigen, unip) of a class document: JSON types checked,
    the pattern or Jordan data normalised, nothing checked against a group."""
    try:
        kind = doc["kind"]
        # an order is an integer, or the symbolic order of a unipotent class
        order = doc.get("order")
        if order is not None and not isinstance(order, str):
            _int(order)
        if kind == "semisimple":
            ones, minus_ones = _int(doc.get("ones", 0)), _int(doc.get("minus_ones", 0))
            pairs = [_labelled(x) for x in doc.get("pairs", [])]
            free = [_labelled(x) for x in doc.get("free", [])]
            relations, variant = doc.get("relations"), doc.get("variant", "unspecified")
            return kind, order, _normal_pattern(ones, minus_ones, pairs, free, relations, variant), None
        if kind == "unipotent":
            # _normal_unipotent itself refuses parts, sizes and mults that are not integers
            return kind, order, None, _normal_unipotent(doc.get("partition"), doc.get("decoration"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad class document: {exc}") from exc
    raise SchemaError(f"unknown class kind {kind!r}")


def _int(value) -> int:
    """``value`` if it is a JSON integer: an int and not a bool."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _labelled(x):
    """A multiplicity, or a [label, multiplicity] pair with a string label."""
    if isinstance(x, list):
        label, mult = x
        if type(label) is not str:
            raise TypeError(f"an eigenvalue label is a string, got {label!r}")
        return label, _int(mult)
    return _int(x)


def class_to_doc(cls: ClassDescriptor) -> dict:
    if cls.kind == "semisimple":
        pat = cls.eigen
        doc = {"kind": "semisimple", "order": cls.order}
        if pat.mult_one:
            doc["ones"] = pat.mult_one
        if pat.mult_minus_one:
            doc["minus_ones"] = pat.mult_minus_one
        if pat.pairs:
            doc["pairs"] = [list(t) for t in pat.pairs]
        if pat.free:
            doc["free"] = [list(t) for t in pat.free]
        if pat.relations:
            doc["relations"] = {lab: tag for lab, tag in pat.relations}
        if pat.variant != "unspecified":
            doc["variant"] = pat.variant
        return doc
    doc = {
        "kind": "unipotent",
        "order": cls.order,
        "partition": list(cls.unip.partition),
    }
    if cls.unip.decoration is not None:
        doc["decoration"] = [
            {kind: size, "mult": mult} for kind, size, mult in cls.unip.decoration
        ]
        doc["as_type"] = cls.unip.as_type
    return doc


_REQUIRED = object()


def _read(doc: dict, key: str, convert=_int, default=_REQUIRED):
    """``convert(doc[key])``, or ``default`` when the key is absent; a
    missing required key or a value ``convert`` rejects is a SchemaError."""
    if key not in doc:
        if default is _REQUIRED:
            raise SchemaError(f"missing {key!r}")
        return default
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad {key!r}: {exc}") from exc


def _document(doc) -> dict:
    """The command document ``doc``, given as a dict or as JSON text."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nested deeper than the decoder can follow
            raise SchemaError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("input document must be a JSON object")
    if _read(doc, "schema", str, default=SCHEMA) != SCHEMA:
        raise SchemaError(f"unsupported schema {doc['schema']!r}")
    return doc


def _typed(kind):
    """Converter passing values of type ``kind`` through unchanged."""

    def convert(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value

    return convert


def _profiles(value) -> list:
    """Spin8 profiles: one list of three integers per class."""
    for t in value:
        if not isinstance(t, list) or len(t) != 3 or any(type(d) is not int for d in t):
            raise ValueError("each Spin8 profile must be a list of three integers")
    return [tuple(t) for t in value]


def _decide(doc: dict) -> dict:
    """Decide emptiness for a tuple of classes."""
    group = _read(doc, "group", parse_group)
    fields = _read(doc, "classes", lambda v: [_class_fields(c) for c in v], default=[])
    profiles = _read(doc, "spin8_profiles", _profiles, default=None)
    # every class is read before any is checked against the group, so a
    # malformed class is reported before a class that breaks a group rule
    classes = [_checked_class(group, *f) for f in fields]
    verdict = decide(group, classes, spin8_profiles=profiles)
    out = {"empty": verdict.empty, "reason": verdict.reason}
    if verdict.reason == "TableRow":
        out["row"] = verdict.case_id
    elif verdict.case_id is not None:
        out["case"] = verdict.case_id
    out["witnesses"] = verdict.witnesses
    return out


def _classdim(doc: dict) -> dict:
    """Class and centralizer dimensions of a single class."""
    group = _read(doc, "group", parse_group)
    # dimension formulas are evaluated without family admissibility
    # validation, so auxiliary Jordan data can be queried too
    cls = _read(doc, "class", parse_class)
    check_unvalidated(group, [cls])
    res = class_dim(group, cls)
    return {
        "dim_class": res.dim_class,
        "dim_centralizer": res.dim_centralizer,
        "class": class_to_doc(cls),
    }


def _closure(doc: dict) -> dict | str:
    """Closure-order queries: containment, smallest class, DOT poset."""
    group = _read(doc, "group", parse_group)
    if "upper" in doc and "lower" in doc:
        upper = _read(doc, "upper", lambda c: parse_class(c, group))
        lower = _read(doc, "lower", lambda c: parse_class(c, group))
        return {"in_closure": in_closure(group, upper, lower)}
    if "blocks" in doc:
        blocks = _read(doc, "blocks")
        if blocks < 1:
            raise SchemaError(f"'blocks' must be at least 1, got {blocks}")
        cls = smallest_class_with_blocks(group, blocks)
        return {"class": class_to_doc(cls)}
    if _read(doc, "dot", _typed(bool), default=False):
        return closure_poset_dot(group)
    raise SchemaError("closure needs 'upper'/'lower', 'blocks', or 'dot'")


def _genfree(doc: dict) -> dict:
    """Generically-free threshold test."""
    group = _read(doc, "exceptional", _typed(str), default=None)
    group = group or _read(doc, "group", parse_group)
    result = generically_free(group, _read(doc, "dimV"), _read(doc, "dimVG"))
    return {"generically_free": result, "d": str(d_value(group))}


def _maxclass(doc: dict) -> dict:
    """Maximal-dimension class of prime order r in context (r, i)."""
    group = _read(doc, "group", parse_group)
    ctx = QContext(
        r=_read(doc, "r"),
        i=_read(doc, "i", default=1),
        is_p=_read(doc, "is_p", _typed(bool), default=False),
    )
    cls, dim = max_class(group, ctx)
    return {"dim": dim, "class": class_to_doc(cls)}


def _rslimit(doc: dict) -> dict:
    """Limit of the (r, s) random generation probability."""
    limit = rs_limit(
        _read(doc, "family", _typed(str)),
        _read(doc, "n"),
        _read(doc, "p", default=0),
        _read(doc, "r"),
        _read(doc, "s"),
    )
    return {"limit": str(limit)}


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _verify_blocks() -> dict:
    from . import finfield
    from .invariants import induced_block_count

    # a unipotent matrix has as many Jordan blocks as fixed vectors
    checked = 0
    for q in (2, 3, 5, 101):
        F = finfield._field(q)
        for a in range(2, 10):
            ja = finfield.GFMatrix(q, finfield._jordan_block(F, a, F.one))
            w = finfield.induced_matrix(ja, "wedge2")
            s = finfield.induced_matrix(ja, "sym2")
            if finfield.fixed_space_dim(w) != induced_block_count("wedge2", a, p=F.p):
                return {"passed": False, "at": ("wedge2", a, q)}
            if finfield.fixed_space_dim(s) != induced_block_count("sym2", a, p=F.p):
                return {"passed": False, "at": ("sym2", a, q)}
            checked += 2
            for b in range(2, 10):
                jb = finfield.GFMatrix(q, finfield._jordan_block(F, b, F.one))
                t = finfield.kron(ja, jb)
                if finfield.fixed_space_dim(t) != induced_block_count("tensor", a, b):
                    return {"passed": False, "at": ("tensor", a, b, q)}
                checked += 1
    return {"passed": True, "checked": checked}


def _verify_centralizers() -> dict:
    from . import finfield
    from .invariants import class_dim
    from .stabilizers import enumerate_class_shapes

    checked = 0
    for family, n in (("Sp", 4), ("Sp", 6), ("SO", 7), ("Spin8", 8), ("SO", 9), ("SO", 10)):
        for q in (3, 5, 7):
            group = GroupSpec(family, n, q)
            for cls in enumerate_class_shapes(group):
                try:
                    m = finfield.matrix_from_class(group, cls, q)
                except UnsupportedCase:
                    continue
                want = class_dim(group, cls).dim_centralizer
                got = finfield.centralizer_lie_dim(group, m)
                if got != want:
                    return {
                        "passed": False,
                        "at": (family, n, q, class_to_doc(cls)),
                        "want": want,
                        "got": got,
                    }
                checked += 1
    return {"passed": True, "checked": checked}


def _verify_psp4() -> dict:
    from . import finfield

    order, _ = finfield.group_closure(finfield.standard_generators("Sp", 4, 3))
    if order != 51840:
        return {"passed": False, "at": "order", "got": order}
    p23 = finfield.exact_generation_probability(("Sp", 4, 3), 2, 3)
    p33 = finfield.exact_generation_probability(("Sp", 4, 3), 3, 3)
    return {
        "passed": p23 == 0 and p33 == 0,
        "projective_order": order // 2,
        "p23": str(p23),
        "p33": str(p33),
    }


def _verify_so9_count() -> dict:
    from . import finfield

    # invariant maximal totally singular subspaces, counted by listing all
    # (q + 1)(q^2 + 1)(q^3 + 1)(q^4 + 1) of them: 2295 and 91840
    want = {2: 39, 3: 1201}
    counts = {}
    for q in want:
        m = finfield.unipotent_matrix((2, 2, 2, 2, 1), q, "symmetric")
        counts[q] = finfield.invariant_subspace_count(m, 4, "totally_singular")
    return {"passed": counts == want, "counts": counts}


SUITES = {
    "blocks": _verify_blocks,
    "centralizers": _verify_centralizers,
    "psp4": _verify_psp4,
    "so9-count": _verify_so9_count,
}


def _verify(doc: dict) -> dict:
    """Run a named finite-field cross-check suite."""
    suite = _read(doc, "suite", _typed(str))
    if suite not in SUITES:
        raise SchemaError(f"unknown suite {suite!r}")
    return {"suite": suite, **SUITES[suite]()}


COMMANDS = {
    "decide": _decide,
    "classdim": _classdim,
    "closure": _closure,
    "genfree": _genfree,
    "maxclass": _maxclass,
    "rslimit": _rslimit,
    "verify": _verify,
}


def handle(command: str, doc: dict | str) -> tuple[int, dict | str]:
    """Run ``command`` on a topogen/1 document (a dict or its JSON text) and
    return ``(exit_code, out)``: the output document, the DOT text of
    ``closure`` with ``dot``, or for exit codes 2 and 3 the error message."""
    try:
        out = COMMANDS[command](_document(doc))
    except InvalidInput as exc:
        return 2, f"invalid input: {exc}"
    except UnsupportedCase as exc:
        return 3, f"unsupported case: {exc}"
    if isinstance(out, dict):
        out = {"schema": SCHEMA, **out}
    return int(command == "verify" and not out["passed"]), out


# ---------------------------------------------------------------------------
# argparse shell
# ---------------------------------------------------------------------------


_encode_str = json.encoder.encode_basestring_ascii
_encode_other = json.JSONEncoder(default=str).encode


def _key(k) -> str:
    """A dict key as json writes it. A non-string key (``verify so9-count``
    counts by q) is written as json writes it in ``{k: 0}``."""
    return _encode_str(k) if type(k) is str else _encode_other({k: 0})[1:-4]


def _to_json(x, depth: int = 0) -> str:
    """``json.dumps(x, indent=2, default=str)``. With an indent json encodes
    in Python; this joins the indented lines itself and leaves strings and
    other leaves to json's C encoder."""
    t = type(x)
    if t is str:
        return _encode_str(x)
    if t is int:
        return int.__repr__(x)
    if t is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    if not isinstance(x, (dict, list, tuple)) or not x:
        return _encode_other(x)
    depth += 1
    inner = "\n" + "  " * depth
    if isinstance(x, dict):
        items = [_key(k) + ": " + _to_json(v, depth) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + inner[:-2] + "}"
    items = [_to_json(v, depth) for v in x]
    return "[" + inner + ("," + inner).join(items) + inner[:-2] + "]"


class _Shell:
    """The ``topogen`` command line on ``handle``, with its parser built once.

    ``main`` is an instance, not a function, so that it keeps its ``main``
    method when tools wrap every public function of this module."""

    def __init__(self):
        self.parser = argparse.ArgumentParser(
            prog="topogen",
            description="Exact decision toolkit for topological generation of simple "
            "classical groups by prime-order conjugacy classes.",
        )
        self.commands = self.parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
        for name, command in COMMANDS.items():
            sub = self.commands.add_parser(
                name, help=command.__doc__, description=command.__doc__, allow_abbrev=False
            )
            if name == "verify":
                sub.add_argument("suite", choices=SUITES, metavar="SUITE")
            else:
                sub.add_argument("--input", help="JSON input file (default stdin)")
            sub.add_argument("--format", choices=("json", "text"), default="json")

    def __call__(self, args=None):
        self.main(args)

    def main(self, args=None, prog_name="topogen", standalone_mode=True):
        """Run the command line ``args`` (default ``sys.argv[1:]``). It
        returns on exit 0 and raises ``SystemExit(code)`` otherwise, 2 for a
        usage error with the usage on stderr; ``--help`` exits through
        ``SystemExit(0)``. ``prog_name`` and ``standalone_mode`` change
        nothing: they keep the call form
        ``main.main(args=[...], prog_name="topogen", standalone_mode=False)``
        working."""
        args = sys.argv[1:] if args is None else args
        if args and args[0] in self.commands.choices:
            # the command's own parser, without the top-level parse around it
            ns = argparse.Namespace(command=args[0])
            ns = self.commands.choices[args[0]].parse_args(args[1:], ns)
        else:
            ns = self.parser.parse_args(args)
        try:
            if ns.command == "verify":
                doc = {"suite": ns.suite}
            elif ns.input in (None, "-"):
                doc = sys.stdin.read()
            else:
                with open(ns.input) as f:
                    doc = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            code, out = 2, f"invalid input: cannot read the document: {exc}"
        else:
            code, out = handle(ns.command, doc)
        if isinstance(out, dict) and ns.format == "json":
            out = _to_json(out)
        elif isinstance(out, dict):
            out = "\n".join(f"{key}: {value}" for key, value in out.items())
        print(out, file=sys.stderr if code > 1 else sys.stdout)
        if code:
            sys.exit(code)


main = _Shell()


if __name__ == "__main__":
    main()
