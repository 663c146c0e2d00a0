"""Command-line front end.

Batch commands over a JSON input document (schema "topogen/1"):
decide, classdim, closure, genfree, maxclass, rslimit, verify.
Exit codes: 0 computed result (including Empty verdicts), 2 invalid input,
3 well-formed but unsupported case.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from .algebra_core import (
    ClassDescriptor,
    GroupSpec,
    semisimple,
    unipotent,
    validate_class,
)
from .errors import InvalidInput, SchemaError, UnsupportedCase

SCHEMA = "topogen/1"


# ---------------------------------------------------------------------------
# (de)serialization
# ---------------------------------------------------------------------------


def parse_group(doc: dict) -> GroupSpec:
    try:
        return GroupSpec(doc["family"], int(doc["n"]), int(doc.get("p", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad group document: {exc}") from exc


def parse_class(doc: dict) -> ClassDescriptor:
    try:
        kind = doc["kind"]
        if kind == "semisimple":
            return semisimple(
                order=doc.get("order"),
                ones=int(doc.get("ones", 0)),
                minus_ones=int(doc.get("minus_ones", 0)),
                pairs=[
                    tuple(x) if isinstance(x, (list, tuple)) else int(x)
                    for x in doc.get("pairs", [])
                ],
                free=[
                    tuple(x) if isinstance(x, (list, tuple)) else int(x)
                    for x in doc.get("free", [])
                ],
                relations=doc.get("relations"),
                variant=doc.get("variant", "unspecified"),
            )
        if kind == "unipotent":
            return unipotent(
                partition=doc.get("partition"),
                order=doc.get("order"),
                decoration=doc.get("decoration"),
            )
    except InvalidInput:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad class document: {exc}") from exc
    raise SchemaError(f"unknown class kind {doc.get('kind')!r}")


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


def _read_input(path) -> dict:
    if path in (None, "-"):
        raw = sys.stdin.read()
    else:
        with open(path) as f:
            raw = f.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("input document must be a JSON object")
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}")
    return doc


_REQUIRED = object()


def _read(doc: dict, key: str, convert=int, default=_REQUIRED):
    """``convert(doc[key])``, or of ``default`` when the key is absent; a
    missing required key or a failed conversion is a SchemaError."""
    value = doc.get(key, default)
    if value is _REQUIRED:
        raise SchemaError(f"missing {key!r}")
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad {key!r}: {exc}") from exc


def _emit(doc: dict, fmt: str) -> None:
    doc = {"schema": SCHEMA, **doc}
    if fmt == "json":
        click.echo(json.dumps(doc, indent=2, default=str))
    else:
        for key, value in doc.items():
            click.echo(f"{key}: {value}")


def _guard(fn):
    """Map library exceptions to stable exit codes."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InvalidInput as exc:
            click.echo(f"invalid input: {exc}", err=True)
            sys.exit(2)
        except UnsupportedCase as exc:
            click.echo(f"unsupported case: {exc}", err=True)
            sys.exit(3)

    return wrapper


_input_opt = click.option("--input", "input_path", default=None, help="JSON input file (default stdin)")
_format_opt = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json"
)


@click.group()
def main():
    """Exact decision toolkit for topological generation of simple
    classical groups by prime-order conjugacy classes."""


@main.command()
@_input_opt
@_format_opt
@_guard
def decide(input_path, fmt):
    """Decide emptiness for a tuple of classes."""
    from .oracle import decide as _decide

    doc = _read_input(input_path)
    group = _read(doc, "group", parse_group)
    classes = [parse_class(c) for c in doc.get("classes", [])]
    profiles = doc.get("spin8_profiles")
    verdict = _decide(group, classes, spin8_profiles=profiles)
    out = {"empty": verdict.empty, "reason": verdict.reason}
    if verdict.reason == "TableRow":
        out["row"] = verdict.case_id
    elif verdict.case_id is not None:
        out["case"] = verdict.case_id
    out["witnesses"] = verdict.witnesses
    _emit(out, fmt)


@main.command()
@_input_opt
@_format_opt
@_guard
def classdim(input_path, fmt):
    """Class and centralizer dimensions of a single class."""
    from .invariants import class_dim

    doc = _read_input(input_path)
    group = _read(doc, "group", parse_group)
    # dimension formulas are evaluated without family admissibility
    # validation, so auxiliary Jordan data can be queried too
    cls = _read(doc, "class", parse_class)
    target = group.class_group()
    total = sum(cls.unip.partition) if cls.kind == "unipotent" else cls.eigen.total()
    if total != target.n:
        raise SchemaError(f"class lives in dimension {total}, expected {target.n}")
    res = class_dim(group, cls)
    _emit(
        {
            "dim_class": res.dim_class,
            "dim_centralizer": res.dim_centralizer,
            "class": class_to_doc(cls),
        },
        fmt,
    )


@main.command()
@_input_opt
@_format_opt
@_guard
def closure(input_path, fmt):
    """Closure-order queries: containment, smallest class, DOT poset."""
    from .closure import closure_poset_dot, in_closure, smallest_class_with_blocks

    doc = _read_input(input_path)
    group = _read(doc, "group", parse_group)
    if "upper" in doc and "lower" in doc:
        upper = validate_class(group, parse_class(doc["upper"]))
        lower = validate_class(group, parse_class(doc["lower"]))
        _emit({"in_closure": in_closure(group, upper, lower)}, fmt)
        return
    if "blocks" in doc:
        cls = smallest_class_with_blocks(group, _read(doc, "blocks"))
        _emit({"class": class_to_doc(cls)}, fmt)
        return
    if doc.get("dot"):
        click.echo(closure_poset_dot(group))
        return
    raise SchemaError("closure needs 'upper'/'lower', 'blocks', or 'dot'")


@main.command()
@_input_opt
@_format_opt
@_guard
def genfree(input_path, fmt):
    """Generically-free threshold test."""
    from .stabilizers import d_value, generically_free

    doc = _read_input(input_path)
    group = doc.get("exceptional") or _read(doc, "group", parse_group)
    result = generically_free(group, _read(doc, "dimV"), _read(doc, "dimVG"))
    _emit({"generically_free": result, "d": str(d_value(group))}, fmt)


@main.command()
@_input_opt
@_format_opt
@_guard
def maxclass(input_path, fmt):
    """Maximal-dimension class of prime order r in context (r, i)."""
    from .maxclass import QContext, max_class

    doc = _read_input(input_path)
    group = _read(doc, "group", parse_group)
    ctx = QContext(
        r=_read(doc, "r"),
        i=_read(doc, "i", default=1),
        is_p=bool(doc.get("is_p", False)),
    )
    cls, dim = max_class(group, ctx)
    _emit({"dim": dim, "class": class_to_doc(cls)}, fmt)


@main.command()
@_input_opt
@_format_opt
@_guard
def rslimit(input_path, fmt):
    """Limit of the (r, s) random generation probability."""
    from .maxclass import rs_limit

    doc = _read_input(input_path)
    limit = rs_limit(
        _read(doc, "family", str),
        _read(doc, "n"),
        _read(doc, "p", default=0),
        _read(doc, "r"),
        _read(doc, "s"),
    )
    _emit({"limit": str(limit)}, fmt)


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _verify_blocks() -> dict:
    from . import finfield
    from .invariants import induced_block_count

    checked = 0
    for q in (2, 3, 5, 101):
        F = finfield._field(q)
        one = [F.one]
        for a in range(2, 10):
            ja = finfield.GFMatrix(q, finfield._jordan_block(F, a, F.one))
            w = finfield.induced_matrix(ja, "wedge2")
            s = finfield.induced_matrix(ja, "sym2")
            jt_w = finfield.jordan_type(w, eigenvalues=one).get(F.one, ())
            jt_s = finfield.jordan_type(s, eigenvalues=one).get(F.one, ())
            if len(jt_w) != induced_block_count("wedge2", a, p=F.p):
                return {"passed": False, "at": ("wedge2", a, q)}
            if len(jt_s) != induced_block_count("sym2", a, p=F.p):
                return {"passed": False, "at": ("sym2", a, q)}
            checked += 2
            for b in range(2, 10):
                jb = finfield.GFMatrix(q, finfield._jordan_block(F, b, F.one))
                t = finfield.kron(ja, jb)
                jt_t = finfield.jordan_type(t, eigenvalues=one).get(F.one, ())
                if len(jt_t) != induced_block_count("tensor", a, b):
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

    data = finfield._group_data("Sp", 4, 3, 10**6)
    if data.order != 51840:
        return {"passed": False, "at": "order", "got": data.order}
    p23 = finfield.exact_generation_probability(("Sp", 4, 3), 2, 3)
    p33 = finfield.exact_generation_probability(("Sp", 4, 3), 3, 3)
    return {
        "passed": p23 == 0 and p33 == 0,
        "projective_order": data.order // 2,
        "p23": str(p23),
        "p33": str(p33),
    }


def _verify_so9_count() -> dict:
    import math

    from . import finfield

    counts = {}
    for q in (2, 3):
        m = finfield.unipotent_matrix((2, 2, 2, 2, 1), q, "symmetric")
        counts[q] = finfield.invariant_subspace_count(m, 4, "totally_singular")
    ratio = math.log(counts[3] / counts[2]) / math.log(3 / 2)
    return {
        "passed": 5.0 <= ratio <= 7.0,
        "counts": counts,
        "log_slope": ratio,
    }


@main.command()
@click.argument("suite", type=click.Choice(["blocks", "centralizers", "psp4", "so9-count"]))
@_format_opt
@_guard
def verify(suite, fmt):
    """Run a named finite-field cross-check suite."""
    if suite == "blocks":
        out = _verify_blocks()
    elif suite == "centralizers":
        out = _verify_centralizers()
    elif suite == "psp4":
        out = _verify_psp4()
    else:
        out = _verify_so9_count()
    _emit({"suite": suite, **out}, fmt)
    if not out.get("passed"):
        sys.exit(1)


if __name__ == "__main__":
    main()
