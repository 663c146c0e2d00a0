"""Workload ``json-front-end``: topogen/1 documents through ``topogen.cli``.

The same kinds of query as ``symbolic-queries``, sent as JSON documents to
``topogen.cli.main`` in-process (stdin and stdout swapped for buffers).
Groups, tuple lengths and classes are drawn uniformly, eigenvalue labels are
renamed at random and every document carries a unique id, so no two
documents are alike and the working set is larger than any cache. One
document in ten is planted malformed (exit 2) or unsupported (exit 3); a
few more are refused naturally (uncatalogued Spin8 shapes, missing classes).
"""

from __future__ import annotations

import io
import json
import random
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import reference as R
from harness import Op
from symbolic import DEFECT_EVERY, EXCEPTIONAL, group_keys, random_context

BLOCK = 1000
PATTERN = {
    "decide": 60,
    "classdim": 12,
    "closure-containment": 7,
    "closure-blocks": 5,
    "genfree": 6,
    "maxclass": 5,
    "rslimit": 5,
}
PLANTED_EVERY = 10
# every block asks for the DOT poset of each group of dimension at most 5
# once, so blocks carry the same work; small groups keep parsing dominant
DOT_MAX_N = 5


def is_probe(position: int) -> bool:
    return position % DEFECT_EVERY == DEFECT_EVERY // 4


def is_planted(position: int) -> bool:
    return position % PLANTED_EVERY == PLANTED_EVERY // 2


def group_doc(key):
    family, n, p = key
    return {"family": family, "n": n, "p": p}


def class_doc(cls, rng):
    """topogen/1 document of a class, with fresh random eigenvalue labels."""
    if cls.kind == "unipotent":
        doc = {"kind": "unipotent", "partition": list(cls.unip.partition)}
        if cls.unip.decoration is not None:
            doc["decoration"] = [{kind: size, "mult": m} for kind, size, m in cls.unip.decoration]
        return doc
    pat = cls.eigen
    names = {}
    for label, _ in pat.pairs + pat.free:
        names[label] = f"{rng.choice('abcdefghmuvwxyz')}{len(names)}{rng.randrange(1000)}"
    doc = {"kind": "semisimple"}
    if cls.order is not None:
        doc["order"] = cls.order
    if pat.mult_one:
        doc["ones"] = pat.mult_one
    if pat.mult_minus_one:
        doc["minus_ones"] = pat.mult_minus_one
    if pat.pairs:
        doc["pairs"] = [[names[label], m] for label, m in pat.pairs]
    if pat.free:
        doc["free"] = [[names[label], m] for label, m in pat.free]
    if pat.relations:
        doc["relations"] = {names[label]: tag for label, tag in pat.relations}
    return doc


def same_class(echo: dict, sent: dict) -> bool:
    """The class a command echoes back describes the class it was sent."""
    for field in ("kind", "ones", "minus_ones", "relations"):
        if echo.get(field) != sent.get(field):
            return False
    if sent["kind"] == "unipotent":
        return echo["partition"] == sorted(sent["partition"], reverse=True)
    for field in ("pairs", "free"):
        if sorted(map(tuple, echo.get(field, []))) != sorted(map(tuple, sent.get(field, []))):
            return False
    return True


class FrontEndState:
    # operation CPU time of a block on the 2-vCPU machine the benchmark was
    # calibrated on: a run of S seconds measures S / block_seconds blocks
    block_seconds = 0.45

    def __init__(self, T, seed: int):
        self.T = T
        self.seed = seed
        self.keys = group_keys()
        groups = {k: T.algebra_core.GroupSpec(*k) for k in self.keys}
        self.pools = {k: T.stabilizers.enumerate_class_shapes(groups[k]) for k in self.keys}
        self.unipotent_pools = {
            k: [c for c in pool if c.kind == "unipotent"] for k, pool in self.pools.items()
        }
        self.dot_keys = [k for k in self.keys if R.natural_dim(*R.class_target(k[0], k[1])) <= DOT_MAX_N]
        self.spin8_missing = {
            k: [c for c in self.pools[k] if R.spin8_profile(c) is None] for k in self.keys if k[0] == "Spin8"
        }
        self.anchor_docs = R.decide_anchors(T)
        # a-type decorated anchors hit a recorded classdim defect, so they go
        # to the fixed probe positions with the max_class defects
        anchors = R.classdim_anchors(T)
        a_type = [a for a in anchors if a[1].unip and a[1].unip.decoration and R.involution_type(a[1]) == "a"]
        self.classdim_anchors = [a for a in anchors if a not in a_type]
        self.probes = [lambda rng, d=d: self.maxclass_doc(*d[:5], known_defect=True) for d in R.MAX_CLASS_DEFECTS]
        self.probes += [lambda rng, a=a: self.classdim_doc(rng, *a) for a in a_type]
        self.dot_expect = {}
        self.cli_counts = Counter()
        self.count = Counter()
        self.invoke_fn = self.invoke

    # -- harness interface ----------------------------------------------------
    def attach_tracer(self, tracer):
        self.invoke_fn = tracer.wrap("cli", "main", self.invoke)

    def invoke(self, command: str, text: str):
        """Run ``topogen COMMAND`` on ``text``; returns (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    self.T.cli.main.main(args=[command], prog_name="topogen", standalone_mode=False)
                    code = 0
                except SystemExit as exc:
                    code = exc.code or 0
        finally:
            sys.stdin = stdin
        output = out.getvalue()
        self.cli_counts[f"exit{code}"] += 1
        self.cli_counts["bytes_in"] += len(text.encode())
        self.cli_counts["bytes_out"] += len(output.encode())
        return code, output

    def next_block(self, index: int) -> list:
        rng = random.Random(self.seed * 1_000_003 + index)
        kinds = [kind for kind, n in PATTERN.items() for _ in range(n)] * (BLOCK // 100)
        rng.shuffle(kinds)
        free = [i for i in range(BLOCK) if not (is_probe(index * BLOCK + i) or is_planted(index * BLOCK + i))]
        for i in rng.sample(free, len(self.dot_keys)):
            kinds[i] = "closure-dot"
        block = []
        for i, kind in enumerate(kinds):
            position = index * BLOCK + i
            doc_id = f"{self.seed}-{position}"
            if is_probe(position):
                spec = self.probes[position // DEFECT_EVERY % len(self.probes)](rng)
            elif is_planted(position):
                spec = self.planted(rng, self.count["planted"])
                self.count["planted"] += 1
            else:
                spec = getattr(self, "doc_" + kind.replace("-", "_"))(rng, self.count[kind])
                self.count[kind] += 1
            block.append(self.op(doc_id, *spec))
        return block

    def op(self, doc_id, kind, command, doc, want_code, check=None, known_defect=False):
        """An operation sending ``doc`` to ``command``; ``check(out)`` checks
        the parsed output of a successful run."""
        if isinstance(doc, dict):
            doc = {"schema": "topogen/1", "id": doc_id, **doc}
            text = json.dumps(doc)
        else:
            text = doc
        invoke = self.invoke_fn

        def verify(res, exc):
            if exc is not None:
                return f"{command} {text[:120]}: raised {type(exc).__name__}: {exc}"
            code, output = res
            if code != want_code:
                return f"{command} {text[:160]}: exit {code}, want {want_code}"
            if code != 0 or check is None:
                return None
            if command == "closure" and output.startswith("digraph"):
                return check(output)
            out = json.loads(output)
            if out.get("schema") != "topogen/1":
                return f"{command}: output schema {out.get('schema')!r}"
            problem = check(out)
            return None if problem is None else f"{command} {text[:160]}: {problem}"

        return Op(kind, lambda: invoke(command, text), verify, known_defect=known_defect)

    # -- documents ------------------------------------------------------------
    def doc_decide(self, rng, n):
        if n % 20 == 0:
            key, classes, want = self.anchor_docs[(n // 20) % len(self.anchor_docs)]
            expect = R.Expect(want)
        else:
            key = rng.choice(self.keys)
            classes = [rng.choice(self.pools[key]) for _ in range(rng.randrange(2, 7))]
            expect = R.expected_verdict(key, classes)
        doc = {"group": group_doc(key), "classes": [class_doc(c, rng) for c in classes]}
        if expect.unsupported:
            return "decide", "decide", doc, 3

        def check(out):
            got = (out["empty"], out["reason"], out.get("row", out.get("case")))
            if expect.value is not None and got != expect.value:
                return f"want {expect.value}, got {got}"
            if expect.value is None and out["reason"] not in expect.allowed:
                return f"reason {out['reason']} not in {expect.allowed}"
            if out["empty"] == (out["reason"] == "Generic"):
                return f"empty={out['empty']} with reason {out['reason']}"
            if expect.sum_d is not None and out["witnesses"].get("sum_d") != expect.sum_d:
                return f"sum_d {out['witnesses'].get('sum_d')} != {expect.sum_d}"
            return None

        return "decide", "decide", doc, 0, check

    def doc_classdim(self, rng, n):
        if n % 10 == 0:
            return self.classdim_doc(rng, *self.classdim_anchors[(n // 10) % len(self.classdim_anchors)])
        key = rng.choice(self.keys)
        return self.classdim_doc(rng, key, rng.choice(self.pools[key]), None)

    def classdim_doc(self, rng, key, cls, want):
        sent = class_doc(cls, rng)
        doc = {"group": group_doc(key), "class": sent}
        dim, rank = R.dim_rank(*R.class_target(key[0], key[1]))

        a_type = cls.unip is not None and cls.unip.decoration is not None and R.involution_type(cls) == "a"

        def check(out):
            if not same_class(out["class"], sent):
                return f"echoed class {out['class']} is not the class sent"
            if want is not None and out["dim_class"] != want:
                # recorded defect: classdim does not derive the a/b/c type of
                # a decorated involution, so a-type classes lose the +s term
                return f"dim {out['dim_class']} != {want}"
            if want is not None:
                return None
            if out["dim_class"] + out["dim_centralizer"] != dim:
                return f"{out['dim_class']} + {out['dim_centralizer']} != dim G = {dim}"
            if out["dim_class"] % 2 or not 0 < out["dim_class"] <= dim - rank:
                return f"class dimension {out['dim_class']} not even in (0, {dim - rank}]"
            return None

        return "classdim", "classdim", doc, 0, check, a_type and want is not None

    def doc_closure_containment(self, rng, n):
        key = rng.choice(self.keys)
        upper, lower = rng.choice(self.unipotent_pools[key]), rng.choice(self.unipotent_pools[key])
        doc = {"group": group_doc(key), "upper": class_doc(upper, rng), "lower": class_doc(lower, rng)}
        family, _ = R.class_target(key[0], key[1])
        dominance = R.dominates(upper.unip.partition, lower.unip.partition)
        exact = not (key[2] == 2 and family != "SL")

        def check(out):
            got = out["in_closure"]
            if exact and got != dominance:
                return f"in_closure {got}, dominance says {dominance}"
            if got and not dominance:
                return "closure claimed without Jordan-type dominance"
            if upper == lower and not got:
                return "a class is not in its own closure"
            return None

        return "closure", "closure", doc, 0, check

    def doc_closure_blocks(self, rng, n):
        key = rng.choice(self.keys)
        family, nn = R.class_target(key[0], key[1])
        m = rng.randrange(1, R.natural_dim(family, nn))
        want = R.smallest_with_blocks(key, m)
        doc = {"group": group_doc(key), "blocks": m}
        if want is None:
            return "closure", "closure", doc, 3

        def check(out):
            got = tuple(out["class"]["partition"])
            return None if got == want else f"partition {got} != {want}"

        return "closure", "closure", doc, 0, check

    def doc_closure_dot(self, rng, n):
        key = self.dot_keys[n % len(self.dot_keys)]
        doc = {"group": group_doc(key), "dot": True}

        return "closure", "closure", doc, 0, lambda text: R.dot_problem(key, text, self.dot_expect)

    def doc_genfree(self, rng, n):
        if rng.random() < 0.15:
            key = rng.choice(EXCEPTIONAL)
            base = {"exceptional": key}
        else:
            key = rng.choice(self.keys)
            base = {"group": group_doc(key)}
        d = R.threshold(key)
        if d is None:
            key = ("SL", 3, 0)
            base = {"group": group_doc(key)}
            d = R.threshold(key)
        dim_vg = rng.randrange(6)
        dim_v = max(dim_vg, int(d) + dim_vg + rng.randrange(-3, 4))
        want = Fraction(dim_v - dim_vg) > d

        def check(out):
            if out["generically_free"] != want or out["d"] != str(d):
                return f"got {out['generically_free']} with d = {out['d']}, want {want} with d = {d}"
            return None

        return "genfree", "genfree", {**base, "dimV": dim_v, "dimVG": dim_vg}, 0, check

    def doc_maxclass(self, rng, n):
        if n % 3 == 0:
            key, r, i, is_p, want, _ = R.MAX_CLASS_ANCHORS[(n // 3) % len(R.MAX_CLASS_ANCHORS)]
        else:
            key = rng.choice(self.keys)
            family, nn = R.class_target(key[0], key[1])
            r, i, is_p = random_context(rng, family, nn, key[2])
            want = None
        return self.maxclass_doc(key, r, i, is_p, want)

    def maxclass_doc(self, key, r, i, is_p, want, known_defect=False):
        family, nn = R.class_target(key[0], key[1])
        dim, rank = R.dim_rank(family, nn)
        doc = {"group": group_doc(key), "r": r, "i": i, "is_p": is_p}

        def check(out):
            d = out["dim"]
            if want is not None:
                return None if d == want else f"dim {d} != {want}"
            if d % 2 or not 0 < d <= dim - rank:
                return f"dimension {d} not even in (0, {dim - rank}]"
            if out["class"]["kind"] != ("unipotent" if is_p else "semisimple"):
                return f"maximal class of kind {out['class']['kind']}"
            return None

        return "maxclass", "maxclass", doc, 0, check, known_defect

    def doc_rslimit(self, rng, n):
        family, nn, p = rng.choice(self.keys)
        if n % 2 == 0:
            family, nn, p = "Sp", 4, rng.choice((2, 3, 5, 7))
        r, s = rng.choice((2, 3, 5, 7)), rng.choice((3, 5, 7))
        want = str(R.rs_limit(family, nn, p, r, s))
        doc = {"family": family, "n": nn, "p": p, "r": r, "s": s}
        return "rslimit", "rslimit", doc, 0, lambda out: None if out["limit"] == want else f"{out['limit']} != {want}"

    # -- planted refusals -----------------------------------------------------
    def planted(self, rng, n):
        key = rng.choice([k for k in self.keys if k[0] in ("Sp", "SO") and k[2] != 2 and k[1] >= 5])
        group = group_doc(key)
        good = {"kind": "unipotent", "partition": [2, 2] + [1] * (key[1] - 4)}
        spin8 = rng.choice([k for k in self.spin8_missing if self.spin8_missing[k]])
        variants = [
            ("decide", "{" + json.dumps(group)[:-1], 2),  # truncated JSON
            ("decide", {"schema": "topogen/99", "group": group, "classes": [good, good]}, 2),
            ("decide", {"group": group, "classes": [good, {"kind": "unipotent", "partition": [2, 1]}]}, 2),
            ("classdim", {"group": group, "class": {"kind": "nilpotent", "partition": [2, 2]}}, 2),
            ("rslimit", {"family": key[0], "n": key[1], "p": key[2], "r": 2, "s": 2}, 2),
            ("closure", {"group": group}, 2),
            ("decide", {"group": group_doc(spin8),
                        "classes": [class_doc(rng.choice(self.spin8_missing[spin8]), rng)] * 2}, 3),
            ("closure", {"group": group, "blocks": key[1] + rng.randrange(3)}, 3),
            ("genfree", {"group": group_doc(("SO", rng.choice((5, 6)), 0)), "dimV": 30, "dimVG": 0}, 3),
            ("maxclass", {"group": group_doc(("Sp", 4, 0)), "r": 11, "i": 10}, 3),
        ]
        command, doc, code = variants[n % len(variants)]
        if isinstance(doc, dict):
            doc = {**doc, "nonce": rng.randrange(10**9)}
            if "schema" in doc:
                schema = doc.pop("schema")
                return "planted", command, json.dumps({"schema": schema, **doc}), code
        else:
            doc = doc + f' "nonce": {rng.randrange(10**9)}'
        return "planted", command, doc, code


def setup(T, seed: int) -> FrontEndState:
    return FrontEndState(T, seed)
