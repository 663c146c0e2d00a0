"""A digest of ``cli.handle`` over two sets of topogen/1 documents: every
(command, exit code, output document or refusal message) is pinned.

- the mutated documents of the CLI fuzz (``test_cli_fuzz``, its seed);
- for every class shape of the sweep groups (SL2-6, Sp4-12, SO5-12 and
  Spin8 at p = 0, 2, 3, 5): one ``classdim`` document, and two ``decide``
  documents pairing the shape with each of the next two shapes.
"""

import hashlib
import json

from topogen.algebra_core import GroupSpec
from topogen.cli import class_to_doc, handle
from topogen.stabilizers import enumerate_class_shapes

from test_cli_fuzz import _documents
from test_oracle import _sweep_groups


def _group_doc(g: GroupSpec) -> dict:
    return {"family": g.family, "n": g.n, "p": g.p}


def _shape_documents():
    for g in _sweep_groups((0, 2, 3, 5)):
        docs = [class_to_doc(c) for c in enumerate_class_shapes(g)]
        group = _group_doc(g)
        for i, doc in enumerate(docs):
            yield "classdim", {"group": group, "class": doc}
            for step in (1, 2):
                yield "decide", {"group": group, "classes": [doc, docs[(i + step) % len(docs)]]}


def _lines(documents):
    for command, doc in documents:
        code, out = handle(command, doc)
        text = json.dumps(out, default=str) if isinstance(out, dict) else out
        yield f"{command} | {code} | {text}"


def _digest(documents, codes_only=False):
    lines = list(_lines(documents))
    if codes_only:
        lines = [" | ".join(line.split(" | ", 2)[:2]) for line in lines]
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestHandlePinned:
    # recompute a digest only for a deliberate change of what handle answers,
    # and state which documents changed and why

    def test_fuzz_documents(self):
        # one entry changed when classdim began to apply the rules that hold
        # in every group: a semisimple class with "order": "Sp", exit 0 with
        # the order echoed before, is refused with exit 2; and one more when
        # a unipotent order had to be an integer or "unipotent-char-0": a
        # decorated class with "order": "Spin8", exit 0 before, exits 2.
        # Four more changed when max_class took closed forms and is_p came to
        # need r = p, and genfree began to refuse negative dimensions:
        # - maxclass, Sp with n = 10^6, is_p at p = 3: exit 3 "shape
        #   enumeration bounded at n = 12" became the MAX_BLOCKS refusal;
        # - maxclass, Sp6 at p = 2 with r = 3 and is_p: exit 0 with the
        #   class V(2) + W(2) became exit 2;
        # - genfree, E8 with dimV = 1000 and dimVG = -1: exit 0 became exit 2;
        # - genfree, E8 with dimV = -1 and dimVG = 0: exit 3 "fixed space
        #   cannot exceed the module" became exit 2
        # Three more changed when decide began to refuse a Spin8 profile
        # entry outside 1..7: Spin8 decide documents whose profiles hold a
        # 0, a 64 and a 2^31, exit 0 (QuadraticPair once, DimObstruction
        # twice) before, exit 2 now.
        # Then 1015 refusal messages changed, and nothing else, when the
        # library's constructors became the one check of each field: "bad
        # group document: expected an integer, got 'Sp'" reads "n must be
        # an integer, not 'Sp'" now (test_fuzz_exit_codes held).
        assert _digest(_documents()) == (
            1999,
            "d9428bd217c72f600d7b306a7d1df2d95ca68c8687d3c6b518ba1a78cab60987",
        )

    def test_fuzz_exit_codes(self):
        # (command, exit code) alone, so that a reworded refusal leaves it
        # alone and a changed exit code shows here
        assert _digest(_documents(), codes_only=True) == (
            1999,
            "f4bb015e736072b480a9a90b951116f65adee557f6453fdfec9a5a17ea0f1aab",
        )

    def test_shape_documents(self):
        assert _digest(_shape_documents()) == (
            4128,
            "60b75d7f72a639138bb8dabebdca69d6d631f1bcfb0ba2743fbbd330da4e0688",
        )
