"""Span recording around the public functions of each topogen layer.

The traced run replaces every public function of the eight layer modules
(and two private finite-field kernels, for their counts) with a wrapper that
records a span: name, layer, start, end, parent and the operation id shared
by all spans of one query or job. Self time is a span's duration minus the
time its direct children cover. Spans are kept in memory, up to a cap, and
written out when the run ends; per-layer totals are accumulated for every
span. Nothing is patched in an untraced run.
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "algebra_core",
    "invariants",
    "oracle",
    "closure",
    "stabilizers",
    "maxclass",
    "finfield",
    "cli",
)

# finite-field sub-layers: a span takes its sub-layer from its function name,
# or inherits the one of its parent span.
FINFIELD_SUBLAYER = {
    "group_closure": "group_closure",
    "standard_generators": "group_closure",
    "group_order": "group_closure",
    "projective_order": "group_closure",
    "_closure_set": "group_closure",
    "exact_generation_probability": "exact_prob",
    "estimate_generation_probability": "monte_carlo",
    "invariant_subspace_count": "subspaces",
    "matrix_from_class": "matrix_models",
    "unipotent_matrix": "matrix_models",
    "invariant_form_matrix": "matrix_models",
    "centralizer_lie_dim": "centralizer",
    "jordan_type": "jordan",
    "fixed_space_dim": "jordan",
    "induced_matrix": "jordan",
    "kron": "jordan",
}
FINFIELD_SUBLAYERS = (
    "group_closure",
    "exact_prob",
    "monte_carlo",
    "subspaces",
    "matrix_models",
    "centralizer",
    "jordan",
)
# private kernels wrapped only so that their work can be counted
COUNTED_PRIVATE = {"finfield": ("_closure_set", "_generates")}

DECIDE_REASONS = (
    "DimObstruction",
    "SpChar2FixedVector",
    "QuadraticPair",
    "TableRow",
    "FamilyTheoremCase",
    "Generic",
)


def _is_char2_group(group) -> bool:
    """True when closure queries on the group use the rewriting engine."""
    family = getattr(group, "family", None)
    if family is None or group.p != 2 or family == "SL":
        return False
    return not (family == "SO" and group.n == 6)


def _on_decide(tracer, result):
    tracer.counts["oracle.decide_calls"] += 1
    tracer.counts["oracle.empty"] += result.empty
    tracer.counts["oracle.reason." + result.reason] += 1


def _on_group_closure(tracer, result):
    tracer.counts["finfield.group_closure.elements"] += result[0]


def _on_closure_set(tracer, result):
    tracer.counts["finfield.group_closure.elements"] += len(result)


def _on_generates(tracer, result):
    if tracer.stack and tracer.stack[-1][2] == "exact_prob":
        tracer.counts["finfield.exact_prob.pairs"] += 1


def _on_monte_carlo(tracer, result):
    tracer.counts["finfield.monte_carlo.trials"] += result[1]


def _on_subspaces(tracer, result):
    tracer.counts["finfield.subspaces.found"] += result


HOOKS = {
    "decide": _on_decide,
    "group_closure": _on_group_closure,
    "_closure_set": _on_closure_set,
    "_generates": _on_generates,
    "estimate_generation_probability": _on_monte_carlo,
    "invariant_subspace_count": _on_subspaces,
}


class Tracer:
    """Records spans while ``active``; inert otherwise."""

    def __init__(self, keep: int = 100_000):
        self.active = False
        self.keep = keep
        self.kept: list[tuple] = []
        self.dropped = 0
        # frame: [span id, child ns, finfield sub-layer, closure char-2 flag],
        # plus the start time for the root span of an operation
        self.stack: list[list] = []
        self.next_span = 0
        self.op_id = -1
        self.op_prime_field = True
        self.busy = Counter()
        self.calls = Counter()
        self.errors = Counter()
        self.counts = Counter()
        self.op_wall_ns = 0  # wall time of the traced operations

    # -- installation ---------------------------------------------------------
    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``
        and rebind each wrapped function wherever a topogen module imported
        it."""
        replaced = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            names = [
                name
                for name, obj in vars(mod).items()
                if isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            ]
            names += COUNTED_PRIVATE.get(layer, ())
            for name in names:
                fn = getattr(mod, name)
                replaced[id(fn)] = self.wrap(layer, name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(package.__name__ + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    def wrap(self, layer: str, name: str, fn):
        """``fn`` recording a span of ``layer`` while the tracer is active."""
        tracer = self
        hook = HOOKS.get(name)
        own_sublayer = FINFIELD_SUBLAYER.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            sublayer = own_sublayer or (parent[2] if parent else None)
            char2 = layer == "closure" and bool(args) and _is_char2_group(args[0])
            frame = [tracer.next_span, 0, sublayer, char2]
            tracer.next_span += 1
            stack.append(frame)
            error = True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer._close(layer, name, frame, parent, start, end, error)
            if hook is not None:
                hook(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _close(self, layer, name, frame, parent, start, end, error):
        duration = end - start
        self_ns = duration - frame[1]
        if parent is not None:
            parent[1] += duration
        self.busy[layer] += self_ns
        self.calls[layer] += 1
        if error:
            self.errors[layer] += 1
        if layer == "finfield":
            self.busy["finfield." + (frame[2] or "other")] += self_ns
            field = "prime_field" if self.op_prime_field else "ext_field"
            self.busy["finfield." + field] += self_ns
        elif frame[3]:
            self.counts["closure.char2_calls"] += 1
            self.busy["closure.char2"] += self_ns
        self._keep(name, layer, frame[0], parent[0] if parent else None, start, end, error)

    def _keep(self, name, layer, span_id, parent_id, start, end, error):
        if len(self.kept) < self.keep:
            self.kept.append((self.op_id, span_id, parent_id, layer, name, start, end, error))
        else:
            self.dropped += 1

    # -- operations -----------------------------------------------------------
    def begin_op(self, op_id: int, prime_field: bool):
        """Open the root span of one query or job; returns its frame."""
        self.op_id = op_id
        self.op_prime_field = prime_field
        frame = [self.next_span, 0, None, False, perf_counter_ns()]
        self.next_span += 1
        self.stack.append(frame)
        return frame

    def end_op(self, frame, kind: str, error: bool):
        end = perf_counter_ns()
        self.stack.pop()
        self.op_wall_ns += end - frame[4]
        self._keep(kind, "bench", frame[0], None, frame[4], end, error)

    def write(self, path) -> None:
        fields = ("op", "span", "parent", "layer", "name", "start_ns", "end_ns", "error")
        with open(path, "w") as fh:
            for span in self.kept:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
