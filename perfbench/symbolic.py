"""Workload ``symbolic-queries``: in-process library calls, mostly ``decide``.

The query-service traffic. Decide tuples (r = 2..6) are prefixes of seeded
random 6-tuples of class shapes from ``enumerate_class_shapes``; a catalog
entry's popularity follows a Zipf law, so hot tuples repeat, each time in a
fresh order. The operation mix is a fixed pattern, so every block of 6800
operations does the same kinds of work, and the heavy operations (DOT
posets, c-values) cycle through the groups instead of following the Zipf
law: every block computes each group's poset and c-value once, so blocks,
and runs with different seeds, carry the same work. The paper's table rows
and family cases are mixed in, because random draws rarely reach them.
"""

from __future__ import annotations

import random
from bisect import bisect
from fractions import Fraction
from itertools import accumulate

import reference as R
from harness import KnownDefect, Op, expect_refusal, problem_from_exception

BLOCK = 6800  # 34 patterns: every group's DOT poset and c-value once
CHAINS = 2000  # catalog: 2000 base 6-tuples, each giving prefixes r = 2..6
ZIPF_S = 1.0
ANCHOR_EVERY = 25  # one decide in 25 is a paper anchor
PATTERN = {
    "decide": 149,
    "class_dim": 10,
    "in_closure": 10,
    "scott_lower_bound": 6,
    "min_generators": 6,
    "smallest_class_with_blocks": 5,
    "generically_free": 4,
    "max_class": 4,
    "rs_limit": 2,
    "closure_poset_dot": 2,
    "c_value": 2,
}
# known-defect probes replace every 200th operation, and random draws avoid
# the defective inputs, so that the failures of a run depend neither on
# the seed nor on how many operations it completes
DEFECT_EVERY = 200
EXCEPTIONAL = ("G2", "F4", "E6", "E7", "E8")


def group_keys():
    keys = []
    for p in (0, 2, 3, 5):
        keys += [("SL", n, p) for n in range(2, 7)]
        keys += [("Sp", n, p) for n in (4, 6, 8, 10, 12)]
        keys += [("SO", n, p) for n in (5, 6, 7, 9, 10, 11, 12) if not (n % 2 and p == 2)]
        keys.append(("Spin8", 8, p))
    return keys


def adjoint_bound_defect(key, rank, r):
    """A generating verdict on a tuple that fails the adjoint-module bound,
    a necessary condition in good characteristic. Recorded defect: decide
    misses some SO_2m pairs (e.g. SO10, (lam I5, lam^-1 I5) with
    (I2, mu I4, mu^-1 I4)); anything else is unexpected."""
    message = f"{key} catalog {rank}: Generic verdict but the adjoint-module bound fails"
    family, n, _ = key
    if family == "SO" and n % 2 == 0 and r == 2:
        return KnownDefect(message)
    return message


def random_context(rng, family, n, p):
    """A (r, i, is_p) context with a class of order r; SL with i = 1 is
    left to the known-defect probes."""
    if p and rng.random() < 0.3:
        return p, 1, True
    if p != 2 and rng.random() < 0.4:
        return 2, 1, False
    r = rng.choice([x for x in (3, 5, 7) if x != p])
    if family == "SL":
        choices = [i for i in range(2, r) if (r - 1) % i == 0 and i <= n]
    else:
        choices = [i for i in range(1, r) if (r - 1) % i == 0 and (i == 1 or (i if i % 2 == 0 else 2 * i) <= n)]
    return r, rng.choice(choices), False


class SymbolicState:
    # operation CPU time of a block on the 2-vCPU machine the benchmark was
    # calibrated on: a run of S seconds measures S / block_seconds blocks
    block_seconds = 0.83

    def __init__(self, T, seed: int):
        self.T = T
        self.seed = seed
        rng = random.Random(seed)
        self.keys = group_keys()
        self.groups = {k: T.algebra_core.GroupSpec(*k) for k in self.keys}
        self.pools = {k: T.stabilizers.enumerate_class_shapes(self.groups[k]) for k in self.keys}
        self.unipotent_pools = {
            k: [c for c in pool if c.kind == "unipotent"] for k, pool in self.pools.items()
        }
        # decide catalog: prefixes of CHAINS random 6-tuples; the most
        # popular ranks take one prefix from each of many chains, whose
        # groups follow a seeded order of all groups, so that the hot head
        # has the same mix of groups and lengths whatever the seed
        order = self.keys[:]
        rng.shuffle(order)
        self.chains = []
        for c in range(CHAINS):
            key = order[c % len(order)]
            self.chains.append((key, self.draw_chain(rng, key)))
        weights = [1.0 / (k + 1) ** ZIPF_S for k in range(5 * CHAINS)]
        self.cum = list(accumulate(weights))
        self.anchors = R.decide_anchors(T)
        self.anchor_groups = {k: T.algebra_core.GroupSpec(*k) for k, _, _ in self.anchors}
        self.cycle_groups = self.keys[:]
        rng.shuffle(self.cycle_groups)
        self.verdicts = {}  # catalog rank -> (empty, reason, case_id)
        self.scott_fails = {}  # catalog rank -> adjoint-module bound fails
        self.dot_expect = {}
        self.count = {kind: 0 for kind in PATTERN}
        self.anchor_order = list(range(len(self.anchors)))
        rng.shuffle(self.anchor_order)
        self.closure_anchors = R.closure_anchors(T)
        validate = T.algebra_core.validate_class
        self.classdim_anchors = [
            (k, validate(T.algebra_core.GroupSpec(*k), c) if c.unip and c.unip.decoration else c, want)
            for k, c, want in R.classdim_anchors(T)
        ]
        self.mingen_anchors = R.min_generators_anchors(T)
        self.adjoint_pair = R.adjoint_defect_pair(T)
        self.probes = [lambda d=d: self.max_class_op(d) for d in R.MAX_CLASS_DEFECTS]
        self.probes.append(self.adjoint_defect_op)

    def draw_chain(self, rng, key) -> list:
        """Six class ids of ``key``'s pool. An SO_2m pair below the
        adjoint-module bound that no recomputed rule declares empty is
        drawn again: decide may answer Generic there (recorded defect 3),
        which a fixed probe checks instead."""
        pool = self.pools[key]
        while True:
            ids = [rng.randrange(len(pool)) for _ in range(6)]
            pair = [pool[i] for i in ids[:2]]
            if not R.below_adjoint_bound(key, pair) or R.expected_verdict(key, pair).value is not None:
                return ids

    # -- harness interface ----------------------------------------------------
    def attach_tracer(self, tracer):
        pass

    def next_block(self, index: int) -> list:
        rng = random.Random(self.seed * 1_000_003 + index)
        kinds = [kind for kind, n in PATTERN.items() for _ in range(n)] * (BLOCK // 200)
        rng.shuffle(kinds)
        block = []
        for i, kind in enumerate(kinds):
            position = index * BLOCK + i
            if position % DEFECT_EVERY == DEFECT_EVERY // 4:
                block.append(self.probes[position // DEFECT_EVERY % len(self.probes)]())
                continue
            n = self.count[kind]
            self.count[kind] += 1
            block.append(getattr(self, "op_" + kind)(rng, n))
        return block

    # -- helpers --------------------------------------------------------------
    def draw_rank(self, rng) -> int:
        return bisect(self.cum, rng.random() * self.cum[-1])

    @staticmethod
    def catalog_entry(rank):
        """(chain, r) of a catalog rank; ranks c, c + CHAINS, ... hold the
        five prefixes of chain c."""
        chain, j = rank % CHAINS, rank // CHAINS
        return chain, 2 + (j + chain) % 5

    @staticmethod
    def catalog_rank(chain, r):
        return chain + CHAINS * ((r - 2 - chain) % 5)

    def catalog_tuple(self, rank):
        chain, r = self.catalog_entry(rank)
        key, ids = self.chains[chain]
        return key, ids[:r]

    def random_shape(self, rng):
        key = rng.choice(self.keys)
        return key, rng.choice(self.pools[key])

    # -- decide ---------------------------------------------------------------
    def op_decide(self, rng, n):
        oracle = self.T.oracle
        if n % ANCHOR_EVERY == 0:
            key, classes, want = self.anchors[self.anchor_order[(n // ANCHOR_EVERY) % len(self.anchors)]]
            g = self.anchor_groups[key]

            def check(res, exc):
                if exc is not None:
                    return problem_from_exception(exc)
                got = (res.empty, res.reason, res.case_id)
                return None if got == want else f"{key} anchor: want {want}, got {got}"

            return Op("decide", lambda: oracle.decide(g, classes), check)
        rank = self.draw_rank(rng)
        key, ids = self.catalog_tuple(rank)
        pool = self.pools[key]
        ids = ids[:]
        rng.shuffle(ids)
        classes = [pool[i] for i in ids]
        g = self.groups[key]
        expect = R.expected_verdict(key, classes)

        def check(res, exc):
            if expect.unsupported:
                return expect_refusal(expect.unsupported)(res, exc)
            if exc is not None:
                return problem_from_exception(exc)
            got = (res.empty, res.reason, res.case_id)
            if expect.value is not None and got != expect.value:
                return f"{key} {ids}: want {expect.value}, got {got}"
            if expect.value is None and res.reason not in expect.allowed:
                return f"{key} {ids}: reason {res.reason} not in {expect.allowed}"
            if res.empty == (res.reason == "Generic"):
                return f"{key} {ids}: empty={res.empty} with reason {res.reason}"
            if expect.sum_d is not None and res.witnesses.get("sum_d") != expect.sum_d:
                return f"{key} {ids}: sum_d {res.witnesses.get('sum_d')} != {expect.sum_d}"
            return self.cross_check(rank, got)

        return Op("decide", lambda: oracle.decide(g, classes), check)

    def adjoint_defect_op(self):
        oracle = self.T.oracle
        key, classes = self.adjoint_pair
        g = self.T.algebra_core.GroupSpec(*key)

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            return None if res.empty else adjoint_bound_defect(key, "probe", len(classes))

        return Op("decide", lambda: oracle.decide(g, classes), check)

    def cross_check(self, rank, got):
        """Same multiset in another order gives the same verdict; a tuple
        that generates keeps generating when a class is appended."""
        seen = self.verdicts.setdefault(rank, got)
        if seen != got:
            return f"catalog {rank}: verdict {got} differs from {seen} for a permutation"
        chain, r = self.catalog_entry(rank)
        if not got[0] and self.scott_fails.get(rank):
            return adjoint_bound_defect(self.chains[chain][0], rank, r)
        longer = self.verdicts.get(self.catalog_rank(chain, r + 1)) if r < 6 else None
        if longer is not None and not got[0] and longer[0]:
            return f"catalog {rank}: generating at r={r} but empty after appending a class"
        shorter = self.verdicts.get(self.catalog_rank(chain, r - 1)) if r > 2 else None
        if shorter is not None and got[0] and not shorter[0]:
            return f"catalog {rank}: empty at r={r} though its prefix generates"
        return None

    # -- other queries --------------------------------------------------------
    def op_class_dim(self, rng, n):
        invariants = self.T.invariants
        if n % 10 == 0:
            key, cls, want = self.classdim_anchors[(n // 10) % len(self.classdim_anchors)]
        else:
            (key, cls), want = self.random_shape(rng), None
        g = self.T.algebra_core.GroupSpec(*key)
        dim, rank = R.dim_rank(*R.class_target(key[0], key[1]))

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            if want is not None:
                # anchors include auxiliary Jordan data, which need not be a class
                return None if res.dim_class == want else f"{key} anchor: dim {res.dim_class} != {want}"
            if res.dim_class + res.dim_centralizer != dim:
                return f"{key}: {res.dim_class} + {res.dim_centralizer} != dim G = {dim}"
            if res.dim_class % 2 or not 0 < res.dim_class <= dim - rank:
                return f"{key}: class dimension {res.dim_class} not even in (0, {dim - rank}]"
            return None

        return Op("class_dim", lambda: invariants.class_dim(g, cls), check)

    def op_scott_lower_bound(self, rng, n):
        oracle = self.T.oracle
        rank = self.draw_rank(rng)
        key, ids = self.catalog_tuple(rank)
        classes = [self.pools[key][i] for i in ids]
        g = self.groups[key]
        family, nn, p = key
        if family != "SL" and p == 2:
            return Op("scott_lower_bound", lambda: oracle.scott_lower_bound(g, classes),
                      expect_refusal("BadCharacteristic"))
        dim, rk = R.dim_rank(family, nn)
        rhs = dim + rk - (1 if family == "SL" and p and nn % p == 0 else 0)

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            holds, lhs, got_rhs = res
            if got_rhs != rhs or holds != (lhs >= rhs) or lhs % 2:
                return f"{key}: got {res}, want rhs {rhs} and holds == (lhs >= rhs)"
            self.scott_fails[rank] = not holds
            verdict = self.verdicts.get(rank)
            if verdict is not None and not verdict[0] and not holds:
                return adjoint_bound_defect(key, rank, len(ids))
            return None

        return Op("scott_lower_bound", lambda: oracle.scott_lower_bound(g, classes), check)

    def op_min_generators(self, rng, n):
        oracle = self.T.oracle
        if n % 6 == 0:
            key, cls, want = self.mingen_anchors[(n // 6) % len(self.mingen_anchors)]
            bounds = (want, want)
        else:
            key, cls = self.random_shape(rng)
            bounds = R.min_generators_bounds(key, cls)
        g = self.T.algebra_core.GroupSpec(*key)
        if bounds is None:
            return Op("min_generators", lambda: oracle.min_generators(g, cls),
                      expect_refusal("MissingSpin8Profile"))

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            lo, hi = bounds
            return None if lo <= res <= hi else f"{key}: {res} generators outside [{lo}, {hi}]"

        return Op("min_generators", lambda: oracle.min_generators(g, cls), check)

    def op_in_closure(self, rng, n):
        closure = self.T.closure
        if n % 10 == 0:
            key, upper, lower, want = self.closure_anchors[(n // 10) % len(self.closure_anchors)]
        else:
            key = rng.choice(self.keys)
            upper, lower = rng.choice(self.unipotent_pools[key]), rng.choice(self.unipotent_pools[key])
            want = None
        g = self.T.algebra_core.GroupSpec(*key)
        family, _ = R.class_target(key[0], key[1])
        dominance = R.dominates(upper.unip.partition, lower.unip.partition)
        rewriting = key[2] == 2 and family != "SL"
        if want is None and not rewriting:
            want = dominance

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            if want is not None and res != want:
                return f"{key}: in_closure {res}, want {want}"
            if res and not dominance:
                return f"{key}: closure claimed without Jordan-type dominance"
            if upper == lower and not res:
                return f"{key}: a class is not in its own closure"
            return None

        return Op("in_closure", lambda: closure.in_closure(g, upper, lower), check)

    def op_smallest_class_with_blocks(self, rng, n):
        closure = self.T.closure
        key = rng.choice(self.keys)
        family, nn = R.class_target(key[0], key[1])
        m = rng.randrange(1, R.natural_dim(family, nn) + 1)
        g = self.groups[key]
        want = R.smallest_with_blocks(key, m)
        if want is None:
            return Op("smallest_class_with_blocks",
                      lambda: closure.smallest_class_with_blocks(g, m), expect_refusal("NoSuchClass"))

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            got = res.unip.partition
            return None if got == want else f"{key} m={m}: {got} != {want}"

        return Op("smallest_class_with_blocks", lambda: closure.smallest_class_with_blocks(g, m), check)

    def op_closure_poset_dot(self, rng, n):
        closure = self.T.closure
        key = self.cycle_groups[n % len(self.cycle_groups)]
        g = self.groups[key]

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            return R.dot_problem(key, res, self.dot_expect)

        return Op("closure_poset_dot", lambda: closure.closure_poset_dot(g), check)

    def max_class_op(self, anchor):
        maxclass = self.T.maxclass
        key, r, i, is_p, want, defect = anchor
        g = self.T.algebra_core.GroupSpec(*key)
        ctx = maxclass.QContext(r=r, i=i, is_p=is_p)

        def check(res, exc):
            if exc is not None:
                return f"{key} r={r} i={i}: {problem_from_exception(exc)}"
            return None if res[1] == want else f"{key} r={r} i={i}: dim {res[1]} != {want}"

        return Op("max_class", lambda: maxclass.max_class(g, ctx), check, known_defect=defect)

    def op_max_class(self, rng, n):
        if n % 4 == 0:
            return self.max_class_op(R.MAX_CLASS_ANCHORS[(n // 4) % len(R.MAX_CLASS_ANCHORS)])
        maxclass = self.T.maxclass
        key = rng.choice(self.keys)
        family, nn, p = key
        tfamily, tn = R.class_target(family, nn)
        r, i, is_p = random_context(rng, tfamily, tn, p)
        g = self.groups[key]
        ctx = maxclass.QContext(r=r, i=i, is_p=is_p)
        dim, rank = R.dim_rank(tfamily, tn)

        def check(res, exc):
            if exc is not None:
                return f"{key} r={r} i={i} is_p={is_p}: {problem_from_exception(exc)}"
            cls, d = res
            if d % 2 or not 0 < d <= dim - rank:
                return f"{key} r={r} i={i}: dimension {d} not even in (0, {dim - rank}]"
            if cls.kind != ("unipotent" if is_p else "semisimple"):
                return f"{key} r={r}: maximal class of kind {cls.kind}"
            return None

        return Op("max_class", lambda: maxclass.max_class(g, ctx), check)

    def op_rs_limit(self, rng, n):
        maxclass = self.T.maxclass
        if n % 2 == 0:
            family, nn, p = "Sp", 4, rng.choice((2, 3, 5, 7))
            r, s = rng.choice(((2, 3), (3, 3)))
        else:
            family, nn, p = rng.choice(self.keys)
            r, s = rng.choice((2, 3, 5, 7)), rng.choice((3, 5, 7))
        want = R.rs_limit(family, nn, p, r, s)

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            return None if res == want else f"{family}{nn} p={p} ({r},{s}): {res} != {want}"

        return Op("rs_limit", lambda: maxclass.rs_limit(family, nn, p, r, s), check)

    def op_c_value(self, rng, n):
        stabilizers = self.T.stabilizers
        key = self.cycle_groups[n % len(self.cycle_groups)]
        g = self.groups[key]
        anchor = next((a for a in R.C_VALUE_ANCHORS if a[0] == key), None)
        family, nn = R.class_target(key[0], key[1])
        dim, rank = R.dim_rank(family, nn)
        top = (R.natural_dim(family, nn) + 1) * (dim - rank)

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            if anchor is not None and (res.c != anchor[1] or anchor[2] not in (None, res.r)):
                return f"{key}: c = {res.c} (r = {res.r}), want {anchor[1:]}"
            if res.c % 2 or res.r < 2 or not 0 < res.c <= top:
                return f"{key}: c = {res.c} with r = {res.r} out of range"
            return None

        return Op("c_value", lambda: stabilizers.c_value(g), check)

    def op_generically_free(self, rng, n):
        stabilizers = self.T.stabilizers
        if rng.random() < 0.15:
            group = key = rng.choice(EXCEPTIONAL)
        else:
            key = rng.choice(self.keys)
            group = self.groups[key]
        d = R.threshold(key)
        dim_vg = rng.randrange(6)
        base = int(d) if d is not None else 20
        dim_v = max(dim_vg, base + dim_vg + rng.randrange(-3, 4))
        if d is None:
            return Op("generically_free", lambda: stabilizers.generically_free(group, dim_v, dim_vg),
                      expect_refusal("UnsupportedGroup"))
        want = Fraction(dim_v - dim_vg) > d

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            return None if res == want else f"{key} dimV={dim_v} dimVG={dim_vg}: {res} != {want}"

        return Op("generically_free", lambda: stabilizers.generically_free(group, dim_v, dim_vg), check)


def setup(T, seed: int) -> SymbolicState:
    return SymbolicState(T, seed)
