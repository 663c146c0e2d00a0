"""Workload ``finfield-verify``: a fixed list of exact finite-field checks.

The slowest paths users run, one job after another, in the order a verify
run would: group closures against the order formula, exact (2, 3)
generation probabilities, Monte Carlo estimates against the exact values,
explicit class matrices against the centralizer formula, induced Jordan
block counts, and invariant-subspace counts against a brute-force count.
The list mixes prime and extension fields and the two kernels (BFS over
matrix products, Gaussian elimination). PSp4(3) and SO9 at q = 3 are left
to the tests: they take about a minute each. The list does not depend on
the seed. It runs in passes, each starting with empty field and group
caches, as one ``topogen verify`` process does.
"""

from __future__ import annotations

import math
from fractions import Fraction

import reference as R
from harness import Op, problem_from_exception

CLOSURES = [("SL", 2, 11), ("SL", 2, 16), ("SL", 3, 2), ("SL", 3, 3), ("Sp", 4, 2)]
# SL2(16) (9 s) and SL2(17) (3 s) are left out with PSp4(3): a pass must be
# short enough to run four times; GF(4), GF(8), GF(9) and the SL2(16)
# closure keep extension fields in the list
EXACT = [("SL", 2, q) for q in (4, 5, 7, 8, 9, 11, 13)] + [("SL", 3, 3), ("Sp", 4, 2)]
# hand-known (2, 3) generation probabilities: PSL2(4) = PSL2(5) = A5,
# PSL2(7), PSL2(9) = A6, and Sp4(2) = S6, which is not (2, 3)-generated
EXACT_ANCHORS = {("SL", 2, 4): Fraction(2, 5), ("SL", 2, 5): Fraction(2, 5), ("SL", 2, 7): Fraction(2, 7),
                 ("SL", 2, 9): Fraction(0), ("Sp", 4, 2): Fraction(0)}
# elements of order 2 and of order 3 modulo the center, counted by hand
CLASS_SIZES = {("SL", 3, 3): (117, 728), ("Sp", 4, 2): (75, 80)}
MONTE_CARLO = [(("SL", 2, 7), 600), (("SL", 2, 9), 60)]
MONTE_CARLO_SEED = 1
CENTRALIZERS = [(f, n, q) for f, n in (("Sp", 4), ("Sp", 6), ("SO", 7), ("Spin8", 8)) for q in (3, 5)]
BLOCK_FIELDS = (2, 3, 5)
BLOCK_SIZES = range(2, 9)
# (partition, q, k, form); expected counts come from a brute-force listing
# of all k-subspaces, or (SO9) from a hand count over the 2295 totally
# singular 4-spaces. Recorded defect: invariant_subspace_count also counts
# lower-dimensional subspaces (it returns 239 for SO9, q = 2).
SUBSPACES = [
    ((2, 1, 1), 3, 2, "symplectic"),
    ((2, 2), 3, 2, "symplectic"),
    ((2, 2, 1), 3, 2, "symmetric"),
    ((3, 1, 1), 3, 2, "symmetric"),
    ((2, 2, 1, 1), 2, 3, "symplectic"),
    ((2, 2, 2), 2, 3, "symplectic"),
    ((2, 2, 2, 2, 1), 2, 4, "symmetric"),
]
SUBSPACE_ANCHORS = {((2, 2, 2, 2, 1), 2, 4): 39}


def is_prime(q: int) -> bool:
    return all(q % d for d in range(2, int(q**0.5) + 1))


def jordan_block(size: int):
    return [[1 if j in (i, i + 1) else 0 for j in range(size)] for i in range(size)]


def order_formula(family, n, q):
    return R.sl_order(n, q) if family == "SL" else R.sp_order(n, q)


class VerifyState:
    # the same jobs in every pass: each counts once, at its median time
    fixed_jobs = True
    # a run of S seconds measures S / block_seconds passes: four at 25 s,
    # so that each job's median is over four passes, though a pass takes
    # about 8.3 s of operation CPU time on the 2-vCPU machine the benchmark
    # was calibrated on
    block_seconds = 6.25

    def __init__(self, T, seed: int):
        self.T = T
        self.exact = {}

    def attach_tracer(self, tracer):
        pass

    def next_block(self, index: int) -> list:
        ff = self.T.finfield
        ff._field.cache_clear()
        ff._group_data.cache_clear()
        jobs = [self.closure_job(*g) for g in CLOSURES]
        jobs += [self.exact_job(g) for g in EXACT]
        jobs += [self.monte_carlo_job(g, trials) for g, trials in MONTE_CARLO]
        jobs += [self.centralizer_job(*g) for g in CENTRALIZERS]
        jobs += [self.blocks_job(q) for q in BLOCK_FIELDS]
        jobs += [self.subspace_job(*s) for s in SUBSPACES]
        return jobs

    def closure_job(self, family, n, q):
        ff = self.T.finfield
        want = order_formula(family, n, q)

        def call():
            return ff.group_closure(ff.standard_generators(family, n, q)), ff.group_order(family, n, q)

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            (size, truncated), formula = res
            if truncated or size != want or formula != want:
                return f"{family}{n}({q}): closure {size}, group_order {formula}, hand formula {want}"
            return None

        return Op("group_closure", call, check, prime_field=is_prime(q))

    def exact_job(self, group):
        ff = self.T.finfield
        family, n, q = group
        sizes = R.sl2_class_sizes(q) if (family, n) == ("SL", 2) else CLASS_SIZES[group]

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            self.exact[group] = res
            if group in EXACT_ANCHORS and res != EXACT_ANCHORS[group]:
                return f"{group}: P = {res}, want {EXACT_ANCHORS[group]}"
            pairs = sizes[0] * sizes[1]
            if not 0 <= res <= 1 or (res * pairs).denominator != 1:
                return f"{group}: P = {res} is no count of generating pairs over {pairs}"
            return None

        return Op("exact_prob", lambda: ff.exact_generation_probability(group, 2, 3), check,
                  prime_field=is_prime(q))

    def monte_carlo_job(self, group, trials):
        ff = self.T.finfield

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            hits, n = res
            exact = float(self.exact[group])
            tol = 3 * math.sqrt(exact * (1 - exact) / n)
            if n != trials or abs(hits / n - exact) > tol:
                return f"{group}: {hits}/{n} hits, more than 3 sigma from {exact:.4f}"
            return None

        def call():
            return ff.estimate_generation_probability(group, 2, 3, trials=trials, seed=MONTE_CARLO_SEED)

        return Op("monte_carlo", call, check, prime_field=is_prime(group[2]))

    def centralizer_job(self, family, n, q):
        T = self.T
        unsupported = T.errors.UnsupportedCase

        def call():
            group = T.algebra_core.GroupSpec(family, n, q)
            rows = []
            for cls in T.stabilizers.enumerate_class_shapes(group):
                try:
                    m = T.finfield.matrix_from_class(group, cls, q)
                except unsupported:
                    continue
                rows.append((cls, T.finfield.centralizer_lie_dim(group, m),
                             T.invariants.class_dim(group, cls).dim_centralizer))
            return rows

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            if not res:
                return f"{family}{n}({q}): no class could be instantiated"
            for cls, got, want in res:
                if got != want:
                    return f"{family}{n}({q}) {cls}: matrix centralizer {got}, formula {want}"
            return None

        return Op("centralizer", call, check)

    def blocks_job(self, q):
        ff = self.T.finfield
        p = q

        def call():
            jordan = {a: ff.GFMatrix(q, jordan_block(a)) for a in BLOCK_SIZES}
            out = []
            for a, ja in jordan.items():
                for functor in ("wedge2", "sym2"):
                    m = ff.induced_matrix(ja, functor)
                    out.append((functor, a, None, len(ff.jordan_type(m, eigenvalues=[1]).get(1, ()))))
                for b, jb in jordan.items():
                    m = ff.kron(ja, jb)
                    out.append(("tensor", a, b, len(ff.jordan_type(m, eigenvalues=[1]).get(1, ()))))
            return out

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            for functor, a, b, got in res:
                if functor == "tensor":
                    want = min(a, b)
                elif functor == "wedge2":
                    want = a // 2
                else:
                    want = (a + 1) // 2 + (1 if a % 2 == 0 and p == 2 else 0)
                if got != want:
                    return f"GF({q}) {functor} J{a}{'' if b is None else f' x J{b}'}: {got} blocks, want {want}"
            return None

        return Op("jordan_blocks", call, check)

    def subspace_job(self, partition, q, k, form):
        ff = self.T.finfield

        def call():
            m = ff.unipotent_matrix(partition, q, form)
            return m, ff.invariant_subspace_count(m, k)

        def check(res, exc):
            if exc is not None:
                return problem_from_exception(exc)
            m, got = res
            want = SUBSPACE_ANCHORS.get((partition, q, k))
            if want is None:
                want = R.count_invariant_subspaces(m.entries, m.form, m.form_kind, k, q)
            return None if got == want else f"{partition} over GF({q}), k = {k}: {got} subspaces, want {want}"

        return Op("subspaces", call, check, known_defect=True)


def setup(T, seed: int) -> VerifyState:
    return VerifyState(T, seed)
