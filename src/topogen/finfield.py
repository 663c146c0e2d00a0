"""Brute-force verification layer over small finite fields.

Everything here is independent of the symbolic machinery: explicit matrices,
exact Gaussian elimination, and exhaustive or Monte Carlo generation tests,
which compare the order of the generated group (Schreier–Sims on the points
of projective space) with the group's order. The only group ever listed is
PG = G/Z, breadth first, as permutations of the points of projective space;
a group of matrices is measured by Schreier–Sims on vectors, never listed.

Every element of GF(p^k) is one Python int, the packed coefficient vector
sum c_i * B^i of its representative polynomial over GF(p), with B a power
of two; a prime-field element is the int 0..p-1. Arithmetic is plain integer
arithmetic on packed ints followed by one lookup in the field's reduction
map ``red``, so every kernel runs the same code for prime and extension
fields, e.g. a matrix entry is ``red[sum(map(mul, row, col))]``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import product
from math import gcd, inf
from operator import eq, mul
from typing import Iterable, Optional, Sequence

from .algebra_core import ClassDescriptor, GroupSpec, is_prime
from .errors import (
    EnumerationTooLarge,
    GroupTooLarge,
    NonSplit,
    NotApplicable,
    SchemaError,
    Uninstantiable,
    UnsupportedGroup,
)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

# Largest matrix dimension accepted. It sizes the digits of the packed
# encoding: a sum of MAX_DIM products of elements never carries between
# digits, since each digit stays below MAX_DIM * k * (p - 1)^2 < B.
MAX_DIM = 4096


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if is_prime(p) and q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise SchemaError(f"{q} is not a prime power")
            return p, k
    raise SchemaError(f"{q} is not a prime power")


def _find_irreducible(p: int, k: int) -> tuple:
    """Monic irreducible polynomial of degree k over GF(p), low coeffs first."""

    def is_irreducible(coeffs):
        # trial division by all monic polynomials of degree <= k // 2
        def poly_mod(a, b):
            a = list(a)
            while len(a) >= len(b) and any(a):
                while a and a[-1] == 0:
                    a.pop()
                if len(a) < len(b):
                    break
                c = a[-1] * pow(b[-1], -1, p) % p
                shift = len(a) - len(b)
                for i, x in enumerate(b):
                    a[shift + i] = (a[shift + i] - c * x) % p
                while a and a[-1] == 0:
                    a.pop()
            return a

        for d in range(1, k // 2 + 1):
            for idx in range(p**d):
                low = []
                t = idx
                for _ in range(d):
                    low.append(t % p)
                    t //= p
                divisor = low + [1]
                if not poly_mod(list(coeffs), divisor):
                    return False
        return True

    # prefer x^2 + 1 when it works (nice arithmetic for GF(9))
    candidates = []
    if k == 2:
        candidates.append((1, 0, 1))
    for idx in range(p**k):
        low = []
        t = idx
        for _ in range(k):
            low.append(t % p)
            t //= p
        candidates.append(tuple(low) + (1,))
    for c in candidates:
        if is_irreducible(c):
            return c
    raise SchemaError("no irreducible polynomial found")


class _Reducer(dict):
    """Packed int with unreduced digits below B and of any degree, such as a
    sum of products of elements -> the element it represents: every digit
    mod p, then the polynomial modulo the monic modulus. Filled on first use
    of each key."""

    def __init__(self, p: int, modulus: tuple, shift: int):
        super().__init__()
        self.p, self.modulus, self.shift = p, modulus, shift

    def __missing__(self, x: int) -> int:
        p, modulus, shift = self.p, self.modulus, self.shift
        k = len(modulus) - 1
        mask = (1 << shift) - 1
        digits = []
        y = x
        while y:
            digits.append((y & mask) % p)
            y >>= shift
        for i in range(len(digits) - 1, k - 1, -1):
            c = digits[i]
            if c:
                for j in range(k):
                    digits[i - k + j] = (digits[i - k + j] - c * modulus[j]) % p
        r = sum(c << (shift * i) for i, c in enumerate(digits[:k]))
        self[x] = r
        return r


class Field:
    """Arithmetic in GF(q) on packed-int elements (see the module
    docstring); zero is 0 and one is 1 in every field."""

    def __init__(self, q: int):
        self.q = q
        self.p, self.k = _factor_prime_power(q)
        self.modulus = _find_irreducible(self.p, self.k)
        self.shift = (MAX_DIM * self.k * (self.p - 1) ** 2).bit_length()
        self.bound = 1 << (self.shift * self.k)
        self.zero, self.one = 0, 1
        # p in every digit: adding it keeps the digits of a - b nonnegative
        self._p_digits = sum(self.p << (self.shift * i) for i in range(self.k))
        self.red = _Reducer(self.p, self.modulus, self.shift)
        elems = [0]
        for i in range(self.k):
            elems = [x + (c << (self.shift * i)) for c in range(self.p) for x in elems]
        self._elements = tuple(elems)
        self._points: dict = {}  # n -> projective_points(n)

    # -- element construction -------------------------------------------------
    def coerce(self, x):
        """The element of a packed int (0 <= x < bound), of any other
        integer read mod p, or of a coefficient sequence, lowest degree first."""
        if isinstance(x, int):
            return self.red[x] if 0 <= x < self.bound else x % self.p
        try:
            coeffs = [int(c) % self.p for c in x]
        except (TypeError, ValueError):
            raise SchemaError(f"cannot coerce {x!r} into GF({self.q})") from None
        if len(coeffs) != self.k:
            raise SchemaError(f"cannot coerce {x!r} into GF({self.q})")
        return sum(c << (self.shift * i) for i, c in enumerate(coeffs))

    def elements(self) -> list:
        return list(self._elements)

    def projective_points(self, n: int) -> tuple:
        """(points, index): the points of P^{n-1}(GF(q)), each the vector
        whose first nonzero coordinate is 1, and a map from every nonzero
        vector of GF(q)^n to the position of its point. Built once per n."""
        if n not in self._points:
            points = [
                v
                for v in product(self._elements, repeat=n)
                if next((x for x in v if x), None) == self.one
            ]
            index = {
                tuple([self.red[c * x] for x in v]): i
                for i, v in enumerate(points)
                for c in self._elements
                if c
            }
            self._points[n] = (points, index)
        return self._points[n]

    # -- arithmetic ------------------------------------------------------------
    def add(self, a, b):
        return self.red[a + b]

    def sub(self, a, b):
        return self.red[a + self._p_digits - b]

    def neg(self, a):
        return self.red[self._p_digits - a]

    def mul(self, a, b):
        return self.red[a * b]

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverting zero field element")
        return self.pow(a, self.q - 2)

    def pow(self, a, e: int):
        result = self.one
        base = a
        e %= self.q - 1 if a != self.zero else 1
        if a == self.zero:
            return self.zero if e else self.one
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def element_order(self, a) -> int:
        if a == self.zero:
            raise SchemaError("zero has no multiplicative order")
        x, k = a, 1
        while x != self.one:
            x = self.mul(x, a)
            k += 1
        return k

    def element_of_order(self, r: int):
        """Some multiplicative element of exact order r, or None."""
        if (self.q - 1) % r != 0:
            return None
        for a in self.elements():
            if a != self.zero and self.element_order(a) == r:
                return a
        return None


@lru_cache(maxsize=None)
def _field(q: int) -> Field:
    return Field(q)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class GFMatrix:
    """A square matrix over GF(q), optionally tagged with a preserved form.

    form_kind: "symplectic" (skew bilinear), "symmetric" (symmetric bilinear),
    "quadratic" (upper-triangular Gram matrix of a quadratic form; its
    polarization is the associated bilinear form), or None.
    """

    def __init__(self, q: int, entries, form=None, form_kind: Optional[str] = None):
        self.q = q
        self.field = _field(q)
        F = self.field
        self.entries = tuple(tuple(F.coerce(x) for x in row) for row in entries)
        self.n = len(self.entries)
        if any(len(row) != self.n for row in self.entries):
            raise SchemaError("matrix must be square")
        if self.n > MAX_DIM:
            raise SchemaError(f"matrix dimension {self.n} exceeds {MAX_DIM}")
        self.form = (
            tuple(tuple(F.coerce(x) for x in row) for row in form)
            if form is not None
            else None
        )
        self.form_kind = form_kind
        if self.form is not None and form_kind is None:
            raise SchemaError("form matrix given without a form kind")
        if self.form is not None:
            _check_form_preserved(F, self.entries, self.form, form_kind)

    def __eq__(self, other):
        return isinstance(other, GFMatrix) and (self.q, self.entries) == (
            other.q,
            other.entries,
        )

    def __hash__(self):
        return hash((self.q, self.entries))

    def __repr__(self):
        return f"GFMatrix(q={self.q}, n={self.n}, form_kind={self.form_kind})"


def _identity(F: Field, n: int):
    return tuple(
        tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n)
    )


def _mat_mul(F: Field, A, B):
    red = F.red
    Bt = tuple(zip(*B))
    return tuple([tuple([red[sum(map(mul, row, col))] for col in Bt]) for row in A])


def _mat_vec(F: Field, A, v):
    red = F.red
    return tuple([red[sum(map(mul, row, v))] for row in A])


def _mat_sub(F: Field, A, B):
    red, P = F.red, F._p_digits
    return tuple(tuple(red[x + P - y] for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def _transpose(A):
    return tuple(zip(*A))


def _rref(F: Field, rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    red = F.red
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # rows r.. vanish left of column c, so row operations start there
        inv = F.inv(rows[r][c])
        rows[r][c:] = tail = [red[inv * x] for x in rows[r][c:]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                nf = F.neg(f)
                rows[i][c:] = [red[x + nf * y] for x, y in zip(rows[i][c:], tail)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in rows[:r]], pivots


def _rank(F: Field, rows) -> int:
    return len(_rref(F, rows)[0])


def _nullspace(F: Field, rows, ncols: int):
    """Basis of {v : A v = 0} for the matrix with the given rows."""
    rref, pivots = _rref(F, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero] * ncols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(rref[r][fc])
        basis.append(tuple(v))
    return basis


def _sparse_rows(A):
    return [{j: x for j, x in enumerate(row) if x} for row in A]


def _sparse_mul(F: Field, A, B):
    """Product of sparse row-dict matrices."""
    red = F.red
    out = []
    for row in A:
        acc: dict = {}
        for k, x in row.items():
            for j, y in B[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, s in acc.items() if (v := red[s])})
    return out


def _sparse_rank(F: Field, rows) -> int:
    """Rank by sparse elimination (cheap for banded matrices)."""
    red = F.red
    pivots: dict = {}
    for row in rows:
        r = dict(row)
        while r:
            c = min(r)
            if c not in pivots:
                inv = F.inv(r[c])
                pivots[c] = {cc: red[inv * v] for cc, v in r.items()}
                break
            nf = F.neg(r[c])
            for cc, v in pivots[c].items():
                nv = red[r.get(cc, 0) + nf * v]
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
    return len(pivots)


def _mat_inv(F: Field, A):
    n = len(A)
    aug = [list(row) + list(idrow) for row, idrow in zip(A, _identity(F, n))]
    rref, pivots = _rref(F, aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in rref)


def _check_form_preserved(F: Field, g, form, kind: str) -> None:
    gt = _transpose(g)
    if kind in ("symplectic", "symmetric"):
        lhs = _mat_mul(F, _mat_mul(F, gt, form), g)
        if lhs != form:
            raise SchemaError("matrix does not preserve the declared form")
        return
    if kind == "quadratic":
        # Q(gx) = Q(x) iff g^T F g + F is symmetric with zero diagonal
        diff = _mat_sub(F, _mat_mul(F, _mat_mul(F, gt, form), g), form)
        n = len(diff)
        for i in range(n):
            if diff[i][i] != F.zero:
                raise SchemaError("matrix does not preserve the quadratic form")
            for j in range(i + 1, n):
                if F.add(diff[i][j], diff[j][i]) != F.zero:
                    raise SchemaError("matrix does not preserve the quadratic form")
        return
    raise SchemaError(f"unknown form kind {kind!r}")


# ---------------------------------------------------------------------------
# Jordan data
# ---------------------------------------------------------------------------


def jordan_type(m: GFMatrix, eigenvalues=None) -> dict:
    """Map eigenvalue -> Jordan partition, computed from rank sequences.

    Raises NonSplit when the characteristic polynomial does not split
    over GF(q) (multiplicities then sum to less than n). Passing an
    explicit eigenvalue list restricts the scan (and skips that check).
    """
    F = m.field
    n = m.n
    result = {}
    accounted = 0
    scan = F.elements() if eigenvalues is None else [F.coerce(x) for x in eigenvalues]
    for lam in scan:
        shift = _sparse_rows(
            _mat_sub(
                F,
                m.entries,
                tuple(
                    tuple(lam if i == j else F.zero for j in range(n))
                    for i in range(n)
                ),
            ),
        )
        ranks = [n, _sparse_rank(F, shift)]
        power = shift
        while ranks[-1] != ranks[-2]:
            power = _sparse_mul(F, power, shift)
            ranks.append(_sparse_rank(F, power))
        mult = n - ranks[1]
        if mult == 0:
            continue
        parts = []
        for s in range(1, len(ranks)):
            ge_s = ranks[s - 1] - ranks[s]
            ge_s1 = ranks[s] - ranks[s + 1] if s + 1 < len(ranks) else 0
            parts.extend([s] * (ge_s - ge_s1))
        partition = tuple(sorted(parts, reverse=True))
        result[lam] = partition
        accounted += sum(partition)
    if eigenvalues is None and accounted != n:
        raise NonSplit("characteristic polynomial does not split over GF(q)")
    return result


def fixed_space_dim(m: GFMatrix) -> int:
    F = m.field
    return m.n - _rank(F, _mat_sub(F, m.entries, _identity(F, m.n)))


# ---------------------------------------------------------------------------
# induced actions
# ---------------------------------------------------------------------------


def induced_matrix(m: GFMatrix, functor: str) -> GFMatrix:
    F = m.field
    g = m.entries
    n = m.n
    if functor in ("tensor", "tensor_square"):
        basis = [(i, j) for i in range(n) for j in range(n)]
        rows = {}
        for bi, (i, j) in enumerate(basis):
            for bk, (k, l) in enumerate(basis):
                rows[(bk, bi)] = F.mul(g[k][i], g[l][j])
        size = len(basis)
        ent = tuple(
            tuple(rows.get((r, c), F.zero) for c in range(size)) for r in range(size)
        )
        return GFMatrix(m.q, ent)
    if functor == "wedge2":
        basis = [(i, j) for i in range(n) for j in range(i + 1, n)]
        idx = {b: t for t, b in enumerate(basis)}
        size = len(basis)
        ent = [[F.zero] * size for _ in range(size)]
        for (i, j), c in idx.items():
            for (k, l), r in idx.items():
                val = F.sub(
                    F.mul(g[k][i], g[l][j]), F.mul(g[l][i], g[k][j])
                )
                ent[r][c] = val
        return GFMatrix(m.q, tuple(tuple(row) for row in ent))
    if functor == "sym2":
        basis = [(i, j) for i in range(n) for j in range(i, n)]
        idx = {b: t for t, b in enumerate(basis)}
        size = len(basis)
        ent = [[F.zero] * size for _ in range(size)]
        for (i, j), c in idx.items():
            for (k, l), r in idx.items():
                if k == l:
                    val = F.mul(g[k][i], g[k][j])
                else:
                    val = F.add(
                        F.mul(g[k][i], g[l][j]), F.mul(g[l][i], g[k][j])
                    )
                ent[r][c] = val
        return GFMatrix(m.q, tuple(tuple(row) for row in ent))
    raise NotApplicable(f"unknown functor {functor!r}")


def kron(m1: GFMatrix, m2: GFMatrix) -> GFMatrix:
    """Kronecker (tensor) product of two matrices over the same field."""
    if m1.q != m2.q:
        raise SchemaError("tensor factors must live over the same field")
    red = m1.field.red
    ent = [[red[x * y] for x in ra for y in rb] for ra in m1.entries for rb in m2.entries]
    return GFMatrix(m1.q, ent)


# ---------------------------------------------------------------------------
# matrix construction from class descriptors
# ---------------------------------------------------------------------------


def _jordan_block(F: Field, size: int, eigen):
    return tuple(
        tuple(
            eigen if i == j else (F.one if j == i + 1 else F.zero)
            for j in range(size)
        )
        for i in range(size)
    )


def _block_diag(F: Field, blocks):
    n = sum(len(b) for b in blocks)
    out = [[F.zero] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return tuple(tuple(row) for row in out)


def invariant_form_matrix(
    entries, q: int, kind: str, seed: int = 0
) -> Optional[tuple]:
    """A nondegenerate form of the given kind preserved by the matrix, or
    None when no such form exists.

    For "quadratic" the returned Gram matrix is upper triangular and its
    polarization has the maximal possible rank (n, or n - 1 when n is odd
    in characteristic 2, in which case the quadratic form must not vanish
    on the radical line).
    """
    F = _field(q)
    g = tuple(tuple(F.coerce(x) for x in row) for row in entries)
    n = len(g)
    gt = _transpose(g)
    # unknowns: X_{ij}, i, j in [0, n); linear equations over GF(q)
    var = lambda i, j: i * n + j
    rows = []

    def add_row(coeffs: dict):
        row = [F.zero] * (n * n)
        for v, c in coeffs.items():
            row[v] = F.add(row[v], c)
        if any(x != F.zero for x in row):
            rows.append(tuple(row))

    if kind in ("symplectic", "symmetric"):
        # invariance: (g^T X g - X)_{kl} = sum_{i,j} g_{ik} X_{ij} g_{jl} - X_{kl}
        for k in range(n):
            for l in range(n):
                coeffs: dict = {}
                for i in range(n):
                    gik = gt[k][i]
                    if gik == F.zero:
                        continue
                    for j in range(n):
                        c = F.mul(gik, g[j][l])
                        if c != F.zero:
                            coeffs[var(i, j)] = F.add(coeffs.get(var(i, j), F.zero), c)
                coeffs[var(k, l)] = F.add(coeffs.get(var(k, l), F.zero), F.neg(F.one))
                add_row(coeffs)
    if kind == "symplectic":
        for i in range(n):
            add_row({var(i, i): F.one})
            for j in range(i + 1, n):
                add_row({var(i, j): F.one, var(j, i): F.one})
    elif kind == "symmetric":
        for i in range(n):
            for j in range(i + 1, n):
                add_row({var(i, j): F.one, var(j, i): F.neg(F.one)})
    elif kind == "quadratic":
        # Gram matrix upper triangular; bilinear invariance is too strict
        # for quadratic forms: require g^T X g + (-X) symmetric with zero
        # diagonal instead of equal to X.
        for k in range(n):
            # diagonal of g^T X g - X vanishes
            coeffs = {}
            for i in range(n):
                gik = gt[k][i]
                if gik == F.zero:
                    continue
                for j in range(n):
                    c = F.mul(gik, g[j][k])
                    if c != F.zero:
                        coeffs[var(i, j)] = F.add(coeffs.get(var(i, j), F.zero), c)
            coeffs[var(k, k)] = F.add(coeffs.get(var(k, k), F.zero), F.neg(F.one))
            add_row(coeffs)
        for k in range(n):
            for l in range(k + 1, n):
                coeffs = {}
                for (a, b) in ((k, l), (l, k)):
                    for i in range(n):
                        gia = gt[a][i]
                        if gia == F.zero:
                            continue
                        for j in range(n):
                            c = F.mul(gia, g[j][b])
                            if c != F.zero:
                                coeffs[var(i, j)] = F.add(
                                    coeffs.get(var(i, j), F.zero), c
                                )
                coeffs[var(k, l)] = F.add(coeffs.get(var(k, l), F.zero), F.neg(F.one))
                coeffs[var(l, k)] = F.add(coeffs.get(var(l, k), F.zero), F.neg(F.one))
                add_row(coeffs)
        # lower triangle forced to zero (canonical representative)
        for i in range(n):
            for j in range(i):
                add_row({var(i, j): F.one})
    else:
        raise SchemaError(f"unknown form kind {kind!r}")
    basis = _nullspace(F, rows, n * n)
    if not basis:
        return None

    def unflatten(v):
        return tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n))

    def good(X):
        if kind != "quadratic":
            return _rank(F, X) == n
        pol = tuple(
            tuple(F.add(X[i][j], X[j][i]) for j in range(n)) for i in range(n)
        )
        want = n if (n % 2 == 0 or F.p != 2) else n - 1
        if _rank(F, pol) < want:
            return False
        if want == n - 1:
            # the quadratic form must not vanish on the radical of the
            # polarization
            for v in _nullspace(F, pol, n):
                val = F.zero
                for i in range(n):
                    for j in range(n):
                        val = F.add(val, F.mul(F.mul(v[i], X[i][j]), v[j]))
                if val == F.zero:
                    return False
        return True

    for v in basis:
        X = unflatten(v)
        if good(X):
            return X
    rng = random.Random(seed + 0xC0FFEE)
    elems = F.elements()
    for _ in range(2000):
        v = [F.zero] * (n * n)
        for b in basis:
            c = elems[rng.randrange(len(elems))]
            v = [F.add(x, F.mul(c, y)) for x, y in zip(v, b)]
        X = unflatten(tuple(v))
        if good(X):
            return X
    return None


def _assign_labels(F: Field, pat, label_assignment) -> dict:
    label_assignment = dict(label_assignment or {})
    assigned: dict = {}
    used = {F.one, F.neg(F.one)}
    labels = [lab for lab, _ in pat.pairs] + [lab for lab, _ in pat.free]
    for lab in labels:
        if lab in label_assignment:
            val = F.coerce(label_assignment[lab])
        else:
            rel = pat.relation_of(lab)
            if rel == "square_is_minus_one":
                val = F.element_of_order(4)
                if val is None:
                    raise Uninstantiable("no fourth root of unity in GF(q)")
            elif rel and rel.startswith("order:"):
                k = int(rel.split(":", 1)[1])
                val = F.element_of_order(k)
                if val is None:
                    raise Uninstantiable(f"no element of order {k} in GF(q)")
                # avoid collisions between labels of the same order
                x = val
                while x in used or F.inv(x) in used:
                    x = F.mul(x, val)
                    if x == val:
                        raise Uninstantiable("not enough roots of unity in GF(q)")
                val = x
            else:
                val = next(
                    (
                        a
                        for a in F.elements()
                        if a not in (F.zero,) and a not in used and F.inv(a) not in used
                    ),
                    None,
                )
                if val is None:
                    raise Uninstantiable("field too small for distinct eigenvalues")
        assigned[lab] = val
        used.add(val)
        used.add(F.inv(val))
    return assigned


_FORM_KIND = {"Sp": "symplectic", "SO": "symmetric", "Spin8": "symmetric", "SL": None}


def matrix_from_class(
    group: GroupSpec,
    cls: ClassDescriptor,
    q: int,
    label_assignment: Optional[dict] = None,
) -> GFMatrix:
    """An explicit matrix with the class's Jordan/eigenvalue data preserving
    a standard-type invariant form found by exact linear solving."""
    from .algebra_core import validate_class

    target = group.class_group()
    cls = validate_class(group, cls)
    F = _field(q)
    n = target.n
    if cls.kind == "unipotent":
        if F.p != (target.p or F.p):
            raise Uninstantiable("unipotent classes need q of the same characteristic")
        if target.p == 0 and any(a > F.p for a in cls.unip.partition):
            raise Uninstantiable("Jordan blocks larger than p have composite order")
        blocks = [_jordan_block(F, a, F.one) for a in cls.unip.partition]
        g = _block_diag(F, blocks)
    else:
        if cls.kind != "semisimple":
            raise SchemaError("unknown class kind")
        pat = cls.eigen
        values = _assign_labels(F, pat, label_assignment)
        diag = [F.one] * pat.mult_one + [F.neg(F.one)] * pat.mult_minus_one
        for lab, mult in pat.pairs:
            diag.extend([values[lab]] * mult)
            diag.extend([F.inv(values[lab])] * mult)
        for lab, mult in pat.free:
            diag.extend([values[lab]] * mult)
        g = tuple(
            tuple(diag[i] if i == j else F.zero for j in range(n)) for i in range(n)
        )
    kind = _FORM_KIND[target.family]
    if kind is None:
        return GFMatrix(q, g)
    if kind == "symmetric" and F.p == 2:
        kind = "quadratic"
    form = invariant_form_matrix(g, q, kind)
    if form is None:
        raise Uninstantiable("no nondegenerate invariant form over GF(q)")
    return GFMatrix(q, g, form=form, form_kind=kind)


def unipotent_matrix(partition: Sequence[int], q: int, form_kind: str) -> GFMatrix:
    """Block-diagonal unipotent matrix with an invariant nondegenerate form,
    without going through a group descriptor."""
    F = _field(q)
    blocks = [_jordan_block(F, a, F.one) for a in sorted(partition, reverse=True)]
    g = _block_diag(F, blocks)
    if form_kind == "symmetric" and F.p == 2:
        form_kind = "quadratic"
    form = invariant_form_matrix(g, q, form_kind)
    if form is None:
        raise Uninstantiable("no nondegenerate invariant form over GF(q)")
    return GFMatrix(q, g, form=form, form_kind=form_kind)


# ---------------------------------------------------------------------------
# Lie centralizers
# ---------------------------------------------------------------------------


def centralizer_lie_dim(group: GroupSpec, m: GFMatrix) -> int:
    """Dimension of {X : Xg = gX} intersected with the Lie algebra
    (X^T J + J X = 0 for Sp/SO with form J; trace 0 for SL)."""
    target = group.class_group()
    F = m.field
    n = m.n
    g = m.entries
    var = lambda i, j: i * n + j
    rows = []
    # Xg - gX = 0
    for k in range(n):
        for l in range(n):
            row = [F.zero] * (n * n)
            for j in range(n):
                row[var(k, j)] = F.add(row[var(k, j)], g[j][l])
            for i in range(n):
                row[var(i, l)] = F.sub(row[var(i, l)], g[k][i])
            if any(x != F.zero for x in row):
                rows.append(tuple(row))
    if target.family == "SL":
        row = [F.zero] * (n * n)
        for i in range(n):
            row[var(i, i)] = F.one
        rows.append(tuple(row))
    else:
        J = m.form
        if J is None:
            raise SchemaError("Sp/SO centralizer needs a form-tagged matrix")
        if m.form_kind == "quadratic":
            J = tuple(
                tuple(F.add(J[i][j], J[j][i]) for j in range(n)) for i in range(n)
            )
        # (X^T J + J X)_{kl} = sum_i X_{ik} J_{il} + sum_j J_{kj} X_{jl}
        for k in range(n):
            for l in range(n):
                row = [F.zero] * (n * n)
                for i in range(n):
                    row[var(i, k)] = F.add(row[var(i, k)], J[i][l])
                for j in range(n):
                    row[var(j, l)] = F.add(row[var(j, l)], J[k][j])
                if any(x != F.zero for x in row):
                    rows.append(tuple(row))
    return len(_nullspace(F, rows, n * n))


# ---------------------------------------------------------------------------
# group enumeration and generation testing
# ---------------------------------------------------------------------------


def group_order(family: str, n: int, q: int, epsilon: int = 1) -> int:
    if family == "SL":
        order = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            order *= q**i - 1
        return order
    if family == "Sp":
        m = n // 2
        order = q ** (m * m)
        for i in range(1, m + 1):
            order *= q ** (2 * i) - 1
        return order
    if family in ("SO", "Spin8"):
        if n % 2:
            m = n // 2
            order = q ** (m * m)
            for i in range(1, m + 1):
                order *= q ** (2 * i) - 1
            return order
        m = n // 2
        order = q ** (m * (m - 1)) * (q**m - epsilon)
        for i in range(1, m):
            order *= q ** (2 * i) - 1
        return order
    raise UnsupportedGroup(f"no order formula for {family}")


def projective_order(family: str, n: int, q: int) -> int:
    if family == "SL":
        return group_order(family, n, q) // gcd(n, q - 1)
    if family == "Sp":
        return group_order(family, n, q) // gcd(2, q - 1)
    raise UnsupportedGroup("projective order implemented for SL and Sp")


def standard_generators(family: str, n: int, q: int) -> list[GFMatrix]:
    F = _field(q)
    if family == "SL":
        gens = []
        adders = [F.one]
        if F.k > 1:
            # a field generator makes the additive span the whole field
            adders.append(F.coerce(tuple([0, 1] + [0] * (F.k - 2))))
        for i in range(n - 1):
            for (a, b) in ((i, i + 1), (i + 1, i)):
                for val in adders:
                    ent = [list(row) for row in _identity(F, n)]
                    ent[a][b] = val
                    gens.append(GFMatrix(q, ent))
        return gens
    if family == "Sp":
        # symplectic transvections x -> x + B(x, v) v over 0/1 vectors v
        J = [[F.zero] * n for _ in range(n)]
        m = n // 2
        for i in range(m):
            J[i][m + i] = F.one
            J[m + i][i] = F.neg(F.one)
        J = tuple(tuple(row) for row in J)
        Jt = _transpose(J)
        gens = []
        for mask in range(1, 2**n):
            v = tuple(F.one if (mask >> i) & 1 else F.zero for i in range(n))
            if sum(1 for x in v if x != F.zero) > 2:
                continue
            w = _mat_vec(F, Jt, v)
            ent = [
                [
                    F.add(
                        F.one if i == j else F.zero, F.mul(v[i], w[j])
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
            gens.append(GFMatrix(q, ent, form=J, form_kind="symplectic"))
        return gens
    raise UnsupportedGroup("standard generators implemented for SL and Sp")


def _bfs(start, moves, limit):
    """Everything reachable from ``start`` by repeated ``moves`` (a map from
    an element to its neighbours), searched breadth first; stops as soon as
    more than ``limit`` elements are found."""
    seen = {start}
    queue = [start]
    for a in queue:
        for b in moves(a):
            if b not in seen:
                seen.add(b)
                if len(seen) > limit:
                    return seen
                queue.append(b)
    return seen


def _closure_order(F: Field, gen_entries, cap: int) -> int:
    """The order of the group the invertible matrices generate, or cap + 1
    when it exceeds cap, by ``_schreier_sims`` on their action on column
    vectors, which is faithful. The base points are standard basis
    vectors, and the group is not listed."""
    identity = _identity(F, len(gen_entries[0]))
    return _schreier_sims(
        gen_entries,
        identity,
        mul=lambda a, b: _mat_mul(F, b, a),
        inv=partial(_mat_inv, F),
        image=partial(_mat_vec, F),
        moved=lambda g: next((e for e, col in zip(identity, zip(*g)) if col != e), None),
        cap=cap,
    )


def group_closure(generators: Iterable[GFMatrix], cap: int = 10**6):
    """(size, truncated) of the group the invertible matrices generate:
    (its order, False), or (cap + 1, True) when the order exceeds cap. The
    order comes from ``_closure_order``, and the group is not listed.
    Generators of different q or n, or singular ones, raise SchemaError."""
    gens = list(generators)
    if not gens:
        return 1, False
    if len({(g.q, g.n) for g in gens}) > 1:
        raise SchemaError("generators must share the field and the dimension")
    F = gens[0].field
    if any(_rank(F, g.entries) < g.n for g in gens):
        raise SchemaError("generators must be invertible")
    order = _closure_order(F, [g.entries for g in gens], cap)
    return (order, False) if order <= cap else (cap + 1, True)


def _projective_perm(F: Field, g) -> tuple:
    """The permutation the matrix g induces on the points of
    P^{n-1}(GF(q)) (``Field.projective_points``): point i goes to point
    perm[i]. Its kernel, on invertible matrices, is the scalars."""
    points, index = F.projective_points(len(g))
    red = F.red
    return tuple([index[tuple([red[sum(map(mul, row, v))] for row in g])] for v in points])


def _perm_mul(a, b) -> tuple:
    """The permutation a, then b."""
    return tuple(map(b.__getitem__, a))


def _closure_set(perms, cap: int) -> set:
    """The group the permutations generate, listed breadth first; raises
    GroupTooLarge when it has more than ``cap`` elements."""
    identity = tuple(range(len(perms[0])))
    seen = _bfs(identity, lambda a: [_perm_mul(a, g) for g in perms], cap)
    if len(seen) > cap:
        raise GroupTooLarge(f"closure exceeds cap {cap}")
    return seen


def _perm_inv(a) -> list:
    return sorted(range(len(a)), key=a.__getitem__)


def _conjugate(a, g, g_inv) -> tuple:
    """g^-1, then a, then g."""
    return tuple(map(g.__getitem__, map(a.__getitem__, g_inv)))


def _commute(a, b) -> bool:
    return all(map(eq, map(a.__getitem__, b), map(b.__getitem__, a)))


def _schreier_sims(gens, identity, mul, inv, image, moved, cap=inf) -> int:
    """Order of the group generated by ``gens``, acting faithfully on some
    points, by deterministic Schreier–Sims (Sims 1970) in Knuth's
    incremental form (Knuth 1991; Seress, *Permutation Group Algorithms*,
    2003, sec. 4.2). The group is given by its operations: mul(a, b) is a,
    then b; image(g, p) is the point g sends p to; moved(g) is a point g
    moves, or None when g is the identity.

    Level k of the stabiliser chain has a base point, the generators added
    at that level (they fix the earlier base points) and a transversal:
    for each point of the base point's orbit, an element taking the base
    point there, with its inverse. Each new generator extends the orbit;
    each Schreier generator (transversal element times generator, divided
    by the transversal element of its image) is sifted into the next
    level and added there when it does not sift to the identity. The
    order is the product of the orbit lengths. That product never exceeds
    the order while the chain grows, so once it exceeds cap the answer is
    cap + 1."""
    base: list = []
    added: list = []
    transversal: list = []
    order = 1  # the product of the orbit lengths
    # (k, g, True): add g to level k unless it sifts to the identity;
    # (k, g, False): g lies in level k's group; extend the orbit by its
    # image of the base point, or sift its Schreier generator into level k + 1
    work = [(0, g, True) for g in gens]
    while work:
        k, g, new = work.pop()
        if not new:
            point = image(g, base[k])
            level = transversal[k]
            u = level.get(point)
            if u is None:
                order = order // len(level) * (len(level) + 1)
                if order > cap:
                    return cap + 1
                level[point] = (g, inv(g))
                work += [(k, mul(g, s), False) for s in added[k]]
            elif u[0] != g:
                work.append((k + 1, mul(g, u[1]), True))
            continue
        h = g
        for b, level in zip(base[k:], transversal[k:]):
            point = image(h, b)
            if point != b:
                u = level.get(point)
                if u is None:
                    break
                h = mul(h, u[1])
        else:
            point = moved(h)
            if point is None:
                continue
            if k == len(base):
                base.append(point)
                added.append([])
                transversal.append({point: (identity, identity)})
        added[k].append(g)
        work += [(k, mul(u, g), False) for u, _ in transversal[k].values()]
    return order


def _perm_group_order(gens) -> int:
    """Order of the group generated by permutations of range(N), each the
    sequence of its images, by ``_schreier_sims``. Permutations are lists
    here: short tuples would fill the interpreter's tuple free lists."""
    if not gens:
        return 1
    return _schreier_sims(
        [list(g) for g in gens],
        list(range(len(gens[0]))),
        mul=lambda a, b: [*map(b.__getitem__, a)],
        inv=_perm_inv,
        image=list.__getitem__,
        moved=lambda g: next((x for x, y in enumerate(g) if x != y), None),
    )


def _generates(perms, order: int) -> bool:
    """True iff the permutations generate a group of the given order, by
    Schreier–Sims (``_perm_group_order``). Callers pass the permutations
    some matrices induce on P^{n-1}(GF(q)) and the order of PG = G/Z, the
    image of G there, so the answer is whether the matrices generate G
    modulo its centre."""
    return _perm_group_order(perms) == order


def _orders_mod_center(elements) -> list:
    """(a, order of a) for every a != 1 of a group of permutations, in
    sorted order. For PG that is the order modulo the centre of the
    matrices a comes from. One power walk a, a^2, ..., a^k, which stops
    when a^(k+1) = a, so that a^k = 1, serves all of these powers: a^j has
    order k / gcd(j, k)."""
    order: dict = {}
    for a in elements:
        if a in order:
            continue
        powers = [a]
        while (b := _perm_mul(powers[-1], a)) != a:
            powers.append(b)
        k = len(powers)
        for j, x in enumerate(powers, 1):
            order[x] = k // gcd(j, k)
    return sorted((a, k) for a, k in order.items() if k > 1)


class _GroupData:
    """The group G generated by ``standard_generators(family, n, q)``: its
    order, by Schreier–Sims on vectors, and the permutations its generators
    induce on the points of P^{n-1}(GF(q)), which generate PG = G/Z. PG is
    the only group listed, when a probability first asks for it; the
    matrices of G never are."""

    def __init__(self, family: str, n: int, q: int, cap: int):
        self.cap = cap
        F = _field(q)
        gen_entries = [g.entries for g in standard_generators(family, n, q)]
        self.order = _closure_order(F, gen_entries, cap)
        if self.order > cap:
            raise GroupTooLarge(f"closure exceeds cap {cap}")
        self.gen_perms = [_projective_perm(F, g) for g in gen_entries]
        self.pg_order = _perm_group_order(self.gen_perms)

    @cached_property
    def pg_elements(self) -> set:
        """PG, listed breadth first over products of permutations."""
        return _closure_set(self.gen_perms, self.cap)

    @cached_property
    def pg_orders(self) -> list:
        """(a, order of a) for every a != 1 of PG, in sorted order."""
        return _orders_mod_center(self.pg_elements)


@lru_cache(maxsize=8)
def _group_data(family: str, n: int, q: int, cap: int) -> _GroupData:
    return _GroupData(family, n, q, cap)


def estimate_generation_probability(
    groupspec: tuple, r: int, s: int, trials: int, seed: int, cap: int = 10**6
):
    """(hits, trials): Monte Carlo estimate of the probability that a random
    (order-r, order-s mod center) pair generates the group modulo its center.
    Deterministic given (seed, trials); per-trial RNG streams.

    x and y are drawn from PG = G/Z, as permutations of the points of
    P^{n-1}(GF(q)) (``_GroupData.pg_orders``). Each element of PG is a
    coset of |Z| matrices of one order modulo the centre, so this draw has
    the distribution of a draw from G. Pairs are memoised, for one call,
    and ``_generates`` tests whether a pair generates PG."""
    family, n, q = groupspec
    data = _group_data(family, n, q, cap)
    xr = [a for a, k in data.pg_orders if k == r]
    xs = [a for a, k in data.pg_orders if k == s]
    if not xr or not xs:
        raise NotApplicable(f"no elements of order {r} or {s} mod center")
    cache: dict = {}
    hits = 0
    for t in range(trials):
        rng = random.Random(seed * 1000003 + t)
        key = (xr[rng.randrange(len(xr))], xs[rng.randrange(len(xs))])
        if key not in cache:
            cache[key] = _generates(key, data.pg_order)
        hits += cache[key]
    return hits, trials


def exact_generation_probability(
    groupspec: tuple, r: int, s: int, cap: int = 10**6
) -> Fraction:
    """Exact probability over all (order-r, order-s mod center) pairs.

    It is computed in PG = G/Z, listed as permutations of the points of
    P^{n-1}(GF(q)): each element of PG is one scalar coset of G, so the
    pairs of G are those of PG, each |Z|^2 times, and the order of x
    modulo the centre is the order of its permutation. Conjugacy
    reduction on the first element and centraliser-orbit reduction on the
    second leave one ``_generates`` call per pair of orbits."""
    family, n, q = groupspec
    data = _group_data(family, n, q, cap)
    xr = [a for a, k in data.pg_orders if k == r]
    xs = [a for a, k in data.pg_orders if k == s]
    if not xr or not xs:
        raise NotApplicable(f"no elements of order {r} or {s} mod center")
    gen_pairs = [(g, _perm_inv(g)) for g in data.gen_perms]

    # conjugacy classes inside xr
    remaining = set(xr)
    classes = []
    while remaining:
        rep = min(remaining)
        orbit = _bfs(rep, lambda a: [_conjugate(a, *g) for g in gen_pairs], len(xr))
        classes.append((rep, len(orbit)))
        remaining -= orbit
    hit_pairs = 0
    for rep, class_size in classes:
        cent = [(g, _perm_inv(g)) for g in data.pg_elements if _commute(g, rep)]
        unseen = set(xs)
        while unseen:
            y = min(unseen)
            orbit = {_conjugate(y, *g) for g in cent}
            unseen -= orbit
            if _generates([rep, y], data.pg_order):
                hit_pairs += class_size * len(orbit)
    return Fraction(hit_pairs, len(xr) * len(xs))


# ---------------------------------------------------------------------------
# invariant subspaces
# ---------------------------------------------------------------------------


def _polarization(F: Field, form, kind: str):
    n = len(form)
    if kind == "quadratic":
        return tuple(
            tuple(F.add(form[i][j], form[j][i]) for j in range(n)) for i in range(n)
        )
    return form


def _is_singular_vector(F: Field, form, v) -> bool:
    return not F.red[sum(map(mul, v, _mat_vec(F, form, v)))]


def invariant_subspace_count(
    m: GFMatrix, k: int, type: str = "totally_singular", budget: int = 2_000_000
) -> int:
    """Exact number of m-invariant k-dimensional subspaces of the given type.

    Builds invariant subspaces dimension by dimension through stable flags
    (valid whenever the characteristic polynomial of m splits over GF(q),
    which is checked). type "any" counts all invariant subspaces.
    """
    F = m.field
    n = m.n
    if not 0 <= k <= n:
        raise SchemaError("k out of range")
    if type not in ("totally_singular", "any"):
        raise SchemaError(f"unknown subspace type {type!r}")
    if type == "totally_singular" and m.form is None:
        raise SchemaError("totally singular counting needs a form-tagged matrix")
    bil = _polarization(F, m.form, m.form_kind) if m.form is not None else None
    # jordan_type raises NonSplit when stable flags would not be exhaustive
    eigenvalues = list(jordan_type(m).keys())
    shifts = {
        lam: _mat_sub(
            F,
            m.entries,
            tuple(
                tuple(lam if i == j else F.zero for j in range(n)) for i in range(n)
            ),
        )
        for lam in eigenvalues
    }
    elems = F.elements()
    nonzero = [x for x in elems if x != F.zero]

    current = {(): None}
    visited = 0
    for _dim in range(k):
        nxt = {}
        for basis in current:
            rows_u = list(basis)
            for lam in eigenvalues:
                shift = shifts[lam]
                # v with (m - lam) v in U: nullspace of [shift | -u_basis]
                aug_rows = []
                for i in range(n):
                    row = list(shift[i]) + [F.neg(u[i]) for u in rows_u]
                    aug_rows.append(tuple(row))
                sol = _nullspace(F, aug_rows, n + len(rows_u))
                # candidate vectors are the v-parts, modulo U
                cand_rows = [v[:n] for v in sol]
                space, _ = _rref(F, cand_rows + rows_u)
                # a complement of U inside the solution space, built greedily:
                # v is kept when it enlarges the span of U and the kept vectors
                span, ext_basis = rows_u, []
                for v in space:
                    grown, _ = _rref(F, span + [v])
                    if len(grown) > len(span):
                        span = grown
                        ext_basis.append(v)
                t = len(ext_basis)
                if t == 0:
                    continue
                # lines of the extension space: normalized coefficient tuples
                def coeff_tuples(depth):
                    if depth == 0:
                        yield ()
                        return
                    for rest in coeff_tuples(depth - 1):
                        for c in elems:
                            yield (c,) + rest

                ext_cols = _transpose(ext_basis)
                for lead in range(t):
                    for tail in coeff_tuples(t - lead - 1):
                        coeffs = (F.zero,) * lead + (F.one,) + tail
                        v = _mat_vec(F, ext_cols, coeffs)
                        if type == "totally_singular":
                            if not _is_singular_vector(F, m.form, v):
                                continue
                            bv = _mat_vec(F, bil, v)
                            if any(F.red[sum(map(mul, u, bv))] for u in rows_u):
                                continue
                        new_rows, _ = _rref(F, rows_u + [v])
                        key = tuple(new_rows)
                        if key not in nxt:
                            nxt[key] = None
                            visited += 1
                            if visited > budget:
                                raise EnumerationTooLarge(
                                    f"more than {budget} invariant subspaces visited"
                                )
        current = nxt
    return len(current)
