"""Brute-force verification layer over small finite fields.

Everything here is independent of the symbolic machinery: explicit matrices,
exact linear algebra, and exhaustive or Monte Carlo generation tests, which
compare the order of the generated group (Schreier–Sims on the points of
projective space) with that of PG = G/Z, measured by its own listing: PG is
the only group ever listed, breadth first, as permutations of those points.
A group of matrices is never listed: Schreier–Sims measures it on its
nonzero vectors, as permutations when there are at most 256 of them and as
matrices otherwise. A permutation is the bytes of its images, composed,
inverted and conjugated by the C-level ``bytes.translate`` and
``bytes.maketrans``; that caps projective space at 256 points, more than
any G/Z of order <= 10^6 acts on. Generation does not change under
conjugation, so the exact probabilities and Monte Carlo share one pair
test, ``_pair_orbits``, run once per orbit of PG on pairs: the least
element of a class (``_conjugacy_class``) with the least element of an
orbit of its centraliser (``_centralizer``).

The kernels read a matrix as its sparse rows, ``GFMatrix.rows``, dicts
column -> nonzero element; ``kron`` and ``induced_matrix`` build only
those, and the dense ``entries`` is built on first read for the callers
that want it: group closures, projective permutations and the form check.
All elimination is one sparse forward pass, ``_forward``: dict rows in,
{pivot column: row} out, each row 1 at its pivot and 0 left of it. Ranks
read its pivots alone: the rank of a matrix, of g - 1 on S^2 V or the
exterior square, and every level of a Jordan type, the rank of
(g - lam)^k from the images under g - lam of the forward rows of
(g - lam)^(k-1). ``_echelon`` adds one back-substitution,
``_back_substitute``, for the reduced row echelon form, which is
canonical; the nullspace and the inverse read it. The invariant symmetric
and alternating forms are the functionals on S^2 V and the exterior
square that g fixes, and the invariant quadratic forms the polynomials in
S^2 V* that x -> gx fixes; only unipotent class matrices search for one,
since a diagonal semisimple one carries the standard form
``_standard_form``, the form of the Sp generators too. Every Lie
centraliser is a kernel: of g - 1 on S^2 V or the exterior square (Sp,
SO), or of X -> Xg - gX (SL). Invariant subspaces are found by ``_bfs``,
the breadth-first search that also lists G/Z and walks its conjugacy
classes; each subspace is keyed by canonical echelon rows, grown by the
lines of ``Field.projective_points`` in a complement read off one
nullspace, and keyed again without another elimination.
Schreier–Sims inverts each generator once: every other element is a
product of known elements and carries their inverses, whose product is
formed only when the element is kept.

Every element of GF(p^k) is one Python int, the packed coefficient vector
sum c_i * B^i of its representative polynomial over GF(p), with B a power
of two; a prime-field element is the int 0..p-1. Arithmetic is plain integer
arithmetic on packed ints followed by one lookup in the field's reduction
map ``red``, so every kernel runs the same code for prime and extension
fields, e.g. a matrix entry is ``red[sum(map(mul, row, col))]``.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import compress, count, product
from math import gcd, inf, prod
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .algebra_core import ClassDescriptor, GroupSpec, _at_least, _iterable, _unpaired_parts, _whole
from .algebra_core import conjugate_partition, is_prime, validate_class
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


# Largest field order accepted: a Field lists its q elements when built.
MAX_FIELD_ORDER = 2**16


def _factor_prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k and p prime (``is_prime``, which refuses p of
    3.3e24 and more); SchemaError for any other q. The largest k with an
    exact k-th root gives the one base p that is no perfect power."""
    if (q := _whole(q, "q")) >= 2:
        for k in range(q.bit_length() - 1, 0, -1):
            if (p := _root(q, k)) ** k == q:
                if is_prime(p):
                    return p, k
                break
    raise SchemaError(f"{q} is not a prime power")


def _root(q: int, k: int) -> int:
    """The integer part of q^(1/k), for q >= 1, by Newton's method from above."""
    x = 1 << -(-q.bit_length() // k)
    while (y := ((k - 1) * x + q // x ** (k - 1)) // k) < x:
        x = y
    return x


def _find_irreducible(p: int, k: int) -> tuple:
    """Monic irreducible polynomial of degree k over GF(p), low coeffs first."""

    def monic(d):
        """The monic polynomials of degree d, the lowest coefficient varying fastest."""
        return (low[::-1] + (1,) for low in product(range(p), repeat=d))

    def divides(b, a) -> bool:
        """True when the monic polynomial b divides a."""
        a = list(a)
        for shift in range(len(a) - len(b), -1, -1):
            if c := a[shift + len(b) - 1]:
                for i, x in enumerate(b):
                    a[shift + i] = (a[shift + i] - c * x) % p
        return not any(a)

    candidates = list(monic(k))
    if k == 2:
        # prefer x^2 + 1 when it works (nice arithmetic for GF(9))
        candidates.insert(0, (1, 0, 1))
    for c in candidates:
        # trial division by all monic polynomials of degree <= k // 2
        if not any(divides(b, c) for d in range(1, k // 2 + 1) for b in monic(d)):
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
        if (q := _whole(q, "q")) > MAX_FIELD_ORDER:
            raise SchemaError(f"fields of order above {MAX_FIELD_ORDER} are refused, got {q}")
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
        """The points of P^{n-1}(GF(q)), each the vector whose first nonzero
        coordinate is 1. Built once per n."""
        if n not in self._points:
            vectors = product(self._elements, repeat=n)
            self._points[n] = tuple(v for v in vectors if next((x for x in v if x), None) == self.one)
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
        if a == self.zero:
            if e < 0:
                raise ZeroDivisionError("inverting zero field element")
            return self.zero if e else self.one
        result = self.one
        base = a
        e %= self.q - 1
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
        """The first element of multiplicative order r in ``elements()``,
        which lists them in increasing order, or None when r does not divide
        q - 1. The elements of order r are the powers h^k, k prime to r, of
        any one of them h; h = a^((q-1)/r) is one for a fraction phi(r)/r of
        the a, and listing its powers takes at most r products."""
        if r < 1 or (self.q - 1) % r != 0:
            return None
        for a in self._elements[1:]:
            h = self.pow(a, (self.q - 1) // r)
            powers = [h]
            while powers[-1] != self.one:
                powers.append(self.mul(powers[-1], h))
            if len(powers) == r:
                return min(x for k, x in enumerate(powers, 1) if gcd(k, r) == 1)
        raise AssertionError("the multiplicative group of GF(q) is cyclic")


# callers with q from outside check it (``_whole``) first: the cache hashes q
@lru_cache(maxsize=64)
def _field(q: int) -> Field:
    return Field(q)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class GFMatrix:
    """A square matrix over GF(q), optionally tagged with a preserved form.

    form_kind: "symplectic" (skew bilinear), "symmetric" (symmetric bilinear),
    "quadratic" (upper-triangular Gram matrix of a quadratic form; its
    polarization is the associated bilinear form), or None. ``rows``, which
    the elimination kernels read, and the dense ``entries`` are each
    derived from the other on first read.
    """

    def __init__(self, q: int, entries, form=None, form_kind: Optional[str] = None):
        self.q = q
        self.field = _field(_whole(q, "q"))
        F = self.field
        # an int in [0, bound) is coerced by one lookup, as Field.coerce does
        red, bound = F.red, F.bound
        self.entries = tuple(
            tuple([red[x] if type(x) is int and 0 <= x < bound else F.coerce(x) for x in _iterable(row, "a row")])
            for row in _iterable(entries, "matrix entries")
        )
        self.n = len(self.entries)
        if any(len(row) != self.n for row in self.entries):
            raise SchemaError("matrix must be square")
        _check_dim(self.n)
        self.form = None if form is None else tuple(
            tuple(F.coerce(x) for x in _iterable(row, "a form row")) for row in _iterable(form, "form")
        )
        self.form_kind = form_kind
        if self.form is not None and form_kind is None:
            raise SchemaError("form matrix given without a form kind")
        if self.form is not None:
            _check_form_preserved(F, self.entries, self.form, form_kind)

    @classmethod
    def _reduced(cls, q: int, rows: tuple) -> "GFMatrix":
        """The matrix of n rows, dicts column < n -> nonzero element of GF(q), taken as they are."""
        m = cls.__new__(cls)
        m.q, m.field, m.rows, m.n, m.form, m.form_kind = q, _field(q), rows, len(rows), None, None
        return m

    @cached_property
    def rows(self) -> tuple:
        """One dict per row, column -> nonzero element; no kernel changes them."""
        return tuple(map(_sparse, self.entries))

    @cached_property
    def entries(self) -> tuple:
        """The rows as a tuple of n tuples of n elements."""
        zeros = (0,) * self.n
        return tuple(tuple(map(row.get, range(self.n), zeros)) for row in self.rows)

    def __eq__(self, other):
        return isinstance(other, GFMatrix) and (self.q, self.entries) == (other.q, other.entries)

    def __hash__(self):
        return hash((self.q, self.entries))

    def __repr__(self):
        return f"GFMatrix(q={self.q}, n={self.n}, form_kind={self.form_kind})"


def _check_dim(n: int) -> None:
    if n > MAX_DIM:
        raise SchemaError(f"matrix dimension {n} exceeds {MAX_DIM}")


def _identity(F: Field, n: int):
    return tuple(tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n))


def _mat_mul(F: Field, A, B):
    red = F.red
    Bt = tuple(zip(*B))
    return tuple([tuple([red[sum(map(mul, row, col))] for col in Bt]) for row in A])


def _mat_vec(F: Field, A, v):
    red = F.red
    return tuple([red[sum(map(mul, row, v))] for row in A])


def _transpose(A):
    return tuple(zip(*A))


def _shift(F: Field, rows, lam) -> list:
    """The rows of g - lam I, from g's rows, dicts column -> nonzero element."""
    red, P = F.red, F._p_digits
    out = list(map(dict, rows))
    for i, r in enumerate(out):
        if x := red[r.pop(i, 0) + P - lam]:
            r[i] = x
    return out


def _columns(rows, n: int) -> list:
    """The n columns of the matrix with the given dict rows, as dicts row -> element."""
    cols: list = [{} for _ in range(n)]
    for k, row in enumerate(rows):
        for i, x in row.items():
            cols[i][k] = x
    return cols


def _row_times(F: Field, w: dict, rows) -> dict:
    """The row vector w, a dict index -> element of at most MAX_DIM entries,
    times the matrix of the rows, dicts column -> element: the sum of
    w[i] * rows[i], as a dict column -> nonzero element."""
    red, acc = F.red, {}
    for i, x in w.items():
        for j, y in rows[i].items():
            acc[j] = acc.get(j, 0) + x * y
    return {j: y for j, s in acc.items() if (y := red[s])}


def _sparse(row) -> dict:
    """The dense row as a dict column -> nonzero element, picked out at C level."""
    return dict(zip(compress(count(), row), filter(None, row)))


def _forward(F: Field, rows, form: dict) -> dict:
    """Forward elimination of the rows into ``form``, {pivot column: row}
    with each row 1 at its pivot and 0 left of it, which it returns. A row
    (a dict column -> nonzero element, or a dense sequence) subtracts the
    pivot row of its first nonzero column while there is one, and what is
    left, scaled, is the row of a new pivot. Rows go in decreasing order of
    their first column, so, in an empty form, one whose first column is no
    pivot is left of every pivot: triangular and banded systems take no
    subtraction. A dict row is copied before its first subtraction and is
    never changed; one that takes none may be a row of the form."""
    red, P = F.red, F._p_digits
    pending = [r for row in rows if (r := row if isinstance(row, dict) else _sparse(row))]
    pending.sort(key=min, reverse=True)
    for r in pending:
        t = 0
        while r:
            c = min(r)
            if not (x := red[r[c]]):
                del r[c]  # only after a subtraction: a row holds nonzero elements
                continue
            if (e := form.get(c)) is None:
                break
            if not t:
                r = dict(r)
            nx = red[P - x]
            # e is 1 at c: this leaves x - x at c, deleted below
            for j, y in e.items():
                r[j] = r.get(j, 0) + nx * y
            del r[c]
            t += 1
            if t % (MAX_DIM - 1) == 0:  # sums of more products could carry
                r = {j: red[s] for j, s in r.items()}
        else:
            continue
        if t:  # a row that took no step holds its own entries, nonzero elements
            r = {j: y for j, s in r.items() if (y := red[s])}
        if x != F.one:
            ix = F.inv(x)
            r = {j: red[ix * y] for j, y in r.items()}
        form[c] = r
    return form


def _back_substitute(F: Field, form: dict, new) -> dict:
    """The reduced echelon form of a forward form (``_forward``), in place,
    when its rows at pivots outside ``new`` already vanish at each other's
    pivots. In decreasing order of pivot, a row nonzero at pivots right of
    its own (only new ones, for an old row) subtracts those multiples of
    their rows; these are reduced by then, so one pass clears them all."""
    red, P = F.red, F._p_digits
    # a row right of every new pivot is zero there, and reduced
    top = max(new, default=-1)
    for d in sorted(form, reverse=True):
        if d > top:
            continue
        row = form[d]
        hits = row.keys() & (form.keys() if d in new else new)
        hits.discard(d)
        if hits:
            # form[c] is 1 at c: this leaves x - x at each c
            form[d] = _row_times(F, {d: 1} | {c: red[P - row[c]] for c in hits}, form)
    return form


def _echelon(F: Field, rows, base: Optional[dict] = None) -> dict:
    """The reduced echelon form of the rows, and of the rows of the form
    ``base`` when given (it is left as it is): {pivot column: row}, each row
    a dict column -> nonzero element with 1 at its pivot and 0 at every
    other pivot column. A row may be such a dict or a dense sequence. It is
    canonical: ``_forward`` into a copy of base, then ``_back_substitute``."""
    form = _forward(F, rows, dict(base or {}))
    return _back_substitute(F, form, form.keys() - base.keys() if base else form.keys())


def _rank(F: Field, rows) -> int:
    """The number of pivots, which the forward pass alone gives."""
    return len(_forward(F, rows, {}))


def _nullspace(F: Field, rows, ncols: int):
    """Basis of {v : A v = 0} for the matrix with the given rows, one vector
    for each non-pivot column fc: 1 at fc, and minus the pivot rows' entries
    of column fc at their pivots."""
    form = _echelon(F, rows)
    basis = []
    for fc in range(ncols):
        if fc in form:
            continue
        v = [F.zero] * ncols
        v[fc] = F.one
        for pc, row in form.items():
            if fc in row:
                v[pc] = F.neg(row[fc])
        basis.append(tuple(v))
    return basis


def _mat_inv(F: Field, A):
    """The inverse, from the reduced echelon form of [A | I]."""
    n = len(A)
    form = _echelon(F, [tuple(row) + e for row, e in zip(A, _identity(F, n))])
    if max(form) >= n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(form[i].get(n + j, F.zero) for j in range(n)) for i in range(n))


def _polarization(F: Field, form, kind: str):
    n = len(form)
    if kind == "quadratic":
        return tuple(tuple(F.add(form[i][j], form[j][i]) for j in range(n)) for i in range(n))
    return form


def _is_singular_vector(F: Field, form, v) -> bool:
    return not F.red[sum(map(mul, v, _mat_vec(F, form, v)))]


def _check_form_preserved(F: Field, g, form, kind: str) -> None:
    if kind not in ("symplectic", "symmetric", "quadratic"):
        raise SchemaError(f"unknown form kind {kind!r}")
    h = _mat_mul(F, _mat_mul(F, _transpose(g), form), g)
    if kind == "quadratic":
        # Q(gx) = Q(x) iff g^T F g - F is alternating: the diagonals and the polarizations agree
        same_diagonal = all(h[i][i] == form[i][i] for i in range(len(h)))
        if not same_diagonal or _polarization(F, h, kind) != _polarization(F, form, kind):
            raise SchemaError("matrix does not preserve the quadratic form")
    elif h != form:
        raise SchemaError("matrix does not preserve the declared form")


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
        # rank((m - lam)^k): the row space of N^k is that of N^(k-1) times
        # N, spanned by the images of the forward rows of N^(k-1)
        N = _shift(F, m.rows, lam)
        form = _forward(F, N, {})
        ranks = [n, len(form)]
        while ranks[-1] != ranks[-2]:
            form = _forward(F, [_row_times(F, w, N) for w in form.values()], {})
            ranks.append(len(form))
        mult = n - ranks[1]
        if mult == 0:
            continue
        # rank N^(s-1) - rank N^s blocks have size at least s
        partition = conjugate_partition([a - b for a, b in zip(ranks, ranks[1:])])
        result[lam] = partition
        accounted += sum(partition)
    if eigenvalues is None and accounted != n:
        raise NonSplit("characteristic polynomial does not split over GF(q)")
    return result


def fixed_space_dim(m: GFMatrix) -> int:
    F = m.field
    return m.n - _rank(F, _shift(F, m.rows, F.one))


# ---------------------------------------------------------------------------
# induced actions
# ---------------------------------------------------------------------------


def _square_images(F: Field, columns, wedge: bool, lam=0) -> list:
    """The columns of g - lam on S^2 V, or on the exterior square when
    ``wedge``: the images of the basis e_i e_j, i <= j (e_i ^ e_j, i < j), in
    lexicographic order, as dicts position -> nonzero coefficient, read off
    g's columns, dicts row -> nonzero element. The term g_ki g_lj e_k e_l of
    g(e_i) g(e_j) lands on e_k e_l = e_l e_k, or on e_k ^ e_l = -(e_l ^ e_k)."""
    red, P, n = F.red, F._p_digits, len(columns)
    basis = [(k, l) for k in range(n) for l in range(k + wedge, n)]
    pos = {b: t for t, (k, l) in enumerate(basis) for b in ((k, l), (l, k))}
    # column i as (k, g_ki, +-g_ki), the sign of g_ki g_lj on e_l e_k or e_l ^ e_k, l < k
    cols = [[(k, x, red[P - x] if wedge else x) for k, x in col.items()] for col in columns]
    images = []
    for t, (i, j) in enumerate(basis):
        acc = {t: P - lam} if lam else {}
        for k, x, sx in cols[i]:
            for l, y, _ in cols[j]:
                if (c := pos.get((k, l))) is not None:
                    acc[c] = acc.get(c, 0) + (x if k <= l else sx) * y
        images.append({c: x for c, s in acc.items() if (x := red[s])})
    return images


def induced_matrix(m: GFMatrix, functor: str) -> GFMatrix:
    """The action of m on V (x) V ("tensor" or "tensor_square"), on the
    exterior square ("wedge2", basis e_i ^ e_j, i < j) or on the symmetric
    square ("sym2", basis e_i e_j, i <= j)."""
    if functor in ("tensor", "tensor_square"):
        return kron(m, m)
    if functor not in ("wedge2", "sym2"):
        raise NotApplicable(f"unknown functor {functor!r}")
    wedge = functor == "wedge2"
    d = m.n * (m.n + 1 - 2 * wedge) // 2
    _check_dim(d)
    return GFMatrix._reduced(m.q, tuple(_columns(_square_images(m.field, _columns(m.rows, m.n), wedge), d)))


def kron(m1: GFMatrix, m2: GFMatrix) -> GFMatrix:
    """Kronecker (tensor) product of two matrices over the same field."""
    if m1.q != m2.q:
        raise SchemaError("tensor factors must live over the same field")
    _check_dim(m1.n * m2.n)
    red, n2 = m1.field.red, m2.n
    # a product of nonzero elements is nonzero
    rows = [{j * n2 + l: red[x * y] for j, x in ra.items() for l, y in rb.items()} for ra in m1.rows for rb in m2.rows]
    return GFMatrix._reduced(m1.q, tuple(rows))


# ---------------------------------------------------------------------------
# matrix construction from class descriptors
# ---------------------------------------------------------------------------


def _jordan_block(F: Field, size: int, eigen):
    return tuple(tuple(eigen if i == j else F.one if j == i + 1 else F.zero for j in range(size)) for i in range(size))


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


def invariant_form_matrix(entries, q: int, kind: str) -> Optional[tuple]:
    """A nondegenerate form of the given kind preserved by the matrix, or
    None when no such form exists.

    The invariant symmetric and alternating forms are the functionals on
    S^2 V and the exterior square that g fixes: the equations are the
    columns of g - 1 there. The invariant quadratic forms are the
    polynomials in S^2 V* that x -> gx fixes: the equations are the rows of
    S^2(g^T) - 1, on the coefficients of the monomials x_k x_l, k <= l.
    For "quadratic" the returned Gram matrix is upper triangular and its
    polarization has the maximal possible rank (n, or n - 1 when n is odd
    in characteristic 2, in which case the quadratic form must not vanish
    on the radical line).
    """
    if kind not in ("symplectic", "symmetric", "quadratic"):
        raise SchemaError(f"unknown form kind {kind!r}")
    m = GFMatrix(q, entries)
    F, g = m.field, m.rows
    n = len(g)
    wedge, quadratic = kind == "symplectic", kind == "quadratic"
    # the basis of _square_images: e_k e_l, k <= l, or e_k ^ e_l, k < l
    pairs = [(k, l) for k in range(n) for l in range(k + wedge, n)]
    if quadratic:
        # the coefficient of x_k x_l is the Gram entry X[k][l]; g^T's columns are g's rows
        rows = _columns(_square_images(F, g, False, F.one), len(pairs))
        cells = pairs
    else:
        # the value on e_k e_l (e_k ^ e_l) is X[l][k] = X[k][l] (= -X[k][l]),
        # numbered in the row-major order of X's lower triangle
        cells = sorted((l, k) for k, l in pairs)
        at = {(k, l): c for c, (l, k) in enumerate(cells)}
        rows = [{at[pairs[r]]: x for r, x in col.items()} for col in _square_images(F, _columns(g, n), wedge, F.one)]
    basis = _nullspace(F, rows, len(pairs))
    if not basis:
        return None

    def unflatten(v):
        X = [[F.zero] * n for _ in range(n)]
        for (i, j), x in zip(cells, v):
            X[i][j] = x
            if not quadratic:
                X[j][i] = F.neg(x) if wedge else x
        return tuple(map(tuple, X))

    def good(X):
        if not quadratic:
            return _rank(F, X) == n
        pol = _polarization(F, X, kind)
        want = n if (n % 2 == 0 or F.p != 2) else n - 1
        if _rank(F, pol) < want:
            return False
        # the quadratic form must not vanish on the radical of the polarization
        return want == n or not any(_is_singular_vector(F, X, v) for v in _nullspace(F, pol, n))

    for v in basis:
        X = unflatten(v)
        if good(X):
            return X
    rng = random.Random(0xC0FFEE)
    elems = F.elements()
    columns = _transpose(basis)
    for _ in range(2000):
        coeffs = [elems[rng.randrange(len(elems))] for _ in basis]
        X = unflatten(_mat_vec(F, columns, coeffs))
        if good(X):
            return X
    return None


# Most candidate values ``_assign_labels`` tries before it refuses a class
_MAX_LABEL_TRIES = 10_000


def _assign_labels(F: Field, pat) -> dict:
    """A value in GF(q) for every label of ``pat``, of the order its tag asks
    for and distinct from 0, +-1 and every other eigenvalue, a pair label's
    inverse included; the last free label (SL) makes the eigenvalues
    multiply to 1. A depth-first search tries each label's candidates in
    their order and backs up when a later label has none left, so it finds
    the greedy choice whenever that exists. Uninstantiable when there is no
    assignment, or after ``_MAX_LABEL_TRIES`` values."""
    labels = pat.pairs + pat.free
    pairs = {lab for lab, _ in pat.pairs}
    tries = count(1)

    def candidates(lab):
        rel = pat.relation_of(lab)
        if not rel:
            return F.elements()
        k = 4 if rel == "square_is_minus_one" else int(rel.split(":", 1)[1])
        h = F.element_of_order(k)
        if h is None:
            raise Uninstantiable(f"no element of order {k} in GF(q)")
        # the elements of order k are the powers h^j with gcd(j, k) = 1
        return [F.pow(h, j) for j in range(1, k + 1) if gcd(j, k) == 1]

    values = [candidates(lab) for lab, _ in labels]

    def extend(i: int, det, used: set) -> Optional[dict]:
        """Labels i, i + 1, ... avoiding ``used``, det the product so far; None if none fit."""
        if i == len(labels):
            return {}
        lab, mult = labels[i]
        for a in values[i]:
            if a in used or lab in pairs and F.inv(a) in used:
                continue
            d = det if lab in pairs else F.mul(det, F.pow(a, mult))
            if pat.free and i == len(labels) - 1 and d != F.one:
                continue
            if next(tries) > _MAX_LABEL_TRIES:
                raise Uninstantiable(f"no distinct eigenvalues found in {_MAX_LABEL_TRIES} tries")
            if (rest := extend(i + 1, d, used | {a, F.inv(a) if lab in pairs else a})) is not None:
                return {lab: a, **rest}
        return None

    minus = F.neg(F.one)
    if (assigned := extend(0, F.pow(minus, pat.mult_minus_one), {F.zero, F.one, minus})) is None:
        det = " of determinant 1" if pat.free else ""
        raise Uninstantiable(f"not enough roots of unity in GF(q) for distinct eigenvalues{det}")
    return assigned


def _standard_form(F: Field, n: int, kind: str) -> tuple:
    """The form of the kind on the basis e_1..e_m, f_1..f_m (m = n // 2) and
    z at odd n: B(e_i, f_i) = 1, B(f_i, e_i) = -1 ("symplectic") or 1
    ("symmetric"), B(z, z) = 1; for "quadratic" the upper-triangular Gram
    matrix of sum x_i y_i (+ z^2). Every diag(A, A^-1, +-1) preserves it
    (Taylor, *The Geometry of the Classical Groups*, 1992)."""
    m = n // 2
    back = {"symplectic": F.neg(F.one), "symmetric": F.one, "quadratic": F.zero}[kind]
    X = [[F.zero] * n for _ in range(n)]
    for i in range(m):
        X[i][m + i], X[m + i][i] = F.one, back
    if n % 2:
        X[-1][-1] = F.one
    return tuple(map(tuple, X))


_FORM_KIND = {"Sp": "symplectic", "SO": "symmetric", "Spin8": "symmetric", "SL": None}


def matrix_from_class(group: GroupSpec, cls: ClassDescriptor, q: int) -> GFMatrix:
    """A matrix of the class over GF(q), tagged with an invariant form for
    Sp, SO and Spin8: ``unipotent_matrix`` of a unipotent class's partition;
    for a semisimple class diag(A, A^-1, +-1, free labels), A holding half of
    the 1s and of the -1s and each pair label, and ``_standard_form``."""
    target = group.class_group()
    cls = validate_class(group, cls)
    F = _field(_whole(q, "q"))
    n = target.n
    kind = _FORM_KIND[target.family]
    if cls.kind == "unipotent":
        if F.p != (target.p or F.p):
            raise Uninstantiable("unipotent classes need q of the same characteristic")
        if target.p == 0 and any(a > F.p for a in cls.unip.partition):
            raise Uninstantiable("Jordan blocks larger than p have composite order")
        return unipotent_matrix(cls.unip.partition, q, kind)
    pat = cls.eigen
    values = _assign_labels(F, pat)
    a, b, minus = pat.mult_one, pat.mult_minus_one, F.neg(F.one)
    half = [F.one] * (a // 2) + [minus] * (b // 2) + [values[lab] for lab, m in pat.pairs for _ in range(m)]
    diag = half + [F.inv(x) for x in half] + [F.one] * (a % 2) + [minus] * (b % 2)
    diag += [values[lab] for lab, m in pat.free for _ in range(m)]
    if target.family == "SL" and not pat.free and b % 2:
        # determinant -1: a scalar c with c^n = -1 moves the matrix into
        # SL without changing its class modulo the centre (c = -1 for odd n)
        c = next((s for s in (minus, *F.elements()) if F.pow(s, n) == minus), None)
        if c is None:
            raise Uninstantiable("no scalar in GF(q) moves the class into SL")
        diag = [F.mul(c, x) for x in diag]
    g = tuple(tuple(diag[i] if i == j else F.zero for j in range(n)) for i in range(n))
    if kind is None:
        return GFMatrix(q, g)
    kind = "quadratic" if kind == "symmetric" and F.p == 2 else kind
    return GFMatrix(q, g, form=_standard_form(F, n, kind), form_kind=kind)


def unipotent_matrix(partition: Sequence[int], q: int, form_kind: Optional[str]) -> GFMatrix:
    """Block-diagonal unipotent matrix, its Jordan blocks in decreasing
    size, with an invariant nondegenerate form of the kind (quadratic for
    "symmetric" at p = 2, none for None) found by ``invariant_form_matrix``.
    A parity rule refuses a partition without a search where it is
    necessary: Sp's for symplectic forms, SO's for symmetric and quadratic
    ones at odd p, and Sp's with one unpaired part 1 allowed for quadratic
    ones at p = 2. Every part is a positive integer."""
    partition = [_at_least(a, "a partition part", 1) for a in _iterable(partition, "partition")]
    F = _field(_whole(q, "q"))
    g = _block_diag(F, [_jordan_block(F, a, F.one) for a in sorted(partition, reverse=True)])
    if form_kind is None:
        return GFMatrix(q, g)
    kind = "quadratic" if form_kind == "symmetric" and F.p == 2 else form_kind
    # the family whose parity rule holds for the form; the search refuses unknown kinds
    family, allowed = {"symplectic": "Sp", "symmetric": "SO", "quadratic": "SO"}.get(kind, "SL"), ([],)
    if kind == "quadratic" and F.p == 2:
        # the polarization of a nondegenerate quadratic form is a nondegenerate
        # alternating form on V at even n, and at odd n on V modulo the
        # radical line, which g fixes: Sp's rule, but for one unpaired part 1
        # (n has the parity of the number of unpaired odd parts). It refuses
        # what the search refuses for every partition of n <= 8 over GF(2)
        # and GF(4)
        family, allowed = "Sp", ([], [1])
    ruled_out = _unpaired_parts(family, tuple(partition)) not in allowed
    if ruled_out or (form := invariant_form_matrix(g, q, kind)) is None:
        raise Uninstantiable("no nondegenerate invariant form over GF(q)")
    return GFMatrix(q, g, form=form, form_kind=kind)


# ---------------------------------------------------------------------------
# Lie centralizers
# ---------------------------------------------------------------------------


def centralizer_lie_dim(group: GroupSpec, m: GFMatrix) -> int:
    """Dimension of the centraliser of g = m in the Lie algebra: {X : Xg = gX,
    trace X = 0} for SL, {X : Xg = gX, X^T J + J X = 0} for Sp, SO and Spin8,
    J the nondegenerate polarization of m's form. X -> JX maps the latter onto
    the g-invariant symmetric (Sp) or skew (SO) bilinear forms, the duals of
    S^2 V and, at odd p, of the exterior square: it is n' - rank(M - I), M the
    matrix of g on that square and n' its dimension. At p = 2 skew is symmetric:
    for Sp and SO alike it counts g-invariant symmetric bilinear forms (for SO
    not Lie(O(Q)) = {X : B(Xv, v) = 0 for all v})."""
    target = group.class_group()
    if m.n != target.n:
        raise SchemaError(f"a matrix of {target.family}{target.n} is {target.n} x {target.n}, not {m.n} x {m.n}")
    F = m.field
    if target.family != "SL":
        if m.form is None:
            raise SchemaError("Sp/SO centralizer needs a form-tagged matrix")
        images = _square_images(F, _columns(m.rows, m.n), target.family != "Sp" and F.p != 2, F.one)
        return len(images) - _rank(F, images)
    # {X : Xg = gX} is the kernel of X -> Xg - gX, on X's entries numbered
    # k * n + l: (Xg - gX)_kl = sum_j X_kj g_jl - sum_i g_ki X_il; trace X
    # = 0 is one more row
    n, red, P = m.n, F.red, F._p_digits
    _check_dim(n * n)  # X's n^2 entries are the unknowns
    g_rows, g_cols = m.rows, _columns(m.rows, n)
    rows = [{i * n + i: F.one for i in range(n)}]
    for k, l in product(range(n), repeat=2):
        acc = {k * n + j: x for j, x in g_cols[l].items()}
        for i, x in g_rows[k].items():
            acc[i * n + l] = acc.get(i * n + l, 0) + P - x
        rows.append({v: y for v, s in acc.items() if (y := red[s])})
    return n * n - _rank(F, rows)


# ---------------------------------------------------------------------------
# group enumeration and generation testing
# ---------------------------------------------------------------------------


def _group_args(family: str, n: int, q: int) -> tuple[int, int]:
    """(n, q) as ints, if n is at least 2, and even for Sp, and q is a prime
    power (``_factor_prime_power``); SchemaError otherwise."""
    if (n := _at_least(n, "n", 2)) % 2 and family == "Sp":
        raise SchemaError(f"Sp needs even n, not {n}")
    p, k = _factor_prime_power(q)
    return n, p**k


def group_order(family: str, n: int, q: int, epsilon: int = 1) -> int:
    """|G(q)| for G = SL_n, Sp_n or SO_n (Spin8: SO8), of type epsilon = +-1 for SO at even n."""
    n, q = _group_args(family, n, q)
    if _whole(epsilon, "epsilon") not in (1, -1):
        raise SchemaError(f"epsilon must be 1 or -1, not {epsilon}")
    m = n // 2
    if family == "SL":
        return q ** (n * (n - 1) // 2) * prod(q**i - 1 for i in range(2, n + 1))
    if family == "Sp" or family in ("SO", "Spin8") and n % 2:
        return q ** (m * m) * prod(q ** (2 * i) - 1 for i in range(1, m + 1))
    if family in ("SO", "Spin8"):
        return q ** (m * (m - 1)) * (q**m - epsilon) * prod(q ** (2 * i) - 1 for i in range(1, m))
    raise UnsupportedGroup(f"no order formula for {family}")


def projective_order(family: str, n: int, q: int) -> int:
    if family == "SL":
        return group_order(family, n, q) // gcd(n, q - 1)
    if family == "Sp":
        return group_order(family, n, q) // gcd(2, q - 1)
    raise UnsupportedGroup("projective order implemented for SL and Sp")


def standard_generators(family: str, n: int, q: int) -> list[GFMatrix]:
    n, q = _group_args(family, n, q)
    F = _field(q)
    adders = [F.one]
    if F.k > 1:
        # 1 and a field generator: the ring they generate is the whole field
        adders.append(F.coerce(tuple([0, 1] + [0] * (F.k - 2))))
    if family == "SL":
        gens = []
        for i in range(n - 1):
            for (a, b) in ((i, i + 1), (i + 1, i)):
                for val in adders:
                    ent = [list(row) for row in _identity(F, n)]
                    ent[a][b] = val
                    gens.append(GFMatrix(q, ent))
        return gens
    if family == "Sp":
        # symplectic transvections x -> x + c B(x, v) v, c in adders, over the
        # 0/1 vectors v of support {lo, hi}, lo <= hi, in the order of their bit masks
        J = _standard_form(F, n, "symplectic")
        Jt = _transpose(J)
        gens = []
        for hi in range(n):
            for lo in (hi, *range(hi)):
                v = tuple(F.one if x in (lo, hi) else F.zero for x in range(n))
                w = _mat_vec(F, Jt, v)
                for c in adders:
                    cv = [F.mul(c, x) for x in v]
                    ent = [[F.add(F.one if i == j else F.zero, F.mul(cv[i], w[j])) for j in range(n)] for i in range(n)]
                    gens.append(GFMatrix(q, ent, form=J, form_kind="symplectic"))
        return gens
    raise UnsupportedGroup("standard generators implemented for SL and Sp")


def _closure_order(F: Field, gen_entries, cap: int) -> int:
    """The order of the group the invertible matrices generate, or cap + 1
    when it exceeds cap, by ``_schreier_sims`` on their action on column
    vectors, which is faithful. The base points are standard basis
    vectors, and the group is not listed. ``group_closure`` takes this
    route when GF(q)^n has more than 256 nonzero vectors."""
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
    (its order, False), or (cap + 1, True) when the order exceeds cap, a
    non-negative integer. The group is not listed: its order comes from
    Schreier–Sims on the action on nonzero column vectors, which is
    faithful. When GF(q)^n has at most 256 of them, each generator becomes
    the bytes of its images (``_perm_group_order``); otherwise the
    matrices themselves act (``_closure_order``). Generators of different
    q or n, or singular ones, raise SchemaError."""
    cap = _at_least(cap, "cap", 0)
    gens = list(generators)
    if not gens:
        return 1, cap == 0  # the trivial group, over the cap only when cap is 0
    if len({(g.q, g.n) for g in gens}) > 1:
        raise SchemaError("generators must share the field and the dimension")
    F = gens[0].field
    if any(_rank(F, g.entries) < g.n for g in gens):
        raise SchemaError("generators must be invertible")
    if F.q ** gens[0].n - 1 <= 256:
        vectors = list(product(F.elements(), repeat=gens[0].n))[1:]  # the zero vector is first
        index = {v: i for i, v in enumerate(vectors)}
        perms = [bytes([index[_mat_vec(F, g.entries, v)] for v in vectors]) for g in gens]
        order = _perm_group_order(perms, cap)
    else:
        order = _closure_order(F, [g.entries for g in gens], cap)
    return (order, False) if order <= cap else (cap + 1, True)


def _projective_perm(F: Field, g) -> bytes:
    """The permutation the matrix g induces on the points of
    P^{n-1}(GF(q)) (``Field.projective_points``), as bytes: point i goes
    to point perm[i]. Its kernel, on invertible matrices, is the scalars."""
    points = F.projective_points(len(g))
    index = {v: i for i, v in enumerate(points)}
    red = F.red
    perm = []
    for v in points:
        w = [red[sum(map(mul, row, v))] for row in g]
        c = F.inv(next(x for x in w if x))
        perm.append(index[tuple([red[c * x] for x in w])])
    return bytes(perm)


# the identity on 256 points, the most a permutation of bytes can move
_BYTES = bytes(range(256))


def _table(a: bytes) -> bytes:
    """x.translate(_table(a)) is x, then a, for x a permutation or a table."""
    return a + _BYTES[len(a) :]


def _bfs(start, moves) -> set:
    """Everything reachable from ``start`` by repeated ``moves`` (a map from
    an element to its neighbours), found breadth first."""
    seen = {start}
    queue = [start]
    for a in queue:
        for b in moves(a):
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return seen


def _closure_set(perms) -> set:
    """The group the permutations generate, listed breadth first."""
    tables = [_table(g) for g in perms]
    return _bfs(_BYTES[: len(perms[0])], lambda a: map(a.translate, tables))


def _conjugate(a: bytes, g: bytes, g_table: bytes) -> bytes:
    """g^-1, then a, then g: the permutation taking g[x] to g[a[x]]."""
    return bytes.maketrans(g, a.translate(g_table))[: len(a)]


def _conjugacy_class(a: bytes, gens) -> set:
    """The conjugacy class of the permutation a in the group the
    permutations ``gens`` generate, found by ``_bfs``."""
    tables = [(g, _table(g)) for g in gens]
    return _bfs(a, lambda b: (_conjugate(b, g, t) for g, t in tables))


def _centralizer(a: bytes, elements) -> list:
    """(g, _table(g)) for every g of ``elements`` that commutes with a."""
    a_table = _table(a)
    return [(g, t) for g in elements if g.translate(a_table) == a.translate(t := _table(g))]


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
    point there; both with their inverses. Each new generator extends the
    orbit; each Schreier generator (transversal element times generator,
    divided by the transversal element of its image) is sifted into the
    next level and added there when it does not sift to the identity. The
    order is the product of the orbit lengths. That product never exceeds
    the order while the chain grows, so once it exceeds cap the answer is
    cap + 1.

    inv runs once per generator. Every other element is a product of
    elements whose inverses are known, and carries the factors of its own
    inverse, which are multiplied only when it is kept (Seress, sec. 4.2)."""
    base: list = []
    added: list = []  # (generator, its inverse) for each level
    transversal: list = []
    order = 1  # the product of the orbit lengths
    # (k, g, x, y, True): add g to level k unless it sifts to the identity;
    # (k, g, x, y, False): g lies in level k's group; extend the orbit by
    # its image of the base point, or sift its Schreier generator into
    # level k + 1. g^-1 is x, then y: x alone when y is None, and x, then
    # the pair y, for a sifted Schreier generator
    work = [(0, g, inv(g), None, True) for g in gens]
    while work:
        k, g, x, y, new = work.pop()
        if not new:
            point = image(g, base[k])
            level = transversal[k]
            u = level.get(point)
            if u is None:
                order = order // len(level) * (len(level) + 1)
                if order > cap:
                    return cap + 1
                level[point] = (g, g_inv := mul(x, y))
                work += [(k, mul(g, s), s_inv, g_inv, False) for s, s_inv in added[k]]
            elif u[0] != g:
                work.append((k + 1, mul(g, u[1]), u[0], (x, y), True))
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
        added[k].append((g, g_inv := x if y is None else mul(x, mul(*y))))
        work += [(k, mul(u, g), g_inv, u_inv, False) for u, u_inv in transversal[k].values()]
    return order


def _perm_group_order(gens, cap=inf) -> int:
    """Order of the group generated by permutations of range(N), N <= 256,
    each the bytes of its images, or cap + 1 when it exceeds cap, by
    ``_schreier_sims`` on their translation tables (``_table``), which
    compose by ``bytes.translate``."""
    return _schreier_sims(
        [_table(g) for g in gens],
        _BYTES,
        mul=bytes.translate,
        inv=lambda a: bytes.maketrans(a, _BYTES),
        image=bytes.__getitem__,
        moved=lambda g: None if g == _BYTES else next(x for x, y in enumerate(g) if x != y),
        cap=cap,
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
        table = _table(a)
        powers = [a]
        while (b := powers[-1].translate(table)) != a:
            powers.append(b)
        k = len(powers)
        for j, x in enumerate(powers, 1):
            order[x] = k // gcd(j, k)
    return sorted((a, k) for a, k in order.items() if k > 1)


class _GroupData(NamedTuple):
    """PG = G/Z for the group G generated by ``standard_generators(family,
    n, q)``, from ``_group_data``. PG is the only group listed; the
    matrices of G never are. Its permutations are bytes (``_table``), and
    bytes of one length sort as tuples of ints."""

    # permutations the standard generators induce on the points of
    # P^{n-1}(GF(q)), each kept only if the listing of those kept before it
    # lacks it (Sp4(3) keeps 5 of its 10), so that listing PG and its
    # conjugacy classes takes no redundant products
    gen_perms: list
    # PG, listed breadth first over products of permutations; its size is
    # the order of PG
    pg_elements: set
    # (a, order of a) for every a != 1 of PG, in sorted order
    pg_orders: list


@lru_cache(maxsize=8)
def _group_data(family: str, n: int, q: int, cap: int) -> _GroupData:
    """The ``_GroupData`` of the group; raises GroupTooLarge before any
    permutation is built when P^{n-1}(GF(q)) has over 256 points (no G/Z of
    order <= 10^6 does) or when ``projective_order`` exceeds ``cap``."""
    if (points := (q**n - 1) // (q - 1)) > 256:
        raise GroupTooLarge(f"P^{n - 1}(GF({q})) has {points} points, over the cap 256")
    if (order := projective_order(family, n, q)) > cap:
        raise GroupTooLarge(f"G/Z has order {order}, over the cap {cap}")
    F = _field(q)
    gen_perms, elements = [], {_BYTES[:points]}
    for g in standard_generators(family, n, q):
        if (perm := _projective_perm(F, g.entries)) not in elements:
            gen_perms.append(perm)
            elements = _closure_set(gen_perms)
    if len(elements) != order:
        raise AssertionError(f"the generators give G/Z of order {len(elements)}, not {order}")
    return _GroupData(gen_perms, elements, _orders_mod_center(elements))


def _elements_of_orders(groupspec: tuple, r: int, s: int, cap: int) -> tuple:
    """(data, xr, xs): the ``_GroupData`` of the group, and its elements of
    order r and of order s modulo the centre. Raises SchemaError before any
    work unless groupspec is (family, n, q) as ``_group_args`` accepts it,
    r and s are integers and cap is a non-negative integer; raises
    NotApplicable when either list is empty."""
    try:
        family, n, q = groupspec
    except (TypeError, ValueError):
        raise SchemaError(f"a group is (family, n, q), not {groupspec!r}") from None
    (n, q), cap = _group_args(family, n, q), _at_least(cap, "cap", 0)
    r, s = _whole(r, "r"), _whole(s, "s")
    data = _group_data(family, n, q, cap)
    xr = [a for a, k in data.pg_orders if k == r]
    xs = [a for a, k in data.pg_orders if k == s]
    if not xr or not xs:
        raise NotApplicable(f"no elements of order {r} or {s} mod center")
    return data, xr, xs


def _pair_orbits(data: _GroupData) -> tuple:
    """(rep, test), the pair test of both generation probabilities.
    rep(x) is the least element of the conjugacy class of x
    (``_conjugacy_class``). test(a, y), for a = rep(x), is whether a and y
    generate PG, by one ``_generates`` per orbit of a's centraliser
    (``_centralizer``) on y, on a and the orbit's least element: generation
    does not change under conjugation. A class or an orbit is walked when
    a call first reaches it."""
    order = len(data.pg_elements)
    reps: dict = {}  # x -> the least element of its class
    answers: dict = {}  # representative a -> ({y: test(a, y)}, a's centraliser)

    def rep(x):
        if x not in reps:
            cls = _conjugacy_class(x, data.gen_perms)
            reps.update(dict.fromkeys(cls, a := min(cls)))
            answers[a] = ({}, _centralizer(a, data.pg_elements))
        return reps[x]

    def test(a, y):
        known, cent = answers[a]
        if y not in known:
            orbit = {_conjugate(y, *g) for g in cent}
            known.update(dict.fromkeys(orbit, _generates((a, min(orbit)), order)))
        return known[y]

    return rep, test


def estimate_generation_probability(
    groupspec: tuple, r: int, s: int, trials: int, seed: int, cap: int = 10**5
):
    """(hits, trials): Monte Carlo estimate of the probability that a random
    (order-r, order-s mod center) pair generates the group modulo its center.
    Deterministic given (seed, trials): one ``random.Random(seed)`` stream
    per call, and trial t takes its next two draws, x and then y; trials is
    a positive integer and seed an integer.

    x and y are drawn from PG = G/Z (``_GroupData.pg_orders``). Each of its
    elements is a coset of |Z| matrices of one order modulo the centre, so
    this draw has the distribution of a draw from G. A trial tests x's
    class representative with y (``_pair_orbits``): conjugating x there
    takes a uniform y to a uniform element of the same order, so a hit is
    as likely as for (x, y). Raises GroupTooLarge when PG has more than
    ``cap`` elements."""
    trials, seed = _at_least(trials, "trials", 1), _whole(seed, "seed")
    data, xr, xs = _elements_of_orders(groupspec, r, s, cap)
    rep, test = _pair_orbits(data)
    rng = random.Random(seed)
    return sum(test(rep(rng.choice(xr)), rng.choice(xs)) for _ in range(trials)), trials


def exact_generation_probability(
    groupspec: tuple, r: int, s: int, cap: int = 10**5
) -> Fraction:
    """Exact probability over all (order-r, order-s mod center) pairs.

    It is computed in PG = G/Z, listed as permutations of the points of
    P^{n-1}(GF(q)): each element of PG is one scalar coset of G, so the
    pairs of G are those of PG, each |Z|^2 times, and the order of x
    modulo the centre is the order of its permutation. Each class
    representative a counts its hits over every y (``_pair_orbits``), times
    the size of its class. Raises GroupTooLarge when PG has more than
    ``cap`` elements."""
    data, xr, xs = _elements_of_orders(groupspec, r, s, cap)
    rep, test = _pair_orbits(data)
    sizes = Counter(map(rep, xr))
    hits = sum(size * sum(test(a, y) for y in xs) for a, size in sizes.items())
    return Fraction(hits, len(xr) * len(xs))


# ---------------------------------------------------------------------------
# invariant subspaces
# ---------------------------------------------------------------------------


def invariant_subspace_count(m: GFMatrix, k: int, type: str = "totally_singular", budget: int = 2_000_000) -> int:
    """Exact number of m-invariant k-dimensional subspaces of the given type.

    Finds every invariant subspace of dimension at most k by ``_bfs`` from
    the zero subspace through stable flags U < U + <v> (exhaustive whenever
    the characteristic polynomial of m splits over GF(q), which is
    checked). type "any" counts all invariant subspaces. Raises
    EnumerationTooLarge when more than ``budget``, a non-negative integer,
    nonzero ones exist.
    """
    k, budget = _whole(k, "k"), _at_least(budget, "budget", 0)
    F = m.field
    n = m.n
    if not 0 <= k <= n:
        raise SchemaError("k out of range")
    if type not in ("totally_singular", "any"):
        raise SchemaError(f"unknown subspace type {type!r}")
    if type == "totally_singular" and m.form is None:
        raise SchemaError("totally singular counting needs a form-tagged matrix")
    singular, red, P = type == "totally_singular", F.red, F._p_digits
    if singular:
        # the rows of the polarization B, on which B(u, v) = 0 is the row
        # u^T B on v, and of the form X
        bil, X = (list(map(_sparse, A)) for A in (_polarization(F, m.form, m.form_kind), m.form))
    # jordan_type raises NonSplit when stable flags would not be exhaustive
    shifts = [_shift(F, m.rows, lam) for lam in jordan_type(m)]
    grown = count()

    # a subspace U is keyed by its echelon rows, each 1 at its pivot, its
    # last nonzero entry, and 0 at every other pivot; each row is sorted, so
    # pivot last, and so are the rows. grow yields the keys of the
    # invariant (totally singular) U + <v>
    def grow(key):
        if key and next(grown) >= budget:
            raise EnumerationTooLarge(f"more than {budget} invariant subspaces visited")
        if len(key) == k:
            return
        U = {row[-1][0]: dict(row) for row in key}
        for shift in shifts:
            # W = {v : (m - lam) v in U}. A vector x is in U when, at
            # every non-pivot i of U, x_i = sum_c x_c u_c[i] over U's
            # echelon rows u_c; for x = (m - lam) v that is one linear
            # condition on v per non-pivot i
            rows = [_row_times(F, {i: 1} | {c: red[P - u[i]] for c, u in U.items() if i in u}, shift)
                    for i in range(n) if i not in U]
            if singular:
                # and v orthogonal to U: B(u, v) = 0 for U's echelon rows
                rows += [_row_times(F, u, bil) for u in U.values()]
            # the nullspace vectors are W's echelon rows in that sense, 1 at
            # their last nonzero entry, a column that is no pivot of the
            # conditions, and taken here in decreasing order of it. W
            # contains U: those at pivots outside U are 0 at U's pivots and
            # span a complement, and each of its lines gives one U + v
            E = [w for w in map(_sparse, reversed(_nullspace(F, rows, n))) if max(w) not in U]
            if singular:
                # U is totally singular and v orthogonal to it: Q is Q(v)
                # on v + U, and Q(coeffs . E) = coeffs^T (E X E^T) coeffs
                EX = [_row_times(F, w, X) for w in E]
                gram = [[red[sum(a.get(j, 0) * y for j, y in w.items())] for w in E] for a in EX]
            for coeffs in F.projective_points(len(E)):
                if singular and not _is_singular_vector(F, gram, coeffs):
                    continue
                # v is 1 at the pivot p of the first row it takes, its last
                # nonzero entry: U + <v> is v and U's rows cleared at p
                v = _row_times(F, {t: c for t, c in enumerate(coeffs) if c}, E)
                p = max(v)
                basis = [v] + [_row_times(F, {0: 1, 1: red[P - u[p]]}, (u, v)) if p in u else u for u in U.values()]
                yield tuple(sorted(tuple(sorted(row.items())) for row in basis))

    return sum(len(key) == k for key in _bfs((), grow))
