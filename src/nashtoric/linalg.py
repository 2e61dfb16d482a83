"""Exact integer linear algebra on plain tuples.

Vectors are tuples of ints; matrices are row-major tuples of row tuples.
Everything is arbitrary precision, nothing here ever touches floats.
The library runs on four exact kernels, each one pass, or a closed form
where the size is small enough to write one out:

- `independent_rows`, a fraction-free echelon, answers independence, rank
  and greedy bases;
- `hermite_basis`, one xgcd pass, gives lattice bases, full-lattice tests
  and, in alternating row and column passes, the Smith form;
- `adjugate` returns the adjugate with the determinant: cofactors for
  2x2, 3x3 and 4x4, where most calls land (bases of surfaces, threefolds
  and fourfolds), and a fraction-free Gauss-Jordan pass otherwise (`det`
  reads it too);
- `maximal_minors` gives all maximal minors of a vector list from one
  Laplace sweep instead of one elimination per subset.

`det`, a reading of `adjugate`, checks every class map for ±1.
`smith_normal_form` and the integer kernels of `kernel_basis` are public
API only, thin readings of `hermite_basis`; no library path calls them.
"""

import operator
from itertools import combinations
from math import gcd, isqrt

from .errors import CharacteristicError, DimensionError


def vec(coords):
    """Integer tuple; rejects floats and other non-integral entries."""
    return tuple(map(operator.index, coords))


def vsub(a, b):
    return tuple(map(operator.sub, a, b))


def vneg(a):
    return tuple(map(operator.neg, a))


def dot(a, b):
    return sum(map(operator.mul, a, b))


def mat_vec(M, x):
    if len(M) == 2 == len(x):
        (a, b), (c, d) = M
        return (a * x[0] + b * x[1], c * x[0] + d * x[1])
    return tuple([dot(row, x) for row in M])


def mat_mul(A, B):
    """The product A·B of matrices given as tuples of rows."""
    columns = tuple(zip(*B))
    return tuple(tuple([dot(row, col) for col in columns]) for row in A)


def images(M, vectors):
    """The images M·x of the vectors, sorted. A square M of size 2 is
    written out, as in `mat_vec`: it maps the generators of most nodes of
    a surface's resolution tree, and the general loop costs 3-4 times as
    much there."""
    if len(M) == 2 == len(M[0]):
        (a, b), (c, d) = M
        out = [(a * x + b * y, c * x + d * y) for x, y in vectors]
    else:
        out = [tuple([sum(map(operator.mul, row, x)) for row in M]) for x in vectors]
    out.sort()
    return tuple(out)


def cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def columns_matrix(vectors):
    """Matrix whose j-th column is the j-th vector."""
    vectors = tuple(vectors)
    d = len(vectors[0])
    return tuple(tuple(v[i] for v in vectors) for i in range(d))


def primitive(v):
    """Divide a vector by the gcd of its entries, keeping direction."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


# the least strong pseudoprime to all of the first 13 prime bases, 2 to 41
# (Sorenson & Webster, 2017); below it those bases decide primality
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2 to 41, deterministic below
    _MR_BOUND; above it a strong Lucas test joins them, which with base 2
    is the Baillie-PSW test, with no known counterexample."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 2 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4 (Baillie & Wagstaff, 1980)."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        x %= n
        return (x + n if x % 2 else x) // 2

    # U_k, V_k and Q^k mod n, from k = 1 along the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def integer(value, name) -> int:
    """value as a plain int; any integer type but bool is read."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    return operator.index(value)


def validate_characteristic(p) -> int:
    """p as a plain int, 0 or a prime; any integer type but bool is read."""
    if isinstance(p, bool) or not hasattr(p, "__index__"):
        raise CharacteristicError(f"characteristic must be an integer, got {p!r}")
    p = operator.index(p)
    if p == 0:
        return 0
    if p < 0 or not is_prime(p):
        raise CharacteristicError(f"characteristic must be 0 or a prime, got {p}")
    return p


def det(M) -> int:
    """Exact determinant, the one `adjugate` returns; 0 for a singular M."""
    n = len(M)
    for row in M:
        if len(row) != n:
            raise DimensionError("determinant needs a square matrix")
    try:
        return adjugate(M)[1]
    except DimensionError:
        return 0


def maximal_minors(vectors):
    """Yield (indices, minor) for every d-subset of the n vectors in Z^d, in
    `combinations(range(n), d)` order: the determinant of the matrix whose
    columns are those vectors.

    One Laplace sweep: the minors on coordinates 0..k of every (k+1)-subset
    are expanded along coordinate k into the minors on 0..k-1 of its
    k-subsets, sum C(n, k+1)*(k+1) products in all. Only the previous
    level is held; the last one is yielded as it is computed.
    """
    vectors = tuple(vectors)
    n = len(vectors)
    d = len(vectors[0]) if n else 0
    bits = [1 << t for t in range(n)]
    # minors of the previous level, keyed by the bitmask of their subset
    prev = {0: 1}
    for k in range(d):
        row = [v[k] for v in vectors]
        level = {}
        for T in combinations(range(n), k + 1):
            mask = 0
            for t in T:
                mask |= bits[t]
            m = 0
            odd = k % 2
            for t in T:
                if row[t]:
                    c = row[t] * prev[mask ^ bits[t]]
                    m = m - c if odd else m + c
                odd ^= 1
            if k == d - 1:
                yield T, m
            else:
                level[mask] = m
        prev = level


def independent_rows(M, p: int = 0):
    """Indices of the rows of M independent of the rows before them, over Q
    or mod p when p > 0, stopping once there are as many as columns.

    A row is reduced by the kept rows, each of which vanishes on the pivot
    columns of those before it, by fraction-free steps r[c]*x - x[c]*r (mod
    p when p > 0), and kept when something is left, over Q divided by its
    content.
    """
    kept = []
    rows = []
    for i, row in enumerate(M):
        if len(kept) == len(row):
            break
        x = [a % p for a in row] if p else list(row)
        for c, r in rows:
            t = x[c]
            if t:
                x = [r[c] * a - t * b for a, b in zip(x, r)]
                if p:
                    x = [a % p for a in x]
        for c, a in enumerate(x):
            if a:
                rows.append((c, x if p else primitive(x)))
                kept.append(i)
                break
    return tuple(kept)


def rank(M) -> int:
    return len(independent_rows(M))


def xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def smith_normal_form(M):
    """Return (U, D, V) with U*M*V = D.

    U and V are unimodular; D is diagonal with nonnegative entries and
    each diagonal entry divides the next. Row and column Hermite passes
    alternate (Kannan & Bachem, 1979). A pass replaces the corner entry by
    the gcd of its column or row, a proper divisor unless it divides them
    all, when the next pass clears them for good; then the same holds for
    the block below, so the passes reach a diagonal. If d_i does not
    divide d_i+1, column i+1 is added to column i, and the passes make d_i
    a proper divisor of itself, keeping d_0 to d_i-1. The product of the
    nonzero d_i is fixed, so the diagonal falls lexicographically in a
    finite set, and the repairs end.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    if any(len(row) != n for row in M):
        raise DimensionError("ragged matrix")
    # B = (A U / V 0), from A = M and U, V identities. The Hermite basis of
    # its first m rows (A_i | U_i) is (W*A | W*U) with W unimodular, a row
    # pass, and the transpose (A^T V^T / U^T 0) has the same shape, so the
    # same step on it is a column pass.
    I = identity(m + n)
    B = tuple(tuple(r) + e[n:] for r, e in zip(M, I[n:])) + I[:n]
    while True:
        for k in (m, n):
            B = tuple(zip(*(hermite_basis(B[:k], m + n) + B[k:])))
        A = tuple(r[:n] for r in B[:m])
        if any(x for i, r in enumerate(A) for j, x in enumerate(r) if i != j):
            continue
        d = [A[i][i] for i in range(min(m, n))]
        i = next((i for i in range(len(d) - 1) if d[i] and d[i + 1] % d[i]), None)
        if i is None:
            return tuple(r[n:] for r in B[:m]), A, tuple(r[:n] for r in B[m:])
        # add column i + 1 to column i, in A and in V
        B = tuple(r[:i] + (r[i] + r[i + 1],) + r[i + 1 :] for r in B)


def kernel_basis(A):
    """Hermite basis of the integer kernel of A, as the columns of an
    n x c matrix, in pivot order.

    The vectors (A e_j, e_j) generate the lattice {(Ax, x) : x in Z^n},
    and the rows of its Hermite basis that vanish on the first m
    coordinates are the Hermite basis of {(0, x) : Ax = 0} (Cohen 1993,
    ch. 2), so one Hermite pass gives the kernel, saturated and canonical.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise DimensionError("ragged matrix")
    lifted = [[row[j] for row in A] + [int(i == j) for i in range(n)] for j in range(n)]
    H = hermite_basis(lifted, m + n)
    return tuple(zip(*(h[m:] for h in H if not any(h[:m])))) or ((),) * n


def hermite_basis(vectors, dim: int):
    """Row Hermite normal form of the lattice the vectors generate in Z^dim.

    Rows are ordered by pivot column, each pivot is positive and the
    entries above it lie in [0, pivot), so the result depends only on the
    lattice. Each vector is inserted into a triangular basis by xgcd row
    operations; once the basis has dim unit pivots the lattice is all of
    Z^dim and the remaining vectors are skipped, which keeps long generator
    lists cheap. A vector of another length raises DimensionError.
    """
    vectors = tuple(vectors)
    if any(len(v) != dim for v in vectors):
        raise DimensionError(f"hermite_basis needs vectors of length {dim}")
    basis = {}
    for cand in vectors:
        v = list(cand)
        for k in range(dim):
            if not v[k]:
                continue
            b = basis.get(k)
            if b is None:
                if v[k] < 0:
                    v = [-x for x in v]
                basis[k] = v
                break
            g, x, y = xgcd(b[k], v[k])
            bk = b[k] // g
            vk = v[k] // g
            basis[k] = [x * b[i] + y * v[i] for i in range(dim)]
            v = [bk * v[i] - vk * b[i] for i in range(dim)]
        if len(basis) == dim and all(b[k] == 1 for k, b in basis.items()):
            return identity(dim)
    pivots = sorted(basis)
    for i, k in enumerate(pivots):
        row = basis[k]
        for above in pivots[:i]:
            a = basis[above]
            q = a[k] // row[k]
            if q:
                for j in range(k, dim):
                    a[j] -= q * row[j]
    return tuple(tuple(basis[k]) for k in pivots)


def group_is_full_lattice(vectors, dim: int) -> bool:
    """True iff the vectors generate all of Z^dim as a group."""
    return hermite_basis(vectors, dim) == identity(dim)


def adjugate(M):
    """(adj, det) of a nonsingular M: M * adj == det * identity.

    For d <= 4 the adjugate is written out by cofactors:
    ((s, -q), (-r, p)) for ((p, q), (r, s)); the nine 2x2 cofactors for
    d = 3, with the determinant the first row times the first adjugate
    column; for d = 4 the six 2x2 minors of rows 0, 1 and the six of rows
    2, 3 give the determinant by Laplace expansion along those row pairs,
    and each cofactor is three products of an entry of the other pair
    with one of them. Every other size takes one fraction-free
    Gauss-Jordan pass on [M | I] (Bareiss, 1968), which leaves
    [D * identity | D * M^-1] with D the last pivot, and det(M) = ±D by
    the sign of the row swaps. A singular M raises DimensionError either
    way.
    """
    d = len(M)
    if any(len(row) != d for row in M):
        raise DimensionError("adjugate needs a square matrix")
    if 1 < d < 5:
        if d == 2:
            (p, q), (r, s) = M
            adj = ((s, -q), (-r, p))
            det_M = p * s - q * r
        elif d == 3:
            (a, b, c), (u, v, w), (x, y, z) = M
            adj = (
                (v * z - w * y, c * y - b * z, b * w - c * v),
                (w * x - u * z, a * z - c * x, c * u - a * w),
                (u * y - v * x, b * x - a * y, a * v - b * u),
            )
            det_M = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
        else:
            (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (e0, e1, e2, e3) = M
            # s_ij and t_ij: the 2x2 minors of rows 0, 1 and of rows 2, 3 on
            # columns i < j
            s01 = a0 * b1 - a1 * b0
            s02 = a0 * b2 - a2 * b0
            s03 = a0 * b3 - a3 * b0
            s12 = a1 * b2 - a2 * b1
            s13 = a1 * b3 - a3 * b1
            s23 = a2 * b3 - a3 * b2
            t01 = c0 * e1 - c1 * e0
            t02 = c0 * e2 - c2 * e0
            t03 = c0 * e3 - c3 * e0
            t12 = c1 * e2 - c2 * e1
            t13 = c1 * e3 - c3 * e1
            t23 = c2 * e3 - c3 * e2
            det_M = s01 * t23 - s02 * t13 + s03 * t12 + s12 * t03 - s13 * t02 + s23 * t01
            adj = (
                (
                    b1 * t23 - b2 * t13 + b3 * t12,
                    a2 * t13 - a1 * t23 - a3 * t12,
                    e1 * s23 - e2 * s13 + e3 * s12,
                    c2 * s13 - c1 * s23 - c3 * s12,
                ),
                (
                    b2 * t03 - b0 * t23 - b3 * t02,
                    a0 * t23 - a2 * t03 + a3 * t02,
                    e2 * s03 - e0 * s23 - e3 * s02,
                    c0 * s23 - c2 * s03 + c3 * s02,
                ),
                (
                    b0 * t13 - b1 * t03 + b3 * t01,
                    a1 * t03 - a0 * t13 - a3 * t01,
                    e0 * s13 - e1 * s03 + e3 * s01,
                    c1 * s03 - c0 * s13 - c3 * s01,
                ),
                (
                    b1 * t02 - b0 * t12 - b2 * t01,
                    a0 * t12 - a1 * t02 + a2 * t01,
                    e1 * s02 - e0 * s12 - e2 * s01,
                    c0 * s12 - c1 * s02 + c2 * s01,
                ),
            )
        if not det_M:
            raise DimensionError("adjugate needs a nonsingular matrix")
        return adj, det_M
    a = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(M)]
    sign = 1
    prev = 1
    for k in range(d):
        if not a[k][k]:
            for i in range(k + 1, d):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                raise DimensionError("adjugate needs a nonsingular matrix")
        top = a[k]
        pivot = top[k]
        for i, row in enumerate(a):
            if i != k:
                aik = row[k]
                # exact division is guaranteed by the Bareiss identity
                a[i] = [(pivot * x - aik * y) // prev for x, y in zip(row, top)]
        prev = pivot
    return tuple(tuple(sign * x for x in row[d:]) for row in a), sign * prev
