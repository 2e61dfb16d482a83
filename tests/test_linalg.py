import random
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashtoric import linalg
from nashtoric.errors import CharacteristicError, DimensionError
from nashtoric.linalg import (
    adjugate,
    columns_matrix,
    det,
    group_is_full_lattice,
    hermite_basis,
    identity,
    independent_rows,
    _strong_lucas,
    is_prime,
    kernel_basis,
    maximal_minors,
    primitive,
    rank,
    smith_normal_form,
    validate_characteristic,
    vec,
    xgcd,
)

from oracles import (
    cofactor_adjugate,
    frac_kernel,
    mat_mul,
    permutation_det,
    rank_mod_bruteforce,
    saturated_lattice_basis,
)


def random_matrix(rng, rows, cols, bound=9):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows)
    )


def test_det_fixed_values():
    assert det(()) == 1
    assert det(((5,),)) == 5
    assert det(((1, 2), (3, 4))) == -2
    # columns (1,0,0),(0,1,0),(1,1,2) span an index-2 sublattice
    assert det(columns_matrix(((1, 0, 0), (0, 1, 0), (1, 1, 2)))) == 2
    assert det(identity(4)) == 1
    # singular matrices, where adjugate raises
    assert det(((0,),)) == 0
    assert det(((2, 4), (3, 6))) == 0
    assert det(((1, 2, 3, 4), (2, 4, 6, 8), (0, 1, 0, 1), (1, 0, 1, 0))) == 0


def test_det_rejects_non_square():
    with pytest.raises(DimensionError):
        det(((1, 2, 3), (4, 5, 6)))


def test_det_matches_permutation_expansion():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 4)
        M = random_matrix(rng, n, n)
        assert det(M) == permutation_det(M)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)
    assert is_prime(10**9 + 7)
    assert not is_prime(2**31 + 1)
    # strong pseudoprime to several small bases
    assert not is_prime(3215031751)
    # the least strong pseudoprimes to the prime bases up to 37 and up to 41
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3317044064679887385961981)
    # above the Miller-Rabin bound, so the strong Lucas test decides too
    assert is_prime(2**89 - 1)
    assert is_prime(2**127 - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))


def test_strong_lucas_pseudoprimes():
    # odd composites the Selfridge strong Lucas test accepts (OEIS A217255)
    pseudoprimes = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
    primes = set(range(3, 30000, 2))
    for n in range(3, 174, 2):
        primes -= set(range(n * n, 30000, 2 * n))
    accepted = [n for n in range(3, 30000, 2) if _strong_lucas(n)]
    assert [n for n in accepted if n not in primes] == pseudoprimes
    assert primes <= set(accepted)


def test_validate_characteristic():
    assert validate_characteristic(0) == 0
    assert validate_characteristic(2) == 2
    assert validate_characteristic(97) == 97
    for bad in (1, 4, 6, 9, -2, -7):
        with pytest.raises(CharacteristicError):
            validate_characteristic(bad)
    for bad in (True, 2.0, "2", None):
        with pytest.raises(CharacteristicError):
            validate_characteristic(bad)
    for p in (np.int64(2), np.uint8(3), np.int32(0)):
        q = validate_characteristic(p)
        assert type(q) is int and q == p


def test_xgcd():
    rng = random.Random(103)
    for _ in range(300):
        a = rng.randint(-500, 500)
        b = rng.randint(-500, 500)
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g


def test_primitive():
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-3, 6)) == (-1, 2)
    assert primitive((5,)) == (1,)


def test_rank():
    assert rank(((1, 0), (0, 1))) == 2
    assert rank(((1, 2), (2, 4))) == 1
    assert rank(((0, 0), (0, 0))) == 0
    assert rank(((1, 0, 0), (0, 1, 0), (1, 1, 2))) == 3


@st.composite
def _echelon_cases(draw):
    """A characteristic and a small integer matrix whose rows are drawn
    fresh or as zero rows, repeats and multiples of earlier rows (a multiple
    by p vanishes mod p)."""
    p = draw(st.sampled_from((0, 2, 3, 5)))
    cols = draw(st.integers(1, 4))
    entries = st.lists(st.integers(-6, 6), min_size=cols, max_size=cols)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "multiple")))
        if kind == "zero":
            rows.append((0,) * cols)
        elif kind == "fresh" or not rows:
            rows.append(tuple(draw(entries)))
        else:
            row = draw(st.sampled_from(rows))
            c = 1 if kind == "repeat" else draw(st.sampled_from((-1, 2, p or 7)))
            rows.append(tuple(c * a for a in row))
    return tuple(rows), p


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_echelon_cases())
def test_independent_rows_against_minors(case):
    M, p = case
    kept = independent_rows(M, p)
    # row i is kept exactly when it raises the rank of the rows before it
    ranks = [rank_mod_bruteforce(M[:i], p) for i in range(len(M) + 1)]
    assert kept == tuple(i for i in range(len(M)) if ranks[i + 1] > ranks[i])
    assert len(kept) == ranks[-1]
    assert rank_mod_bruteforce([M[i] for i in kept], p) == len(kept)
    if p == 0:
        assert rank(M) == len(kept)


@st.composite
def _minor_cases(draw):
    """Up to 9 vectors in Z^1..Z^5, among them zero vectors, repeats and
    multiples of a prime p, so that whole blocks of minors vanish."""
    dim = draw(st.integers(1, 5))
    p = draw(st.sampled_from((2, 3, 5)))
    entries = st.lists(st.integers(-5, 5), min_size=dim, max_size=dim)
    vectors = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "multiple")))
        if kind == "zero":
            vectors.append((0,) * dim)
        elif kind == "fresh" or not vectors:
            vectors.append(tuple(draw(entries)))
        else:
            v = draw(st.sampled_from(vectors))
            c = 1 if kind == "repeat" else p
            vectors.append(tuple(c * a for a in v))
    return tuple(vectors), dim


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_minor_cases())
def test_maximal_minors_against_leibniz(case):
    vectors, dim = case
    found = list(maximal_minors(vectors))
    subsets = list(combinations(range(len(vectors)), dim))
    assert [T for T, _ in found] == subsets
    for T, minor in found:
        assert minor == permutation_det(columns_matrix([vectors[t] for t in T]))


def test_smith_normal_form_fixed():
    U, D, V = smith_normal_form(((2, 3),))
    assert D == ((1, 0),)
    U, D, V = smith_normal_form(((2, 0), (0, 3)))
    assert D == ((1, 0), (0, 6))
    U, D, V = smith_normal_form(((0, 0), (0, 0)))
    assert D == ((0, 0), (0, 0))
    U, D, V = smith_normal_form(((1, 0), (0, 1)))
    assert D == ((1, 0), (0, 1))
    U, D, V = smith_normal_form(((2, 4), (4, 8)))
    assert D == ((2, 0), (0, 0))


def test_smith_normal_form_random():
    rng = random.Random(104)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = random_matrix(rng, m, n)
        U, D, V = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0


def determinantal_divisors(M):
    """The gcd of the k x k minors of M, for k = 1 to min(m, n)."""
    m, n = len(M), len(M[0])
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for R in combinations(range(m), k):
            for C in combinations(range(n), k):
                g = gcd(g, permutation_det([[M[r][c] for c in C] for r in R]))
        out.append(g)
    return out


def test_smith_normal_form_matches_determinantal_divisors(monkeypatch):
    # U*M*V = D with U, V unimodular keeps the gcd of the k x k minors, and
    # for a diagonal D with each entry dividing the next it is d_1 * ... * d_k
    passes = []

    def recorded(vectors, dim):
        vectors = tuple(vectors)
        passes.append(vectors)
        return hermite_basis(vectors, dim)

    def check(M, U, D, V):
        assert mat_mul(mat_mul(U, M), V) == D
        assert abs(det(U)) == abs(det(V)) == 1
        assert all(x == 0 for i, row in enumerate(D) for j, x in enumerate(row) if i != j)

    monkeypatch.setattr(linalg, "hermite_basis", recorded)
    rng = random.Random(104)
    repaired = 0
    for t in range(400):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [list(row) for row in random_matrix(rng, m, n, bound=rng.choice((1, 3, 9)))]
        if t % 4 == 0:
            M[rng.randrange(m)] = [0] * n
        elif t % 4 == 1 and m > 1:
            i, j = rng.sample(range(m), 2)
            M[i] = [2 * x for x in M[j]]
        M = tuple(map(tuple, M))
        passes.clear()
        U, D, V = smith_normal_form(M)
        check(M, U, D, V)
        for k, divisor in enumerate(determinantal_divisors(M), 1):
            assert prod(D[i][i] for i in range(k)) == divisor
        # a row pass after the first starts from a column pass's output, in
        # column Hermite form, unless the divisibility repair changed it
        for rows in passes[2::2]:
            cols = tuple(c for c in zip(*(r[:n] for r in rows)) if any(c))
            if hermite_basis(cols, m) != cols:
                repaired += 1
                break
    assert repaired >= 10, repaired

    # pairwise coprime: each of the 11 repairs moves one prime down the
    # diagonal, and a round of passes runs after each
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    M = tuple(tuple(p * (i == j) for j in range(12)) for i, p in enumerate(primes))
    passes.clear()
    U, D, V = smith_normal_form(M)
    assert len(passes) >= 2 * 12
    check(M, U, D, V)
    assert [D[i][i] for i in range(12)] == [1] * 11 + [prod(primes)]

    assert smith_normal_form(()) == ((), (), ())
    assert smith_normal_form(((),)) == (((1,),), ((),), ())
    assert smith_normal_form(((), ())) == (identity(2), ((), ()), ())


def test_vec_rejects_non_integers():
    assert vec([True, 2, -3]) == (1, 2, -3)
    with pytest.raises(TypeError):
        vec((1, 2.5))


def test_kernel_basis_fixed():
    # columns are the four minimal generators of the threefold semigroup
    A = columns_matrix(((0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 1, 2)))
    K = kernel_basis(A)
    assert K == ((1,), (1,), (-2,), (1,))
    # full-rank square matrix has trivial kernel
    assert kernel_basis(((1, 0), (0, 1))) == ((), ())


def test_kernel_basis_random():
    # the Hermite basis of the saturation of the rational kernel
    rng = random.Random(108)
    seen = {"zero row": 0, "rank deficient": 0, "trivial kernel": 0}
    for t in range(300):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        A = [list(row) for row in random_matrix(rng, m, n, bound=rng.choice((1, 3, 9)))]
        if t % 4 == 0:
            A[rng.randrange(m)] = [0] * n
        elif t % 4 == 1:
            # a row that is an integer combination of the others (zero if m == 1)
            r = rng.randrange(m)
            c = [rng.randint(-2, 2) if i != r else 0 for i in range(m)]
            A[r] = [sum(ci * row[k] for ci, row in zip(c, A)) for k in range(n)]
        A = tuple(map(tuple, A))
        K = kernel_basis(A)
        expected = saturated_lattice_basis(frac_kernel(A, n), n)
        assert len(K) == n
        assert tuple(zip(*K)) == expected
        seen["zero row"] += not all(map(any, A))
        seen["rank deficient"] += rank(A) < min(m, n)
        seen["trivial kernel"] += not expected
    assert min(seen.values()) >= 30, seen


def test_group_is_full_lattice():
    assert group_is_full_lattice(((2,), (3,)), 1)
    assert not group_is_full_lattice(((2,), (4,)), 1)
    assert group_is_full_lattice(((1, 0), (0, 1)), 2)
    assert not group_is_full_lattice(((1, 0), (1, 2)), 2)
    assert group_is_full_lattice(((2, 1), (1, 1)), 2)
    assert not group_is_full_lattice((), 2)
    rng = random.Random(106)
    for _ in range(200):
        d = rng.randint(1, 3)
        k = rng.randint(1, 5)
        vecs = tuple(
            tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(k)
        )
        # the index of the lattice of k >= d vectors is the gcd of their
        # d x d minors
        minors = [permutation_det(S) for S in combinations(vecs, d)]
        expected = k >= d and gcd(*minors) == 1
        assert group_is_full_lattice(vecs, d) == expected


def test_hermite_basis_fixed():
    assert hermite_basis((), 2) == ()
    assert hermite_basis(((0, 0),), 2) == ()
    assert hermite_basis(((4,), (-6,)), 1) == ((2,),)
    assert hermite_basis(((1, 0), (1, 2)), 2) == ((1, 0), (0, 2))
    assert hermite_basis(((2, 1), (1, 1)), 2) == identity(2)
    assert hermite_basis(((0, 3, 1), (0, 0, 2)), 3) == ((0, 3, 1), (0, 0, 2))
    assert hermite_basis(((0, 3, 5), (0, 0, 2)), 3) == ((0, 3, 1), (0, 0, 2))


def test_hermite_basis_rejects_vectors_of_another_length():
    for vectors, dim in (
        (((1, 0, 5),), 1),
        (((1,),), 2),
        (((2, 0, 7), (0, 1, 1)), 2),
        # after the unit pivots of all of Z^2
        (((1, 0), (0, 1), (3,)), 2),
    ):
        with pytest.raises(DimensionError):
            hermite_basis(vectors, dim)
    with pytest.raises(DimensionError):
        group_is_full_lattice(((1, 0, 5),), 1)


def test_hermite_basis_in_the_plane_matches_the_generic_pass():
    # a property of the one Hermite pass, in the plane where degenerate
    # lattices are easy to draw: L x Z has the Hermite basis of L, each row
    # with a 0 appended, then (0, 0, 1)
    rng = random.Random(109)
    ranks = [0, 0, 0]
    for _ in range(20000):
        bound = rng.choice((1, 2, 5, 40))
        vs = [(rng.randint(-bound, bound), rng.randint(-bound, bound))
              for _ in range(rng.randint(0, 5))]
        kind = rng.random()
        if kind < 0.15:
            # rank 1: multiples of one vector, zero included
            w = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            vs = [(c * w[0], c * w[1]) for c in (rng.randint(-4, 4) for _ in vs)]
        elif kind < 0.3 and vs:
            vs += [rng.choice(vs), (0, 0)]
        rng.shuffle(vs)
        H = hermite_basis(vs, 2)
        lifted = hermite_basis([v + (0,) for v in vs] + [(0, 0, 1)], 3)
        assert H == tuple(row[:2] for row in lifted[:-1]), vs
        ranks[len(H)] += 1
    assert min(ranks) >= 500, ranks
    with pytest.raises(DimensionError):
        hermite_basis(((1, 2), (0, 1, 0)), 2)


def _in_hermite_lattice(H, v):
    v = list(v)
    for row in H:
        p = next(j for j, x in enumerate(row) if x)
        if v[p] % row[p]:
            return False
        q = v[p] // row[p]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def test_hermite_basis_depends_only_on_the_lattice():
    rng = random.Random(108)
    full_rank = 0
    for _ in range(300):
        d = rng.randint(1, 4)
        k = rng.randint(1, d + 2)
        vecs = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(k)]
        H = hermite_basis(vecs, d)
        # echelon rows, positive pivots, entries above each pivot reduced
        pivots = [next(j for j, x in enumerate(row) if x) for row in H]
        assert pivots == sorted(set(pivots))
        for i, (row, p) in enumerate(zip(H, pivots)):
            assert row[p] > 0
            assert all(0 <= above[p] < row[p] for above in H[:i])
        assert len(H) == rank(vecs)
        assert all(_in_hermite_lattice(H, v) for v in vecs)
        if k == d and det(vecs) != 0:
            full_rank += 1
            index = 1
            for row, p in zip(H, pivots):
                index *= row[p]
            assert index == abs(det(vecs))
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        assert hermite_basis(shuffled, d) == H
        coeffs = [rng.randint(-3, 3) for _ in vecs]
        combo = tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(d))
        assert hermite_basis(vecs + [combo], d) == H
        # a random unimodular change of generators: elementary row operations
        gens = [list(v) for v in vecs]
        for _ in range(8):
            i = rng.randrange(k)
            j = rng.randrange(k)
            if i == j:
                gens[i] = [-x for x in gens[i]]
            else:
                c = rng.randint(-3, 3)
                gens[i] = [a + c * b for a, b in zip(gens[i], gens[j])]
        assert hermite_basis(gens, d) == H
    assert full_rank > 30


def _adjugate_case(rng, n, kind):
    """A random n x n matrix: small entries, entries up to 10^12, or entries
    within 9 of ±10^12, whose minors cancel down from products near 10^24."""
    if kind == "small":
        return [list(row) for row in random_matrix(rng, n, n)]
    if kind == "wide":
        return [list(row) for row in random_matrix(rng, n, n, 10**12)]
    return [
        [rng.choice((-1, 1)) * 10**12 + rng.randint(-9, 9) for _ in range(n)]
        for _ in range(n)
    ]


def test_adjugate():
    # d = 2, 3, 4 take the cofactor closed forms, every other d the Bareiss
    # pass, here at d = 1, 5 and 6
    rng = random.Random(107)
    for n in range(1, 7):
        seen = {"nonsingular": 0, "singular": 0}
        for t in range(90):
            M = _adjugate_case(rng, n, ("small", "wide", "near")[t % 3])
            if t % 4 == 0:
                # a row that is an integer combination of the others (zero if n == 1)
                r = rng.randrange(n)
                M[r] = [0] * n
                for i in range(n):
                    if i != r:
                        c = rng.randint(-2, 2)
                        M[r] = [a + c * b for a, b in zip(M[r], M[i])]
            M = tuple(map(tuple, M))
            d = permutation_det(M)
            if d == 0:
                seen["singular"] += 1
                with pytest.raises(DimensionError):
                    adjugate(M)
                continue
            seen["nonsingular"] += 1
            adj, det_M = adjugate(M)
            assert det_M == d
            assert adj == cofactor_adjugate(M)
            assert mat_mul(M, adj) == tuple(
                tuple(d if i == j else 0 for j in range(n)) for i in range(n)
            )
        assert seen["nonsingular"] >= 40 and seen["singular"] >= 15, (n, seen)
    big = 10**12
    for M in (
        ((2, 4), (3, 6)),
        ((big, big + 1), (big, big + 1)),
        ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
        ((big, 1, 0), (0, big, 1), (big, big + 1, 1)),
        # the last row is the first plus the second minus the third
        (
            (big, big + 1, -big, 3),
            (big - 7, 2, big + 5, -big),
            (1, -big, big, big + 9),
            (2 * big - 8, 2 * big + 3, -big + 5, -2 * big - 6),
        ),
    ):
        with pytest.raises(DimensionError):
            adjugate(M)
    assert adjugate(()) == ((), 1)
    for M in (((1, 2),), ((1, 2), (3,)), ((1, 2, 3), (4, 5, 6), (7, 8))):
        with pytest.raises(DimensionError):
            adjugate(M)


def test_written_out_2x2_products_match_numpy():
    # `images` and `mat_vec` write the 2x2 product out; every other size
    # takes the general loop, here the 3x3 case for contrast
    rng = random.Random(50)
    for dim in (2, 2, 2, 3):
        M = tuple(tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(dim))
        vectors = [tuple(rng.randint(-2**70, 2**70) for _ in range(dim)) for _ in range(5)]
        want = [tuple(int(c) for c in np.array(M, dtype=object).dot(x)) for x in vectors]
        assert linalg.images(M, vectors) == tuple(sorted(want))
        assert [linalg.mat_vec(M, x) for x in vectors] == want
