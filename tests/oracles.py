"""Independent brute-force reference implementations for cross-checking.

Everything here trades speed for obviousness: permutation determinants,
dense Fraction solves, exhaustive lattice scans. The Hilbert basis oracle
enumerates irreducible lattice points directly from a graded bounding box
and never calls the triangulation-based algorithm under test; a second
reference runs that general route on every cone, with each piece's points
from the box under its Hermite basis (`hermite_box_points`) instead of the
library's numerator closure, so that the simplicial route through minimal
numerators and the shortcut for pieces that add no point are checked
against it; `triangulate` lists that route's pieces as cones, for tests of
the triangulation itself.
The random unsaturated generator lists the minimal-generator oracle is
checked on are drawn here too, so that every test draws them the same way,
and so are the small numerical semigroups that the curve tests sweep.
`pairwise_irreducible` is the minimal-set sweep as a pairwise scan of the
kept points, the reference for the bitset sweep of `cones.irreducible`.
`fourier_motzkin_feasible` is rational feasibility by elimination, the
reference for the cone conversion of `lp.rational_feasible`, and the LP of
the vertex oracle `vertices_via_lp`, which so never runs the
double-description pass that `polyhedron_vertices` is checked for.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, permutations, product
from math import ceil, gcd

import numpy as np


def permutation_det(M):
    """Leibniz formula; fine for n <= 5."""
    n = len(M)
    if n == 0:
        return 1
    total = 0
    for perm in permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = 1
        for i, j in enumerate(perm):
            term *= M[i][j]
        total += -term if inv % 2 else term
    return total


def cofactor_adjugate(M):
    """Adjugate from its definition: adj[j][i] = (-1)^(i+j) times the
    Leibniz determinant of M without row i and column j."""
    idx = range(len(M))
    adj = [[0] * len(M) for _ in idx]
    for i in idx:
        for j in idx:
            minor = [[M[r][c] for c in idx if c != j] for r in idx if r != i]
            adj[j][i] = (-1) ** (i + j) * permutation_det(minor)
    return tuple(map(tuple, adj))


def rank_mod_bruteforce(M, p):
    """The largest k with a k x k minor of M nonzero mod p (over Q for p = 0)."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    for k in range(min(rows, cols), 0, -1):
        for R in combinations(range(rows), k):
            for C in combinations(range(cols), k):
                m = permutation_det([[M[r][c] for c in C] for r in R])
                if m % p if p else m:
                    return k
    return 0


def mat_mul(A, B):
    """Product of two row-major integer matrices."""
    Bt = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A)


def extreme_rays_bruteforce(normals, dim):
    """Extreme rays of {x : <n,x> >= 0 for all n}, normals of rank dim.

    Every extreme ray lies on dim-1 independent active hyperplanes, so the
    signed cofactor kernel of each (dim-1)-subset of the normals that keeps
    every normal on one side is an extreme ray, and all of them arise so.
    """
    normals = tuple(normals)
    found = set()
    for subset in combinations(normals, dim - 1):
        v = []
        for j in range(dim):
            minor = [[row[i] for i in range(dim) if i != j] for row in subset]
            v.append((-1) ** j * permutation_det(minor))
        g = 0
        for x in v:
            g = gcd(g, x)
        if g == 0:
            continue
        v = tuple(x // g for x in v)
        dots = [sum(a * b for a, b in zip(n, v)) for n in normals]
        signs = {(s > 0) - (s < 0) for s in dots}
        if {1, -1} <= signs:
            continue
        found.add(tuple(-x for x in v) if -1 in signs else v)
    return tuple(sorted(found))


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def frac_kernel(rows, dim):
    """Basis of {x in Q^dim : <r, x> = 0 for every row} from the reduced row
    echelon form over Fractions, one primitive integer vector per free
    column."""
    A = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(dim):
        r = len(pivots)
        pivot = next((i for i in range(r, len(A)) if A[i][col] != 0), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        A[r] = [x / A[r][col] for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][col] != 0:
                f = A[i][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivots.append(col)
    out = []
    for free in (c for c in range(dim) if c not in pivots):
        x = [Fraction(0)] * dim
        x[free] = Fraction(1)
        for i, col in enumerate(pivots):
            x[col] = -A[i][free]
        den = 1
        for c in x:
            den = den * c.denominator // gcd(den, c.denominator)
        out.append(_primitive(tuple(int(c * den) for c in x)))
    return out


def _left_kernel_mod(B, q):
    """A nonzero c with sum c_i B_i = 0 mod q, or None."""
    k = len(B)
    d = len(B[0])
    rows = [[x % q for x in b] + [int(i == j) for j in range(k)] for i, b in enumerate(B)]
    r = 0
    for col in range(d):
        pivot = next((i for i in range(r, k) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(k):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows[r][d:] if r < k else None


def saturated_lattice_basis(vectors, dim):
    """Hermite basis of (Q-span of the independent vectors) ∩ Z^dim.

    The lattice the vectors generate is saturated exactly when the gcd of
    its maximal minors is 1. While a prime q divides it, the basis is
    dependent mod q, and c·B/q for a mod-q relation c is a lattice point of
    the span outside the lattice, which joins the generators.
    """
    from nashtoric.linalg import hermite_basis

    B = hermite_basis(vectors, dim)
    k = len(B)
    while B:
        g = 0
        for cols in combinations(range(dim), k):
            g = gcd(g, permutation_det([[b[c] for c in cols] for b in B]))
        if g == 1:
            break
        q = next(q for q in range(2, g + 1) if g % q == 0)
        c = _left_kernel_mod(B, q)
        x = tuple(sum(ci * b[i] for ci, b in zip(c, B)) // q for i in range(dim))
        B = hermite_basis(B + (x,), dim)
    return B


def cone_bruteforce(rays, dim):
    """(rays, halfspaces, pointed, full_dim) of the cone the rays generate,
    in `Cone`'s convention, by two `extreme_rays_bruteforce` passes.

    The facets are the extreme rays of the dual cone cut down to the span
    of the inputs by its ± lines, and the rays are the extreme rays of the
    cone cut down to the span of the facets by its own ± lines; each line
    lattice is the saturated kernel of a Fraction elimination.
    """
    norm = sorted({_primitive(tuple(r)) for r in rays if any(r)})

    def lines_of(normals):
        return saturated_lattice_basis(frac_kernel(normals, dim), dim)

    def with_pairs(lines, extreme):
        return tuple(sorted(set(extreme) | set(lines) | {tuple(-x for x in l) for l in lines}))

    dual_lines = lines_of(norm)
    halfspaces = with_pairs(
        dual_lines, extreme_rays_bruteforce(with_pairs(dual_lines, norm), dim)
    )
    lines = lines_of(halfspaces)
    out = with_pairs(lines, extreme_rays_bruteforce(with_pairs(lines, halfspaces), dim))
    return out, halfspaces, not lines, not dual_lines


def interior_point(cone):
    """Integer point strictly inside every facet halfspace: the ray sum.

    Every stored normal is nonzero and >= 0 on every stored ray, and the
    rays span Q^d, so each normal is > 0 on the sum.
    """
    w = tuple(map(sum, zip(*cone.rays)))
    if not all(sum(a * b for a, b in zip(n, w)) > 0 for n in cone.halfspaces):
        raise RuntimeError("full-dimensional cone has no interior point")
    return w


def triangulate(cone):
    """The simplicial cones of the library's placing triangulation, the
    pieces `_hilbert_basis_by_pieces` enumerates parallelepipeds in."""
    from nashtoric.cones import Cone, _simplicial_pieces

    return tuple(
        Cone.from_rays(piece, cone.dim)
        for piece in _simplicial_pieces(cone.rays, cone.halfspaces)
    )


def hermite_box_points(vectors):
    """Sorted lattice points with every barycentric coordinate in [0, 1),
    from the box [0, H[k][k]) under the Hermite basis H of the lattice the
    vectors generate: it holds one point of each coset, which the floors of
    its barycentric coordinates, times the vectors, move into the
    parallelepiped. The reference for the group closure of
    `cones.parallelepiped_points`, with its own index check."""
    from nashtoric.linalg import hermite_basis

    d = len(vectors)
    columns = tuple(tuple(v[i] for v in vectors) for i in range(d))
    adj = cofactor_adjugate(columns)
    D = permutation_det(columns)
    H = hermite_basis(vectors, d)
    index = 1
    for k in range(d):
        index *= H[k][k]
    assert index == abs(D), (index, D)
    points = []
    for z in product(*(range(H[k][k]) for k in range(d))):
        # floor of the rational barycentric coordinates; // floors for any sign
        shift = [sum(a * x for a, x in zip(row, z)) // D for row in adj]
        points.append(
            tuple(z[i] - sum(s * v[i] for s, v in zip(shift, vectors)) for i in range(d))
        )
    return sorted(points)


def hilbert_basis_by_triangulation(cone):
    """Hilbert basis by the general route for every cone: a placing
    triangulation, the Hermite box points of each piece, then the graded
    reduction, with no shortcut for simplicial cones or for pieces that add
    no point, and none of the numerator closure."""
    from nashtoric.cones import _simplicial_pieces, irreducible

    candidates = set(cone.rays)
    for piece in _simplicial_pieces(cone.rays, cone.halfspaces):
        candidates.update(x for x in hermite_box_points(piece) if any(x))
    return irreducible(candidates, cone.halfspaces)


def pairwise_irreducible(points, halfspaces, member=None):
    """Sorted points that are no kept point plus an element of the semigroup.

    The semigroup lies in the pointed cone cut out by halfspaces, and is all
    of cone ∩ Z^d unless member(x - k, kept) tests it. Points are visited by
    (sum of facet values y(x), x), a grading positive on the cone minus 0;
    x is dropped when some kept k has y(x) >= y(k), that is x - k in the
    cone, and member, if given, holds. The latest kept k come first: x - k
    is then lowest in the grading, so a member search from it is shortest.
    """
    from operator import ge

    from nashtoric.linalg import dot, vsub

    values = {x: tuple(dot(h, x) for h in halfspaces) for x in points}
    kept = []
    for x in sorted(values, key=lambda x: (sum(values[x]), x)):
        y = values[x]
        if not any(
            all(map(ge, y, values[k]))
            and (member is None or member(vsub(x, k), kept))
            for k in reversed(kept)
        ):
            kept.append(x)
    return tuple(sorted(kept))


def log_jacobian_reference(S, p):
    """(exponents, raw exponents) of the log-Jacobian ideal from one
    Leibniz determinant per d-subset of the minimal generators."""
    from nashtoric.cones import irreducible

    raw = set()
    for subset in combinations(S.minimal_generators(), S.dim):
        m = permutation_det(subset)
        if m % p if p else m:
            raw.add(tuple(map(sum, zip(*subset))))
    kept = irreducible(raw, S.cone.halfspaces, lambda g, _: S.membership(g))
    return kept, tuple(sorted(raw))


def log_jacobian_by_kernel(S, p):
    """Raw exponents of the log-Jacobian ideal from the dual matroid.

    K is a saturated basis of the integer relations among the n minimal
    generators, which span Z^d as a group. By Gale duality the d-minor of
    the generators on T and the (n - d)-minor of K on the generators
    outside T agree up to sign, so T is admissible mod p exactly when the
    second one does not vanish mod p; no d-minor is computed.
    """
    gens = S.minimal_generators()
    n = len(gens)
    K = saturated_lattice_basis(frac_kernel(list(zip(*gens)), n), n)
    raw = set()
    for T in combinations(range(n), S.dim):
        rest = [i for i in range(n) if i not in T]
        m = permutation_det([[k[i] for i in rest] for k in K])
        if m % p if p else m:
            raw.add(tuple(map(sum, zip(*(gens[i] for i in T)))))
    return tuple(sorted(raw))


def frac_solve(M, rhs):
    """Solve the square system M x = rhs over Q; None when singular."""
    n = len(M)
    A = [
        [Fraction(M[i][j]) for j in range(n)] + [Fraction(rhs[i])]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if A[r][col] != 0), None)
        if pivot is None:
            return None
        A[col], A[pivot] = A[pivot], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return tuple(row[n] for row in A)


def box_parallelepiped(vectors):
    """Integer points of {sum l_i v_i : 0 <= l_i < 1} by box scan + solve."""
    d = len(vectors)
    corners = [
        tuple(sum(e * v[i] for e, v in zip(eps, vectors)) for i in range(d))
        for eps in product((0, 1), repeat=d)
    ]
    lo = [min(c[i] for c in corners) for i in range(d)]
    hi = [max(c[i] for c in corners) for i in range(d)]
    columns = [[vectors[j][i] for j in range(d)] for i in range(d)]
    out = []
    for x in product(*(range(lo[i], hi[i] + 1) for i in range(d))):
        lam = frac_solve(columns, x)
        if lam is not None and all(0 <= l < 1 for l in lam):
            out.append(x)
    return sorted(out)


def in_cone_2d(rays, z):
    """z in cone(r1, r2) via Cramer; rays must be independent."""
    (a, b), (c, d) = rays
    det = a * d - b * c
    l1 = Fraction(z[0] * d - z[1] * c, det)
    l2 = Fraction(a * z[1] - b * z[0], det)
    return l1 >= 0 and l2 >= 0


def _grade(w, v):
    return sum(wi * vi for wi, vi in zip(w, v))


def _gradings(rays, dim, bound=64):
    """All integer w with <w,r> >= 1 for every ray, at the smallest sup norm."""
    B = 1
    while B <= bound:
        found = [
            w
            for w in product(range(-B, B + 1), repeat=dim)
            if all(_grade(w, r) >= 1 for r in rays)
        ]
        if found:
            return found
        B *= 2
    raise RuntimeError(f"no grading with entries <= {bound} for rays {rays}")


def brute_force_hilbert(rays, halfspaces, dim, volume_limit=None):
    """Sorted irreducible lattice points of the cone, i.e. its Hilbert basis.

    Soundness of the cap: in any triangulation piece a point with some ray
    coefficient >= 1 drops a ray and stays in the cone, so every irreducible
    has grade below the sum of the dim largest ray grades. The scan covers
    that whole graded region, so the result is the complete basis.
    """
    for r in rays:
        assert any(r), "zero ray"
        assert all(_grade(h, r) >= 0 for h in halfspaces), "halfspace fails a ray"
    best = None
    for w in _gradings(rays, dim):
        grades = sorted((_grade(w, r) for r in rays), reverse=True)
        cap = sum(grades[:dim])
        exts = [
            max(ceil(abs(r[i]) * cap / _grade(w, r)) for r in rays)
            for i in range(dim)
        ]
        vol = 1
        for e in exts:
            vol *= 2 * e + 1
        if best is None or vol < best[0]:
            best = (vol, w, cap, exts)
    vol, w, cap, exts = best
    if volume_limit is not None and vol > volume_limit:
        raise RuntimeError(f"graded box too large: {vol}")
    points = _cone_points(halfspaces, w, cap, exts, dim)
    irr = []
    for p in sorted(points, key=lambda q: (_grade(w, q), q)):
        gp = _grade(w, p)
        if not any(
            _grade(w, h) < gp
            and tuple(a - b for a, b in zip(p, h)) in points
            for h in irr
        ):
            irr.append(p)
    return sorted(irr)


def random_saturated_surface(rng, bound=20):
    """The saturated semigroup of the cone on two independent rays with
    entries in [-bound, bound]."""
    from nashtoric.cones import Cone
    from nashtoric.semigroups import AffineSemigroup

    while True:
        a = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        b = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if a[0] * b[1] - a[1] * b[0] == 0:
            continue
        return AffineSemigroup.from_cone(Cone.from_rays((a, b), 2))


def random_unsaturated_generators(rng, dim):
    """Generators in the positive orthant, some of them sums of others,
    under a random unimodular map; redrawn until the gcd of their maximal
    minors is 1, that is until they span Z^dim as a group."""
    bound = {1: 12, 2: 5, 3: 3, 4: 2}[dim]
    while True:
        gens = [
            tuple(rng.randint(0, bound) for _ in range(dim))
            for _ in range(rng.randint(dim, dim + 3))
        ]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(gens), rng.choice(gens)
            gens.append(tuple(x + y for x, y in zip(a, b)))
        for _ in range(2 if dim > 1 else 0):
            i, j = rng.sample(range(dim), 2)
            k = rng.choice((-1, 1))
            gens = [g[:i] + (g[i] + k * g[j],) + g[i + 1 :] for g in gens]
        g = 0
        for subset in combinations(gens, dim):
            g = gcd(g, permutation_det(subset))
        if g == 1:
            return gens


def small_numerical_semigroups():
    """The 205 distinct numerical semigroups generated by 2 or 3 integers
    in [2, 15] with gcd 1, in order of their first generator list."""
    from nashtoric.semigroups import AffineSemigroup

    found = {}
    for k in (2, 3):
        for gens in combinations(range(2, 16), k):
            if gcd(*gens) == 1:
                S = AffineSemigroup(1, [(g,) for g in gens])
                found.setdefault(S.minimal_generators(), S)
    return list(found.values())


def brute_force_minimal_generators(generators, dim):
    """Sorted generators that are no sum of two or more generators.

    Under a grading w >= 1 on every generator, a sum of two or more has a
    summand a that is itself a sum of generators, with grade at most the
    largest generator grade minus the smallest. All such sums are
    enumerated, and g is redundant when g - h is one of them for some
    generator h.
    """
    gens = sorted({tuple(g) for g in generators if any(g)})
    w = _gradings(gens, dim)[0]
    grades = [_grade(w, g) for g in gens]
    sums = generator_sums(gens, w, max(grades) - min(grades))
    return sorted(
        g
        for g in gens
        if not any(tuple(x - y for x, y in zip(g, h)) in sums for h in gens)
    )


def generator_sums(generators, w, cap):
    """Every sum of one or more generators with grade at most cap under a
    grading w >= 1 on every generator, by breadth-first search."""
    dim = len(w)
    sums = set()
    frontier = [(0,) * dim]
    while frontier:
        step = []
        for a in frontier:
            for g in generators:
                s = tuple(x + y for x, y in zip(a, g))
                if _grade(w, s) <= cap and s not in sums:
                    sums.add(s)
                    step.append(s)
        frontier = step
    return sums


def _cone_points(halfspaces, w, cap, exts, dim):
    """Lattice points with all halfspace dots >= 0 and grade in [1, cap]."""
    H = np.array(halfspaces, dtype=np.int64).T
    wv = np.array(w, dtype=np.int64)
    tail = [np.arange(-e, e + 1, dtype=np.int64) for e in exts[1:]]
    if tail:
        base = np.stack(np.meshgrid(*tail, indexing="ij"), axis=-1).reshape(-1, dim - 1)
    else:
        base = np.zeros((1, 0), dtype=np.int64)
    points = set()
    for x0 in range(-exts[0], exts[0] + 1):
        grid = np.concatenate(
            [np.full((base.shape[0], 1), x0, dtype=np.int64), base], axis=1
        )
        grades = grid @ wv
        keep = (grades >= 1) & (grades <= cap)
        keep &= (grid @ H >= 0).all(axis=1)
        for row in grid[keep]:
            points.add(tuple(int(c) for c in row))
    return points


def _fm_normalized(constraints, dim):
    """Scale to primitive int directions; returns dir -> bound, or None."""
    from nashtoric.errors import DimensionError

    by_dir = {}
    for direction, bound in constraints:
        if len(direction) != dim:
            raise DimensionError(
                f"constraint direction has length {len(direction)}, expected {dim}"
            )
        entries = [Fraction(x) for x in direction]
        scale = 1
        for f in entries:
            scale = scale * f.denominator // gcd(scale, f.denominator)
        d = tuple(int(f * scale) for f in entries)
        b = Fraction(bound) * scale
        g = 0
        for x in d:
            g = gcd(g, x)
        if g == 0:
            if b > 0:
                return None
            continue
        if g > 1:
            d = tuple(x // g for x in d)
            b = b / g
        prev = by_dir.get(d)
        if prev is None or b > prev:
            by_dir[d] = b
    return by_dir


def fourier_motzkin_feasible(constraints, dim: int):
    """A rational point with <direction, x> >= bound for every constraint
    (direction, bound), or None, by Fourier-Motzkin elimination: the
    reference for `lp.rational_feasible`, which converts one cone instead.

    Every constraint is scaled to a primitive integer direction with a
    Fraction bound, parallel ones collapse to the tightest bound, and the
    variable spawning the fewest pairwise combinations goes first. The
    witness is built back level by level and checked.
    """
    from nashtoric.errors import DimensionError

    if dim < 0:
        raise DimensionError("dimension must be nonnegative")
    system = _fm_normalized(constraints, dim)
    if system is None:
        return None
    active = dict(system)
    remaining = list(range(dim))
    levels = []
    while remaining:
        # eliminate the variable spawning the fewest pairwise combinations
        best_v = None
        best_cost = None
        for v in remaining:
            pos = neg = 0
            for d in active:
                if d[v] > 0:
                    pos += 1
                elif d[v] < 0:
                    neg += 1
            cost = pos * neg
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_v = v
        v = best_v
        remaining.remove(v)
        pos = []
        neg = []
        keep = {}
        for d, b in active.items():
            if d[v] > 0:
                pos.append((d, b))
            elif d[v] < 0:
                neg.append((d, b))
            else:
                keep[d] = b
        levels.append((v, pos + neg))
        for dp, bp in pos:
            cp = dp[v]
            for dn, bn in neg:
                cn = -dn[v]
                nd = tuple(cn * dp[k] + cp * dn[k] for k in range(dim))
                nb = cn * bp + cp * bn
                g = 0
                for x in nd:
                    g = gcd(g, x)
                if g == 0:
                    if nb > 0:
                        return None
                    continue
                if g > 1:
                    nd = tuple(x // g for x in nd)
                    nb = nb / g
                prev = keep.get(nd)
                if prev is None or nb > prev:
                    keep[nd] = nb
        active = keep
    point = [Fraction(0)] * dim
    for v, involved in reversed(levels):
        lo = None
        hi = None
        for d, b in involved:
            rest = b - sum(d[k] * point[k] for k in range(dim) if k != v)
            val = rest / d[v]
            if d[v] > 0:
                if lo is None or val > lo:
                    lo = val
            else:
                if hi is None or val < hi:
                    hi = val
        if lo is None and hi is None:
            continue
        if lo is None:
            point[v] = hi
        elif hi is None:
            point[v] = lo
        else:
            point[v] = (lo + hi) / 2
    witness = tuple(point)
    for d, b in system.items():
        if sum(dk * xk for dk, xk in zip(d, witness)) < b:
            raise RuntimeError(
                f"Fourier-Motzkin witness violates constraint {d} >= {b}"
            )
    return witness


def vertices_via_lp(points, rays, dim):
    """Vertex test straight from the definition, one Fourier-Motzkin
    feasibility problem per candidate, never a cone conversion: v is a
    vertex when some functional is positive on every p - v and every ray."""
    pts = sorted(set(points))
    out = []
    for v in pts:
        cons = [
            (tuple(p[i] - v[i] for i in range(dim)), 1) for p in pts if p != v
        ]
        cons += [(r, 1) for r in rays]
        if fourier_motzkin_feasible(cons, dim) is not None:
            out.append(v)
    return tuple(out)


def resolve_reference(S, characteristic, normalize=True, max_depth=64):
    """`resolve` as a plain recursion that blows up every node itself,
    with no memo over lattice classes, and tells a stall from the charts:
    one chart equal to the node."""
    from nashtoric.blowup import nash_blowup
    from nashtoric.resolve import (
        DEPTH_CAPPED,
        EXPANDED,
        SMOOTH_LEAF,
        TRIVIAL_STALL,
        ResolutionNode,
        ResolutionTree,
    )

    def expand(T, depth):
        if T.is_smooth():
            return ResolutionNode(T, depth, SMOOTH_LEAF, ())
        if normalize and depth == max_depth:
            return ResolutionNode(T, depth, DEPTH_CAPPED, ())
        charts = nash_blowup(T, characteristic, normalize)
        if (
            not normalize
            and len(charts) == 1
            and charts[0].semigroup.minimal_generators() == T.minimal_generators()
        ):
            return ResolutionNode(T, depth, TRIVIAL_STALL, ())
        if depth == max_depth:
            return ResolutionNode(T, depth, DEPTH_CAPPED, ())
        children = tuple((c.vertex, expand(c.semigroup, depth + 1)) for c in charts)
        return ResolutionNode(T, depth, EXPANDED, children)

    return ResolutionTree(expand(S, 0), characteristic, normalize, max_depth)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _ccw_cmp(a, b):
    c = _cross(a, b)
    if c > 0:
        return -1
    if c < 0:
        return 1
    # same direction: shorter first
    la = a[0] * a[0] + a[1] * a[1]
    lb = b[0] * b[0] + b[1] * b[1]
    if la < lb:
        return -1
    if la > lb:
        return 1
    return 0


@dataclass(frozen=True)
class SurfaceProfile:
    semigroup: object
    ordered_generators: tuple

    def consecutive_determinants(self):
        gens = self.ordered_generators
        return tuple(_cross(gens[i], gens[i + 1]) for i in range(len(gens) - 1))


def surface_profile(S):
    """Minimal generators in counterclockwise order, clockwise-most first.

    Well defined because the cone is pointed, so all generators fit in an
    open half-plane and the cross product comparator is a total order up to
    collinear pairs, which are broken by length.
    """
    from nashtoric.errors import DimensionError

    if S.dim != 2:
        raise DimensionError("surface profile needs dimension 2")
    ordered = sorted(S.minimal_generators(), key=cmp_to_key(_ccw_cmp))
    return SurfaceProfile(S, tuple(ordered))


def boundary_generators_crosscheck(S):
    """Lattice points on the compact edges of conv(Γ ∖ {0}), sorted.

    For a saturated 2D semigroup this set must coincide with the minimal
    generators, which the library finds by another route.
    """
    from nashtoric.cones import polyhedron_vertices
    from nashtoric.errors import DimensionError

    if S.dim != 2:
        raise DimensionError("boundary cross-check needs dimension 2")
    if not S.is_saturated():
        raise ValueError("boundary cross-check is defined for saturated semigroups")
    gens = S.minimal_generators()
    chain = sorted(polyhedron_vertices(gens, S.cone), key=cmp_to_key(_ccw_cmp))
    pts = set(chain)
    for a, b in zip(chain, chain[1:]):
        step = (b[0] - a[0], b[1] - a[1])
        g = gcd(step[0], step[1])
        sx, sy = step[0] // g, step[1] // g
        for t in range(1, g):
            pts.add((a[0] + t * sx, a[1] + t * sy))
    return tuple(sorted(pts))


def surface_blowup(S):
    """The normalized Nash blowup of a normal 2D semigroup S in closed form,
    in every characteristic: sorted (vertex, chart minimal generators).

    With a_0, ..., a_m the Hilbert basis of S in order along the cone, the
    Newton vertices are the sums s_i = a_i + a_{i+1} at which their chain
    turns: s_0, s_{m-1}, and every s_i with s_i - s_{i-1} not parallel to
    s_{i+1} - s_i. The chart at a vertex is the saturated semigroup of the
    cone spanned by the edge directions to its two neighbouring vertices,
    with a_0 and a_m in place of the missing neighbours at the two ends.
    """
    return [(v, T.minimal_generators()) for v, T in _surface_charts(S)]


def surface_resolution_shape(S):
    """`ResolutionTree.shape()` of the normalized resolution of a normal 2D
    S, unfolded from the closed form of `surface_blowup` down to smooth
    leaves, in every characteristic."""
    from nashtoric.resolve import EXPANDED, SMOOTH_LEAF

    if S.is_smooth():
        return (S.minimal_generators(), SMOOTH_LEAF, ())
    children = tuple((v, surface_resolution_shape(T)) for v, T in _surface_charts(S))
    return (S.minimal_generators(), EXPANDED, children)


def _surface_charts(S):
    """(vertex, chart semigroup) of `surface_blowup`, sorted by vertex."""
    from nashtoric.cones import Cone
    from nashtoric.semigroups import AffineSemigroup

    a = surface_profile(S).ordered_generators
    sums = [(u[0] + v[0], u[1] + v[1]) for u, v in zip(a, a[1:])]

    def step(u, v):
        return (v[0] - u[0], v[1] - u[1])

    vertices = [
        s
        for i, s in enumerate(sums)
        if i in (0, len(sums) - 1) or _cross(step(sums[i - 1], s), step(s, sums[i + 1]))
    ]
    charts = []
    for j, v in enumerate(vertices):
        back = step(v, vertices[j - 1]) if j else a[0]
        ahead = step(v, vertices[j + 1]) if j + 1 < len(vertices) else a[-1]
        charts.append((v, AffineSemigroup.from_cone(Cone.from_rays((back, ahead), 2))))
    return sorted(charts, key=lambda c: c[0])
