"""Exact rational feasibility via Fourier-Motzkin elimination.

A constraint is a pair (direction, bound) meaning <direction, x> >= bound.
Directions may mix ints and Fractions; internally every constraint is scaled
to a primitive integer direction with a Fraction bound, and parallel
constraints are collapsed to the tightest bound.
"""

from fractions import Fraction
from math import gcd

from .errors import DimensionError


def _normalized(constraints, dim):
    """Scale to primitive int directions; returns dir -> bound, or None."""
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


def rational_feasible(constraints, dim: int):
    """Return a rational point satisfying every constraint, or None.

    The witness is exact; callers can substitute it back verbatim.
    """
    if dim < 0:
        raise DimensionError("dimension must be nonnegative")
    system = _normalized(constraints, dim)
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
