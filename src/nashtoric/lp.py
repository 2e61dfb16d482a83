"""Exact rational feasibility as one cone conversion.

A constraint is a pair (direction, bound) meaning <direction, x> >= bound;
directions may mix ints and Fractions. Written x = u - w with u, w >= 0,
the system is feasible exactly when the pointed cone {(u, w, t) >= 0 :
<a, u - w> - b t >= 0} has a point with t > 0 (Schrijver, Theory of Linear
and Integer Programming, 1986, ch. 7). The cone is generated by its
extreme rays, so then one of them has t > 0, and (u - w) / t is an exact
witness. Each constraint becomes the integer normal s (a, -a, -b), s the
lcm of its denominators, and one double-description pass finds the rays.
The 2n + 1 unit normals come first: they are their own frame, so the pass
starts from the simplicial cone of the unit vectors, the orthant, as every
conversion starts from its frame's (`cones._frame`), and inserts the rest.
"""

from fractions import Fraction
from math import lcm

from .cones import _double_description, _seed
from .errors import DimensionError
from .linalg import dot, identity, vneg


def rational_feasible(constraints, dim: int):
    """Return a rational point satisfying every constraint, or None.

    The witness is exact; callers can substitute it back verbatim.
    """
    if dim < 0:
        raise DimensionError("dimension must be nonnegative")
    rows = []
    for direction, bound in constraints:
        if len(direction) != dim:
            raise DimensionError(
                f"constraint direction has length {len(direction)}, expected {dim}"
            )
        entries = [Fraction(x) for x in direction] + [-Fraction(bound)]
        s = lcm(*(f.denominator for f in entries))
        rows.append(tuple(int(f * s) for f in entries))
    n = 2 * dim + 1
    units = identity(n)
    normals = units + tuple(r[:dim] + vneg(r[:dim]) + r[dim:] for r in rows)
    for ray, _ in _double_description(_seed(units), normals, range(n, len(normals)), n):
        if ray[-1] > 0:
            witness = tuple(Fraction(u - w, ray[-1]) for u, w in zip(ray[:dim], ray[dim:-1]))
            for row in rows:
                if dot(row, witness + (1,)) < 0:
                    raise RuntimeError(f"cone witness violates constraint {row} >= 0")
            return witness
    return None
