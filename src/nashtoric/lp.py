"""Exact rational feasibility as one cone conversion.

A constraint is a pair (direction, bound) meaning <direction, x> >= bound;
directions may mix ints and Fractions. The system is feasible exactly when
its homogenized cone {(x, t) : <a, x> - b t >= 0, t >= 0} has a point with
t > 0 (Schrijver, Theory of Linear and Integer Programming, 1986, ch. 7).
The cone is generated by its rays, so then one of them has t > 0, and x / t
is an exact witness. Each constraint becomes the integer normal s (a, -b),
s the lcm of its denominators, and `Cone.from_halfspaces` converts them.
"""

from fractions import Fraction
from math import lcm

from .cones import Cone
from .errors import DimensionError
from .linalg import dot


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
    rows.append((0,) * dim + (1,))
    for *x, t in Cone.from_halfspaces(rows, dim + 1).rays:
        if t > 0:
            witness = tuple(Fraction(a, t) for a in x)
            for row in rows:
                if dot(row, witness + (1,)) < 0:
                    raise RuntimeError(f"cone witness violates constraint {row} >= 0")
            return witness
    return None
