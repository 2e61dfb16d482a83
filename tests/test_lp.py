import random
from fractions import Fraction
from math import lcm

import pytest

from nashtoric.errors import DimensionError
from nashtoric.linalg import rank
from nashtoric.lp import rational_feasible
from oracles import fourier_motzkin_feasible


def satisfies(point, constraints):
    return all(
        sum(Fraction(d) * x for d, x in zip(direction, point)) >= bound
        for direction, bound in constraints
    )


def test_empty_system_is_feasible():
    point = rational_feasible([], 2)
    assert point is not None
    assert len(point) == 2


def test_single_halfline():
    point = rational_feasible([((1,), 1)], 1)
    assert point is not None and point[0] >= 1


def test_contradiction():
    assert rational_feasible([((1,), 1), ((-1,), 0)], 1) is None
    assert rational_feasible([((1, 0), 2), ((-1, 0), -1)], 2) is None


def test_zero_direction():
    # 0 >= 1 is false, 0 >= -3 is vacuous
    assert rational_feasible([((0, 0), 1)], 2) is None
    assert rational_feasible([((0, 0), -3)], 2) is not None
    assert rational_feasible([((0, 0), 0)], 2) is not None


def test_fractional_directions_are_scaled():
    # x/2 >= 1 is x >= 2
    point = rational_feasible([((Fraction(1, 2),), 1)], 1)
    assert point is not None and point[0] >= 2


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        rational_feasible([((1, 2, 3), 0)], 2)


def test_tight_equality_pair():
    # x >= 3 and -x >= -3 pins x = 3
    point = rational_feasible([((1, 0), 3), ((-1, 0), -3), ((0, 1), 5)], 2)
    assert point is not None
    assert point[0] == 3 and point[1] >= 5


def test_strict_separation_instance():
    # separating functional for the vertex (2,2,1) of the threefold ideal
    cons = [
        ((0, 1, 2), 1),
        ((1, 0, 2), 1),
        ((1, 0, 0), 1),
        ((0, 1, 0), 1),
        ((1, 1, 2), 1),
    ]
    point = rational_feasible(cons, 3)
    assert point is not None
    assert satisfies(point, cons)


def test_random_known_feasible():
    rng = random.Random(201)
    for _ in range(200):
        dim = rng.randint(1, 4)
        witness = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim)
        )
        cons = []
        for _ in range(rng.randint(1, 8)):
            d = tuple(rng.randint(-5, 5) for _ in range(dim))
            slack = rng.randint(0, 6)
            b = sum(Fraction(di) * xi for di, xi in zip(d, witness)) - slack
            cons.append((d, b))
        point = rational_feasible(cons, dim)
        assert point is not None
        assert satisfies(point, cons)


def test_random_known_infeasible():
    rng = random.Random(202)
    for _ in range(200):
        dim = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(0, 6)):
            d = tuple(rng.randint(-5, 5) for _ in range(dim))
            cons.append((d, rng.randint(-10, 10)))
        d = tuple(rng.randint(-5, 5) for _ in range(dim))
        if not any(d):
            d = (1,) + d[1:]
        b = rng.randint(-10, 10)
        # <d,x> >= b together with <-d,x> >= 1-b has no solution
        cons.append((d, b))
        cons.append((tuple(-x for x in d), 1 - b))
        assert rational_feasible(cons, dim) is None


def test_random_mixed_systems_verified():
    # whatever the verdict, a returned point must satisfy the system
    rng = random.Random(203)
    feasible_seen = 0
    for _ in range(300):
        dim = rng.randint(1, 3)
        cons = [
            (
                tuple(rng.randint(-4, 4) for _ in range(dim)),
                rng.randint(-8, 8),
            )
            for _ in range(rng.randint(1, 7))
        ]
        point = rational_feasible(cons, dim)
        if point is not None:
            feasible_seen += 1
            assert satisfies(point, cons)
    assert feasible_seen > 0


def test_dimension_zero_and_one_pass_over_the_input():
    assert rational_feasible([], 0) == ()
    assert rational_feasible([((), 1)], 0) is None
    assert rational_feasible([((), 0), ((), -2)], 0) == ()
    cons = [((1, 0), 3), ((-1, 0), -3), ((0, Fraction(1, 2)), 5)]
    assert rational_feasible((c for c in cons), 2) == rational_feasible(cons, 2)
    with pytest.raises(DimensionError):
        rational_feasible([], -1)


def _rank(directions):
    """Rank of Fraction vectors, each scaled to integers first."""
    rows = []
    for d in directions:
        s = lcm(*(Fraction(x).denominator for x in d))
        rows.append(tuple(int(x * s) for x in d))
    return rank(rows)


def test_agrees_with_fourier_motzkin():
    # the same verdict as elimination on random Fraction systems, and both
    # witnesses satisfy the system; a quarter carry an equality as two
    # opposite constraints, and directions of rank < dim leave an
    # unbounded direction, a line of solutions when there are any
    rng = random.Random(204)
    seen = {"feasible": 0, "infeasible": 0, "opposite pair": 0, "rank < dim": 0}

    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    for _ in range(400):
        dim = rng.randint(0, 4)
        cons = [
            (tuple(frac() for _ in range(dim)), frac()) for _ in range(rng.randint(0, 6))
        ]
        if rng.random() < 0.25:
            d, b = tuple(frac() for _ in range(dim)), frac()
            cons[rng.randint(0, len(cons)) : 0] = [(d, b), (tuple(-x for x in d), -b)]
        point = rational_feasible(cons, dim)
        reference = fourier_motzkin_feasible(cons, dim)
        assert (point is None) == (reference is None), (cons, dim)
        for x in (point, reference):
            if x is not None:
                assert len(x) == dim and satisfies(x, cons), (cons, dim, x)
        directions = [d for d, _ in cons]
        seen["feasible" if point is not None else "infeasible"] += 1
        seen["opposite pair"] += any(
            any(d) and tuple(-x for x in d) in directions for d in directions
        )
        seen["rank < dim"] += _rank(directions) < dim
    # seed 204 gives 254, 146, 91 and 110
    floors = {"feasible": 150, "infeasible": 80, "opposite pair": 55, "rank < dim": 60}
    assert all(seen[k] >= n for k, n in floors.items()), seen
