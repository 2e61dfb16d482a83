import pytest

from nashtoric import AffineSemigroup, Cone


@pytest.fixture
def cone_conversions(monkeypatch):
    """A one-item list counting the semigroups that convert their cone on
    first read: those built without one, the images."""
    count = [0]
    read = AffineSemigroup.cone.fget

    def cone(S):
        count[0] += S._cone is None
        return read(S)

    monkeypatch.setattr(AffineSemigroup, "cone", property(cone))
    return count


@pytest.fixture
def threefold():
    """Non-normal threefold whose char-2 ideal loses an exponent."""
    return AffineSemigroup.from_cone(
        Cone.from_rays(((1, 0, 0), (0, 1, 0), (1, 1, 2)), 3)
    )


@pytest.fixture
def cusp():
    """Numerical semigroup <2,3>, the canonical trivial-blowup example."""
    return AffineSemigroup(1, [(2,), (3,)])
