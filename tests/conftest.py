"""Shared fixtures: frozen integer nets screened offline for regularity,
a smooth Pfaffian cubic, and clean enumerated behavior over GF(2) and
GF(3).  Frozen rather than regenerated so the suite never depends on the
rejection sampler's retry budget."""

from fractions import Fraction

import pytest

from pfaffian_nets.correspondence import ANet, degenerate_net
from pfaffian_nets.fields import QQ

PINNED_UPPERS = [
    [[2, 1, 2, 3, -3, 1, -2, -2, -2, 0, -3, 2, 0, -2, 0],
     [-2, 0, 3, 3, 1, 1, -1, 3, 1, 3, -3, 3, -3, 1, -3],
     [0, -2, 1, 2, 0, 2, 2, 2, 3, -2, 2, 2, -1, 1, 1],
     [1, 0, 2, -3, -2, -3, 2, 0, -2, -2, 2, -2, -3, 1, 3],
     [2, 2, 1, 2, -3, -2, -1, -2, -1, -2, 0, -3, -3, -3, 2]],
    [[-1, 0, -1, 2, 2, -2, -2, -3, -2, 3, -3, -2, 2, 2, 2],
     [3, 1, -2, 2, 2, -1, -1, 3, -1, -2, 0, -1, -1, 2, 2],
     [1, 0, 1, -1, 0, -2, 2, 1, 1, 0, 3, -1, -1, 3, 1],
     [-3, -3, -1, -2, 3, -3, -2, -2, 3, 2, -1, 1, -2, 1, 3],
     [1, 1, 3, 3, 0, 0, -1, -1, 2, -3, -1, -1, -1, -2, -2]],
    [[3, -1, 3, 2, 2, 2, -2, 2, -1, -2, 1, -3, 2, 0, 1],
     [1, 3, 2, 3, 0, 1, 1, -1, -3, -2, -3, 2, -3, -3, -1],
     [1, -2, 0, -2, 2, -1, -2, -1, 3, 3, 2, 0, -3, -2, -2],
     [-3, 2, 2, 2, 3, 0, -2, 3, -2, -3, -3, 2, 1, 0, -1],
     [1, 0, 1, -2, 1, -3, 3, 0, -3, 0, 2, 2, 1, 1, -3]],
    [[-3, 3, -2, 2, 3, -2, 0, -1, -3, 2, -2, 3, 3, -3, -2],
     [-3, -2, -3, -3, 2, 3, -1, -1, 2, -3, 3, -2, 1, -1, 0],
     [-1, 1, -2, 2, -1, 0, -3, 0, 0, 1, -2, -1, -2, 3, 1],
     [-3, -3, -3, 1, 3, 3, -3, 3, -2, -1, 1, 0, -1, -3, -1],
     [1, 1, -2, 3, 3, -3, -3, 2, 2, 0, 3, 3, 1, 0, 2]],
    [[-3, 3, 0, 3, 1, 1, 3, 2, -2, -1, 1, 1, -1, 2, 2],
     [-3, 0, -1, -1, -2, 1, -2, -3, -1, -2, -3, 0, -2, 0, -2],
     [1, 2, -2, 1, -1, -2, 3, 2, 0, 3, -3, -2, 2, 3, 2],
     [-3, 2, 0, 2, 2, 2, -3, 2, -3, 0, -3, 2, 3, -3, 0],
     [-2, 3, 1, -2, -2, 2, 0, -3, 0, -3, -3, 0, 2, 2, 0]],
]


def random_value(field, rng, bound=10):
    """A random payload of `field`: over QQ a fraction with numerator in
    [-bound, bound] and denominator in [1, bound], else a uniform element."""
    if field.kind == "QQ":
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    if field.kind == "GF(p)":
        return rng.randrange(field.p)
    return tuple(rng.randrange(field.p) for _ in range(field.k))


@pytest.fixture(scope="session")
def pinned_net():
    return ANet.from_upper_triangles(QQ, 6, PINNED_UPPERS[0])


@pytest.fixture(scope="session")
def pinned_family():
    return [ANet.from_upper_triangles(QQ, 6, u) for u in PINNED_UPPERS]


@pytest.fixture(scope="session")
def degenerate_fixture():
    return degenerate_net(seed=2)
