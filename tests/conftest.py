"""Shared fixtures: frozen integer nets screened offline for regularity,
a smooth Pfaffian cubic, and clean enumerated behavior over GF(2) and
GF(3).  Frozen rather than regenerated so the suite never depends on the
rejection sampler's retry budget."""

import contextlib
import os
import signal
from fractions import Fraction

import numpy as np
import pytest

from pfaffian_nets.cli import ENV_PREFIX
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


@pytest.fixture(scope="session", autouse=True)
def _no_option_variables():
    """Every test runs without the caller's PFAFFIAN_NETS_* variables,
    which the CLI reads as option defaults, module-scoped fixtures too; a
    test that needs one sets it with `monkeypatch.setenv`."""
    with pytest.MonkeyPatch.context() as patch:
        for key in list(os.environ):
            if key.startswith(ENV_PREFIX):
                patch.delenv(key)
        yield


def random_value(field, rng, bound=10):
    """A random payload of `field`: over QQ a fraction with numerator in
    [-bound, bound] and denominator in [1, bound], else a uniform element."""
    if field.kind == "QQ":
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    if field.kind == "GF(p)":
        return rng.randrange(field.p)
    return tuple(rng.randrange(field.p) for _ in range(field.k))


def recording(products):
    """An ndarray subclass whose matmuls, as `@` or `np.matmul`, append
    their (M, N, K) to `products`; results are plain arrays."""
    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *args, **kwargs):
            plain = [a.view(np.ndarray) if isinstance(a, Recorded) else a
                     for a in args]
            if ufunc is np.matmul:
                a, b = plain[:2]
                products.append((a.shape[0], b.shape[1], a.shape[1]))
            if "out" in kwargs:
                kwargs["out"] = tuple(o.view(np.ndarray)
                                      for o in kwargs["out"])
            return getattr(ufunc, method)(*plain, **kwargs)

    return Recorded


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run `seconds` of wall
    time, so that a loop that never ends fails the test instead of
    hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("still running after %s s" % seconds)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def pinned_net():
    return ANet.from_upper_triangles(QQ, 6, PINNED_UPPERS[0])


@pytest.fixture(scope="session")
def pinned_family():
    return [ANet.from_upper_triangles(QQ, 6, u) for u in PINNED_UPPERS]


@pytest.fixture(scope="session")
def degenerate_fixture():
    return degenerate_net(seed=2)
