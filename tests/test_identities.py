"""Counting identities between Y, X and the rank tables over small fields,
on seeded random nets and on the constructed singular fixtures, none of
them screened for regularity.  Each identity is a theorem about every net
of n = 5 forms on a 6-dimensional V whose forms stay independent over the
field, so a field the net does not reach is skipped."""

import functools
import random

import numpy as np
import pytest

from pfaffian_nets.correspondence import (degenerate_net, random_net,
                                          rank_oracle, x_points, y_points)
from pfaffian_nets.fields import GF, QQ

from scalar_references import fv_rank_table

NETS = ["random-%d" % s for s in range(10)] \
    + ["degenerate-%d" % s for s in range(3)]
FIELDS = [GF(2), GF(3), GF(2, 2), GF(5)]


@functools.cache
def _net(name):
    kind, seed = name.rsplit("-", 1)
    if kind == "random":
        return random_net(QQ, 5, 6, random.Random(int(seed)), bound=2)
    return degenerate_net(seed=int(seed))


def _reached(name, field):
    net = _net(name)
    if not net.reaches(field):
        pytest.skip("%s does not reduce to %s" % (name, field))
    return net


def _projective_size(q, dim):
    """#P^(dim - 1)(F_q), the points of a dim-dimensional space."""
    return (q ** dim - 1) // (q - 1)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", NETS)
def test_kernel_points_over_y_count_x_twice_over(name, field):
    """sum over a in Y of #P(Ker f(a)) = (q + 1) #X.  Both sides count
    the pairs (v, .) with v in P(V): the a with v in Ker f(a) form
    P(left kernel of f_v), as f(a) v = -(a^T f_v)^T, so there are
    #P^(n - rank f_v - 1) of them; the U in X through v are the planes
    through v inside Ker f_v, #P^(2m - rank f_v - 2) of them.  The two
    agree when n = 2m - 1, and each U has q + 1 points v."""
    net = _reached(name, field)
    assert net.n == net.two_m - 1
    q = field.order
    _, rank, _ = rank_oracle(net, field, "a").on_y
    kernel_points = _projective_size(q, net.two_m - rank).sum()
    assert kernel_points == (q + 1) * len(x_points(net, field))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", NETS)
def test_x_exceeds_y_by_the_rank_two_points(name, field):
    """#X - #Y = q^2 #{a in Y : rank f(a) = 2}.  With 2m = 6 and the forms
    independent, f(a) is a nonzero skew matrix, so rank f(a) is 2 or 4 on
    Y, and P(Ker f(a)) has q + 1 or (q + 1)(q^2 + 1) points; the identity
    above then reads (q + 1)(#Y + q^2 #Y_2) = (q + 1) #X."""
    net = _reached(name, field)
    assert net.two_m == 6
    _, rank, _ = rank_oracle(net, field, "a").on_y
    assert set(rank.tolist()) <= {2, 4}
    assert len(x_points(net, field)) - len(y_points(net, field)) \
        == field.order ** 2 * np.count_nonzero(rank == 2)


@pytest.mark.parametrize("field", FIELDS[:2], ids=str)
@pytest.mark.parametrize("name", NETS)
def test_walked_fv_table_is_the_ranked_one(name, field):
    """The f_v table walked from the kernels of f(a) over Y equals rank
    f_v ranked at every point of P(V): the walk's counts are sizes of
    projective spaces for every net, regular or not."""
    net = _reached(name, field)
    assert np.array_equal(rank_oracle(net, field, "v").table,
                          fv_rank_table(net, field))
