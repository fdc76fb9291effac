"""Pointwise verification of the fiber-square resolutions over finite fields.

The incidence locus W sits inside Y x X as the pairs (a, U) whose kernel
plane meets U.  Its resolution restricts at each closed point to a short
zig-zag of linear maps

    Ker f(a)  ->  V/U  ->  U*

whose composition vanishes identically, which is exact off W, and which
degenerates in corank exactly one on W.  These are statements about ranks
of small matrices over GF(q), so they are checked literally: full
enumeration of Y x X over GF(2) and GF(3), seeded random sampling through
the quartic hypersurface Q for larger fields.  A single failed pair is a
hard failure; larger samples only ever widen coverage.

The pairs of a plan are held as arrays of field codes (`modnum.FieldCodes`)
and checked in vectorized blocks; only a failing pair becomes a Python
record, with field payloads and Plucker coordinates.

Random plans draw from random.Random(seed) as a loop of `choice` calls
over the field's elements would, one coordinate at a time.  The report
digest pins those draws, so `_random_pairs` replays that stream exactly:
it takes the generator's 32-bit words in blocks and decodes each `choice`
by CPython's `_randbelow_with_getrandbits` rule (the top
len(seq).bit_length() bits of a word, the word skipped while they are
>= len(seq)).  A test fails if the interpreter's rule changes.
"""

from __future__ import annotations

import bisect
import random

import numpy as np

from . import modnum
from .correspondence import (_combine, _matmul, _phi_bases, _u_sides,
                             pfaffian_hypersurface, rank_oracle, x_points,
                             y_points)
from .grassmann import _CHUNK, plucker_from_basis
from .matrices import ExactMatrix

_TRY_FACTOR = 400  # random-mode rejection budget per requested sample


class SamplePlan:
    """How to pick verification points: `enumerate` walks all of Y x X,
    `random` draws seeded samples, `auto` enumerates when the field has at
    most three elements.  Everything downstream is deterministic given the
    seed."""

    def __init__(self, field, count=1000, seed=0, mode="auto"):
        if mode not in ("auto", "enumerate", "random"):
            raise ValueError("mode must be auto, enumerate or random")
        if field.order is None:
            raise ValueError("sampling needs a finite field")
        if mode == "auto":
            mode = "enumerate" if field.order <= 3 else "random"
        if mode == "random" and count < 1:
            raise ValueError("random mode needs a positive sample count")
        self.field = field
        self.count = count
        self.seed = seed
        self.mode = mode

    def describe(self):
        return {"field": self.field.name, "mode": self.mode,
                "count": self.count, "seed": self.seed}

    def __repr__(self):
        return "SamplePlan(%s, mode=%s, count=%d, seed=%d)" % (
            self.field.name, self.mode, self.count, self.seed)


class FiberRecords:
    """The fiber records of a list of pairs (a in Y, U in X), read by every
    check, as arrays of field codes (`modnum.FieldCodes`).  The points a
    come as code rows `a_codes`, the planes U as 2 x 2m code bases
    `bases`.  The a-sides are rank f(a) and the kernel rows of f(a), read
    from the a-side rank oracle (`RankOracle.kernels`, which keeps them
    for the points of Y), and f(a) itself, made from the a given; the
    U-sides are U's RREF basis `red`, its pivot columns `piv` and
    complement columns `comp`.  Each side is built once per point; pair k
    reads a-side a_idx[k] and U-side u_idx[k].  Per pair, built in blocks
    of _CHUNK pairs: `uf` = red @ f(a), row b the functional u_b^T f(a),
    and `dim` = dim(Ker f(a) cap U) = 2 - rank uf, as the left and right
    kernels of the skew f(a) agree.  The pair lies on the incidence locus W
    exactly when that dimension is positive, and 2 would mean U is the
    whole kernel plane, a singular point of X.  Field payloads and Plucker
    points are made only for a pair that is reported (`point_a`,
    `point_u`)."""

    def __init__(self, net, a_codes, bases, a_idx, u_idx):
        field = self.field = net.field
        fc = self.fc = modnum.field_codes(field)
        two_m = net.two_m
        self.a_codes = a_codes
        self.a_idx, self.u_idx = a_idx, u_idx
        oracle = rank_oracle(net, field, "a")
        self.rank, self.kernel = oracle.kernels(a_codes)
        fa = _combine(fc, oracle.stack, a_codes)
        self.red, self.piv, self.comp = _u_sides(fc, bases)
        self.uf = np.empty((len(a_idx), 2, two_m), dtype=np.int64)
        self.dim = np.empty(len(a_idx), dtype=np.int64)
        for lo, hi in self.blocks():
            ai, ui = a_idx[lo:hi], u_idx[lo:hi]
            self.uf[lo:hi] = _matmul(fc, self.red[ui], fa[ai])
            self.dim[lo:hi] = 2 - modnum.batch_rank_table(self.uf[lo:hi], fc)

    def __len__(self):
        return len(self.a_idx)

    def blocks(self):
        """(lo, hi) bounds of consecutive blocks of up to _CHUNK pairs."""
        return [(lo, min(len(self), lo + _CHUNK))
                for lo in range(0, len(self), _CHUNK)]

    def point_a(self, k):
        """Pair k's a, as a tuple of field payloads."""
        return tuple(self.fc.decode(self.a_codes[self.a_idx[k]]))

    def point_u(self, k):
        """Pair k's U, as the Plucker point of its reduced basis."""
        return plucker_from_basis(ExactMatrix(
            self.field, self.fc.decode(self.red[self.u_idx[k]])))

    def fail(self, report, k, reason):
        report.fail(self.point_a(k), self.point_u(k).coords, reason)


class JwReport:
    """Counts plus an explicit witness list; passed means a nonempty sample
    with zero failures."""

    def __init__(self, name, plan):
        self.name = name
        self.plan = plan.describe()
        self.checked = 0
        self.on_w = 0
        self.off_w = 0
        self.failures = []

    def fail(self, a, u_coords, reason):
        self.failures.append({"a": [repr(x) for x in a],
                              "u": [repr(x) for x in u_coords],
                              "reason": reason})

    def tally(self, records):
        self.on_w = int(np.count_nonzero(records.dim))
        self.off_w = len(records) - self.on_w

    @property
    def passed(self):
        return self.checked > 0 and not self.failures

    def as_dict(self):
        return {"name": self.name, "plan": self.plan,
                "checked": self.checked, "on_w": self.on_w,
                "off_w": self.off_w, "failures": list(self.failures),
                "passed": self.passed}

    def __repr__(self):
        return "JwReport(%s: %d checked, %d on W, passed=%s)" % (
            self.name, self.checked, self.on_w, self.passed)


def _jw_block(records, lo, hi, report):
    """Check pairs lo..hi: the first map sends a kernel row to its
    coordinates in V/U on the complement columns (the row minus its pivot
    entries times U's reduced rows), the second reads uf on the complement
    columns."""
    fc, two_m = records.fc, records.uf.shape[2]
    ai, ui = records.a_idx[lo:hi], records.u_idx[lo:hi]
    red, comp, uf = records.red[ui], records.comp[ui], records.uf[lo:hi]
    kernel, rank, dim = records.kernel[ai], records.rank[ai], \
        records.dim[lo:hi]
    gram = _matmul(fc, uf, red.transpose(0, 2, 1)).any(axis=(1, 2))
    lead = np.take_along_axis(kernel, records.piv[ui][:, None, :], axis=2)
    lifted = fc.sub(kernel, _matmul(fc, lead, red))
    first = np.take_along_axis(lifted, comp[:, None, :], axis=2)
    second = np.take_along_axis(uf, comp[:, None, :], axis=2)
    composite = _matmul(fc, second, first.transpose(0, 2, 1)) \
        .any(axis=(1, 2))
    r1 = modnum.batch_rank_table(first, fc)
    r2 = modnum.batch_rank_table(second, fc)
    # the first failing check of each pair, in the order they are proved:
    # f(a) has corank 2 and vanishes on U x U, Ker f(a) -> V/U -> U* is a
    # complex, exact off W and of corank one on W
    checks = [
        (rank != two_m - 2, "rank f(a) = %d on Y", rank),
        (gram, "f(a) does not vanish on U x U", None),
        (composite, "composition Ker -> V/U -> U* nonzero", None),
        ((dim == 0) & (r1 != 2), "first map not injective off W (rank %d)",
         r1),
        ((dim == 0) & (r2 != 2), "second map not surjective off W (rank %d)",
         r2),
        ((dim == 1) & (r2 != 1), "cokernel of V/U -> U* has dim %d on W",
         2 - r2),
        ((dim == 1) & (r1 != 1), "first map rank %d on W", r1),
        (dim > 1, "Ker f(a) = U: U is a singular point of X", None)]
    which = np.select([c for c, _, _ in checks], range(len(checks)), -1)
    for k in np.nonzero(which >= 0)[0].tolist():
        _, reason, value = checks[which[k]]
        records.fail(report, lo + k,
                     reason if value is None else reason % value[k])


def _pairs(net, plan):
    """The FiberRecords of the pairs a plan checks: all of Y x X when
    enumerating, else plan.count seeded draws.  Memoized on the net by
    the plan's value, so jw and jw1 read one set of records."""
    key = ("pairs", plan.field, plan.mode, plan.count, plan.seed)
    return net.derived(key, lambda: _build_pairs(net, plan))


def _build_pairs(net, plan):
    field = plan.field
    reduced = net.over(field)
    if plan.mode == "random":
        a_codes, bases = _random_pairs(net, plan)
        idx = np.arange(len(a_codes))
        return FiberRecords(reduced, a_codes, bases, idx, idx)
    ys = y_points(net, field)
    xs = x_points(net, field)
    if not len(ys) or not len(xs):
        raise ValueError("no sample points over %s: |Y| = %d, |X| = %d"
                         % (field.name, len(ys), len(xs)))
    return FiberRecords(reduced, ys, xs,
                        np.repeat(np.arange(len(ys)), len(xs)),
                        np.tile(np.arange(len(xs)), len(ys)))


_BLOCK = 4 * _CHUNK  # stream words _random_pairs draws and ranks at a time


def _stream_words(rng, n):
    """The next n 32-bit outputs of rng, in the order it makes them."""
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"),
                         dtype="<u4").astype(np.int64)


def _random_pairs(net, plan):
    """plan.count random pairs (a, U) over the plan's field: the code rows
    of the a, and the code bases of the U that the fiber of phi gives.  a
    is drawn by rejection against the cubic, U by rejection against the
    quartic followed by the fiber of phi (every plane of X through a
    vector v arises that way).  The net is checked for degeneracy where it
    was given, as `y_points` does.  Both tests read the rank oracle:
    Pf(f(a)) = 0 iff rank f(a) < 6, and for v != 0, Q(v) = 0 iff rank f_v
    < 5, because f_v v = 0 makes the maximal minors of f_v the products
    +-v_i Q(v).

    The draws are those of a loop on random.Random(plan.seed) that picks
    each coordinate by `choice` over the field's elements, and the report
    digest pins them, so the stream is replayed exactly.  Pairs alternate
    a, v.  An a-trial is 5 picks and a v-trial 6; an all-zero trial is
    drawn again and costs none of the _TRY_FACTOR tries per sample that
    any other spends.  a is kept when rank f(a) < 6.  v is rejected at
    rank f_v = 5 and refused at rank <= 2; at rank 3 the fiber is a line,
    and one more `choice` over its q + 1 points (1 : x), (0 : 1) picks U.

    The replay decodes _BLOCK words at a time by the rule in the module
    docstring.  The element picks form one stream S of codes, read in
    windows of 5 and 6; the pencil pick decodes the raw words, with its
    own bit width, where the walk reaches it, and S resumes after the word
    it took.  The ranks of every window of S in a block come from one
    `RankOracle.ranks` call per side."""
    field = plan.field
    if (net.n, net.two_m) != (5, 6):
        raise ValueError("the quartic construction is the n=5, 2m=6 case")
    pfaffian_hypersurface(net)  # a degenerate net raises here
    reduced = net.over(field)
    on_y = rank_oracle(reduced, field, "a")
    on_q = rank_oracle(reduced, field, "v")
    fc = on_q.fc
    q = fc.q
    codes = fc.encode(list(field.elements()))
    zero, one = fc.zero, fc.one
    pencil = [(one, c) for c in codes.tolist()] + [(zero, one)]
    elem_shift, pencil_shift = 32 - q.bit_length(), 32 - (q + 1).bit_length()
    budget = _TRY_FACTOR * plan.count * max(4, q)
    rng = random.Random(plan.seed)
    words = np.empty(0, dtype=np.int64)
    a_rows, v_rows, params = [], [], []
    phase = "a"  # what the walk draws next: an a-trial, a v-trial, a pencil
    while len(params) < plan.count:
        words = np.concatenate([words, _stream_words(rng, _BLOCK)])
        picks = words >> elem_shift
        pos = np.flatnonzero(picks < q)
        stream = codes[picks[pos]]
        ranks = {}
        for width, oracle in ((5, on_y), (6, on_q)):
            windows = np.lib.stride_tricks.sliding_window_view(stream, width)
            live = windows.any(axis=1)
            rank = np.full(len(windows), -1, dtype=np.int64)
            rank[live] = oracle.ranks(windows[live])
            ranks[width] = rank.tolist()
        on_line = np.flatnonzero(words >> pencil_shift <= q).tolist()
        pos, stream = pos.tolist(), stream.tolist()
        j = 0  # the next value of S
        cursor = 0  # the next raw word
        while len(params) < plan.count:
            if phase == "pencil":
                k = bisect.bisect_left(on_line, cursor)
                if k == len(on_line):
                    break
                cursor = on_line[k] + 1
                params.append(pencil[int(words[cursor - 1]) >> pencil_shift])
                j = bisect.bisect_left(pos, cursor)
                phase = "a"
                continue
            width = 5 if phase == "a" else 6
            if j + width > len(stream):
                break
            rank = ranks[width][j]
            j += width
            cursor = pos[j - 1] + 1
            if rank < 0:
                continue
            budget -= 1
            if budget < 0:
                raise ValueError("rejection budget exhausted over %s"
                                 % field.name)
            if phase == "a":
                if rank < 6:
                    a_rows.append(stream[j - 5:j])
                    phase = "v"
                continue
            if rank == 5:
                continue
            if rank < 3:
                raise ValueError(
                    "(Im f_v)^perp has dimension %d; rank f_v = %d <= 2 "
                    "violates the minimal-rank bound" % (6 - rank, rank))
            v_rows.append(stream[j - 6:j])
            if rank == 4:
                params.append((zero, zero))
                phase = "a"
            else:
                phase = "pencil"
        words = words[cursor:]
    bases = _phi_bases(fc, on_q.stack, np.array(v_rows, dtype=np.int64),
                       np.array(params, dtype=np.int64))
    return np.array(a_rows, dtype=np.int64), bases


def jw_pointwise(net, plan):
    """Exactness-off-W and corank-one-on-W checks at sampled pairs."""
    report = JwReport("jw_pointwise", plan)
    records = _pairs(net, plan)
    for lo, hi in records.blocks():
        _jw_block(records, lo, hi, report)
    report.checked = len(records)
    report.tally(records)
    return report


def jw1_section_check(net, plan):
    """The incidence locus inside Y x P(U-bundle) is cut out by the section
    hf; checked triple by triple, including the agreement of the two
    membership predicates.  hf(a, U, v) for v = s u1 + t u2 reads the
    functional s (u1^T f(a)) + t (u2^T f(a)) on the complement lifts; it
    must vanish exactly when v lies in Ker f(a), where the whole functional
    (-f(a) v, as f(a) is skew) vanishes.  Enumeration tries every v in U;
    random mode one seeded v per pair."""
    report = JwReport("jw1_section_check", plan)
    f = plan.field
    records = _pairs(net, plan)
    fc = records.fc
    elements = list(f.elements())
    if plan.mode == "enumerate":
        params = [(f.one_value, f.zero_value)] \
            + [(x, f.one_value) for x in elements]
    else:
        one_v = [(f.one_value, x) for x in elements] \
            + [(f.zero_value, f.one_value)]
        rng = random.Random(plan.seed + 1)
        params = [rng.choice(one_v) for _ in range(len(records))]
    params = fc.encode(params)
    probes = len(params) if plan.mode == "enumerate" else 1
    for lo, hi in records.blocks():
        # st[k, j]: probe j of pair k; one probe list for all when enumerating
        st = params[None] if plan.mode == "enumerate" \
            else params[lo:hi, None]
        uf = records.uf[lo:hi]
        row = fc.add(fc.mul(st[..., :1], uf[:, None, 0]),
                     fc.mul(st[..., 1:], uf[:, None, 1]))
        comp = records.comp[records.u_idx[lo:hi]]
        hf_zero = ~np.take_along_axis(row, comp[:, None, :], axis=2) \
            .any(axis=2)
        disagree = hf_zero != ~row.any(axis=2)
        hits = hf_zero.any(axis=1)
        on_w = records.dim[lo:hi] > 0
        locus = (hits != on_w) & (plan.mode == "enumerate")
        off_w = hits & ~on_w
        for k in np.nonzero(disagree.any(axis=1) | locus | off_w)[0]:
            for _ in range(int(disagree[k].sum())):
                records.fail(report, lo + k,
                             "hf vanishing disagrees with kernel membership")
            if locus[k]:
                records.fail(report, lo + k,
                             "section zero locus disagrees with "
                             "kernel-intersection membership")
            if off_w[k]:
                records.fail(report, lo + k, "section vanishes off W")
    report.checked = len(records) * probes
    report.tally(records)
    return report

