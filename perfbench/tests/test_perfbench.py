"""Self-tests of the benchmark: tracer arithmetic, binding-site patching,
generator timing, the metric tables, and two properties of real traced
runs (the report is unchanged by tracing; counts repeat exactly).

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Each reading advances time by one unit."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _module(name, source, **globs):
    mod = types.ModuleType(name)
    mod.__dict__.update(globs)
    exec(source, mod.__dict__)
    return mod


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [["root", 0.0, 10.0, -1],
             ["a", 1.0, 3.0, 0],
             ["b", 4.0, 8.0, 0],
             ["b.child", 5.0, 6.0, 2]]
    assert tracer.self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["c1", 1.0, 5.0, 0], ["c2", 3.0, 7.0, 0],
             ["c3", 9.0, 12.0, 0]]
    # children cover [1, 7] and [9, 10] of the parent
    assert tracer.self_times(spans)[0] == pytest.approx(3.0)


def test_recorded_spans_nest_and_close():
    t = tracer.Tracer(clock=FakeClock())
    outer = t.begin("outer")      # 1
    inner = t.begin("inner")      # 2
    t.end(inner)                  # 3
    t.end(outer)                  # 4
    assert t.spans == [["outer", 1.0, 4.0, -1], ["inner", 2.0, 3.0, 0]]
    assert tracer.self_times(t.spans) == [2.0, 1.0]
    with pytest.raises(RuntimeError):
        a = t.begin("a")
        t.begin("b")
        t.end(a)


def test_span_closes_when_the_call_raises():
    t = tracer.Tracer(clock=FakeClock())

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        t.wrap(boom, "boom")()
    assert t.spans == [["boom", 1.0, 2.0, -1]]
    assert t._open == []


# -- binding sites -----------------------------------------------------------

def _toy_package():
    a = _module("pkg.a", """
def f(x):
    return x + 1

class P:
    def __init__(self, n):
        self.terms = list(range(n))
    def __mul__(self, other):
        return P(len(self.terms) + 1)
    __rmul__ = __mul__
""")
    b = _module("pkg.b", """
def g(x):
    return f(x) * 2
""", f=a.f)
    return a, b


def test_install_patches_every_binding_site_and_restores():
    a, b = _toy_package()
    original_f, original_mul = a.f, a.P.__mul__
    t = tracer.Tracer(clock=FakeClock())
    targets = [tracer.Target("a.f", "pkg.a:f"),
               tracer.Target("a.mul", "pkg.a:P.__mul__"),
               tracer.Target("a.gone", "pkg.a:nothing_here")]
    restore, missing = tracer.install(t, targets, {"pkg.a": a, "pkg.b": b})
    assert missing == ["pkg.a:nothing_here"]
    assert b.g(1) == 4                     # through the copy imported by name
    assert a.f(1) == 2                     # through the defining module
    a.P(2) * a.P(1)                        # __mul__
    3 * a.P(1)                             # the __rmul__ alias
    assert [s[0] for s in t.spans] == ["a.f", "a.f", "a.mul", "a.mul"]
    restore()
    assert a.f is original_f and b.f is original_f
    assert a.P.__mul__ is original_mul and a.P.__rmul__ is original_mul


def test_label_and_count_hooks():
    t = tracer.Tracer(clock=FakeClock())
    fn = t.wrap(lambda name, n: n, "stage",
                label=lambda args: "stage." + args[0],
                pre=lambda tr, args, kw: tr.count("work", args[1]),
                post=lambda tr, result, args: tr.peak("top", result))
    fn("x", 3)
    fn("y", 2)
    assert [s[0] for s in t.spans] == ["stage.x", "stage.y"]
    assert t.counters == {"work": 5} and t.peaks == {"top": 3}


# -- generators --------------------------------------------------------------

def test_generator_is_timed_per_next_not_at_creation():
    closed = []

    def gen(n):
        try:
            for i in range(n):
                yield i
        finally:
            closed.append(True)

    t = tracer.Tracer(clock=FakeClock())
    traced = t.wrap_generator(gen, "g", per_item="g.points")
    it = traced(3)
    assert t.spans == []                   # creating it does no work
    assert list(it) == [0, 1, 2]
    # three items plus the final, empty next()
    assert [s[0] for s in t.spans] == ["g"] * 4
    assert all(end - start == 1.0 for _, start, end, _ in t.spans)
    assert t.counters == {"g.points": 3}
    assert closed == [True]

    for _ in traced(5):
        break                              # an early exit closes the source
    assert closed == [True, True]
    assert t._open == []


def test_work_inside_next_is_a_child_of_that_next():
    t = tracer.Tracer(clock=FakeClock())
    leaf = t.wrap(lambda: None, "leaf")

    def gen():
        leaf()
        yield 1

    outer = t.begin("consumer")
    for _ in t.wrap_generator(gen, "g")():
        leaf()                             # consumer work, not the generator's
    t.end(outer)
    names = [s[0] for s in t.spans]
    parents = [t.spans[s[3]][0] if s[3] >= 0 else None for s in t.spans]
    assert list(zip(names, parents)) == [
        ("consumer", None), ("g", "consumer"), ("leaf", "g"),
        ("leaf", "consumer"), ("g", "consumer")]


# -- metric tables -----------------------------------------------------------

def test_per_layer_metrics_from_synthetic_spans():
    spans = [["cli.build_report", 0.0, 10.0, -1],
             ["stage.jw", 0.0, 6.0, 0],
             ["verify.jw_pointwise", 1.0, 5.0, 1],
             ["multipoly.evaluate", 1.0, 2.0, 2],
             ["multipoly.evaluate", 2.0, 3.0, 2],
             ["correspondence.q_quartic", 3.0, 4.0, 2],
             ["multipoly.evaluate", 3.0, 3.5, 5],
             ["stage.jw1", 6.0, 9.0, 0],
             ["modnum.addmul_mod", 6.0, 8.0, 7]]
    counters = {"verify.checked_random": 1, "modnum.addmul_mod.flops": 4e9}
    out = layers.per_layer_metrics(spans, counters, {}, 10.0, 8.0)
    assert set(out) == {m for m, _, _ in layers.PER_LAYER}
    assert out["verify.draws"] == 2        # the quartic's own call is no draw
    assert out["verify.accept_ratio"] == 0.5
    assert out["multipoly.evaluate.calls"] == 3
    assert out["verify.jw_pointwise_s"] == pytest.approx(1.0)
    assert out["modnum.addmul_mod.gflops"] == pytest.approx(2.0)
    assert out["stage.coverage"] == pytest.approx(0.9)
    assert out["trace.overhead"] == pytest.approx(0.25)
    assert out["stage.regularity_s"] == 0.0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert spec["command"][1:] == ["perfbench/run.py"]


def test_fixtures_are_the_recorded_ones():
    with open(os.path.join(BENCH, "reference.json")) as fh:
        want = json.load(fh)["fixtures"]
    for name in workloads.WORKLOADS:
        text = workloads.fixture_text(name, run.SRC, run.TESTS)
        assert hashlib.sha256(text.encode()).hexdigest() == want[name], name


# -- real traced runs --------------------------------------------------------

# a cheaper pinned pipeline: the CLI takes option defaults from the
# environment, which run.py itself never passes on
CHEAP = {"PFAFFIAN_NETS_FIELDS": "2", "PFAFFIAN_NETS_SAMPLES": "20"}


def _child(mode, tmp_path, tag, fixture):
    report = tmp_path / ("report_%s.json" % tag)
    stamps = tmp_path / ("stamps_%s.json" % tag)
    spans = tmp_path / ("spans_%s.json" % tag)
    env = dict(run.child_env(), **CHEAP)
    proc = subprocess.run(
        [sys.executable, run.CHILD, mode, str(fixture), str(stamps), "0",
         str(report), str(spans)], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return report.read_bytes(), json.loads(stamps.read_text()), spans


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    fixture = tmp / "pinned.json"
    fixture.write_text(workloads.fixture_text("pinned", run.SRC, run.TESTS))
    plain = _child("pipeline", tmp, "plain", fixture)
    first = _child("trace", tmp, "first", fixture)
    second = _child("trace", tmp, "second", fixture)
    return plain, first, second


def test_traced_report_is_byte_identical(traced_runs):
    (plain, _, _), (first, stamps, _), (second, _, _) = traced_runs
    assert first == plain and second == plain
    assert stamps["missing"] == []
    assert workloads.check_report("pinned", 0, json.loads(plain)) == []


def test_traced_counts_repeat_exactly(traced_runs):
    (_, plain, _), *traced = traced_runs
    results = []
    for _, stamps, spans in traced:
        loaded = tracer.load(str(spans))
        results.append(layers.per_layer_metrics(
            *loaded, stamps["done"] - stamps["build"],
            plain["done"] - plain["build"]))
    counts = [m for m, unit, _ in layers.PER_LAYER if unit not in
              ("s", "ratio", "GFLOP/s")]
    assert len(counts) > 20
    assert {m: results[0][m] for m in counts} \
        == {m: results[1][m] for m in counts}
    assert results[0]["correspondence.q_quartic.calls"] == 3
    assert results[0]["stage.coverage"] > 0.99
