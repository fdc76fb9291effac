"""Benchmark of `pfaffian-nets pipeline`, end to end and layer by layer.

    python3 perfbench/run.py --workload pinned --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout: the program under test is that
checkout's `src/`, and the fixtures come from its `src/` and `tests/`.  Each
repetition is a fresh interpreter (see child.py) running the pipeline with
default options, `--workers 1` and `--seed SEED`, with the BLAS thread
count pinned.  Every repetition's report is checked (workloads.py and
reference.json); a wrong one makes the run exit 1.

`--trace 0` prints the end-to-end metrics: medians over the repetitions
that fit in `--seconds` (at least one), and over SETUP_REPS set-up-only
starts.  `--trace 1` runs the pipeline once untraced and once traced and
prints the per-layer metrics of layers.py.  `--workload` also takes a comma
list, or `all`; metric names then carry the workload as a prefix.  The last
line of standard output is always one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Fixtures, reports, traces and a full
`result.json` per workload are left in `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Two BLAS threads is OpenBLAS's own default on the 2-core machine the
# baseline was taken on; pinning it keeps `irregular` (BLAS-bound) and
# `cpu_s` comparable across machines and environments.
BLAS_THREADS = 2
SETUP_REPS = 10
DEFAULT_SEED = 0  # the pipeline's own default; reference.json pins it
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = (("pipeline_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, changed fixture)."""


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PFAFFIAN_NETS_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_child(mode, workdir, fixture, seed, deadline, extra=()):
    """One child interpreter; returns (t_spawn, exit code or None on
    timeout, stamps or None, stderr tail)."""
    stamps = os.path.join(workdir, "stamps.json")
    if os.path.exists(stamps):
        os.remove(stamps)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, mode, fixture, stamps, str(seed)]
            + list(extra), env=child_env(), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return t_spawn, None, None, "timed out"
    got = None
    if os.path.exists(stamps):
        with open(stamps) as fh:
            got = json.load(fh)
    return t_spawn, proc.returncode, got, proc.stderr[-2000:]


def setup_sample(workdir, fixture, seed, deadline):
    t_spawn, code, stamps, err = run_child("setup", workdir, fixture, seed,
                                           deadline)
    if code != 0 or not stamps:
        raise BenchError("set-up-only start failed (exit %s): %s"
                         % (code, err))
    return stamps["build"] - t_spawn


def pipeline_rep(name, workdir, fixture, seed, deadline, traced=False):
    """One full pipeline run; returns its measurements and the problems
    the correctness gate found."""
    report = os.path.join(workdir, "report%s.json"
                          % ("_traced" if traced else ""))
    spans = os.path.join(workdir, "trace.json")
    extra = (report, spans) if traced else (report,)
    for path in extra:
        if os.path.exists(path):
            os.remove(path)
    t_spawn, code, stamps, err = run_child(
        "trace" if traced else "pipeline", workdir, fixture, seed, deadline,
        extra)
    rec = {"exit": code}
    if not stamps or "done" not in stamps or not os.path.exists(report):
        rec["problems"] = ["no report (exit %s): %s" % (code, err)]
        return rec
    with open(report) as fh:
        doc = json.load(fh)
    rec.update(setup_s=stamps["build"] - t_spawn,
               pipeline_s=stamps["done"] - stamps["build"],
               cpu_s=stamps["cpu_s"],
               peak_rss_mb=stamps["rss_kb"] / 1024.0,
               digest=sha256_file(report),
               problems=workloads.check_report(name, code, doc))
    if traced:
        rec["spans_path"] = spans
        rec["missing_targets"] = stamps.get("missing", [])
    return rec


def gate_digests(reps, name, seed, reference):
    """Same report bytes in every repetition of one seed, and the recorded
    bytes for the default seed."""
    first = reps[0].get("digest")
    for r in reps:
        if "digest" in r and r["digest"] != first:
            r["problems"].append("report differs between repetitions")
    want = reference["reports"].get(name) if seed == DEFAULT_SEED else None
    if want is not None:
        for r in reps:
            if "digest" in r and r["digest"] != want:
                r["problems"].append("report digest %s, reference %s"
                                     % (r["digest"][:12], want[:12]))


def prepare(name, reference):
    """Write the workload's fixture and check it is the recorded one."""
    workdir = os.path.join(WORK, name)
    os.makedirs(workdir, exist_ok=True)
    text = workloads.fixture_text(name, SRC, TESTS)
    digest = hashlib.sha256(text.encode()).hexdigest()
    want = reference["fixtures"][name]
    if digest != want:
        raise BenchError("fixture %s has changed: sha256 %s, recorded %s"
                         % (name, digest, want))
    fixture = os.path.join(workdir, "fixture.json")
    with open(fixture, "w") as fh:
        fh.write(text)
    return workdir, fixture


def run_end_to_end(name, workdir, fixture, seed, seconds, deadline,
                   reference):
    setups = [setup_sample(workdir, fixture, seed, deadline)
              for _ in range(SETUP_REPS)]
    reps = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(pipeline_rep(name, workdir, fixture, seed, deadline))
        now = time.monotonic()
        if now - start >= seconds or now + (now - t0) > deadline - 10:
            break
    gate_digests(reps, name, seed, reference)
    good = [r for r in reps if not r["problems"]]
    metrics = {}
    if good:
        metrics = {
            "pipeline_s": statistics.median(r["pipeline_s"] for r in good),
            "setup_s": statistics.median(
                setups + [r["setup_s"] for r in good]),
            "cpu_s": statistics.median(r["cpu_s"] for r in good),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        }
    units = dict(END_TO_END)
    return reps, {k: (v, units[k]) for k, v in metrics.items()}, {
        "setup_samples": setups}


def run_traced(name, workdir, fixture, seed, deadline, reference):
    plain = pipeline_rep(name, workdir, fixture, seed, deadline)
    traced = pipeline_rep(name, workdir, fixture, seed, deadline,
                          traced=True)
    reps = [plain, traced]
    gate_digests(reps, name, seed, reference)
    if traced.get("missing_targets"):
        traced["problems"].append("targets not found: %s"
                                  % ", ".join(traced["missing_targets"]))
    metrics = {}
    if not plain["problems"] and not traced["problems"]:
        spans, counters, peaks = tracer.load(traced["spans_path"])
        values = layers.per_layer_metrics(spans, counters, peaks,
                                          traced["pipeline_s"],
                                          plain["pipeline_s"])
        metrics = {m: (values[m], unit) for m, unit, _ in layers.PER_LAYER}
    return reps, metrics, {}


def environment():
    """Metadata recorded with every result; none of it is a metric."""
    env = {"python": platform.python_version(),
           "blas_threads": BLAS_THREADS,
           "nproc": os.cpu_count(),
           "load_avg": os.getloadavg()}
    try:
        import numpy
        env["numpy"] = numpy.__version__
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        env["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (ImportError, AttributeError, KeyError, TypeError):
        env.setdefault("numpy", None)
    ceiling = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=ceiling)
        env["git_rev"] = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        env["git_rev"] = None
    lines = 0
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for fn in sorted(files):
            if fn.endswith(".py"):
                with open(os.path.join(folder, fn), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(fn.encode() + b"\0" + data)
    env["src_lines"] = lines
    env["src_sha256"] = digest.hexdigest()
    return env


def _fmt(value):
    return ("%d" % value) if isinstance(value, int) else ("%.6g" % value)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="pinned, irregular, singular, a comma list, or all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else args.workload.split(",")
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        ap.error("unknown workload %s" % ", ".join(unknown))
    if not os.path.isfile(os.path.join(SRC, "pfaffian_nets", "cli.py")) \
            or not os.path.isdir(TESTS):
        raise BenchError("no program to measure: %s/pfaffian_nets and %s "
                         "are needed" % (SRC, TESTS))
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    meta = environment()
    attempted = failed = 0
    metrics = {}
    for name in names:
        workdir, fixture = prepare(name, reference)
        if args.trace:
            reps, got, extra = run_traced(name, workdir, fixture, args.seed,
                                          deadline, reference)
        else:
            reps, got, extra = run_end_to_end(name, workdir, fixture,
                                              args.seed, args.seconds,
                                              deadline, reference)
        bad = [r for r in reps if r["problems"]]
        attempted += len(reps)
        failed += len(bad)
        print("== %s  seed %d  trace %d  repetitions %d"
              % (name, args.seed, args.trace, len(reps)))
        for r in bad:
            print("   FAILED: %s" % "; ".join(r["problems"]))
        for metric, (value, unit) in got.items():
            print("   %-42s %14s %s" % (metric, _fmt(value), unit))
        print("   %-42s %14s %s" % ("report_fail_rate",
                                    _fmt(len(bad) / len(reps)), "ratio"))
        prefix = "%s." % name if len(names) > 1 else ""
        metrics.update({prefix + m: {"value": v, "unit": u}
                        for m, (v, u) in got.items()})
        with open(os.path.join(workdir, "result.json"), "w") as fh:
            json.dump({"seed": args.seed, "trace": args.trace,
                       "environment": meta, "metrics": got,
                       "repetitions": [
                           {k: v for k, v in r.items() if k != "spans_path"}
                           for r in reps], **extra}, fh, indent=1)
    print("   environment: %s" % json.dumps(meta, sort_keys=True))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
