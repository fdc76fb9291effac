"""Command-line driver: fixture generation, the verification pipeline,
single named checks, and structural report diffs.

Fixtures and reports are JSON with a canonical serialization (sorted keys,
two-space indent, trailing newline), so identical inputs produce
byte-identical files.  Timings and progress go to stderr only; nothing
time-dependent enters a report.  Exit codes: 0 all checks pass, 1 at least
one failure, 2 inconclusive (a degree cap below an ideal's Macaulay bound,
or a search ladder, ran out), 3 unusable input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time
import traceback
from fractions import Fraction
from math import isqrt

from .cohomology import (charge2_instanton_table, exceptional_pair_check_y,
                         h1_pattern_check, line_ideal_membership)
from .correspondence import (ANet, c_ideal, classify, curve_fibers,
                             find_c_points, find_lines_on_y, is_regular,
                             lie_on_y, pfaffian_hypersurface, q_quartic,
                             random_regular_net, splitting_types)
from .fields import GF, field_from_name
from .ideals import (DEFAULT_DEGREE_CAP, DEFAULT_PRIME,
                     fit_hilbert_polynomial, other_prime)
from .modnum import MAX_PRIME, TABLE_ORDER, field_codes
from .multipoly import MultiPoly
from .verify import SamplePlan, jw1_section_check, jw_pointwise

FIXTURE_SCHEMA = "pfaffian-net-fixture/1"
REPORT_SCHEMA = "pfaffian-net-report/1"
ENV_PREFIX = "PFAFFIAN_NETS_"
HILBERT_CAP = 9  # the curve fit stabilizes at t = 4; margin, then stop
MAX_TABLE_POINTS = 2_000_000  # the largest rank table a --fields entry needs

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_INPUT = 0, 1, 2, 3


# -- serialization ------------------------------------------------------------

def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _jsonable(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return repr(x)


def net_to_fixture(net, provenance=None):
    doc = {
        "schema": FIXTURE_SCHEMA,
        "field": net.field.name,
        "n": net.n,
        "two_m": net.two_m,
        "matrices": [[_jsonable(v) for v in tri]
                     for tri in net.upper_triangles()],
    }
    if provenance:
        doc["provenance"] = dict(provenance)
    return doc


def _entry_in(v):
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, list):
        return tuple(v)
    return v


def net_from_fixture(doc):
    """The net of a fixture document; a document it cannot read raises a
    ValueError that names the bad key."""
    if not isinstance(doc, dict):
        raise ValueError("fixture is not a JSON object")
    for key in ("schema", "field", "n", "two_m", "matrices"):
        if key not in doc:
            raise ValueError("fixture is missing %r" % key)
    if doc["schema"] != FIXTURE_SCHEMA:
        raise ValueError("unsupported fixture schema %r" % doc["schema"])
    for key, kind in (("field", str), ("n", int), ("two_m", int),
                      ("matrices", list)):
        if type(doc[key]) is not kind:
            raise ValueError("fixture %r must be of type %s, got %r"
                             % (key, kind.__name__, doc[key]))
    if doc["two_m"] < 2 or doc["two_m"] % 2:
        raise ValueError("fixture 'two_m' must be an even integer >= 2, "
                         "got %d" % doc["two_m"])
    if not all(isinstance(tri, list) for tri in doc["matrices"]):
        raise ValueError("fixture 'matrices' is not a list of lists")
    field = field_from_name(doc["field"])
    if len(doc["matrices"]) != doc["n"]:
        raise ValueError("fixture lists %d matrices but n = %d"
                         % (len(doc["matrices"]), doc["n"]))
    try:
        tris = [[_entry_in(v) for v in tri] for tri in doc["matrices"]]
        return ANet.from_upper_triangles(field, doc["two_m"], tris)
    except (TypeError, ZeroDivisionError) as exc:
        # an entry the field cannot take, or a zero denominator in it
        raise ValueError("bad matrix entry: %s" % exc) from exc


def fingerprint(doc):
    """Identity of the net itself: provenance does not enter the hash."""
    core = {k: doc[k] for k in ("schema", "field", "n", "two_m", "matrices")}
    return hashlib.sha256(canonical_json(core).encode()).hexdigest()


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _write_text(path, text):
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _field_from_token(tok):
    name = "".join(tok.split()).upper()
    if name == "QQ":
        raise ValueError("verification fields must be finite")
    if name[:3] == "GF(" and name[-1:] == ")" and name[3:-1].isdecimal():
        name = name[3:-1]  # one integer inside GF( ) is read as the order
    elif name.startswith("GF"):
        return field_from_name(name)
    q = int(name)
    if q < 2:
        raise ValueError("field size %d" % q)
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    k = 1
    while p ** k < q:
        k += 1
    if p ** k != q:
        raise ValueError("%d is not a prime power" % q)
    return GF(p, k) if k > 1 else GF(p)


# -- option resolution --------------------------------------------------------

def _resolve(args, attr, env, default, conv=None):
    v = getattr(args, attr, None)
    if v is None:
        v = os.environ.get(ENV_PREFIX + env)
    if v is None:
        return default
    return conv(v) if conv else v


def _options(args, net):
    """The run's options; a field whose rank tables over P(A) or P(V) of
    `net` cannot be built is an input error."""
    fields_spec = _resolve(args, "fields", "FIELDS", "2,3")
    # a comma inside parentheses belongs to a name such as GF(3,2)
    tokens = [t for t in re.split(r",(?![^()]*\))", str(fields_spec)) if t]
    fields = [_field_from_token(t) for t in tokens]
    if not fields:
        raise ValueError("--fields names no field")
    dim = max(net.n, net.two_m) - 1
    for tok, field in zip(tokens, fields):
        if field.order > TABLE_ORDER:
            raise ValueError("field %r: %s has more than %d elements, the "
                             "most with rank tables"
                             % (tok, field, TABLE_ORDER))
        points = (field.order ** (dim + 1) - 1) // (field.order - 1)
        if points > MAX_TABLE_POINTS:
            raise ValueError("field %r: the rank table over P^%d(%s) would "
                             "have %d points, more than %d"
                             % (tok, dim, field, points, MAX_TABLE_POINTS))
    fields = list(dict.fromkeys(fields))  # a repeated field runs once
    prime = _resolve(args, "prime", "PRIME", DEFAULT_PRIME, int)
    cap = _resolve(args, "degree_cap", "DEGREE_CAP", DEFAULT_DEGREE_CAP, int)
    samples = _resolve(args, "samples", "SAMPLES", 1000, int)
    if prime > MAX_PRIME:
        raise ValueError("prime %d is above the largest supported prime %d"
                         % (prime, MAX_PRIME))
    GF(prime)  # raises on a non-prime
    if cap < 0:
        raise ValueError("degree cap must be at least 0, got %d" % cap)
    if samples < 1:
        raise ValueError("sample count must be at least 1, got %d" % samples)
    return {
        "fields": fields,
        "prime": prime,
        "second_prime": other_prime(prime),
        "cap": cap,
        "samples": samples,
        "seed": _resolve(args, "seed", "SEED", 0, int),
    }


# -- pipeline stages ----------------------------------------------------------

def _status_verdict(status):
    return {"EMPTY": "pass", "NONEMPTY": "fail",
            "INCONCLUSIVE": "inconclusive"}[status]


def _stage_regularity(ctx):
    res = is_regular(ctx["net"], prime=ctx["prime"], cap=ctx["cap"])
    return _status_verdict(res.status), {
        "status": res.status,
        "witness": _jsonable(res.witness),
        "detail": _jsonable(res.detail),
    }


def _stage_classification(ctx):
    cls = classify(ctx["net"], fields=ctx["fields"], prime=ctx["prime"],
                   cap=ctx["cap"])
    ctx["classification"] = cls
    sets_ok = all(d["sets_equal"] for d in cls.per_field.values())
    if not sets_ok:
        verdict = "fail"
    elif cls.y_smooth.status == "INCONCLUSIVE":
        verdict = "inconclusive"
    else:
        verdict = "pass"
    return verdict, {
        "regular": cls.regular.status,
        "y_smooth": cls.y_smooth.status,
        "per_field": _jsonable(cls.per_field),
        "all_smooth": cls.all_smooth,
    }


def _poly_digest(poly):
    text = poly.render()
    exps, coeff = poly.leading()
    lead = MultiPoly(poly.field, poly.nvars, {exps: coeff}).render()
    return {
        "degree": poly.degree(),
        "terms": len(poly.terms),
        "leading": lead,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def _stage_polynomials(ctx):
    cubic = pfaffian_hypersurface(ctx["net"])
    quartic = q_quartic(ctx["net"])
    payload = {"y_cubic": _poly_digest(cubic),
               "q_quartic": _poly_digest(quartic)}
    ok = payload["y_cubic"]["degree"] == 3 \
        and payload["q_quartic"]["degree"] == 4
    return ("pass" if ok else "fail"), payload


def _stage_hilbert_c(ctx):
    net = ctx["net"]
    if (net.n, net.two_m) != (5, 6):
        return "skipped", {"reason": "curve fit is the n=5, 2m=6 case"}
    data = fit_hilbert_polynomial(
        c_ideal(net), expected_dim=1, cap=HILBERT_CAP,
        primes=(ctx["prime"], ctx["second_prime"]))
    fitted = list(data.fitted) if data.fitted else None
    ok = fitted == [Fraction(-25), Fraction(25)]
    return ("pass" if ok else "fail"), {
        "fitted": _jsonable(fitted),
        "scheme_degree": data.scheme_degree,
        "arithmetic_genus": data.arithmetic_genus,
        "stable_from": data.stable_from,
        "cap": HILBERT_CAP,
        "primes": [ctx["prime"], ctx["second_prime"]],
    }


def _stage_charge2(ctx):
    net = ctx["net"]
    if (net.n, net.two_m) != (5, 6):
        return "skipped", {"reason": "instanton table is the n=5, 2m=6 case"}
    table = charge2_instanton_table(net)
    return ("pass" if table.all_pass else "fail"), table.as_dict()


def _stage_h1_window(ctx):
    table = h1_pattern_check(ctx["net"])
    return ("pass" if table.all_pass else "fail"), table.as_dict()


def _stage_exceptional_pair(ctx):
    verdict = exceptional_pair_check_y()
    return ("pass" if verdict.passed else "fail"), verdict.as_dict()


def _stage_lines(ctx):
    net = ctx["net"]
    if (net.n, net.two_m) != (5, 6):
        return "skipped", {"reason": "line correspondence is the n=5, "
                                     "2m=6 case"}
    found = find_c_points(net)
    if found is None:
        return "inconclusive", {"reason": "no curve points found on the "
                                          "small-field ladder"}
    field, points = found
    reduced = net.over(field)
    fibers = curve_fibers(reduced, points)
    m_keys = [key for _, _, key in fibers]
    m_on_y = lie_on_y(reduced, field, field_codes(field).encode(m_keys))
    census = find_lines_on_y(net, field) if field.order <= 3 else []
    # each distinct line once, the lines M_c first
    lines = list(dict.fromkeys(m_keys + census))
    types = dict(zip(lines, splitting_types(reduced, lines)))

    def verdict(ok):
        return "pass" if ok else "fail"
    records = [{"c": _jsonable(tuple(c)), "l_on_x": verdict(ok_x),
                "m_on_y": verdict(on_y), "splitting": list(types[key]),
                "splitting_verdict": verdict(types[key] == (1, 3)),
                "ideal_membership": verdict(
                    line_ideal_membership(reduced, a1, a2).passed)}
               for c, (ok_x, (a1, a2), key), on_y
               in zip(points, fibers, m_on_y)]
    ok = all("fail" not in rec.values() for rec in records)
    payload = {"field": field.name, "count": len(points), "lines": records}
    if field.order <= 3:
        # a type is (1, 3) or (2, 2); the jumping lines must be the M_c
        jumping = {line for line in census if types[line] == (1, 3)}
        census_ok = jumping == set(census) & set(m_keys)
        payload["census"] = {"generic": len(census) - len(jumping),
                             "jumping": len(jumping),
                             "matches_curve": census_ok}
        ok = ok and census_ok and len(jumping) == len(set(m_keys))
    return verdict(ok), payload


def _jw_plans(ctx):
    plans = [SamplePlan(f, seed=ctx["seed"]) for f in ctx["fields"]
             if f.order <= 3]
    plans.append(SamplePlan(GF(7), count=ctx["samples"], seed=ctx["seed"],
                            mode="random"))
    return plans


def _fiber_stage(ctx, check):
    """jw and jw1: one report of `check` per plan, on a net classified
    smooth."""
    cls = ctx.get("classification")
    if cls is not None and not cls.all_smooth:
        return "skipped", {"reason": "net is not classified smooth"}
    reports = [check(ctx["net"], plan).as_dict() for plan in _jw_plans(ctx)]
    ok = all(r["passed"] for r in reports)
    return ("pass" if ok else "fail"), {"reports": reports}


def _stage_jw(ctx):
    return _fiber_stage(ctx, jw_pointwise)


def _stage_jw1(ctx):
    return _fiber_stage(ctx, jw1_section_check)


STAGES = (
    ("regularity", _stage_regularity),
    ("classification", _stage_classification),
    ("polynomials", _stage_polynomials),
    ("hilbert-C", _stage_hilbert_c),
    ("charge2-table", _stage_charge2),
    ("h1-window", _stage_h1_window),
    ("exceptional-pair", _stage_exceptional_pair),
    ("lines", _stage_lines),
    ("jw", _stage_jw),
    ("jw1", _stage_jw1),
)
_STAGE_MAP = dict(STAGES)
_GATED = ("regularity", "classification")


def _run_stage(name, fn, ctx):
    """Run one stage; a ValueError is the stage's own `fail`, any other
    exception the verdict `error`, so the report is always written."""
    start = time.monotonic()
    try:
        verdict, payload = fn(ctx)
    except ValueError as exc:
        verdict, payload = "fail", {"error": str(exc)}
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        verdict = "error"
        payload = {"error": "%s: %s" % (type(exc).__name__, exc)}
    print("%-17s %-12s %6.2fs" % (name, verdict,
                                  time.monotonic() - start),
          file=sys.stderr)
    return {"name": name, "verdict": verdict, "detail": payload}


def _overall(results):
    verdicts = [r["verdict"] for r in results]
    if "fail" in verdicts or "error" in verdicts:
        return "fail"
    if "inconclusive" in verdicts:
        return "inconclusive"
    return "pass"


def build_report(doc, opts):
    """Run the whole pipeline on a parsed fixture; deterministic for fixed
    (fixture, options)."""
    net = net_from_fixture(doc)
    ctx = dict(opts)
    ctx["net"] = net
    results = []
    for name in _GATED:
        results.append(_run_stage(name, _STAGE_MAP[name], ctx))
        if name == "regularity" and results[-1]["verdict"] != "pass":
            for later, _fn in STAGES[1:]:
                results.append({"name": later, "verdict": "skipped",
                                "detail": {"reason": "net is not regular"}})
            break
    else:
        results.extend(_run_stage(name, fn, ctx)
                       for name, fn in STAGES[len(_GATED):])
    return {
        "schema": REPORT_SCHEMA,
        "fingerprint": fingerprint(doc),
        "parameters": {
            "fields": [f.name for f in opts["fields"]],
            "prime": opts["prime"],
            "second_prime": opts["second_prime"],
            "degree_cap": opts["cap"],
            "samples": opts["samples"],
            "seed": opts["seed"],
        },
        "stages": results,
        "overall": _overall(results),
    }


# -- commands -----------------------------------------------------------------

def cmd_generate(args):
    if args.bound < 1:
        print("error: --bound must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    if args.n < 1 or args.two_m < 4 or args.two_m % 2:
        print("error: need n >= 1 and even 2m >= 4", file=sys.stderr)
        return EXIT_INPUT
    try:
        net, tries = random_regular_net(args.net_seed, bound=args.bound,
                                        n=args.n, two_m=args.two_m)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    print("regular net found after %d tries" % tries, file=sys.stderr)
    doc = net_to_fixture(net, provenance={"seed": args.net_seed,
                                          "bound": args.bound,
                                          "tries": tries})
    _write_text(args.out, canonical_json(doc))
    return EXIT_PASS


_EXIT_BY_VERDICT = {"pass": EXIT_PASS, "fail": EXIT_FAIL,
                    "error": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE,
                    "skipped": EXIT_PASS}


def cmd_pipeline(args):
    try:
        doc = _read_json(args.fixture)
        opts = _options(args, net_from_fixture(doc))
    except (OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    report = build_report(doc, opts)
    _write_text(args.report, canonical_json(report))
    return _EXIT_BY_VERDICT[report["overall"]]


def cmd_verify(args):
    if args.check not in _STAGE_MAP:
        print("error: unknown check %r; known: %s"
              % (args.check, ", ".join(name for name, _ in STAGES)),
              file=sys.stderr)
        return EXIT_INPUT
    try:
        doc = _read_json(args.fixture)
        net = net_from_fixture(doc)
        opts = _options(args, net)
    except (OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    ctx = dict(opts)
    ctx["net"] = net
    result = _run_stage(args.check, _STAGE_MAP[args.check], ctx)
    _write_text(None, canonical_json(result))
    return _EXIT_BY_VERDICT[result["verdict"]]


def _diff_walk(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = "%s.%s" % (path, key) if path else str(key)
            if key not in a:
                out.append("%s: only in second" % sub)
            elif key not in b:
                out.append("%s: only in first" % sub)
            else:
                _diff_walk(a[key], b[key], sub, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append("%s: length %d != %d" % (path, len(a), len(b)))
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _diff_walk(x, y, "%s[%d]" % (path, i), out)
    elif a != b:
        out.append("%s: %r != %r" % (path, a, b))


def cmd_report_diff(args):
    try:
        a = _read_json(args.first)
        b = _read_json(args.second)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    out = []
    _diff_walk(a, b, "", out)
    for line in out:
        print(line)
    if not out:
        print("reports are identical")
    return EXIT_PASS if not out else EXIT_FAIL


# -- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage, which collides with the
    inconclusive code; route usage errors to the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


def _add_common(sub):
    sub.add_argument("--fields", help="comma list of finite field sizes "
                                      "(default 2,3)")
    sub.add_argument("--prime", type=int,
                     help="working prime for rank computations")
    sub.add_argument("--degree-cap", dest="degree_cap", type=int,
                     help="Hilbert-function degree cap for emptiness checks")
    sub.add_argument("--samples", type=int,
                     help="random sample count for pointwise checks")
    sub.add_argument("--seed", type=int, help="sampling seed")


def make_parser():
    parser = _Parser(prog="pfaffian-nets",
                     description="Exact verification of the Pfaffian "
                                 "net / cubic / Grassmannian-section "
                                 "correspondence.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a screened random fixture")
    g.add_argument("--seed", dest="net_seed", type=int, default=1,
                   help="rejection-sampler seed")
    g.add_argument("--bound", type=int, default=3,
                   help="entry bound for candidate matrices")
    g.add_argument("--n", type=int, default=5, help="number of matrices")
    g.add_argument("--two-m", dest="two_m", type=int, default=6,
                   help="matrix size")
    g.add_argument("--out", default="-", help="fixture path or - for stdout")
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("pipeline", help="run every check, write a report")
    p.add_argument("fixture", help="fixture path or - for stdin")
    p.add_argument("--report", "-o", default="-",
                   help="report path or - for stdout")
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    v = sub.add_parser("verify", help="run one named check")
    v.add_argument("fixture", help="fixture path or - for stdin")
    v.add_argument("check", help="one of: %s"
                                 % ", ".join(name for name, _ in STAGES))
    _add_common(v)
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("report-diff", help="structural diff of two reports")
    d.add_argument("first")
    d.add_argument("second")
    d.set_defaults(func=cmd_report_diff)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
