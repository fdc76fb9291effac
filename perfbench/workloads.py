"""The three workloads: where each fixture comes from, and what a correct
report of it looks like.

Fixture bytes are written from the repository's own constructors, so they
are the nets the test suite pins.  The expected verdicts are the ones that
`tests/test_cli.py` asserts for the same fixtures.
"""

from __future__ import annotations

import sys


def _pinned():
    from conftest import PINNED_UPPERS
    from pfaffian_nets.cli import canonical_json, net_to_fixture
    from pfaffian_nets.correspondence import ANet
    from pfaffian_nets.fields import QQ
    net = ANet.from_upper_triangles(QQ, 6, PINNED_UPPERS[0])
    return canonical_json(net_to_fixture(net))


def _irregular():
    from test_cli import dead_fixture_text
    return dead_fixture_text()


def _singular():
    from pfaffian_nets.cli import canonical_json, net_to_fixture
    from pfaffian_nets.correspondence import degenerate_net
    return canonical_json(net_to_fixture(degenerate_net(seed=2)))


def _check_pinned(report):
    bad = [s["name"] for s in report["stages"] if s["verdict"] != "pass"]
    return ["stages not passing: %s" % ", ".join(bad)] if bad else []


def _check_irregular(report):
    first, rest = report["stages"][0], report["stages"][1:]
    problems = []
    if first["name"] != "regularity" or first["verdict"] != "fail":
        problems.append("regularity should be the first stage and fail")
    elif first["detail"].get("witness") is None:
        problems.append("regularity failed without a witness")
    if any(s["verdict"] != "skipped" for s in rest):
        problems.append("stages after regularity should be skipped")
    return problems


def _check_singular(report):
    verdicts = {s["name"]: s["verdict"] for s in report["stages"]}
    want = {"classification": "pass", "lines": "fail", "jw": "skipped",
            "jw1": "skipped"}
    problems = ["%s is %s, expected %s" % (name, verdicts.get(name), verdict)
                for name, verdict in want.items()
                if verdicts.get(name) != verdict]
    detail = next((s["detail"] for s in report["stages"]
                   if s["name"] == "classification"), {})
    if detail.get("all_smooth", True):
        problems.append("classification should find X singular")
    if not all(d["sets_equal"] and d["sing_x"]
               for d in detail.get("per_field", {}).values()):
        problems.append("every field should agree on a singular X")
    return problems


# name -> (fixture constructor, expected exit code, expected overall,
#          verdict check returning a list of problems)
WORKLOADS = {
    "pinned": (_pinned, 0, "pass", _check_pinned),
    "irregular": (_irregular, 1, "fail", _check_irregular),
    "singular": (_singular, 1, "fail", _check_singular),
}


def fixture_text(name, src_dir, tests_dir):
    """The workload's fixture document, built in this process."""
    for path in (tests_dir, src_dir):
        if path not in sys.path:
            sys.path.insert(0, path)
    return WORKLOADS[name][0]()


def check_report(name, exit_code, report):
    """Problems with one repetition's exit code and stage verdicts."""
    _, want_code, want_overall, check = WORKLOADS[name]
    problems = []
    if exit_code != want_code:
        problems.append("exit code %s, expected %d" % (exit_code, want_code))
    if report.get("overall") != want_overall:
        problems.append("overall %r, expected %r"
                        % (report.get("overall"), want_overall))
    return problems + check(report)
