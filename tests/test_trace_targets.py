"""The benchmark (`perfbench/`), imported read-only: its traced layers wrap
package functions by path, and skip a path that no longer resolves, so
every path must still name one; and its correctness gate compares each
workload's default-option report with the digest in `reference.json`."""

import hashlib
import importlib
import json
import os
import sys

import pytest

import pfaffian_nets
from pfaffian_nets.cli import main

TESTS = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(TESTS, os.pardir, "perfbench")
SRC = os.path.dirname(os.path.dirname(pfaffian_nets.__file__))


def _resolves(path):
    """Whether "module:attr" or "module:Class.method" names an attribute
    defined there, looked up the way the tracer installs its wrappers."""
    module, _, attr = path.partition(":")
    holder = importlib.import_module(module)
    for name in attr.split("."):
        holder = vars(holder).get(name)
        if holder is None:
            return False
    return True


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")
    paths = [target.path for target in layers.TARGETS]
    assert "pfaffian_nets.correspondence:phi_fiber" in paths
    assert [path for path in paths if not _resolves(path)] == []


@pytest.mark.parametrize("name", ["pinned", "irregular", "singular"])
def test_default_reports_match_the_benchmark_digests(monkeypatch, tmp_path,
                                                     name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)  # restores sys.path afterwards
    for key in list(os.environ):
        if key.startswith("PFAFFIAN_NETS_"):
            monkeypatch.delenv(key)
    workloads = importlib.import_module("workloads")
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        reference = json.load(fh)
    fixture, report = tmp_path / "fixture.json", tmp_path / "report.json"
    fixture.write_text(workloads.fixture_text(name, SRC, TESTS))
    code = main(["pipeline", str(fixture), "-o", str(report)])
    assert workloads.check_report(name, code,
                                  json.loads(report.read_text())) == []
    assert hashlib.sha256(report.read_bytes()).hexdigest() \
        == reference["reports"][name]
