"""The traced benchmark (`perfbench/`) wraps package functions by path, and
skips a path that no longer resolves; every path must still name one."""

import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


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
