"""Fixtures shared by the test modules."""

import os
import sys
from pathlib import Path

import pytest

import pedpod


@pytest.fixture
def pedpod_env():
    """Environment for a child interpreter that imports the pedpod under test."""
    src = str(Path(pedpod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.fixture
def partition_stream_forbidden(monkeypatch):
    """Make all_partitions and partitions_of raise in every pedpod module that binds them."""

    def forbidden(*args):
        raise AssertionError("walked every partition of a weight")

    for name, module in list(sys.modules.items()):
        if name == "pedpod" or name.startswith("pedpod."):
            for attr in ("all_partitions", "partitions_of"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
