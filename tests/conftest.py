"""Fixtures shared by the test modules."""

import os
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
