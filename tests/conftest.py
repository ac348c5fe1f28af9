"""Fixtures shared by the test modules."""

import subprocess

import pytest

from mrgap import point_cloud


@pytest.fixture
def split_writes(monkeypatch):
    """Make save_csv cut any array of at least 8 values into blocks for up
    to 3 CPUs, whatever the machine, and return the list of the child
    processes it starts."""
    monkeypatch.setattr(point_cloud, "_PART_VALUES", 4)
    monkeypatch.setattr(point_cloud, "_usable_cpus", lambda: 3)
    started = []

    class Spy(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Spy)
    return started
