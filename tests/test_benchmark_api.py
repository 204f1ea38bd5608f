"""The benchmark's workloads, set up against the package as it is.

Each workload's ``setup()`` runs the workload once at toy scale (or builds
its trained state) through the same public functions a timed run calls, so a
change to the package's data model that breaks the benchmark fails here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_sets_up(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=1, workdir=tmp_path)
    assert workload.setup() is not None
