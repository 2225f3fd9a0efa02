"""What ``import repro`` loads.

networkx is only needed to build or query an underlay graph
(:class:`repro.overlay.topology.UnderlayTopology`); importing it costs
every process about 100 ms and 13 MiB. Importing the package and the
packet-simulation entry points must not load it. Each check runs in a
fresh interpreter, since this test process may have loaded networkx
already.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ENTRY_MODULES = [
    "repro",
    "repro.simulation.packet_sim",
    "repro.perf.fastsim",
    "repro.perf.compiled",
    "repro.sos",
    "repro.scenarios.cli",
    "repro.service.jobs",
    "repro.experiments.runner",
]


def _loads_networkx(body: str) -> bool:
    script = body + "\nimport sys\nprint('networkx' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip() == "True"


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_entry_module_does_not_load_networkx(module):
    assert not _loads_networkx(f"import {module}")


def test_building_an_underlay_loads_networkx():
    # The check above can fail: a graph build does import networkx.
    assert _loads_networkx(
        "from repro.overlay.topology import UnderlayTopology\n"
        "UnderlayTopology(routers=10, rng=1)"
    )
