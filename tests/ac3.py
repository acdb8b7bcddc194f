"""Force the matcher's AC-3 path for a block of test code.

:data:`repro.matching.bitset.SWEEP_CROSSOVER` picks, per constraint,
between one support sweep over the graph's edge arrays and row probes per
candidate. Test graphs are far below the default crossover, so the tests
that need the sweep set it to 0 (every constraint sweeps) and compare
against a huge value (every constraint probes).
"""

from contextlib import contextmanager

import pytest

from repro.matching import bitset

#: Crossover value forcing each path.
PATHS = {"probe": 1e18, "sweep": 0}

#: Test ids of the paths in the differential suites, named after the
#: adjacency each reads: ``bitset`` rows probed per candidate, or the ball
#: kernel's ``columnar`` per-edge-label arrays swept once per constraint.
LAYOUT_IDS = {"probe": "bitset", "sweep": "columnar"}

#: Parametrises a test over both paths (argument ``ac3_path``).
BOTH_PATHS = pytest.mark.parametrize(
    "ac3_path", list(LAYOUT_IDS), ids=list(LAYOUT_IDS.values())
)


@contextmanager
def forced(path: str):
    """Run the block with every AC-3 constraint on ``path``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitset, "SWEEP_CROSSOVER", PATHS[path])
        yield
