"""Force the matcher's AC-3 path for a block of test code.

:data:`repro.matching.bitset.SWEEP_CROSSOVER` picks, per constraint,
between one support sweep over the graph's edge arrays and row probes per
candidate. Test graphs are far below the default crossover, so the tests
that need the sweep set it to 0 (every constraint sweeps) and compare
against a huge value (every constraint probes).

Supports are memoized on the graph
(:class:`~repro.graph.indexes.SupportMemo`), so a forced block also
switches the memo off: every constraint computes its support on the
forced path, whatever earlier runs or earlier checks in the block left
behind. :func:`crossover` forces the path with the memo left on.
"""

from contextlib import contextmanager

import pytest

from repro.graph.indexes import SupportMemo
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
def crossover(path: str):
    """Run the block with every computed support on ``path``; supports
    the memo already holds are still read from it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitset, "SWEEP_CROSSOVER", PATHS[path])
        yield


@contextmanager
def forced(path: str):
    """Run the block with every AC-3 constraint on ``path`` and no
    support read from, or left in, the memo."""
    with crossover(path), pytest.MonkeyPatch.context() as patch:
        patch.setattr(SupportMemo, "lookup", lambda self, key: None)
        patch.setattr(SupportMemo, "store", lambda self, key, value: None)
        yield
