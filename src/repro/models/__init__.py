"""Columnar round-execution core shared by the three machine-model simulators.

The paper charges one algorithm against three models -- low-space MPC,
CONGESTED CLIQUE and CONGEST.  This package is the model-generic substrate:

* :mod:`repro.models.plane` -- the cluster tables and message blocks
  :meth:`repro.mpc.engine.MPCEngine.round_packed`, the engine's round core,
  runs one array program per round over, plus the sort-based key helpers
  its steps use.
* :mod:`repro.models.ledger` -- the :class:`RoundLedger` every simulator
  extends (rounds by category, words moved, the storage high-water mark)
  and the :class:`ModelSnapshot` record every envelope carries and the
  cross-model report (``repro solve --model all``) renders.
* :mod:`repro.models.phase` -- the derandomized-Luby phase kernel every
  solver's selection runs: the node and edge forms of the local-minimum
  step, their seed blocks, and the ``A`` set of Corollary 15.
"""

from .ledger import (
    CapacityExceededError,
    ModelSnapshot,
    MPCModelError,
    RoundLedger,
    SpaceExceededError,
)
from .phase import EdgePhase, NodePhase, a_set
from .plane import MessageBlock, Table

__all__ = [
    "CapacityExceededError",
    "EdgePhase",
    "MPCModelError",
    "MessageBlock",
    "ModelSnapshot",
    "NodePhase",
    "RoundLedger",
    "SpaceExceededError",
    "Table",
    "a_set",
]
