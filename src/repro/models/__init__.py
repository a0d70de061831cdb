"""Columnar round-execution core shared by the three machine-model simulators.

The paper charges one algorithm against three models -- low-space MPC,
CONGESTED CLIQUE and CONGEST.  This package is the model-generic substrate:

* :mod:`repro.models.plane` -- the cluster tables and message blocks
  :meth:`repro.mpc.engine.MPCEngine.round_packed`, the engine's round core,
  runs one array program per round over, plus the sort-based key helpers
  its steps use.
* :mod:`repro.models.ledger` -- the :class:`RoundLedger` every simulator
  extends (rounds by category, words moved, the storage high-water mark)
  and the :class:`ModelSnapshot` record the cross-model report renders.
* :mod:`repro.models.phase` -- the derandomized-Luby phase kernel the
  clique and CONGEST solvers share.
* :mod:`repro.models.crossmodel` -- run one problem under all three cost
  models and collect the snapshots side by side (imported lazily: it pulls
  in every simulator, and the simulators import this package).
"""

from .ledger import ModelSnapshot, RoundLedger
from .phase import MAXKEY, LubyPhaseKernel
from .plane import MessageBlock, Table

__all__ = [
    "MAXKEY",
    "CrossModelRun",
    "LubyPhaseKernel",
    "MessageBlock",
    "ModelSnapshot",
    "RoundLedger",
    "Table",
    "cross_model_run",
]

_LAZY = ("CrossModelRun", "cross_model_run")


def __getattr__(name: str):
    # crossmodel imports the simulators, which import this package; resolve
    # its symbols lazily to keep the import graph acyclic.
    if name in _LAZY:
        from . import crossmodel

        return getattr(crossmodel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
