"""Hardware models: the paper's dedicated units and their power.

This package is the paper's primary contribution rendered as
cycle-accurate Python: the Observation Probability unit (Figure 2),
the Viterbi decoder unit (Figure 3), the logadd SRAM and the
activity-based power/area model, which prices the units' activity
counters.  The assembled SoC (``repro.core.soc``: the embedded core's
software stages and the flash behind DMA) reports over one decode.
The DMA schedule across the two structures and the Section V
comparison systems are arithmetic on a decode's counters, kept beside
their assertions in ``benchmarks/bench_realtime.py`` and
``benchmarks/bench_baseline_comparison.py``.
"""

from repro.core.fpu import FloatUnit, OpCounts
from repro.core.logadd import LOG2, LogAddTable, logadd_exact
from repro.core.opunit import FrameScoreResult, GaussianTable, OpUnit, OpUnitSpec
from repro.core.pipeline import PipelineSpec, PipelineTrace, TraceEvent
from repro.core.power import AreaTable, EnergyTable, PowerModel, PowerReport
from repro.core.viterbi_unit import ViterbiUnit, ViterbiUnitSpec

__all__ = [
    "OpUnit",
    "OpUnitSpec",
    "GaussianTable",
    "FrameScoreResult",
    "ViterbiUnit",
    "ViterbiUnitSpec",
    "LogAddTable",
    "logadd_exact",
    "LOG2",
    "FloatUnit",
    "OpCounts",
    "PipelineSpec",
    "PipelineTrace",
    "TraceEvent",
    "PowerModel",
    "PowerReport",
    "EnergyTable",
    "AreaTable",
]
