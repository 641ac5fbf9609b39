"""Control module with coarse-grain mode settings (Figure 2).

"The control unit has course grain control over most of the arithmetic
units, and multiplexers.  The different mode settings provide
course-grain control over different stages of the pipeline."

The controller sequences the OP unit through its operating modes,
names the blocks each mode clocks (:meth:`active_blocks`, the rest
:meth:`gated_blocks`) and charges each mode its cycles
(:meth:`duty_cycle`).  The power model does not read it: it prices the
units' activity counters.  Mode transitions are validated so a
test can prove the hardware never, say, streams Gaussians without a
latched feature vector — the kind of sequencing bug the real control
module guards against.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["UnitMode", "ModeController"]


class UnitMode(Enum):
    """Operating modes of a dedicated structure."""

    IDLE = "idle"
    LOAD_TABLE = "load-table"  # boot: fill the logadd SRAM
    LOAD_FEATURE = "load-feature"  # latch the frame's feature vector
    GAUSSIAN = "gaussian"  # stream (X-Y)^2*Z + accumulate + FMA
    LOGADD = "logadd"  # mixture fold through the SRAM
    VITERBI = "viterbi"  # add & compare column updates


#: Blocks active (clocked) in each mode; everything else is gated.
_ACTIVE_BLOCKS: dict[UnitMode, frozenset[str]] = {
    UnitMode.IDLE: frozenset(),
    UnitMode.LOAD_TABLE: frozenset({"logadd-sram", "control"}),
    UnitMode.LOAD_FEATURE: frozenset({"buffers", "control"}),
    UnitMode.GAUSSIAN: frozenset({"datapath", "buffers", "control"}),
    UnitMode.LOGADD: frozenset({"logadd-sram", "control"}),
    UnitMode.VITERBI: frozenset({"viterbi", "buffers", "control"}),
}

#: Legal mode transitions (coarse-grain sequencing).
_LEGAL_NEXT: dict[UnitMode, frozenset[UnitMode]] = {
    UnitMode.IDLE: frozenset({UnitMode.LOAD_TABLE, UnitMode.LOAD_FEATURE, UnitMode.IDLE}),
    UnitMode.LOAD_TABLE: frozenset({UnitMode.IDLE, UnitMode.LOAD_FEATURE}),
    UnitMode.LOAD_FEATURE: frozenset({UnitMode.GAUSSIAN, UnitMode.IDLE}),
    UnitMode.GAUSSIAN: frozenset({UnitMode.LOGADD, UnitMode.GAUSSIAN, UnitMode.IDLE}),
    UnitMode.LOGADD: frozenset(
        {UnitMode.GAUSSIAN, UnitMode.VITERBI, UnitMode.LOAD_FEATURE, UnitMode.IDLE}
    ),
    UnitMode.VITERBI: frozenset(
        {UnitMode.VITERBI, UnitMode.LOAD_FEATURE, UnitMode.IDLE}
    ),
}

_ALL_BLOCKS = frozenset(
    {"datapath", "logadd-sram", "buffers", "viterbi", "control"}
)


class ModeController:
    """Tracks the unit's mode, validates sequencing, drives gating."""

    def __init__(self, table_loaded: bool = False) -> None:
        self._mode = UnitMode.IDLE
        self._table_loaded = table_loaded
        self._feature_loaded = False
        self._mode_cycles: dict[UnitMode, int] = {m: 0 for m in UnitMode}

    @property
    def mode(self) -> UnitMode:
        return self._mode

    @property
    def table_loaded(self) -> bool:
        return self._table_loaded

    def enter(self, mode: UnitMode, cycles: int = 0) -> None:
        """Transition to ``mode`` and charge it ``cycles`` of activity."""
        if mode not in _LEGAL_NEXT[self._mode]:
            raise RuntimeError(
                f"illegal mode transition {self._mode.value} -> {mode.value}"
            )
        if mode is UnitMode.GAUSSIAN and not self._feature_loaded:
            raise RuntimeError("GAUSSIAN mode entered without a latched feature")
        if mode in (UnitMode.GAUSSIAN, UnitMode.LOGADD) and not self._table_loaded:
            raise RuntimeError("scoring mode entered before the logadd SRAM is loaded")
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        if mode is UnitMode.LOAD_TABLE:
            self._table_loaded = True
        if mode is UnitMode.LOAD_FEATURE:
            self._feature_loaded = True
        if mode is UnitMode.IDLE:
            self._feature_loaded = False
        self._mode = mode
        self._mode_cycles[mode] += cycles

    def active_blocks(self) -> frozenset[str]:
        """Blocks clocked in the current mode."""
        return _ACTIVE_BLOCKS[self._mode]

    def gated_blocks(self) -> frozenset[str]:
        """Blocks whose clock is currently gated off."""
        return _ALL_BLOCKS - _ACTIVE_BLOCKS[self._mode]

    def cycles_in_mode(self, mode: UnitMode) -> int:
        return self._mode_cycles[mode]

    def duty_cycle(self) -> dict[str, float]:
        """Fraction of charged cycles spent in each non-idle mode."""
        total = sum(self._mode_cycles.values())
        if total == 0:
            return {m.value: 0.0 for m in UnitMode}
        return {m.value: c / total for m, c in self._mode_cycles.items()}
