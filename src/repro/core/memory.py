"""Memory system model: flash, the DMA interface and bandwidth.

Section III-C of the paper: the dictionary, acoustic model and
language model live in flash memory, accessed through a DMA interface.
Section IV-B derives the headline storage and bandwidth numbers
(15.16 MB acoustic model, 1.516 GB/s worst-case stream at a 10 ms
frame rate, ~11 Mbit dictionary).

These classes do byte-level *accounting*, not data movement — model
parameters flow through numpy; what the experiments need is exactly
how many bytes each stage stored and streamed, so the paper's table
can be regenerated from measured traffic rather than hand arithmetic.

Sizes follow the paper's convention: decimal megabytes (1 MB = 10^6 B)
and gigabytes per second (1 GB/s = 10^9 B/s).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FlashRegion",
    "FlashMemory",
    "DmaChannel",
    "BandwidthMeter",
    "MB",
    "GB",
    "Mbit",
]

#: Decimal size units used throughout the paper's Section IV-B.
MB = 1e6
GB = 1e9
Mbit = 1e6  # megabits


@dataclass
class FlashRegion:
    """One named allocation inside the flash (model, dictionary, LM)."""

    name: str
    num_bytes: float
    reads: int = 0
    bytes_read: float = 0.0


class FlashMemory:
    """Flash storage holding the persistent recognition models."""

    def __init__(self, capacity_bytes: float = 64 * MB) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._regions: dict[str, FlashRegion] = {}

    def store(self, name: str, num_bytes: float) -> FlashRegion:
        """Allocate (or replace) a named region."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        existing = self._regions.pop(name, None)
        new_total = self.total_stored_bytes + num_bytes
        if new_total > self.capacity_bytes:
            if existing is not None:
                self._regions[name] = existing
            raise MemoryError(
                f"flash overflow: {new_total / MB:.2f} MB > capacity "
                f"{self.capacity_bytes / MB:.2f} MB"
            )
        region = FlashRegion(name=name, num_bytes=num_bytes)
        self._regions[name] = region
        return region

    def region(self, name: str) -> FlashRegion:
        if name not in self._regions:
            raise KeyError(f"no flash region named {name!r}")
        return self._regions[name]

    def regions(self) -> list[FlashRegion]:
        return list(self._regions.values())

    @property
    def total_stored_bytes(self) -> float:
        return sum(r.num_bytes for r in self._regions.values())

    def record_read(self, name: str, num_bytes: float) -> None:
        region = self.region(name)
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        region.reads += 1
        region.bytes_read += num_bytes


@dataclass
class DmaChannel:
    """DMA channel streaming flash regions to a consumer.

    The paper routes dictionary and acoustic-model traffic through DMA
    so the processor never stalls on model fetches; we track transfer
    counts and bytes so bandwidth and fetch energy can be derived.
    """

    flash: FlashMemory
    setup_cycles: int = 16
    transfers: int = 0
    bytes_transferred: float = 0.0

    def transfer(self, region_name: str, num_bytes: float) -> float:
        """Stream ``num_bytes`` from a flash region; returns the bytes."""
        self.flash.record_read(region_name, num_bytes)
        self.transfers += 1
        self.bytes_transferred += num_bytes
        return num_bytes

    @property
    def total_setup_cycles(self) -> int:
        return self.transfers * self.setup_cycles


class BandwidthMeter:
    """Per-frame bandwidth accounting against a frame period.

    ``record_frame(bytes)`` logs the traffic of one frame; properties
    report mean/peak sustained bandwidth given the frame period (10 ms
    in the paper, so 15.16 MB of senone parameters in a frame is
    1.516 GB/s).
    """

    def __init__(self, frame_period_s: float = 0.010) -> None:
        if frame_period_s <= 0:
            raise ValueError(f"frame_period_s must be positive, got {frame_period_s}")
        self.frame_period_s = frame_period_s
        self._frame_bytes: list[float] = []

    def record_frame(self, num_bytes: float) -> None:
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        self._frame_bytes.append(num_bytes)

    @property
    def frames(self) -> int:
        return len(self._frame_bytes)

    @property
    def total_bytes(self) -> float:
        return sum(self._frame_bytes)

    @property
    def peak_bytes_per_second(self) -> float:
        if not self._frame_bytes:
            return 0.0
        return max(self._frame_bytes) / self.frame_period_s

    @property
    def mean_bytes_per_second(self) -> float:
        if not self._frame_bytes:
            return 0.0
        return (self.total_bytes / len(self._frame_bytes)) / self.frame_period_s

    def peak_gb_per_second(self) -> float:
        return self.peak_bytes_per_second / GB

    def mean_gb_per_second(self) -> float:
        return self.mean_bytes_per_second / GB
