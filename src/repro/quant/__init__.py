"""Reduced-precision numeric formats (mantissa study of Section IV-B)."""

from repro.quant.float_formats import (
    IEEE_SINGLE,
    MANTISSA_12,
    MANTISSA_15,
    PAPER_FORMATS,
    FloatFormat,
)
from repro.quant.packing import pack_bits, packed_size_bytes, unpack_bits

__all__ = [
    "FloatFormat",
    "IEEE_SINGLE",
    "MANTISSA_15",
    "MANTISSA_12",
    "PAPER_FORMATS",
    "pack_bits",
    "unpack_bits",
    "packed_size_bytes",
]
