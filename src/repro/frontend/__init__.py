"""MFCC frontend (Figure 1 'Frontend'; software on the embedded core)."""

from repro.frontend.dsp import (
    apply_window,
    frame_signal,
    hamming_window,
    pre_emphasis,
)
from repro.frontend.features import (
    Frontend,
    FrontendConfig,
    StreamingAudioBuffer,
    cepstral_mean_normalize,
    delta_features,
)
from repro.frontend.filterbank import (
    apply_filterbank,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
)
from repro.frontend.mfcc import cepstra, dct_matrix, lifter, power_spectrum

__all__ = [
    "Frontend",
    "FrontendConfig",
    "StreamingAudioBuffer",
    "delta_features",
    "cepstral_mean_normalize",
    "pre_emphasis",
    "frame_signal",
    "hamming_window",
    "apply_window",
    "mel_filterbank",
    "apply_filterbank",
    "hz_to_mel",
    "mel_to_hz",
    "power_spectrum",
    "cepstra",
    "dct_matrix",
    "lifter",
]
