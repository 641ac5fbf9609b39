"""Formant-style waveform synthesis: the corpus we cannot license.

The paper evaluates on Wall Street Journal audio with Sphinx-3 models;
neither is available offline, so we build a synthetic "speech world"
whose utterances flow through exactly the same pipeline: waveform ->
MFCC frontend -> GMM/HMM training -> staged decoding.

Each phone gets a deterministic acoustic signature derived from its
index and articulatory class: three formant-like sinusoid partials for
voiced classes, shaped noise for fricatives/stops, and a mix in
between.  Signatures are well separated in mel-cepstral space, which
is what makes the recognition task learnable — analogous to clean
read speech.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lexicon.phones import PhoneClass, PhoneSet, default_phone_set

__all__ = ["SynthesisConfig", "PhoneSynthesizer"]


@dataclass(frozen=True)
class SynthesisConfig:
    """Timing and level parameters of the synthesizer."""

    sample_rate: float = 16000.0
    min_phone_s: float = 0.07
    max_phone_s: float = 0.14
    edge_silence_s: float = 0.12
    inter_word_pause_s: float = 0.03
    inter_word_pause_prob: float = 0.35
    noise_floor: float = 1e-3
    level: float = 0.30

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not 0 < self.min_phone_s <= self.max_phone_s:
            raise ValueError("need 0 < min_phone_s <= max_phone_s")
        if not 0.0 <= self.inter_word_pause_prob <= 1.0:
            raise ValueError("inter_word_pause_prob must be in [0, 1]")


#: Fraction of noise (vs periodic partials) per articulatory class.
_NOISE_MIX: dict[PhoneClass, float] = {
    PhoneClass.VOWEL: 0.05,
    PhoneClass.GLIDE: 0.10,
    PhoneClass.LIQUID: 0.15,
    PhoneClass.NASAL: 0.12,
    PhoneClass.AFFRICATE: 0.55,
    PhoneClass.STOP: 0.45,
    PhoneClass.FRICATIVE: 0.80,
    PhoneClass.SILENCE: 1.00,
}


class PhoneSynthesizer:
    """Deterministic per-phone waveform generator."""

    def __init__(
        self,
        phone_set: PhoneSet | None = None,
        config: SynthesisConfig | None = None,
    ) -> None:
        self.phone_set = phone_set or default_phone_set()
        self.config = config or SynthesisConfig()
        self._signatures = {
            p.name: self._signature(p.index, p.phone_class) for p in self.phone_set
        }

    def _signature(
        self, index: int, phone_class: PhoneClass
    ) -> tuple[np.ndarray, float]:
        """(formant frequencies, noise mix) for one phone.

        Frequencies are spread deterministically over the speech band
        using the phone index, so every phone is spectrally distinct
        and the mapping is stable across runs.
        """
        base = 220.0 + 61.0 * (index % 17)  # 220 .. 1196 Hz
        second = 900.0 + 137.0 * ((index * 7) % 19)  # 900 .. 3366 Hz
        third = 2300.0 + 83.0 * ((index * 13) % 23)  # 2300 .. 4126 Hz
        noise = _NOISE_MIX[phone_class]
        if phone_class is PhoneClass.FRICATIVE:
            # Fricative energy concentrates high; shift partials up.
            base, second, third = base + 2500.0, second + 2000.0, third + 1500.0
        return np.array([base, second, third]), noise

    # ------------------------------------------------------------------
    def synthesize_phone(
        self, name: str, duration_s: float, rng: np.random.Generator
    ) -> np.ndarray:
        """One phone's waveform segment."""
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        cfg = self.config
        formants, noise_mix = self._signatures[name]
        phone = self.phone_set.phone(name)
        n = max(int(duration_s * cfg.sample_rate), 1)
        t = np.arange(n) / cfg.sample_rate
        if phone.is_silence:
            return cfg.noise_floor * rng.standard_normal(n)
        periodic = np.zeros(n)
        for k, freq in enumerate(formants):
            amp = 1.0 / (k + 1)
            periodic += amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        periodic /= np.abs(periodic).max() + 1e-12
        noise = rng.standard_normal(n)
        if phone.phone_class in (PhoneClass.FRICATIVE, PhoneClass.AFFRICATE):
            noise = np.diff(noise, prepend=noise[0])  # high-pass tilt
        noise /= np.abs(noise).max() + 1e-12
        signal = (1.0 - noise_mix) * periodic + noise_mix * noise
        # Attack / decay envelope to avoid clicks at joins.
        ramp = max(int(0.005 * cfg.sample_rate), 1)
        envelope = np.ones(n)
        envelope[:ramp] = np.linspace(0.0, 1.0, ramp)
        envelope[-ramp:] = np.linspace(1.0, 0.0, ramp)
        return cfg.level * signal * envelope

    def synthesize_phone_string(
        self,
        phones: list[str] | tuple[str, ...],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """A contiguous phone sequence (no word-boundary handling)."""
        if not phones:
            raise ValueError("cannot synthesize an empty phone sequence")
        cfg = self.config
        segments = []
        for name in phones:
            duration = rng.uniform(cfg.min_phone_s, cfg.max_phone_s)
            segments.append(self.synthesize_phone(name, duration, rng))
        return np.concatenate(segments)

    def synthesize_sentence(
        self,
        word_pronunciations: list[tuple[str, ...]],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """A full utterance: edge silence, words, occasional pauses."""
        if not word_pronunciations:
            raise ValueError("cannot synthesize an empty sentence")
        cfg = self.config
        parts = [
            self.synthesize_phone("SIL", cfg.edge_silence_s, rng),
        ]
        for i, phones in enumerate(word_pronunciations):
            parts.append(self.synthesize_phone_string(phones, rng))
            is_last = i == len(word_pronunciations) - 1
            if not is_last and rng.random() < cfg.inter_word_pause_prob:
                parts.append(
                    self.synthesize_phone("SIL", cfg.inter_word_pause_s, rng)
                )
        parts.append(self.synthesize_phone("SIL", cfg.edge_silence_s, rng))
        return np.concatenate(parts)
