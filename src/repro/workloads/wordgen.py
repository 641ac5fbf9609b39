"""Pseudo-English vocabulary generation.

Builds vocabularies of any size (up to the paper's 20,000-word WSJ
dictionary) as phone strings with plausible syllable structure
(onset-nucleus-coda), then spells them through the deterministic
grapheme map so the dictionary, G2P and LM all agree on the word
forms.  Generation is seeded and collision-free: every word is a
distinct phone string.
"""

from __future__ import annotations

import numpy as np

from repro.lexicon.g2p import phones_to_spelling
from repro.lexicon.phones import PhoneClass, PhoneSet, default_phone_set

__all__ = ["generate_words"]

_ONSET_CLASSES = (
    PhoneClass.STOP,
    PhoneClass.FRICATIVE,
    PhoneClass.NASAL,
    PhoneClass.LIQUID,
    PhoneClass.GLIDE,
    PhoneClass.AFFRICATE,
)
_CODA_CLASSES = (
    PhoneClass.STOP,
    PhoneClass.FRICATIVE,
    PhoneClass.NASAL,
    PhoneClass.LIQUID,
)


def _phones_by_class(phone_set: PhoneSet) -> dict[PhoneClass, list[str]]:
    table: dict[PhoneClass, list[str]] = {}
    for phone in phone_set:
        if phone.is_silence:
            continue
        table.setdefault(phone.phone_class, []).append(phone.name)
    return table


def _sample_syllable(
    rng: np.random.Generator, by_class: dict[PhoneClass, list[str]]
) -> list[str]:
    """One onset-nucleus-coda syllable."""
    phones: list[str] = []
    if rng.random() < 0.85:  # onset
        cls = _ONSET_CLASSES[rng.integers(len(_ONSET_CLASSES))]
        phones.append(by_class[cls][rng.integers(len(by_class[cls]))])
    vowels = by_class[PhoneClass.VOWEL]
    phones.append(vowels[rng.integers(len(vowels))])
    if rng.random() < 0.55:  # coda
        cls = _CODA_CLASSES[rng.integers(len(_CODA_CLASSES))]
        phones.append(by_class[cls][rng.integers(len(by_class[cls]))])
    return phones


def generate_words(
    count: int,
    seed: int = 0,
    phone_set: PhoneSet | None = None,
    min_syllables: int = 1,
    max_syllables: int = 4,
) -> dict[str, tuple[str, ...]]:
    """``count`` distinct words: spelling -> phone string.

    Each phone instance becomes one triphone slot in the dictionary
    layout, so the syllable range controls the triphones-per-word
    average.  The defaults give ~5.5 phones per word (conversational
    vocabulary); the R5 benchmark that reproduces the paper's WSJ
    sizing ("average of 9 triphones per word") passes
    ``min_syllables=3, max_syllables=5``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 1 <= min_syllables <= max_syllables:
        raise ValueError("need 1 <= min_syllables <= max_syllables")
    phone_set = phone_set or default_phone_set()
    by_class = _phones_by_class(phone_set)
    rng = np.random.default_rng(seed)
    words: dict[str, tuple[str, ...]] = {}
    seen_phones: set[tuple[str, ...]] = set()
    attempts = 0
    max_attempts = count * 200
    while len(words) < count:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"could not generate {count} distinct words in {max_attempts} draws"
            )
        syllables = rng.integers(min_syllables, max_syllables + 1)
        phones: list[str] = []
        for _ in range(syllables):
            phones.extend(_sample_syllable(rng, by_class))
        key = tuple(phones)
        if key in seen_phones:
            continue
        spelling = phones_to_spelling(key)
        if spelling in words:
            continue
        seen_phones.add(key)
        words[spelling] = key
    return words
