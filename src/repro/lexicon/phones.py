"""The phone inventory: "there are 51 phones in English language".

The paper (Section II) works with a 51-phone English inventory.  We
use the 39-phone ARPAbet core plus the TIMIT-style reduced/syllabic
phones and a silence model, which lands exactly on 51.  Each phone
carries an articulatory class — the class pair of a triphone's context
drives senone tying (:mod:`repro.lexicon.triphone`) and the formant
synthesizer (:mod:`repro.workloads.synthesizer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["PhoneClass", "Phone", "PhoneSet", "default_phone_set", "SILENCE"]


class PhoneClass(Enum):
    """Coarse articulatory classes used for context clustering."""

    VOWEL = "vowel"
    STOP = "stop"
    FRICATIVE = "fricative"
    AFFRICATE = "affricate"
    NASAL = "nasal"
    LIQUID = "liquid"
    GLIDE = "glide"
    SILENCE = "silence"


@dataclass(frozen=True)
class Phone:
    """One phone: name, articulatory class, and a stable integer ID."""

    name: str
    phone_class: PhoneClass
    index: int

    @property
    def is_silence(self) -> bool:
        return self.phone_class is PhoneClass.SILENCE


#: Dense index of each articulatory class, in declaration order.
_CLASS_INDEX = {cls: i for i, cls in enumerate(PhoneClass)}

#: Name of the silence phone used at utterance and word boundaries.
SILENCE = "SIL"

# ARPAbet core (39) + TIMIT-style extras (11) + SIL = 51.
_INVENTORY: tuple[tuple[str, PhoneClass], ...] = (
    ("AA", PhoneClass.VOWEL), ("AE", PhoneClass.VOWEL), ("AH", PhoneClass.VOWEL),
    ("AO", PhoneClass.VOWEL), ("AW", PhoneClass.VOWEL), ("AY", PhoneClass.VOWEL),
    ("EH", PhoneClass.VOWEL), ("ER", PhoneClass.VOWEL), ("EY", PhoneClass.VOWEL),
    ("IH", PhoneClass.VOWEL), ("IY", PhoneClass.VOWEL), ("OW", PhoneClass.VOWEL),
    ("OY", PhoneClass.VOWEL), ("UH", PhoneClass.VOWEL), ("UW", PhoneClass.VOWEL),
    ("B", PhoneClass.STOP), ("D", PhoneClass.STOP), ("G", PhoneClass.STOP),
    ("K", PhoneClass.STOP), ("P", PhoneClass.STOP), ("T", PhoneClass.STOP),
    ("CH", PhoneClass.AFFRICATE), ("JH", PhoneClass.AFFRICATE),
    ("DH", PhoneClass.FRICATIVE), ("F", PhoneClass.FRICATIVE),
    ("HH", PhoneClass.FRICATIVE), ("S", PhoneClass.FRICATIVE),
    ("SH", PhoneClass.FRICATIVE), ("TH", PhoneClass.FRICATIVE),
    ("V", PhoneClass.FRICATIVE), ("Z", PhoneClass.FRICATIVE),
    ("ZH", PhoneClass.FRICATIVE),
    ("M", PhoneClass.NASAL), ("N", PhoneClass.NASAL), ("NG", PhoneClass.NASAL),
    ("L", PhoneClass.LIQUID), ("R", PhoneClass.LIQUID),
    ("W", PhoneClass.GLIDE), ("Y", PhoneClass.GLIDE),
    # TIMIT-style reduced vowels, syllabics and variants (11).
    ("AX", PhoneClass.VOWEL), ("AXR", PhoneClass.VOWEL), ("IX", PhoneClass.VOWEL),
    ("UX", PhoneClass.VOWEL), ("DX", PhoneClass.STOP), ("NX", PhoneClass.NASAL),
    ("EL", PhoneClass.LIQUID), ("EM", PhoneClass.NASAL), ("EN", PhoneClass.NASAL),
    ("EPI", PhoneClass.SILENCE), ("PAU", PhoneClass.SILENCE),
    (SILENCE, PhoneClass.SILENCE),
)


class PhoneSet:
    """Immutable registry of phones with name and index lookup."""

    def __init__(self, inventory: tuple[tuple[str, PhoneClass], ...]) -> None:
        names = [name for name, _ in inventory]
        if len(set(names)) != len(names):
            raise ValueError("duplicate phone names in inventory")
        self._phones = tuple(
            Phone(name=name, phone_class=cls, index=i)
            for i, (name, cls) in enumerate(inventory)
        )
        self._by_name = {p.name: p for p in self._phones}

    def __len__(self) -> int:
        return len(self._phones)

    def __iter__(self):
        return iter(self._phones)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def phone(self, name: str) -> Phone:
        if name not in self._by_name:
            raise KeyError(f"unknown phone {name!r}")
        return self._by_name[name]

    def by_index(self, index: int) -> Phone:
        if not 0 <= index < len(self._phones):
            raise IndexError(f"phone index {index} out of range")
        return self._phones[index]

    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self._phones)

    def non_silence(self) -> tuple[Phone, ...]:
        return tuple(p for p in self._phones if not p.is_silence)

    @property
    def silence(self) -> Phone:
        return self._by_name[SILENCE]

    def class_index(self, name: str) -> int:
        """Dense index of the phone's articulatory class."""
        return _CLASS_INDEX[self.phone(name).phone_class]


def default_phone_set() -> PhoneSet:
    """The paper's 51-phone English inventory."""
    return PhoneSet(_INVENTORY)
