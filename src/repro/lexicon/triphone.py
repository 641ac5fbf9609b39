"""Triphone context expansion and senone tying (Section II).

"Each of the phones along with its neighboring phones (left and right)
are called triphones. ... In absence of enough training data, the
states of different triphones are represented by the same
distribution — these are called senones."

Real systems tie triphone states with phonetic decision trees grown
from training data.  We reproduce the *structure* with a
deterministic, data-free surrogate: triphone states are clustered by
the articulatory class of their left and right context, per base phone
and state position, into a configurable senone budget.  This yields
exactly the paper's shape — a few thousand senones shared by ~10^5
logical triphone states — without needing WSJ training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lexicon.phones import PhoneClass, PhoneSet, SILENCE, default_phone_set

__all__ = ["Triphone", "word_to_triphones", "SenoneTying"]


@dataclass(frozen=True)
class Triphone:
    """A phone in left/right context: ``left-base+right``."""

    base: str
    left: str
    right: str

    @property
    def name(self) -> str:
        return f"{self.left}-{self.base}+{self.right}"

    @classmethod
    def parse(cls, name: str) -> "Triphone":
        """Inverse of :attr:`name`."""
        try:
            left, rest = name.split("-", 1)
            base, right = rest.split("+", 1)
        except ValueError as exc:
            raise ValueError(f"malformed triphone name {name!r}") from exc
        return cls(base=base, left=left, right=right)


def word_to_triphones(
    phones: tuple[str, ...] | list[str],
    left_context: str = SILENCE,
    right_context: str = SILENCE,
) -> tuple[Triphone, ...]:
    """Expand a word's phone string into its triphone sequence.

    Word-boundary contexts default to silence (the decoder refines
    these with true cross-word context when words are chained).
    """
    seq = tuple(phones)
    if not seq:
        raise ValueError("cannot expand an empty phone sequence")
    out = []
    for i, base in enumerate(seq):
        left = seq[i - 1] if i > 0 else left_context
        right = seq[i + 1] if i + 1 < len(seq) else right_context
        out.append(Triphone(base=base, left=left, right=right))
    return tuple(out)


class SenoneTying:
    """Deterministic state-tying: triphone states -> senone IDs.

    Senones are allocated per (base phone, state position); within one
    allocation, the (left class, right class) pair selects a cluster.
    Context-independent (CI) senones — one per (phone, state) — occupy
    the first ``num_phones * states_per_hmm`` IDs so a CI model is
    always embedded in the pool (used by the fast-GMM senone-selection
    layer, and as the monophone fallback).

    Parameters
    ----------
    phone_set:
        The phone inventory.
    num_senones:
        Total senone budget (6000 in the paper's WSJ configuration).
    states_per_hmm:
        HMM states per phone (3/5/7).
    """

    def __init__(
        self,
        phone_set: PhoneSet | None = None,
        num_senones: int = 6000,
        states_per_hmm: int = 3,
    ) -> None:
        self.phone_set = phone_set or default_phone_set()
        self.states_per_hmm = states_per_hmm
        num_phones = len(self.phone_set)
        ci_count = num_phones * states_per_hmm
        if num_senones < ci_count:
            raise ValueError(
                f"num_senones {num_senones} below CI minimum {ci_count} "
                f"({num_phones} phones x {states_per_hmm} states)"
            )
        self.num_senones = num_senones
        self._num_classes = len(PhoneClass)
        # Senones remaining after the CI block, split evenly across
        # (phone, state) slots; remainders go unused (kept for the CD
        # budget arithmetic to stay simple and predictable).
        self._cd_per_slot = (num_senones - ci_count) // ci_count
        self._ci_count = ci_count
        # Per-phone tables, by phone index: what the tying formula reads.
        self._index = {p.name: p.index for p in self.phone_set}
        self._class = np.array(
            [self.phone_set.class_index(p.name) for p in self.phone_set]
        )
        self._silent = np.array([p.is_silence for p in self.phone_set])
        parents = np.arange(num_senones)
        cd = parents[ci_count:]
        if self._cd_per_slot:
            cd -= ci_count
            cd //= self._cd_per_slot
        np.minimum(cd, ci_count - 1, out=cd)
        parents.flags.writeable = False
        self._parents = parents

    @property
    def ci_senones(self) -> int:
        """Count of context-independent senones (the leading block)."""
        return self._ci_count

    def ci_senone(self, phone: str, state: int) -> int:
        """CI senone ID of ``(phone, state)``."""
        self._check_state(state)
        p = self.phone_set.phone(phone)
        return p.index * self.states_per_hmm + state

    def phone_indices(self, phones) -> list[int]:
        """The phone-set index of each name (``KeyError`` for an
        unknown one)."""
        index = self._index
        try:
            return [index[name] for name in phones]
        except KeyError as exc:
            raise KeyError(f"unknown phone {exc.args[0]!r}") from None

    def senone_table(self, base, left, right) -> np.ndarray:
        """Tied senone IDs of every state of many triphones at once:
        ``(n, states_per_hmm)`` from their base / left / right phone
        indices (:meth:`phone_indices`), each ``(n,)``.

        This is the one spelling of the tying formula.  Silence and
        other SILENCE-class bases are context-independent by
        construction; with a zero CD budget everything collapses to the
        CI senones (a pure monophone system).
        """
        base = np.asarray(base, dtype=np.int64)[:, None]
        ci = base * self.states_per_hmm + np.arange(self.states_per_hmm)
        if self._cd_per_slot == 0:
            return ci
        classes = self._class
        cluster = classes.take(left) * self._num_classes
        cluster += classes.take(right)
        cluster %= self._cd_per_slot
        cd = ci * self._cd_per_slot
        cd += self._ci_count
        cd += cluster[:, None]
        return np.where(self._silent.take(base), ci, cd)

    def senone(self, triphone: Triphone, state: int) -> int:
        """Tied senone ID of one triphone state (:meth:`senone_table`)."""
        self._check_state(state)
        return self.senone_ids(triphone)[state]

    def senone_ids(self, triphone: Triphone) -> tuple[int, ...]:
        """All states' senone IDs for one triphone."""
        base, left, right = self.phone_indices(
            (triphone.base, triphone.left, triphone.right)
        )
        return tuple(self.senone_table([base], [left], [right])[0].tolist())

    def ci_parents(self) -> np.ndarray:
        """The CI parent of every senone ID, ``(num_senones,)`` int64,
        read-only: the same phone and state (the fast-GMM layer-2
        selection scores the parent first, and evaluates the CD senone
        only if the parent looks alive).  IDs past the last full slot
        are the unused budget remainder (never produced by
        :meth:`senone_table`); they map to the final slot so bulk
        ID-space sweeps stay total."""
        return self._parents

    def ci_parent(self, senone_id: int) -> int:
        """Map any senone to its CI parent (:meth:`ci_parents`)."""
        if not 0 <= senone_id < self.num_senones:
            raise IndexError(f"senone {senone_id} out of range")
        return int(self._parents[senone_id])

    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.states_per_hmm:
            raise ValueError(
                f"state {state} out of range [0, {self.states_per_hmm})"
            )
