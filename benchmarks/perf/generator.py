"""Seeded request generator and arrival schedule.

The acoustic models come from the task presets at their fixed seeds;
``--seed`` drives only what is generated here: which words are spoken,
how they are cut into sentences, the synthesizer's phone durations,
phases and pauses, and the open-loop due times.  The program under
test receives only these inputs.

The driver compares runs made with DIFFERENT seeds, so the generator
keeps the amount of work seed-invariant and lets the seed vary only
what is said:

* the SHAPE of a workload — how many words each request has and how
  many phones each word has — is a template fixed by the task alone;
  a median or p90 over requests is then a quantile of the same length
  distribution under every seed, not a resample of it;
* the seed picks which word of the right phone count fills each slot
  (balanced within each phone-count stratum) and drives the
  synthesizer's phone durations, phases and inter-word pauses, so the
  audio differs everywhere while its length differs only by duration
  jitter that averages out;
* the arrival schedule is Poisson (exponential gaps), rescaled so the
  last request is due exactly at ``n / rate`` — the offered rate is
  the stated one for every seed, the burst pattern is the seed's.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.frontend.features import Frontend
from repro.workloads.synthesizer import PhoneSynthesizer
from repro.workloads.tasks import TrainedTask

__all__ = [
    "Request",
    "sentence_template",
    "sample_sentences",
    "make_requests",
    "poisson_due_times",
    "digest",
]


#: Generator seed of the seed-independent sentence template.
TEMPLATE_SEED = 20061001


@dataclass
class Request:
    """One generated utterance: what was said and what the program gets."""

    index: int
    words: list[str]
    waveform: np.ndarray  # (samples,) float64
    features: np.ndarray  # (T, 39) float64

    @property
    def frames(self) -> int:
        return int(self.features.shape[0])


def _stratum_quotas(sizes: list[int], total: int) -> list[int]:
    """Split ``total`` tokens over strata in proportion to their sizes
    (largest remainder; depends on nothing but the arguments)."""
    population = sum(sizes)
    exact = [total * s / population for s in sizes]
    quotas = [int(e) for e in exact]
    by_remainder = sorted(
        range(len(sizes)), key=lambda i: (quotas[i] - exact[i], i)
    )
    for i in by_remainder[: total - sum(quotas)]:
        quotas[i] += 1
    return quotas


def _strata(task: TrainedTask) -> dict[int, list[str]]:
    """Vocabulary words grouped by pronunciation length (sorted)."""
    strata: dict[int, list[str]] = {}
    for word in sorted(task.dictionary.words()):
        strata.setdefault(len(task.dictionary.pronunciation(word)), []).append(word)
    return strata


def sentence_template(
    task: TrainedTask, num: int, min_words: int, max_words: int
) -> list[list[int]]:
    """The seed-INDEPENDENT shape of a workload: ``num`` sentences, each
    a list of phone counts, one per word slot.

    Sentence lengths cycle ``min_words..max_words``; word slots draw on
    each phone-count stratum of the vocabulary in proportion to its
    size; both are shuffled once with a fixed generator.  Every seed
    fills these same slots, so request ``i`` has the same number of
    words and phones under every seed.
    """
    rng = np.random.default_rng(TEMPLATE_SEED)
    span = max_words - min_words + 1
    lengths = [min_words + i % span for i in range(num)]
    total = sum(lengths)
    strata = _strata(task)
    keys = sorted(strata)
    quotas = _stratum_quotas([len(strata[k]) for k in keys], total)
    slots = [key for key, quota in zip(keys, quotas) for _ in range(quota)]
    slots = [slots[i] for i in rng.permutation(total)]
    template, at = [], 0
    for length in rng.permutation(lengths).tolist():
        template.append(slots[at : at + length])
        at += length
    return template


def sample_sentences(
    task: TrainedTask,
    num: int,
    min_words: int,
    max_words: int,
    rng: np.random.Generator,
) -> list[list[str]]:
    """Fill the template's slots with words: within each phone-count
    stratum the seed decides which word goes where, cycling through a
    fresh permutation of the stratum so usage stays balanced."""
    template = sentence_template(task, num, min_words, max_words)
    strata = _strata(task)
    supply: dict[int, list[str]] = {key: [] for key in strata}
    sentences = []
    for shape in template:
        words = []
        for key in shape:
            if not supply[key]:
                stratum = strata[key]
                supply[key] = [stratum[i] for i in rng.permutation(len(stratum))]
            words.append(supply[key].pop())
        sentences.append(words)
    return sentences


def make_requests(
    task: TrainedTask, seed: int, num: int, min_words: int, max_words: int
) -> list[Request]:
    """Sentences -> waveforms -> 39-dim features, one rng stream per
    request so request ``i`` does not depend on how many came before."""
    sentences = sample_sentences(
        task, num, min_words, max_words, np.random.default_rng([seed, 0])
    )
    synthesizer = PhoneSynthesizer(task.corpus.phone_set)
    frontend = Frontend()
    requests = []
    for i, words in enumerate(sentences):
        prons = [task.dictionary.pronunciation(w) for w in words]
        waveform = synthesizer.synthesize_sentence(
            prons, np.random.default_rng([seed, 1, i])
        )
        requests.append(
            Request(
                index=i,
                words=words,
                waveform=waveform,
                features=frontend.extract(waveform),
            )
        )
    return requests


def poisson_due_times(seed: int, num: int, rate_per_s: float) -> np.ndarray:
    """Due time (s from phase start) of each of ``num`` requests."""
    rng = np.random.default_rng([seed, 2])
    due = np.cumsum(rng.exponential(1.0, size=num))
    return due * (num / rate_per_s / due[-1])


def digest(requests: list[Request], due: np.ndarray | None = None) -> str:
    """sha256 over everything generated — the byte-identity witness."""
    h = hashlib.sha256()
    for r in requests:
        h.update(" ".join(r.words).encode())
        h.update(r.waveform.tobytes())
        h.update(r.features.tobytes())
    if due is not None:
        h.update(due.tobytes())
    return h.hexdigest()
