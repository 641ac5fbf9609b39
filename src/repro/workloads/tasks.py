"""Ready-made experimental tasks.

Presets for the paper's evaluation scenarios, each returning a trained
:class:`TrainedTask` (corpus + senone pool + tying) ready to decode:

* :func:`tiny_task` — 20 words; seconds to build; used by tests and
  the quickstart example.
* :func:`command_task` — a 30-word command-and-control grammar, the
  scenario of the Nedevschi et al. baseline (Section V).
* :func:`dictation_task` — the WSJ5K-like large-vocabulary dictation
  task behind the WER-vs-mantissa experiment (R1).
* :func:`dictation_cd_task` — the triphone-tied dictation variant
  (CD senone budget, maximal tying), the workload that exercises the
  fast-GMM CI layer end to end at batch scale.
* :func:`wsj_sizing_dictionary` — a 20,000-word dictionary with ~9
  phones per word, audio-free, for the paper's memory arithmetic (R5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hmm.senone import SenonePool
from repro.hmm.topology import HmmTopology
from repro.hmm.train import TrainingConfig, train_senone_pool
from repro.lexicon.dictionary import PronunciationDictionary
from repro.lexicon.triphone import SenoneTying
from repro.workloads.corpus import Corpus, CorpusConfig, build_corpus, monophone_hmms
from repro.workloads.wordgen import generate_words

__all__ = [
    "TrainedTask",
    "tiny_task",
    "command_task",
    "dictation_task",
    "dictation_cd_task",
    "wsj_sizing_dictionary",
    "expand_to_context_dependent",
]


@dataclass
class TrainedTask:
    """A corpus with trained acoustic models, ready to decode."""

    corpus: Corpus
    tying: SenoneTying
    pool: SenonePool
    topology: HmmTopology

    @property
    def dictionary(self) -> PronunciationDictionary:
        return self.corpus.dictionary

    @property
    def lm(self):
        return self.corpus.lm


def _train_task(
    corpus: Corpus,
    num_components: int,
    em_iterations: int,
    realignment_passes: int,
    seed: int,
    states_per_hmm: int = 3,
) -> TrainedTask:
    topology = HmmTopology(num_states=states_per_hmm)
    tying = SenoneTying(
        phone_set=corpus.phone_set,
        num_senones=len(corpus.phone_set) * states_per_hmm,  # pure CI pool
        states_per_hmm=states_per_hmm,
    )
    hmms = monophone_hmms(corpus.phone_set, tying, topology)
    transcripts = corpus.transcripts(hmms, subset="train")
    pool = train_senone_pool(
        [u.features for u in corpus.train],
        transcripts,
        num_senones=tying.num_senones,
        config=TrainingConfig(
            num_components=num_components,
            em_iterations=em_iterations,
            realignment_passes=realignment_passes,
            seed=seed,
        ),
    )
    return TrainedTask(corpus=corpus, tying=tying, pool=pool, topology=topology)


def tiny_task(seed: int = 7, states_per_hmm: int = 3) -> TrainedTask:
    """20 words, 40 training sentences — for tests and the quickstart.

    ``states_per_hmm`` exercises the unit's 3/5/7-state support
    (Section III-B: "the decoder is able to handle multiple state
    (3, 5, 7) HMMs").
    """
    corpus = build_corpus(
        CorpusConfig(
            vocabulary_size=20,
            train_sentences=40,
            test_sentences=8,
            min_sentence_words=2,
            max_sentence_words=5,
            seed=seed,
        )
    )
    return _train_task(
        corpus,
        num_components=2,
        em_iterations=4,
        realignment_passes=1,
        seed=seed,
        states_per_hmm=states_per_hmm,
    )


def command_task(seed: int = 19) -> TrainedTask:
    """30-word command-and-control scenario (Nedevschi-style)."""
    corpus = build_corpus(
        CorpusConfig(
            vocabulary_size=30,
            train_sentences=80,
            test_sentences=15,
            min_sentence_words=1,
            max_sentence_words=4,
            seed=seed,
        )
    )
    return _train_task(
        corpus, num_components=2, em_iterations=5, realignment_passes=1, seed=seed
    )


def dictation_task(
    vocabulary_size: int = 5000,
    train_sentences: int = 150,
    test_sentences: int = 20,
    seed: int = 31,
) -> TrainedTask:
    """The WSJ5K-like large-vocabulary dictation task (experiment R1).

    Training text covers a fraction of the vocabulary heavily (Zipf),
    exactly as LM training data would; the acoustic models are
    context-independent, which keeps a 5000-word decode tractable in
    pure Python while exercising every stage of the system.
    """
    corpus = build_corpus(
        CorpusConfig(
            vocabulary_size=vocabulary_size,
            train_sentences=train_sentences,
            test_sentences=test_sentences,
            min_sentence_words=3,
            max_sentence_words=8,
            seed=seed,
        )
    )
    return _train_task(
        corpus, num_components=3, em_iterations=5, realignment_passes=1, seed=seed
    )


def dictation_cd_task(
    vocabulary_size: int = 5000,
    train_sentences: int = 150,
    test_sentences: int = 20,
    seed: int = 31,
    num_senones: int = 6000,
) -> TrainedTask:
    """The triphone-tied dictation variant: CD senones over dictation.

    :func:`expand_to_context_dependent` applied to
    :func:`dictation_task` — every context-dependent senone inherits
    its CI parent's parameters (maximal tying, recognition unchanged),
    so the decoder addresses the paper's full CD senone budget on the
    open-vocabulary workload.  This is the task that exercises the
    fast-GMM CI layer end to end: with thousands of CD senones mapping
    onto a small CI parent set, the CI-mask layer prunes real work at
    batch scale (the flat command task never had enough senones for it
    to bite).  Decode it with ``network="tree"`` for the paper's
    large-vocabulary configuration.
    """
    return expand_to_context_dependent(
        dictation_task(
            vocabulary_size=vocabulary_size,
            train_sentences=train_sentences,
            test_sentences=test_sentences,
            seed=seed,
        ),
        num_senones=num_senones,
    )


def wsj_sizing_dictionary(
    num_words: int = 20000, seed: int = 5
) -> PronunciationDictionary:
    """The paper's dictionary sizing workload: 20 k words, ~9 phones each."""
    words = generate_words(
        num_words, seed=seed, min_syllables=3, max_syllables=5
    )
    return PronunciationDictionary.from_pronunciations(words)


def expand_to_context_dependent(
    task: TrainedTask, num_senones: int = 6000
) -> TrainedTask:
    """Re-tie a trained CI task over a full CD senone budget.

    Every context-dependent senone inherits its CI parent's trained
    parameters (maximal tying), so recognition behaviour is unchanged
    while the decoder now addresses the paper's full senone budget —
    the configuration behind the active-senone (R2), real-time (R3)
    and bandwidth experiments.
    """
    cd_tying = SenoneTying(
        phone_set=task.corpus.phone_set,
        num_senones=num_senones,
        states_per_hmm=task.tying.states_per_hmm,
    )
    parents = cd_tying.ci_parents()
    pool = task.pool
    cd_pool = SenonePool(
        pool.means[parents], pool.variances[parents], pool.weights[parents]
    )
    return TrainedTask(
        corpus=task.corpus, tying=cd_tying, pool=cd_pool, topology=task.topology
    )
