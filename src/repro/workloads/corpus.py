"""Corpus construction: vocabulary, text, audio, features, transcripts.

Assembles the full synthetic task (the substitution for WSJ):

1. generate a vocabulary of pseudo-English words (phone strings);
2. build the pronunciation dictionary and a Zipf-flavoured text
   source, train the n-gram LM on its sentences;
3. synthesize waveforms for train/test sentences and run them through
   the MFCC frontend;
4. expose monophone HMM transcripts so the acoustic trainer can
   flat-start and re-align.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.frontend.features import Frontend, FrontendConfig
from repro.hmm.topology import HmmTopology, PhoneHmm
from repro.lexicon.dictionary import PronunciationDictionary
from repro.lexicon.phones import PhoneSet, SILENCE, default_phone_set
from repro.lexicon.triphone import SenoneTying
from repro.lm.ngram import NGramModel
from repro.lm.vocabulary import Vocabulary
from repro.workloads.synthesizer import PhoneSynthesizer, SynthesisConfig
from repro.workloads.wordgen import generate_words

__all__ = ["Utterance", "Corpus", "CorpusConfig", "build_corpus", "monophone_hmms"]


@dataclass
class Utterance:
    """One spoken sentence with everything derived from it."""

    words: list[str]
    phones: list[str]  # full phone string incl. boundary silence
    features: np.ndarray  # (T, 39)
    waveform_samples: int

    @property
    def num_frames(self) -> int:
        return int(self.features.shape[0])


@dataclass(frozen=True)
class CorpusConfig:
    """Size and text-statistics knobs."""

    vocabulary_size: int = 100
    train_sentences: int = 120
    test_sentences: int = 20
    min_sentence_words: int = 3
    max_sentence_words: int = 8
    lm_order: int = 2
    zipf_exponent: float = 1.1
    seed: int = 42

    def __post_init__(self) -> None:
        if self.vocabulary_size < 2:
            raise ValueError("vocabulary_size must be >= 2")
        if self.train_sentences < 1 or self.test_sentences < 0:
            raise ValueError("need >= 1 train and >= 0 test sentences")
        if not 1 <= self.min_sentence_words <= self.max_sentence_words:
            raise ValueError("bad sentence length range")


@dataclass
class Corpus:
    """The complete synthetic task."""

    config: CorpusConfig
    phone_set: PhoneSet
    dictionary: PronunciationDictionary
    vocabulary: Vocabulary
    lm: NGramModel
    train: list[Utterance] = field(default_factory=list)
    test: list[Utterance] = field(default_factory=list)

    def transcripts(
        self, hmms: dict[str, PhoneHmm], subset: str = "train"
    ) -> list[list[PhoneHmm]]:
        """Per-utterance phone-HMM sequences for the acoustic trainer."""
        utterances = self.train if subset == "train" else self.test
        return [[hmms[p] for p in utt.phones] for utt in utterances]


def monophone_hmms(
    phone_set: PhoneSet,
    tying: SenoneTying,
    topology: HmmTopology | None = None,
) -> dict[str, PhoneHmm]:
    """One context-independent HMM per phone, tied to the CI senones."""
    topology = topology or HmmTopology(num_states=tying.states_per_hmm)
    return {
        phone.name: PhoneHmm(
            name=phone.name,
            topology=topology,
            senone_ids=tuple(
                tying.ci_senone(phone.name, s) for s in range(tying.states_per_hmm)
            ),
        )
        for phone in phone_set
    }


def _realize_sentence(
    sentence: list[str],
    dictionary: PronunciationDictionary,
    synthesizer: PhoneSynthesizer,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[str]]:
    """Synthesize one sentence, keeping waveform and transcript in sync.

    Inter-word pauses are decided here so that every synthesized
    silence segment also appears in the phone transcript — the
    acoustic trainer aligns against exactly what was spoken.
    """
    cfg = synthesizer.config
    parts = [synthesizer.synthesize_phone(SILENCE, cfg.edge_silence_s, rng)]
    phones: list[str] = [SILENCE]
    for i, word in enumerate(sentence):
        pron = dictionary.pronunciation(word)
        parts.append(synthesizer.synthesize_phone_string(pron, rng))
        phones.extend(pron)
        is_last = i == len(sentence) - 1
        if not is_last and rng.random() < cfg.inter_word_pause_prob:
            parts.append(
                synthesizer.synthesize_phone(SILENCE, cfg.inter_word_pause_s, rng)
            )
            phones.append(SILENCE)
    parts.append(synthesizer.synthesize_phone(SILENCE, cfg.edge_silence_s, rng))
    phones.append(SILENCE)
    return np.concatenate(parts), phones


def build_corpus(
    config: CorpusConfig | None = None,
    frontend_config: FrontendConfig | None = None,
    synthesis_config: SynthesisConfig | None = None,
) -> Corpus:
    """Generate the whole task (see module docstring)."""
    cfg = config or CorpusConfig()
    phone_set = default_phone_set()
    rng = np.random.default_rng(cfg.seed)

    words = generate_words(cfg.vocabulary_size, seed=cfg.seed, phone_set=phone_set)
    dictionary = PronunciationDictionary.from_pronunciations(words, phone_set)
    vocabulary = Vocabulary(list(words))

    # Zipf-weighted text with light bigram structure: a random
    # preferred-successor table makes bigrams informative enough for
    # the LM to help decoding, as real text would.
    vocab_words = vocabulary.words()
    zipf = 1.0 / np.arange(1, len(vocab_words) + 1) ** cfg.zipf_exponent
    zipf /= zipf.sum()
    order = rng.permutation(len(vocab_words))
    successor = rng.integers(0, len(vocab_words), size=(len(vocab_words), 3))

    def sample_sentence() -> list[str]:
        length = int(rng.integers(cfg.min_sentence_words, cfg.max_sentence_words + 1))
        sentence: list[str] = []
        current = int(rng.choice(len(vocab_words), p=zipf))
        for _ in range(length):
            sentence.append(vocab_words[order[current]])
            if rng.random() < 0.55:
                current = int(successor[current, rng.integers(3)])
            else:
                current = int(rng.choice(len(vocab_words), p=zipf))
        return sentence

    train_text = [sample_sentence() for _ in range(cfg.train_sentences)]
    test_text = [sample_sentence() for _ in range(cfg.test_sentences)]

    lm = NGramModel(vocabulary, order=cfg.lm_order)
    lm.train(train_text)

    frontend = Frontend(frontend_config)
    synthesizer = PhoneSynthesizer(phone_set, synthesis_config)

    def realize(text: list[list[str]]) -> list[Utterance]:
        utterances = []
        for sentence in text:
            waveform, phones = _realize_sentence(
                sentence, dictionary, synthesizer, rng
            )
            features = frontend.extract(waveform)
            utterances.append(
                Utterance(
                    words=list(sentence),
                    phones=phones,
                    features=features,
                    waveform_samples=int(waveform.size),
                )
            )
        return utterances

    corpus = Corpus(
        config=cfg,
        phone_set=phone_set,
        dictionary=dictionary,
        vocabulary=vocabulary,
        lm=lm,
        train=realize(train_text),
        test=realize(test_text),
    )
    return corpus
