"""Synthetic speech world: the offline substitute for WSJ."""

from repro.workloads.corpus import (
    Corpus,
    CorpusConfig,
    Utterance,
    build_corpus,
    monophone_hmms,
)
from repro.workloads.synthesizer import PhoneSynthesizer, SynthesisConfig
from repro.workloads.tasks import (
    TrainedTask,
    command_task,
    dictation_task,
    expand_to_context_dependent,
    tiny_task,
    wsj_sizing_dictionary,
)
from repro.workloads.wordgen import generate_words

__all__ = [
    "Corpus",
    "CorpusConfig",
    "Utterance",
    "build_corpus",
    "monophone_hmms",
    "PhoneSynthesizer",
    "SynthesisConfig",
    "TrainedTask",
    "tiny_task",
    "command_task",
    "dictation_task",
    "wsj_sizing_dictionary",
    "expand_to_context_dependent",
    "generate_words",
]
