"""repro — reproduction of "Architecture for Low Power Large Vocabulary
Speech Recognition" (Chandra, Pazhayaveetil, Franzon; SOCC 2006).

An HMM/GMM large-vocabulary speech recognizer built from scratch
(frontend, acoustic models, lexicon, language model, staged decoder)
plus cycle-accurate Python models of the paper's dedicated hardware:
the Observation Probability unit, the Viterbi decoder unit, the logadd
SRAM and the activity-based power model, assembled into an SoC report
over one decode.

Quick start::

    from repro.workloads import tiny_task
    from repro.decoder import Recognizer

    task = tiny_task()
    rec = Recognizer.create(task.dictionary, task.pool, task.lm,
                            task.tying, mode="hardware")
    result = rec.decode(task.corpus.test[0].features)
    print(result.words)

See README.md for the system inventory; the paper-vs-measured record
of each experiment is in the docstring of its ``benchmarks/bench_*.py``.
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "decoder",
    "eval",
    "frontend",
    "hmm",
    "lexicon",
    "lm",
    "quant",
    "runtime",
    "workloads",
]
