"""Evaluation metrics: WER, real-time factor, report formatting."""

from repro.eval.realtime import RealTimeReport, analyze_unit_cycles, frame_cycle_budget
from repro.eval.report import check_within, format_comparison, format_table
from repro.eval.wer import ErrorCounts, align_words, corpus_wer

__all__ = [
    "ErrorCounts",
    "align_words",
    "corpus_wer",
    "RealTimeReport",
    "analyze_unit_cycles",
    "frame_cycle_budget",
    "format_table",
    "format_comparison",
    "check_within",
]
