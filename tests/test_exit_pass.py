"""The one word-exit pass of the lane banks, flat network, against a
plain-Python oracle.

``LaneBankBase._record_exits`` records every lane's word exits of a
step for both networks; the flat bank's hooks record the raw exit
score and offer every word its best LM-weighted entry for the next
frame.  The oracle below recomputes both from the bank's post-beam
state and the lattice one word, one exit at a time: which word ends
exit (word beam, in word order), what each exit records (entry frame,
predecessor, score, the LM history silence forwards), and the next
frame's ``pending_entry``/``pending_src`` as a strict-``>`` fold in
recorded order — ties to the first exit, and a word no exit lifts above
``LOG_ZERO`` stays ``LOG_ZERO``/-1.
"""

import numpy as np
import pytest

from repro.core.logadd import LOG_DEAD, LOG_ZERO
from repro.decoder.recognizer import Recognizer
from repro.lm.ngram import NGramModel


def _oracle_history(lattice, silence, lm, index):
    """The LM context exit ``index`` exposes: the real words behind it
    (silence skipped), newest last, ``<s>`` where one is missing."""
    real = []
    while index >= 0 and len(real) < 2:
        if lattice.word[index] != silence:
            real.append(lattice.word[index])
        index = lattice.predecessor[index]
    bos = lm.vocabulary.bos_id
    if not real:
        return (bos,)
    if lm.order < 3:
        return (real[0],)
    return (real[1] if len(real) == 2 else bos, real[0])


def _oracle_candidates(bank, lane):
    """``(word, raw score, predecessor, entry frame)`` of every live
    word end of ``lane`` after the beam, in word order."""
    net = bank.net
    candidates = []
    for word, state in enumerate(net.end_state.tolist()):
        token = bank.delta[lane, state]
        if token > LOG_DEAD:
            raw = float(token) + float(net.fwd_logp[state])
            candidates.append(
                (word, raw, int(bank._record[0, lane, state]),
                 int(bank._record[1, lane, state]))
            )
    return candidates


def _oracle_exits(bank, candidates, lattice, t):
    """The lattice rows one lane-frame must append, in recorded order."""
    if not candidates:
        return []
    threshold = max(raw for _, raw, _, _ in candidates) - bank.cfg.beam.word_beam
    kept = [c for c in candidates if c[1] >= threshold]
    assert len(kept) <= bank.cfg.max_exits_per_frame  # the cap: TestFlatExitCap
    silence = bank.net.silence_word
    rows = []
    for word, raw, pred, entry in kept:
        if word != silence:
            history = word
        else:
            history = lattice.lm_history[pred] if pred >= 0 else -1
        rows.append((word, entry, t, pred, raw, history))
    return rows


def _oracle_offers(bank, lattice, first, count):
    """Next frame's ``(pending_entry, pending_src)`` row of one lane."""
    net, cfg, lm = bank.net, bank.cfg, bank.lm
    entry = [LOG_ZERO] * (net.num_words + 1)
    src = [-1] * (net.num_words + 1)
    for index in range(first, first + count):
        score = lattice.score[index]
        row = lm.log_prob_row(_oracle_history(lattice, net.silence_word, lm, index))
        for word in range(net.num_words):
            candidate = cfg.lm_scale * float(row[word]) + score
            candidate += cfg.word_insertion_penalty
            if candidate > entry[word]:
                entry[word], src[word] = candidate, index
        candidate = score + cfg.silence_penalty
        if candidate > entry[net.silence_word]:
            entry[net.silence_word], src[net.silence_word] = candidate, index
    return entry, src


def _lattice_rows(lattice, start):
    return list(zip(
        lattice.word[start:], lattice.entry_frame[start:], lattice.exit_frame[start:],
        lattice.predecessor[start:], lattice.score[start:], lattice.lm_history[start:],
    ))


@pytest.fixture(scope="module")
def trigram_lm(task):
    lm = NGramModel(task.corpus.vocabulary, order=3)
    lm.train([utt.words for utt in task.corpus.train])
    return lm


class _HistoryBlindLm:
    """A trigram stand-in that gives every history the same row, so
    exits of equal score tie on every word; word 0 is impossible
    (``-inf``), so no exit can lift it above ``LOG_ZERO``."""

    order = 3

    def __init__(self, vocabulary):
        self.vocabulary = vocabulary
        self.row = np.linspace(-1.0, -4.0, vocabulary.size)
        self.row[0] = -np.inf
        self.row[3:6] = -2.0  # equal entries inside the row as well
        self.asked: list[tuple[int, ...]] = []

    def log_prob_row(self, history):
        self.asked.append(tuple(history))
        return self.row


class TestFlatExitOracle:
    @pytest.mark.parametrize("mode", ["reference", "hardware"])
    def test_every_step_of_a_trigram_decode(self, task, trigram_lm, mode):
        """Three lanes of real audio under a trigram LM: after every
        step, each lane's new lattice rows and its pending entries are
        exactly the oracle's (scores by value, so bit for bit)."""
        rec = Recognizer.create(
            task.dictionary, task.pool, trigram_lm, task.tying, mode=mode
        )
        rec._reset_accounting()
        bank = rec.make_bank(3)
        for lane, utt in enumerate(task.corpus.test[:3]):
            bank.admit(lane, lane, utt.features)
        silence = bank.net.silence_word
        seen = {"silence": 0, "several": 0, "two_words": 0}
        while bank.any_active:
            lanes = np.flatnonzero(bank.active).tolist()
            starts = {b: len(bank.lattices[b]) for b in lanes}
            frames = {b: int(bank.lane_t[b]) for b in lanes}
            finished = bank.step()
            for b in lanes:
                lattice = bank.lattices[b]
                want = _oracle_exits(bank, _oracle_candidates(bank, b), lattice, frames[b])
                assert _lattice_rows(lattice, starts[b]) == want
                entry, src = _oracle_offers(bank, lattice, starts[b], len(want))
                assert bank.pending_entry[b].tolist() == entry
                assert bank.pending_src[b].tolist() == src
                seen["silence"] += sum(row[0] == silence for row in want)
                seen["several"] += len(want) > 1
                seen["two_words"] += sum(
                    _oracle_history(lattice, silence, trigram_lm, i)[0]
                    != trigram_lm.vocabulary.bos_id
                    for i in range(starts[b], len(lattice))
                )
            for b in finished:
                bank.retire(b)
        assert all(seen.values()), seen

    def test_ties_silence_and_an_unreachable_word(self, task):
        """Crafted candidates through the pass itself: two words and a
        silence exit tie, a word end outside the word beam is dropped,
        silence forwards its predecessor's history, and the word the LM
        rules out keeps ``LOG_ZERO``/-1 in every lane."""
        rec = Recognizer.create(task.dictionary, task.pool, task.lm, task.tying)
        rec._reset_accounting()
        bank = rec.make_bank(2)
        bank.admit(0, 0)
        bank.admit(1, 1)
        bank.lm = lm = _HistoryBlindLm(task.corpus.vocabulary)
        silence, beam = bank.net.silence_word, bank.cfg.beam.word_beam
        first, second = bank.lattices
        first.extend(0, [3], [0], [-1], [-5.0], [3])
        first.extend(1, [7], [1], [0], [-9.0], [7])
        second.extend(0, [silence], [0], [-1], [-4.0], [-1])
        candidates = [  # (lane, word, raw, predecessor, entry frame)
            (0, 2, -20.0, 1, 2),
            (0, 5, -20.0, 1, 2),
            (0, 9, -21.0 - beam, 1, 2),  # outside the word beam
            (0, silence, -20.0, 1, 2),
            (1, 4, -30.0, 0, 1),
        ]
        lanes, words, raw, preds, entries = (np.array(c) for c in zip(*candidates))
        counts = bank._record_exits(
            lanes, words, raw.astype(np.float64), np.array([preds, entries]), [2, 2]
        )
        assert counts == [3, 1]
        assert _lattice_rows(first, 2) == [
            (2, 2, 2, 1, -20.0, 2),
            (5, 2, 2, 1, -20.0, 5),
            (silence, 2, 2, 1, -20.0, 7),  # forwards exit 1's history
        ]
        assert _lattice_rows(second, 1) == [(4, 1, 2, 0, -30.0, 4)]
        # The walk behind each new exit: two real words where there are.
        assert lm.asked == [(7, 2), (7, 5), (3, 7), (lm.vocabulary.bos_id, 4)]
        for lane, lattice, start, count in ((0, first, 2, 3), (1, second, 1, 1)):
            entry, src = _oracle_offers(bank, lattice, start, count)
            assert bank.pending_entry[lane].tolist() == entry
            assert bank.pending_src[lane].tolist() == src
        assert bank.pending_entry[:, 0].tolist() == [LOG_ZERO, LOG_ZERO]
        assert bank.pending_src[:, 0].tolist() == [-1, -1]
        # Equal scores, one row: the first exit wins every word and silence.
        assert (bank.pending_src[0, 1:] == 2).all()
