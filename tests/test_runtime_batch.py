"""Tests for repro.runtime — batch-vs-sequential equivalence.

The batched runtime's whole contract is that stacking utterances
changes nothing: every lane's words, path score, per-frame statistics
and lattice must be identical to a sequential decode of the same
features, in reference and hardware modes, including ragged batches.
"""

from itertools import count

import numpy as np
import pytest
from conftest import _assert_lane_equal

from repro.core.logadd import LOG_DEAD, LOG_ZERO, LogAddTable
from repro.decoder.beam import BeamConfig, apply_beam, apply_beam_batch
from repro.decoder.recognizer import Recognizer
from repro.decoder.word_decode import DecoderConfig
from repro.runtime.scoring import BatchReferenceScorer


@pytest.fixture(scope="module", params=["reference", "hardware"])
def rec(request, task):
    """One recognizer per mode: ``decode`` is the 1-lane oracle of its
    own ``decode_batch``."""
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, mode=request.param
    )


class TestEquivalence:
    def test_batch_matches_sequential(self, rec, task):
        utts = task.corpus.test[:6]
        sequential = [rec.decode(u.features) for u in utts]
        result = rec.decode_batch([u.features for u in utts])
        assert len(result) == len(utts)
        for seq, lane in zip(sequential, result):
            _assert_lane_equal(seq, lane)

    def test_ragged_lengths_do_not_leak(self, rec, task):
        """Padding frames must not touch short lanes' stats/lattices."""
        feats = [u.features for u in task.corpus.test[:4]]
        # Force very ragged lengths: truncate two lanes hard.
        feats[1] = feats[1][: feats[1].shape[0] // 3]
        feats[3] = feats[3][:7]
        sequential = [rec.decode(f) for f in feats]
        result = rec.decode_batch(feats)
        for f, seq, lane in zip(feats, sequential, result):
            assert lane.frames == f.shape[0]
            assert len(lane.frame_stats) == f.shape[0]
            assert lane.scoring_stats.frames == f.shape[0]
            _assert_lane_equal(seq, lane)

    def test_reusable_across_batches(self, rec, task):
        feats = [u.features for u in task.corpus.test[:2]]
        first = rec.decode_batch(feats)
        second = rec.decode_batch(feats)
        for a, b in zip(first, second):
            assert a.words == b.words and a.score == b.score

    def test_duplicate_utterances_agree(self, rec, task):
        """Identical lanes must produce identical outputs."""
        f = task.corpus.test[1].features
        result = rec.decode_batch([f, f, f])
        assert result[0].words == result[1].words == result[2].words
        assert result[0].score == result[1].score == result[2].score


class TestBatchResult:
    def test_container_protocol(self, rec, task):
        feats = [u.features for u in task.corpus.test[:3]]
        result = rec.decode_batch(feats)
        assert len(result) == 3
        assert [r.words for r in result] == result.words
        assert result.frames_processed == sum(f.shape[0] for f in feats)
        assert result.steps == max(f.shape[0] for f in feats)
        assert result.audio_seconds == pytest.approx(
            sum(f.shape[0] for f in feats) * 0.010
        )

    def test_hardware_accounting_present(self, task):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="hardware"
        )
        feats = [u.features for u in task.corpus.test[:2]]
        result = rec.decode_batch(feats)
        assert result.op_unit_activities is not None
        assert result.viterbi_activity is not None
        assert result.frame_critical_cycles is not None
        assert len(result.frame_critical_cycles) == result.steps
        assert result.op_unit_activities[0]["cycles_busy"] > 0


class TestLaneRetirementAccounting:
    """Lane accounting must come from each lane's TRUE length — never
    the padded batch length (regression guard for drain-to-longest)."""

    def test_strongly_ragged_accounting(self, rec, task):
        base = [u.features for u in task.corpus.test[:4]]
        # One full-length lane next to lanes cut to a handful of frames.
        feats = [base[0], base[1][:5], base[2][:9], base[3][:6]]
        result = rec.decode_batch(feats)
        true_frames = [f.shape[0] for f in feats]
        assert result.steps == max(true_frames)
        assert result.frames_processed == sum(true_frames)
        # audio_seconds from true lengths, NOT steps * lanes * period.
        assert result.audio_seconds == pytest.approx(sum(true_frames) * 0.010)
        assert result.audio_seconds < result.steps * len(feats) * 0.010
        for f, lane in zip(feats, result):
            assert lane.frames == f.shape[0]
            assert len(lane.frame_stats) == f.shape[0]
            assert lane.scoring_stats.frames == f.shape[0]
            assert [s.frame for s in lane.frame_stats] == list(range(f.shape[0]))

    def test_utilization_reflects_padding_waste(self, rec, task):
        base = [u.features for u in task.corpus.test[:2]]
        ragged = rec.decode_batch([base[0], base[1][:5]])
        assert 0.0 < ragged.utilization < 1.0
        expected = ragged.frames_processed / (ragged.steps * 2)
        assert ragged.utilization == pytest.approx(expected)
        # A rectangular batch wastes nothing.
        square = rec.decode_batch([base[0], base[0]])
        assert square.utilization == 1.0


class TestRaggedHardwareBatch:
    """A RAGGED hardware-mode ``decode_batch`` on both networks.

    ``decode_batch`` is ``decode_stream`` over a queue as long as its
    lanes, so the queue is drained at the first retirement and the bank
    compacts as the short lanes finish.  Per-utterance outputs, the
    schedule numbers and the OP-unit accounting are what stepping the
    full-width bank to the longest utterance gives; the ONE number that
    moves is the Viterbi unit's charge, which now follows the lanes
    that still exist at each step.
    """

    @pytest.fixture(scope="class", params=["flat", "tree"])
    def ragged(self, request, task):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying,
            mode="hardware", network=request.param,
        )
        base = [u.features for u in task.corpus.test[:4]]
        feats = [base[0], base[1][:12], base[2][:30], base[3][:7]]
        sequential = [rec.decode(f) for f in feats]
        # Every lane admitted up front, the bank stepped at FULL width
        # until the longest utterance finishes: no compaction.
        rec._reset_accounting()
        bank = rec.make_bank(len(feats))
        for lane, f in enumerate(feats):
            bank.admit(lane, lane, rec._validate_features(lane, f))
        while bank.any_active:
            for lane in bank.step():
                bank.retire(lane)
        full_width = rec._pooled_accounting()
        return feats, sequential, full_width, rec.decode_batch(feats)

    def test_lanes_match_sequential(self, ragged):
        _, sequential, _, result = ragged
        for seq, lane in zip(sequential, result, strict=True):
            _assert_lane_equal(seq, lane)

    def test_schedule_numbers(self, ragged):
        feats, _, _, result = ragged
        lengths = [f.shape[0] for f in feats]
        assert result.steps == max(lengths)
        assert result.frames_processed == sum(lengths)
        assert result.max_lanes == len(feats)
        assert result.utilization == sum(lengths) / (max(lengths) * len(feats))
        assert result.lane_of == list(range(len(feats)))
        assert result.admit_steps == [0] * len(feats)

    def test_op_unit_accounting_is_the_full_width_banks(self, ragged):
        _, _, full_width, result = ragged
        assert result.op_unit_activities == full_width["op_unit_activities"]
        assert result.frame_critical_cycles == full_width["frame_critical_cycles"]
        assert len(result.frame_critical_cycles) == result.steps

    def test_viterbi_unit_charged_for_the_lanes_that_exist(self, ragged):
        feats, sequential, full_width, result = ragged
        lengths = [f.shape[0] for f in feats]
        # One lane's charge per step, read off the 1-lane decodes.
        charge = sequential[0].viterbi_activity["transitions"] / lengths[0]
        for seq, n in zip(sequential, lengths):
            assert seq.viterbi_activity["transitions"] == n * charge
        lanes_in_bank = [sum(n > t for n in lengths) for t in range(result.steps)]
        got = result.viterbi_activity
        assert got["transitions"] == charge * sum(lanes_in_bank)
        assert got["transitions"] < result.steps * len(feats) * charge
        assert full_width["viterbi_activity"]["transitions"] == (
            result.steps * len(feats) * charge
        )
        assert got["columns"] == full_width["viterbi_activity"]["columns"]


class TestValidation:
    def test_unknown_mode_error_names_supported_modes(self, task):
        """The error must be raised up front and teach the fix."""
        with pytest.raises(ValueError) as err:
            Recognizer.create(
                task.dictionary, task.pool, task.lm, task.tying, mode="turbo"
            )
        message = str(err.value)
        assert "turbo" in message
        for mode in ("'reference'", "'hardware'", "'fast'"):
            assert mode in message

    def test_fast_mode_accepted(self, task):
        batch = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode="fast"
        )
        assert batch.mode == "fast"

    def test_rejects_empty_batch(self, rec):
        with pytest.raises(ValueError):
            rec.decode_batch([])

    def test_rejects_bad_shapes(self, rec, task):
        good = task.corpus.test[0].features
        with pytest.raises(ValueError):
            rec.decode_batch([good, np.zeros((10, 7))])
        with pytest.raises(ValueError):
            rec.decode_batch([np.zeros((0, good.shape[1]))])

    def test_fed_step_refuses_a_lane_admitted_with_features(self, rec, task):
        """``step(frames)`` ends every occupied lane at this frame; on a
        lane that brought its own features that used to rewrite
        ``lane_len`` and report a 136-frame utterance finished after
        one."""
        feats = task.corpus.test[0].features
        bank = rec.make_bank(2)
        bank.admit(0, 0, feats)
        bank.admit(1, 1)
        with pytest.raises(RuntimeError, match="admitted with features"):
            bank.step(np.zeros((2, feats.shape[1])))
        assert bank.lane_len[0] == feats.shape[0] and bank.steps == 0

    def test_fed_step_rejects_a_block_of_the_wrong_shape(self, rec, task):
        dim = task.pool.dim
        bank = rec.make_bank(2)
        bank.admit(0, 0)
        bank.admit(1, 1)
        for shape in [(1, dim), (2, dim + 1), (dim,)]:
            with pytest.raises(ValueError, match="frames must be"):
                bank.step(np.zeros(shape))
        assert bank.step(np.zeros((2, dim))) == [0, 1]

    @pytest.mark.parametrize("network", ["flat", "tree"])
    @pytest.mark.parametrize("width", [1, 40], ids=["one-column", "one-too-many"])
    def test_admit_refuses_features_of_the_wrong_width(self, task, network, width):
        """A ``(5, 1)`` block used to decode silently (numpy broadcast
        its one column over every dimension) and a ``(5, 40)`` one made
        every later ``step`` raise, wedging the other lanes: ``admit``
        runs the one feature validator, and a refused admission leaves
        the bank and its other lanes as they were."""
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, network=network
        )
        feats = task.corpus.test[0].features
        want = rec.decode(feats)
        rec._reset_accounting()
        bank = rec.make_bank(2)
        bank.admit(0, 0, feats)
        bank.step()

        def state():
            return [
                a.copy() for a in (
                    bank.delta, bank._record, bank.pending_entry, bank.pending_src,
                    bank.active, bank.lane_t, bank.lane_len, bank.lane_utt,
                )
            ]

        before = state()
        with pytest.raises(ValueError, match=rf"^utterance 1: features must be \(T, "):
            bank.admit(1, 1, np.zeros((5, width)))
        for was, now in zip(before, state(), strict=True):
            np.testing.assert_array_equal(now, was)
        assert bank.lattices[1] is None and bank.lane_feats[1] is None
        while 0 not in bank.step():
            pass
        got = bank.retire(0)
        assert got.words == want.words and got.score == want.score


class TestBatchedKernels:
    def test_apply_beam_batch_matches_rows(self, rng):
        cfg = BeamConfig(state_beam=5.0, word_beam=4.0)
        bank = np.where(
            rng.random((6, 40)) < 0.3, -1.0e30, rng.normal(scale=4.0, size=(6, 40))
        )
        bank[2, :] = -1.0e30  # a dead lane
        rows = bank.copy()
        expected_masks, expected_counts = [], []
        for b in range(rows.shape[0]):
            mask, count = apply_beam(rows[b], cfg)
            expected_masks.append(mask)
            expected_counts.append(count)
        masks, counts = apply_beam_batch(bank, cfg)
        assert np.array_equal(bank, rows)
        assert np.array_equal(masks, np.stack(expected_masks))
        assert counts.tolist() == expected_counts

    def test_apply_beam_batch_histogram_cap(self, rng):
        cfg = BeamConfig(state_beam=50.0, word_beam=4.0, max_active_states=3)
        bank = rng.normal(size=(4, 20))
        rows = bank.copy()
        expected = [apply_beam(rows[b], cfg)[1] for b in range(4)]
        _, counts = apply_beam_batch(bank, cfg)
        assert counts.tolist() == expected
        assert np.array_equal(bank, rows)

    def test_logadd_fold_bit_identical(self, rng):
        la_fold, la_serial = LogAddTable(), LogAddTable()
        values = rng.normal(scale=40.0, size=(64, 5))
        values[3] = -np.inf
        values[7, 1:] = -np.inf
        folded = la_fold.logadd_fold(values)
        serial = np.array([la_serial.logadd_many(v) for v in values])
        assert np.array_equal(folded, serial)
        assert la_fold.reads == la_serial.reads

    def test_score_pairs_matches_score_frame(self, small_pool, rng):
        obs = rng.normal(size=(3, small_pool.dim))
        pair_rows = np.array([0, 0, 1, 2, 2, 2])
        pair_senones = np.array([1, 5, 2, 0, 7, 23])
        pooled = small_pool.score_pairs(obs, pair_rows, pair_senones)
        for p, (b, s) in enumerate(zip(pair_rows, pair_senones)):
            assert pooled[p] == small_pool.score_frame(obs[b])[s]


class TestObsBankScratch:
    """``LaneBank.step`` lands each step's pooled answer in ONE score
    row and gathers it into ONE observation bank, both in the token
    dtype (float32 in hardware mode, float64 otherwise: the cast is the
    row's write), allocated once per bank width and reused every step.
    The equivalence suites keep the cast bit-exact."""

    def _bank(self, task, mode, num_lanes=2):
        from repro.runtime.batch import LaneBank

        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode=mode
        )
        rec._reset_accounting()
        bank = LaneBank(rec, num_lanes)
        for lane, utt in enumerate(task.corpus.test[:num_lanes]):
            bank.admit(lane, lane, rec._validate_features(lane, utt.features))
        return bank

    def _assert_reused(self, bank, steps):
        row_ptr = bank._score_row.ctypes.data
        obs_ptr = bank._slot_obs.ctypes.data
        for _ in range(steps):
            bank.step()
            assert bank._score_row.ctypes.data == row_ptr
            assert bank._slot_obs.ctypes.data == obs_ptr

    def test_hardware_cast_scratch_reused_across_steps(self, task):
        bank = self._bank(task, "hardware")
        assert bank.delta.dtype == np.float32
        assert bank._score_row.dtype == bank._slot_obs.dtype == np.float32
        self._assert_reused(bank, 5)

    @pytest.mark.parametrize("mode", ["hardware", "reference"])
    def test_token_bank_is_updated_in_place(self, task, mode):
        """One chain kernel writes ``out=delta`` in every mode: no step
        allocates or rebinds a ``(B, S)`` bank."""
        bank = self._bank(task, mode)
        delta = bank.delta
        for _ in range(10):
            bank.step()
            assert bank.delta is delta
        assert (delta > LOG_DEAD).any()  # and it is the live bank
        if mode == "hardware":
            assert bank.viterbi_unit.columns_processed == 10

    def test_reference_mode_needs_no_cast_scratch(self, task):
        bank = self._bank(task, "reference")
        assert bank.delta.dtype == np.float64
        assert bank._score_row.dtype == bank._slot_obs.dtype == np.float64
        self._assert_reused(bank, 3)

    def test_compact_rebuilds_scratch_at_new_width(self, task):
        bank = self._bank(task, "hardware", num_lanes=3)
        bank.cancel(2)  # free a lane so compact() has something to drop
        n = bank.compact()
        assert n == 2
        assert bank._score_row.shape == (2 * bank.scorer.num_senones,)
        assert bank._slot_obs.shape == (2, bank.net.num_states)
        assert bank._score_row.dtype == bank._slot_obs.dtype == np.float32
        bank.step()  # still steps cleanly at the new width


def _stream_by_hand(rec, feats, num_lanes, junk):
    """Every utterance of ``feats`` through one flat bank with refills;
    with ``junk`` the whole score row is overwritten before each step."""
    from repro.runtime.batch import LaneBank

    rec._reset_accounting()
    bank = LaneBank(rec, num_lanes)
    waiting = list(enumerate(feats))
    results = {}
    while waiting or bank.any_active:
        for lane in bank.free_lanes():
            if waiting:
                utt, f = waiting.pop(0)
                bank.admit(lane, utt, f)
        if junk:
            bank._score_row.fill(0.0)
        for lane in bank.step():
            utt = int(bank.lane_utt[lane])
            results[utt] = bank.retire(lane)
    return [results[utt] for utt in range(len(feats))]


class TestStaleScoreRow:
    """The score row is never cleared: a key not demanded this step
    holds an older score, and the flat bank gathers it at every slot of
    that senone.  No decode may depend on it — such a slot has no live
    arc, so the dead rule writes ``LOG_ZERO`` whatever it reads.  Junk
    in the whole row before every step (0.0, better than any real
    score) must change nothing, with feedback demand and with the full
    grid."""

    @pytest.mark.parametrize("feedback", [True, False], ids=["feedback", "grid"])
    @pytest.mark.parametrize("mode", ["reference", "hardware"])
    def test_junk_in_the_row_changes_nothing(self, task, mode, feedback):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode=mode,
            network="flat", config=DecoderConfig(use_feedback=feedback),
        )
        feats = [u.features for u in task.corpus.test[:5]]
        feats[1] = feats[1][:12]  # ragged: a refill mid-stream
        clean = _stream_by_hand(rec, feats, 3, junk=False)
        dirty = _stream_by_hand(rec, feats, 3, junk=True)
        for a, b in zip(clean, dirty):
            assert a.words == b.words
            assert a.score.hex() == b.score.hex()
            assert [f.__dict__ for f in a.frame_stats] == [
                f.__dict__ for f in b.frame_stats
            ]


class TestTokenRecord:
    """``payload`` and ``entry_frame`` are the two rows of ONE
    ``(2, B, S)`` record, moved together; every operation that swaps
    or rebuilds the record must rebind both views."""

    _bank = TestObsBankScratch._bank

    @staticmethod
    def _assert_one_record(bank):
        record = bank._record
        assert record.shape == (2, bank.num_lanes, bank.net.num_states)
        assert record.dtype == np.int64 and record.flags.c_contiguous
        for row, view in enumerate((bank.payload, bank.entry_frame)):
            assert view.base is record
            assert view.ctypes.data == record[row].ctypes.data
            assert view.shape == record.shape[1:]
        assert not np.shares_memory(record, bank._record_next)

    @pytest.mark.parametrize("mode", ["reference", "hardware"])
    def test_views_survive_the_whole_lifecycle(self, task, mode):
        bank = self._bank(task, mode, num_lanes=3)
        self._assert_one_record(bank)  # after admit
        for _ in range(12):  # the double buffer swaps every step
            bank.step()
            self._assert_one_record(bank)
        assert (bank.entry_frame >= 0).any()  # tokens did enter words
        bank.cancel(1)
        self._assert_one_record(bank)
        assert bank.compact() == 2
        self._assert_one_record(bank)
        bank.step()
        self._assert_one_record(bank)
        short = task.corpus.test[3].features[:4]
        bank.cancel(0)
        bank.admit(0, 7, short)
        finished = []
        while 0 not in finished:
            finished = bank.step()
        bank.retire(0)
        self._assert_one_record(bank)

    def test_a_reseeded_lane_reads_minus_one_everywhere(self, task):
        bank = self._bank(task, "reference", num_lanes=2)
        for _ in range(15):
            bank.step()
        assert (bank.payload[0] >= 0).any() or (bank.entry_frame[0] >= 0).any()
        neighbour = bank._record[:, 1].copy()
        bank.cancel(0)
        bank.admit(0, 5, task.corpus.test[2].features)
        assert (bank._record[:, 0] == -1).all()
        assert (bank.payload[0] == -1).all() and (bank.entry_frame[0] == -1).all()
        np.testing.assert_array_equal(bank._record[:, 1], neighbour)

    @pytest.mark.parametrize("mode", ["reference", "hardware"])
    def test_mid_stream_compact_changes_no_surviving_lattice(self, task, mode):
        """Compaction relocates rows of the record (and drops the
        double buffer); the survivors' lattices must not notice."""

        def run(compact):
            bank = self._bank(task, mode, num_lanes=4)
            lattices = {int(utt): bank.lattices[b] for b, utt in enumerate(bank.lane_utt)}
            results = {}
            for step in count():
                if step == 9:
                    bank.cancel(0)
                    bank.cancel(2)
                    if compact:
                        assert bank.compact() == 2
                for lane in bank.step():
                    utt = int(bank.lane_utt[lane])
                    results[utt] = bank.retire(lane)
                if not bank.any_active:
                    return lattices, results

        plain_lattices, plain = run(compact=False)
        lattices, compacted = run(compact=True)
        assert sorted(compacted) == sorted(plain) == [1, 3]
        for utt in (1, 3):
            exits = [lattices[utt].exit(i) for i in range(len(lattices[utt]))]
            want = [
                plain_lattices[utt].exit(i) for i in range(len(plain_lattices[utt]))
            ]
            assert exits == want and len(exits) > 0
            assert [e.score.hex() for e in exits] == [e.score.hex() for e in want]
            _assert_lane_equal(plain[utt], compacted[utt])


class TestNoFiniteScore:
    """``BatchReferenceScorer`` maps "no finite score" in one pass."""

    def test_neg_inf_becomes_log_zero_and_nothing_else_moves(
        self, small_pool, monkeypatch
    ):
        raw = np.array([-np.inf, -3.25, np.nan, 0.0, -1.0e29, -np.inf, 7.5])
        monkeypatch.setattr(small_pool, "score_pairs", lambda *_: raw.copy())
        out = BatchReferenceScorer(small_pool).score_pairs(
            np.zeros((1, small_pool.dim)), np.zeros(7, int), np.arange(7)
        )
        gone = np.isneginf(raw)
        assert (out[gone] == LOG_ZERO).all()
        assert np.isnan(out[2])  # a poisoned score still surfaces
        kept = ~gone & ~np.isnan(raw)
        assert out[kept].tobytes() == raw[kept].tobytes()

    def test_no_work_items(self, small_pool):
        empty = np.empty(0, dtype=np.int64)
        out = BatchReferenceScorer(small_pool).score_pairs(
            np.zeros((1, small_pool.dim)), empty, empty
        )
        assert out.shape == (0,)


class TestEveryBackendRefusesTheSameItems:
    """``check_pair_indices`` is the one spelling: whichever backend a
    bank scores through, a bad work item is the same ``IndexError``."""

    @pytest.fixture(scope="class", params=["reference", "hardware", "fast", "blas"])
    def scorer(self, request, task):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, mode=request.param
        )
        for lane in range(3):
            rec.scorer.admit_lane(lane)
        return rec.scorer

    @pytest.mark.parametrize(
        "rows, senones, message",
        [
            ([0, -1, 2], [0, 1, 2], "pair feature row out of range"),
            ([0, 1, 3], [0, 1, 2], "pair feature row out of range"),
            ([0, 1, 2], [0, -1, 2], "pair senone index out of range"),
            ([0, 1, 2], [0, 1, None], "pair senone index out of range"),
        ],
        ids=["negative-row", "row-too-large", "negative-senone", "senone-too-large"],
    )
    def test_bad_item_raises_the_same_error(self, scorer, task, rows, senones, message):
        senones = [scorer.num_senones if s is None else s for s in senones]
        obs = np.zeros((3, task.pool.dim))
        with pytest.raises(IndexError, match=f"^{message}$"):
            scorer.score_pairs(
                obs, np.array(rows), np.array(senones), lanes=np.arange(3)
            )
        good = scorer.score_pairs(
            obs, np.arange(3), np.arange(3), lanes=np.arange(3)
        )
        assert good.shape == (3,) and np.isfinite(good).all()
