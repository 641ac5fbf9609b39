"""Batch-shape invariance of the tree lane bank (B=k vs the 1-lane
``Recognizer.decode``; the committed dictation fixtures of
``tests/test_golden_parity.py`` are the independent oracle).

The tree lane bank (:class:`~repro.runtime.lextree.TreeLaneBank`) is
the large-vocabulary analogue of the flat lane engine: stacked
``(B, num_states)`` token state over one shared
:class:`~repro.decoder.lextree.TreeLexiconNetwork`.  The contract is
the same as the flat runtime's — the scheduler decides WHEN a lane is
stepped, never WHAT it computes:

* reference, hardware and fast modes: every lane's words, path score,
  per-frame statistics, lattice size and fast-GMM work counters are
  BIT-IDENTICAL to a sequential ``network="tree"``
  :meth:`~repro.decoder.recognizer.Recognizer.decode`;
* blas mode: word-identical with scores inside the documented
  :data:`~repro.decoder.scorer.BLAS_SCORE_ATOL`;
* the property sweep drives ragged lengths x arrival orders x lane
  budgets 1..8 through the continuous runtime, and a seeded random
  ``admit/step/cancel/retire/compact`` lifecycle drives the bank
  directly — the state is updated in place at the active list's slots,
  so a stale row is the failure it hunts;
* the histogram cap (``BeamConfig.max_active_states``) prunes each
  lane's list the same at every bank width, equal-score plateaus
  included.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.viterbi_unit import ViterbiUnit
from repro.decoder.beam import LOG_ZERO, BeamConfig
from repro.decoder.fast_gmm import FastGmmConfig
from repro.decoder.lextree import TreeLexiconNetwork
from repro.decoder.recognizer import Recognizer
from repro.decoder.scorer import BLAS_SCORE_ATOL
from repro.decoder.word_decode import DecoderConfig
from repro.hmm.senone import SenonePool
from repro.lm.ngram import NGramModel
from repro.runtime import LaneBank, TreeLaneBank
from repro.runtime import batch as batch_runtime
from repro.runtime.batch import LaneBankBase
from repro.workloads.tasks import (
    dictation_cd_task,
    dictation_task,
    expand_to_context_dependent,
)

EXACT_MODES = ("reference", "hardware", "fast")
N_TRIALS = 3
MIN_FRAMES = 5


def make_tree_recognizer(task, mode: str, **kwargs) -> Recognizer:
    if mode == "fast":
        kwargs.setdefault("fast_config", FastGmmConfig.all_layers())
    return Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying,
        mode=mode, network="tree", **kwargs,
    )


@pytest.fixture(scope="module", params=EXACT_MODES)
def tree_trio(request, task):
    """Tree recognizer (the sequential oracle), its twin (a recognizer
    runs one decode at a time, and ``_Lifecycle`` consults the oracle
    while its bank is mid-decode), decode cache."""
    rec = make_tree_recognizer(task, request.param)
    return rec, rec.twin(), {}


def _sequential(rec, base, cache, utt_index, length):
    key = (utt_index, length)
    if key not in cache:
        cache[key] = rec.decode(base[utt_index][:length])
    return cache[key]


def _assert_lane_equal(seq, lane):
    assert lane.words == seq.words
    assert lane.score == seq.score  # bit-identical, not approx
    assert lane.frames == seq.frames
    assert lane.lattice_size == seq.lattice_size
    assert [f.__dict__ for f in lane.frame_stats] == [
        f.__dict__ for f in seq.frame_stats
    ]
    assert lane.scoring_stats.active_per_frame == seq.scoring_stats.active_per_frame
    assert lane.fast_stats == seq.fast_stats  # None outside fast mode


class _Lifecycle:
    """Drives one ``TreeLaneBank`` op by op against the sequential oracle.

    Every retirement is compared with ONE sequential decode of the same
    features, and after every op the bank's incremental active list
    must equal the live slots of its dense state — the invariant an
    in-place update breaks first when a freed, re-admitted or relocated
    row keeps something stale.
    """

    def __init__(self, trio, base, num_lanes):
        self.rec, twin, self.cache = trio
        self.base = base
        twin._reset_accounting()
        self.bank = twin.make_bank(num_lanes)
        assert isinstance(self.bank, TreeLaneBank)
        self.source = {}  # utt id -> (utterance index, length)
        self.retired = {}  # utt id -> RecognitionResult
        self.ops = 0

    def _check(self):
        bank = self.bank
        live = bank.delta > LOG_ZERO / 2
        assert np.array_equal(bank._alive, np.flatnonzero(live))
        assert not live[~bank.active].any()
        self.ops += 1

    def admit(self, lane, utt_index, length=None):
        feats = self.base[utt_index]
        length = feats.shape[0] if length is None else length
        utt = len(self.source)
        self.source[utt] = (utt_index, length)
        self.bank.admit(lane, utt, np.asarray(feats[:length], dtype=np.float64))
        self._check()
        return utt

    def step(self):
        bank = self.bank
        for lane in bank.step():
            utt = int(bank.lane_utt[lane])
            self.retired[utt] = result = bank.retire(lane)
            _assert_lane_equal(
                _sequential(self.rec, self.base, self.cache, *self.source[utt]),
                result,
            )
        self._check()

    def cancel(self, lane):
        utt, frames_done = int(self.bank.lane_utt[lane]), int(self.bank.lane_t[lane])
        assert self.bank.cancel(lane) == frames_done
        self._check()
        return utt

    def compact(self):
        bank = self.bank
        occupied = int(bank.active.sum())
        width = bank.compact()
        if occupied:
            assert width == occupied == bank.num_lanes
            assert bank.delta.shape[0] == bank.payload.shape[0] == occupied
            assert bank.active.shape == (occupied,) and bank.active.all()
            assert len(bank.lattices) == occupied
        self._check()

    def drain(self):
        while self.bank.any_active:
            self.step()


class TestTreeBatchParity:
    """Drained batches vs sequential, bit for bit, batch sizes 1..8."""

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 8])
    def test_batch_sizes_match_sequential(self, tree_trio, task, batch_size):
        rec, twin, cache = tree_trio
        base = [u.features for u in task.corpus.test]
        feats = [base[i % len(base)] for i in range(batch_size)]
        result = twin.decode_batch(feats)
        assert len(result) == batch_size
        for i, lane in enumerate(result):
            seq = _sequential(
                rec, base, cache, i % len(base), feats[i].shape[0]
            )
            _assert_lane_equal(seq, lane)

    def test_ragged_batch_matches_sequential(self, tree_trio, task):
        """Heavily ragged lengths: retired lanes stay frozen."""
        rec, twin, cache = tree_trio
        base = [u.features for u in task.corpus.test]
        rng = np.random.default_rng(77)
        lengths = [
            int(rng.integers(MIN_FRAMES, f.shape[0] + 1)) for f in base
        ]
        feats = [f[:n] for f, n in zip(base, lengths)]
        result = twin.decode_batch(feats)
        for i, lane in enumerate(result):
            _assert_lane_equal(_sequential(rec, base, cache, i, lengths[i]), lane)

    def test_bank_is_tree_family(self, tree_trio):
        rec, twin, _ = tree_trio
        assert twin.network_kind == "tree"
        assert isinstance(rec.make_bank(2), TreeLaneBank)
        assert isinstance(twin.make_bank(2), TreeLaneBank)


class TestTreeContinuousSweep:
    """Ragged lengths x arrival orders x max_lanes 1..8 == sequential."""

    def test_random_ragged_arrival_orders(self, tree_trio, task):
        rec, twin, cache = tree_trio
        base = [u.features for u in task.corpus.test]
        rng = np.random.default_rng(2024)
        for _ in range(N_TRIALS):
            order = rng.permutation(len(base))
            lengths = [
                int(rng.integers(MIN_FRAMES, base[i].shape[0] + 1)) for i in order
            ]
            feats = [base[i][:n] for i, n in zip(order, lengths)]
            max_lanes = int(rng.integers(1, 9))
            result = twin.decode_stream(feats, max_lanes=max_lanes)
            assert len(result) == len(feats)
            for (i, n), lane in zip(zip(order, lengths), result):
                _assert_lane_equal(_sequential(rec, base, cache, int(i), n), lane)

    @pytest.mark.parametrize("max_lanes", list(range(1, 9)))
    def test_every_lane_budget_matches_sequential(
        self, tree_trio, task, max_lanes
    ):
        """Each budget 1..8 explicitly, reversed arrival, fixed rag."""
        rec, twin, cache = tree_trio
        base = [u.features for u in task.corpus.test]
        order = list(range(len(base)))[::-1]
        lengths = [
            max(MIN_FRAMES, base[i].shape[0] // (2 if i % 2 else 1))
            for i in order
        ]
        feats = [base[i][:n] for i, n in zip(order, lengths)]
        result = twin.decode_stream(feats, max_lanes=max_lanes)
        for (i, n), lane in zip(zip(order, lengths), result):
            _assert_lane_equal(_sequential(rec, base, cache, i, n), lane)

    def test_compact_shrinks_tree_bank_state(self, tree_trio, task):
        """retire -> compact -> decode on, in a bank one lane narrower."""
        base = [u.features for u in task.corpus.test]
        life = _Lifecycle(tree_trio, base, num_lanes=2)
        life.admit(0, 0)
        life.admit(1, 1, length=6)
        while life.bank.any_active:
            life.step()
            if life.bank.any_active:
                life.compact()
        assert life.bank.num_lanes == 1
        assert set(life.retired) == {0, 1}


class TestTreeCancellation:
    """``admit/step/cancel/retire/compact`` in any order == sequential.

    The scripted cases pin the interleavings a reader would enumerate
    by hand (cancel mid-decode, reseed the freed lane; the compacted
    tail is in the sweep above); the seeded random walk covers the
    rest, all through the one :class:`_Lifecycle` driver.
    """

    def _with_victim(self, tree_trio, task, reseed):
        base = [u.features for u in task.corpus.test]
        life = _Lifecycle(tree_trio, base, num_lanes=5)
        survivors = [life.admit(lane, lane) for lane in range(4)]
        victim = life.admit(4, 0)
        for _ in range(min(base[i].shape[0] for i in range(4)) // 2):
            life.step()  # everyone is mid-decode
        assert life.cancel(4) == victim
        reseeded = life.admit(4, 1) if reseed else None
        life.drain()
        assert victim not in life.retired  # the victim never produced a result
        assert set(life.retired) == set(survivors) | (
            {reseeded} if reseed else set()
        )

    def test_cancelled_lane_does_not_perturb_survivors(self, tree_trio, task):
        self._with_victim(tree_trio, task, reseed=False)

    def test_reseeded_lane_after_cancel_matches_sequential(self, tree_trio, task):
        self._with_victim(tree_trio, task, reseed=True)

    def test_seeded_random_lifecycle(self, tree_trio, task):
        """>= 200 random ops; lanes refilled into freed AND compacted rows."""
        base = [u.features for u in task.corpus.test]
        rng = np.random.default_rng(20261001)
        seen = {"cancel": 0, "compact": 0, "refill": 0, "refill_compacted": 0}
        ops = retired = 0
        for _ in range(3):  # a bank never widens again, so start afresh
            life = _Lifecycle(tree_trio, base, num_lanes=6)
            used, compacted = set(), False
            while life.ops < 90:
                bank = life.bank
                free, busy = bank.free_lanes(), np.flatnonzero(bank.active)
                op = rng.choice(
                    ["admit", "step", "cancel", "compact"], p=[0.3, 0.56, 0.07, 0.07]
                )
                if op == "admit" and free:
                    lane = int(rng.choice(free))
                    life.admit(
                        lane,
                        int(rng.integers(len(base))),
                        int(rng.integers(MIN_FRAMES, 3 * MIN_FRAMES)),
                    )
                    seen["refill"] += lane in used
                    seen["refill_compacted"] += compacted and lane in used
                    used.add(lane)
                elif op == "step" and busy.size:
                    life.step()
                elif op == "cancel" and busy.size:
                    life.cancel(int(rng.choice(busy)))
                    seen["cancel"] += 1
                elif op == "compact" and free and busy.size:
                    life.compact()
                    seen["compact"] += 1
                    # Lane ids were renumbered: every surviving row is "used".
                    used, compacted = set(range(life.bank.num_lanes)), True
            life.drain()
            ops += life.ops
            retired += len(life.retired)
        assert ops >= 200 and retired >= 15, (ops, retired)
        assert min(seen.values()) >= 3, seen


class TestTreeHistogramCap:
    """``max_active_states`` on the tree bank: list trim == dense trim.

    The cap (it counts shared tree states) is far below the uncapped
    active count, and ``PLATEAU_CAP`` lands inside a run of equal
    scores at frame 0: the two roots ranked there are given senones
    with parameter-identical Gaussians, so they enter with the same
    score and the order-dependent ``argsort`` tail of
    ``_histogram_trim`` decides who survives.
    """

    TIGHT_CAP = 3
    PLATEAU_CAP = 6
    FRAMES = 60

    @pytest.fixture(scope="class", params=EXACT_MODES)
    def mode(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def tied_task(self, task):
        """``task`` with the Gaussians of the root senone ranked
        ``PLATEAU_CAP`` at frame 0 copied into the one ranked next."""
        rec = make_tree_recognizer(task, "reference")
        stage = rec.word_stage
        stage.reset()
        stage.process_frame(task.corpus.test[0].features[0])
        live = np.flatnonzero(stage.delta > LOG_ZERO / 2)
        ranked = live[np.argsort(-stage.delta[live], kind="stable")]
        assert rec.network.is_root_start[ranked].all()
        keep, tie = rec.network.senone_id[ranked[self.PLATEAU_CAP - 1 :][:2]]
        params = [p.copy() for p in (task.pool.means, task.pool.variances,
                                     task.pool.weights)]
        for p in params:
            p[tie] = p[keep]
        return dataclasses.replace(task, pool=SenonePool(*params))

    @pytest.fixture(scope="class", params=[TIGHT_CAP, PLATEAU_CAP])
    def capped(self, request, tied_task, mode):
        config = DecoderConfig(beam=BeamConfig(max_active_states=request.param))
        rec = make_tree_recognizer(tied_task, mode, config=config)
        feats = [u.features[: self.FRAMES] for u in tied_task.corpus.test[:5]]
        return rec, feats, [rec.decode(f) for f in feats], request.param

    def test_cap_binds_and_plateau_crosses_it(self, tied_task):
        rec = make_tree_recognizer(tied_task, "reference")
        first = tied_task.corpus.test[0].features
        uncapped = rec.decode(first[: self.FRAMES])
        active = [f.active_states for f in uncapped.frame_stats]
        assert np.mean(active) > 2 * self.TIGHT_CAP
        stage = rec.word_stage
        stage.reset()
        stage.process_frame(first[0])
        ranked = np.sort(stage.delta[stage.delta > LOG_ZERO / 2])[::-1]
        assert ranked[self.PLATEAU_CAP - 1] == ranked[self.PLATEAU_CAP]

    @pytest.mark.parametrize("max_lanes", list(range(1, 9)))
    def test_capped_stream_matches_sequential(self, capped, max_lanes):
        rec, feats, seq, cap = capped
        order = list(range(len(feats)))[::-1] + [0, 2]
        result = rec.decode_stream(
            [feats[i] for i in order], max_lanes=max_lanes
        )
        for i, lane in zip(order, result):
            _assert_lane_equal(seq[i], lane)
            assert lane.score.hex() == seq[i].score.hex()
            assert max(f.active_states for f in lane.frame_stats) <= cap
        if max_lanes == 1:
            # One lane is the sequential schedule, so the pooled
            # hardware accounting is the utterances' sum, key by key.
            assert result.viterbi_activity == _summed(
                [seq[i].viterbi_activity for i in order]
            )

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_capped_batch_accounting(self, capped, batch_size):
        """The unit is charged for the WHOLE bank, whatever the list holds."""
        rec, feats, seq, _ = capped
        result = rec.decode_batch([feats[0]] * batch_size)
        for lane in result:
            _assert_lane_equal(seq[0], lane)
        if seq[0].viterbi_activity is None:
            assert result.viterbi_activity is None
            return
        for key in ("add_ops", "compare_ops", "transitions"):
            assert result.viterbi_activity[key] == (
                batch_size * seq[0].viterbi_activity[key]
            )
        assert result.viterbi_activity["columns"] == seq[0].viterbi_activity["columns"]
        if batch_size == 1:
            assert result.viterbi_activity == seq[0].viterbi_activity
            assert result.frame_critical_cycles == seq[0].frame_critical_cycles
            assert result.op_unit_activities == seq[0].op_unit_activities


def _summed(activities):
    if activities[0] is None:
        return None
    return {key: sum(a[key] for a in activities) for key in activities[0]}


def test_only_hardware_mode_holds_and_charges_a_viterbi_unit(task):
    """Outside hardware mode the tree bank runs the token kernel with no
    unit model at all; in hardware mode the recognizer's unit is charged
    once per step for exactly the lanes stepped: a 1-lane stream is the
    sum of its utterances' sequential decodes on all five keys, and a
    ragged batch (compacted as its short lanes retire) on the per-arc
    ones, in one column per step."""
    bank = make_tree_recognizer(task, "reference").make_bank(2)
    assert not any(isinstance(v, ViterbiUnit) for v in vars(bank).values())
    rec = make_tree_recognizer(task, "hardware")
    feats = [u.features[: 12 + 7 * i] for i, u in enumerate(task.corpus.test[:3])]
    summed = _summed([rec.decode(f).viterbi_activity for f in feats])
    assert set(summed) == {
        "cycles_busy", "add_ops", "compare_ops", "transitions", "columns"
    }
    assert rec.decode_stream(feats, max_lanes=1).viterbi_activity == summed
    batch = rec.decode_batch(feats)
    for key in ("add_ops", "compare_ops", "transitions"):
        assert batch.viterbi_activity[key] == summed[key]
    assert batch.viterbi_activity["columns"] == batch.steps == len(feats[-1])


class TestTreeBlasParity:
    """Matmul-form scoring over the tree: words exact, scores in tol."""

    @pytest.fixture(scope="class")
    def blas_pair(self, task):
        rec = make_tree_recognizer(task, "blas")
        seq = [rec.decode(u.features) for u in task.corpus.test]
        return rec, seq

    def _assert_blas_lane(self, seq, lane):
        assert lane.words == seq.words
        assert abs(lane.score - seq.score) <= BLAS_SCORE_ATOL
        assert lane.frames == seq.frames

    def test_batch_blas_matches_sequential(self, blas_pair, task):
        rec, seq = blas_pair
        feats = [u.features for u in task.corpus.test]
        result = rec.decode_batch(feats)
        for s, lane in zip(seq, result):
            self._assert_blas_lane(s, lane)

    def test_continuous_blas_matches_sequential(self, blas_pair, task):
        rec, seq = blas_pair
        feats = [u.features for u in task.corpus.test]
        result = rec.decode_stream(feats, max_lanes=3)
        assert max(result.admit_steps) > 0  # refill actually happened
        for s, lane in zip(seq, result):
            self._assert_blas_lane(s, lane)


class TestNetworkAxis:
    """The ``network=`` selection axis next to ``mode=``."""

    def test_unknown_network_names_supported_networks(self, task):
        with pytest.raises(ValueError) as err:
            Recognizer.create(
                task.dictionary, task.pool, task.lm, task.tying,
                network="trellis",
            )
        message = str(err.value)
        assert "trellis" in message
        for network in ("'flat'", "'tree'"):
            assert network in message

    def test_supported_networks_exposed(self):
        assert Recognizer.SUPPORTED_NETWORKS == ("flat", "tree")

    def test_flat_default_unchanged(self, task):
        rec = Recognizer.create(task.dictionary, task.pool, task.lm, task.tying)
        assert rec.network_kind == "flat"
        assert isinstance(rec.make_bank(1), LaneBank)

    def test_twins_carry_the_network_axis(self, task):
        rec = make_tree_recognizer(task, "reference")
        assert rec.network_kind == "tree"
        twin = rec.twin()
        assert twin.network_kind == "tree"
        assert twin.network is rec.network
        assert isinstance(twin.word_stage.bank, TreeLaneBank)


class TestTreeStageValidation:
    """Typed validation of what a tree decoder is constructed from
    (checked once, in the one recognizer class, for both networks)."""

    @pytest.fixture(scope="class")
    def parts(self, task):
        rec = make_tree_recognizer(task, "reference")
        return rec.network, rec.pool, rec.lm

    def test_network_type_checked(self, task, parts):
        _, pool, lm = parts
        with pytest.raises(TypeError) as err:
            Recognizer(network=task.dictionary, pool=pool, lm=lm)
        assert "TreeLexiconNetwork" in str(err.value)

    def test_config_type_checked(self, parts):
        net, pool, lm = parts
        with pytest.raises(TypeError) as err:
            Recognizer(network=net, pool=pool, lm=lm, config={"beam": 100.0})
        assert "DecoderConfig" in str(err.value)

    def test_beam_type_checked(self, parts):
        with pytest.raises(TypeError) as err:
            DecoderConfig(beam=100.0)  # a raw float, not BeamConfig
        assert "BeamConfig" in str(err.value)


class TestTreeExitCap:
    """A lane with more than ``max_exits_per_frame`` live leaves within
    the word beam (``bank_tree`` never has one) takes the
    ``select_word_exits`` cut inside the bank's one exit pass: B = 8
    lanes, lattices included, equal the B = 1 decode."""

    CAP = 2
    FRAMES = 150

    @pytest.fixture(scope="class")
    def capped(self):
        dictation = dictation_task(
            vocabulary_size=300, train_sentences=60, test_sentences=12, seed=31
        )
        config = DecoderConfig(max_exits_per_frame=self.CAP)
        rec = make_tree_recognizer(dictation, "fast", config=config)
        feats = [u.features[: self.FRAMES] for u in dictation.corpus.test[:9]]
        return rec, feats

    @staticmethod
    def _lattices(monkeypatch):
        """Every packaged lane's lattice columns, by utterance id."""
        packaged = {}
        package = LaneBankBase.package

        def spy(bank, lane, best):
            lat = bank.lattices[lane]
            packaged[bank.lane_utt[lane]] = (
                lat.word[:], lat.entry_frame[:], lat.exit_frame[:],
                lat.predecessor[:], lat.score[:], lat.lm_history[:],
            )
            return package(bank, lane, best)

        monkeypatch.setattr(LaneBankBase, "package", spy)
        return packaged

    def test_capped_lanes_match_sequential(self, capped, monkeypatch):
        rec, feats = capped
        cuts = []
        select = batch_runtime.select_word_exits

        def count_cuts(scores, viable, word_beam, max_exits):
            keep = select(scores, viable, word_beam, max_exits)
            cuts.append((scores.size, keep.size))
            return keep

        monkeypatch.setattr(batch_runtime, "select_word_exits", count_cuts)
        packaged = self._lattices(monkeypatch)
        seq, seq_lattices = [], []
        for f in feats:
            seq.append(rec.decode(f))
            (lattice,) = packaged.values()
            seq_lattices.append(lattice)
            packaged.clear()
        sequential_cuts = len(cuts)
        # The cap binds: some lane-frames had more than CAP candidates.
        assert sequential_cuts > 0 and all(k == self.CAP for _, k in cuts)
        assert max(n for n, _ in cuts) > self.CAP

        result = rec.decode_stream(feats, max_lanes=8)
        assert len(cuts) == 2 * sequential_cuts
        for i, lane in enumerate(result):
            _assert_lane_equal(seq[i], lane)
            assert lane.score.hex() == seq[i].score.hex()
            assert max(f.word_exits for f in lane.frame_stats) <= self.CAP
            assert packaged[i] == seq_lattices[i]


class TestFlatExitCap(TestTreeExitCap):
    """The same cut on the flat bank's word ends: both banks record
    exits through the one pass, so the cap binds the same way."""

    CAP = 1

    @pytest.fixture(scope="class")
    def capped(self, task):
        config = DecoderConfig(max_exits_per_frame=self.CAP)
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, config=config
        )
        feats = [u.features for u in task.corpus.test]
        feats.append(feats[0][:60])  # nine utterances: a refill at 8 lanes
        assert isinstance(rec.make_bank(1), LaneBank)
        return rec, feats


def test_tree_rejects_a_trigram_lm(task):
    """A leaf exit knows one word of history: a trigram on the tree
    would decode as a bigram, so the recognizer refuses it."""
    trigram = NGramModel(task.corpus.vocabulary, order=3)
    trigram.train([utt.words for utt in task.corpus.train])
    with pytest.raises(ValueError, match="order"):
        Recognizer.create(
            task.dictionary, task.pool, trigram, task.tying, network="tree"
        )
    flat = Recognizer.create(task.dictionary, task.pool, trigram, task.tying)
    assert flat.network_kind == "flat"


class TestContextDependentDictation:
    """The triphone-tied dictation variant over the tree runtime.

    ``expand_to_context_dependent`` gives every CD senone its CI
    parent's parameters, so recognition is unchanged while the fast-GMM
    CI layer finally has a real CD->CI reduction to exploit.  The
    batched tree runtime must preserve bit-exact parity INCLUDING the
    four-layer work counters.
    """

    @pytest.fixture(scope="class")
    def cd_task(self, task):
        return expand_to_context_dependent(task, num_senones=600)

    def test_cd_tree_fast_batch_parity(self, cd_task):
        rec = make_tree_recognizer(cd_task, "fast")
        feats = [u.features for u in cd_task.corpus.test[:4]]
        seq = [rec.decode(f) for f in feats]
        result = rec.decode_batch(feats)
        for s, lane in zip(seq, result):
            _assert_lane_equal(s, lane)
        # The CI layer must be live on the CD pool (real approximation).
        stats = seq[0].fast_stats
        assert stats.senones_approximated > 0
        assert stats.gaussians_evaluated < stats.gaussians_possible

    def test_cd_recognition_matches_ci_parent(self, cd_task, task):
        """Maximal tying: the CD expansion changes no recognition."""
        cd = make_tree_recognizer(cd_task, "reference")
        ci = make_tree_recognizer(task, "reference")
        f = task.corpus.test[0].features
        assert cd.decode(f).words == ci.decode(f).words

    def test_dictation_cd_task_recipe(self):
        """The first-class preset builds the CD variant end to end."""
        small = dictation_cd_task(
            vocabulary_size=30,
            train_sentences=12,
            test_sentences=2,
            seed=31,
            num_senones=500,
        )
        assert small.tying.num_senones == 500
        rec = make_tree_recognizer(small, "fast")
        f = small.corpus.test[0].features
        seq = rec.decode(f)
        lane = rec.decode_batch([f]).results[0]
        _assert_lane_equal(seq, lane)


class TestTreeServing:
    """The serving front door over a tree recognizer."""

    def test_server_and_wire_report_tree_network(self, task):
        import asyncio

        from repro.serve import ServeClient, Server, WireServer

        rec = make_tree_recognizer(task, "reference")
        feats = [u.features for u in task.corpus.test[:3]]
        baselines = [rec.decode(f) for f in feats]

        async def scenario():
            async with Server(rec, num_workers=1, max_lanes=2) as server:
                async with WireServer(server) as wire:
                    async with await ServeClient.connect(
                        wire.host, wire.port
                    ) as client:
                        assert client.hello["network"] == "tree"
                        for f, base in zip(feats, baselines):
                            result = await client.decode(f)
                            assert result.ok
                            assert result.words == base.words
                            assert result.score == base.score  # bit-exact
                        snapshot = await client.metrics()
                        assert snapshot["network"] == "tree"
                assert server.metrics().network == "tree"

        asyncio.run(scenario())
