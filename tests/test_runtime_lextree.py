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
* every lane budget 1..8 drives a reversed, ragged queue through the
  continuous runtime (generated ``admit/step/cancel/compact``
  lifecycles on the bank itself are ``tests/test_lane_lifecycle.py``);
* the histogram cap (``BeamConfig.max_active_states``) prunes each
  lane's list the same at every bank width, equal-score plateaus
  included.
"""

import dataclasses

import numpy as np
import pytest
from conftest import _assert_lane_equal, _sequential

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
    """Tree recognizer (the sequential oracle), its twin (the bank
    under test), decode cache."""
    rec = make_tree_recognizer(task, request.param)
    return rec, rec.twin(), {}


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
    """Ragged lengths x max_lanes 1..8 == sequential."""

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

    def test_batch_blas_matches_sequential(self, blas_pair, task):
        rec, seq = blas_pair
        feats = [u.features for u in task.corpus.test]
        result = rec.decode_batch(feats)
        for s, lane in zip(seq, result):
            _assert_lane_equal(s, lane, atol=BLAS_SCORE_ATOL)

    def test_continuous_blas_matches_sequential(self, blas_pair, task):
        rec, seq = blas_pair
        feats = [u.features for u in task.corpus.test]
        result = rec.decode_stream(feats, max_lanes=3)
        assert max(result.admit_steps) > 0  # refill actually happened
        for s, lane in zip(seq, result):
            _assert_lane_equal(s, lane, atol=BLAS_SCORE_ATOL)


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
