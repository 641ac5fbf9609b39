"""Golden-parity suite: every runtime vs COMMITTED sequential outputs.

``tests/golden/`` holds committed ``Recognizer.decode`` outputs (words,
bit-exact path scores, per-frame statistics, in fast mode the
four-layer work counters, in hardware mode the unit accounting) for
command-task utterances (flat lexicon) and dictation utterances (tree
lexicon) in reference, hardware and fast modes.  Every driver of
:class:`Recognizer` — sequential ``decode``, drained ``decode_batch``
and continuous-batching ``decode_stream`` — must
reproduce them exactly, so any future runtime change is automatically
checked against a fixed oracle rather than against a moving sequential
implementation.  Regenerate fixtures (intentional behaviour changes
only) with ``PYTHONPATH=src python tests/golden/generate_golden.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.workloads.tasks import command_task

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The generator module is the single source of truth for the fixture
# recipe (modes, per-mode recognizer config); importing it here means
# the fixtures and this parity check cannot drift apart.
_spec = importlib.util.spec_from_file_location(
    "golden_generate", GOLDEN_DIR / "generate_golden.py"
)
golden_generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_generate)

MODES = golden_generate.MODES


@pytest.fixture(scope="module")
def golden_task():
    """The benchmark command task the fixtures were generated from."""
    return command_task(seed=19)


def _load(mode: str) -> dict:
    return json.loads((GOLDEN_DIR / f"command_{mode}.json").read_text())


@pytest.fixture(scope="module", params=MODES)
def golden(request, golden_task):
    fixture = _load(request.param)
    rec = golden_generate.make_recognizer(request.param, golden_task)
    feats = [
        golden_task.corpus.test[u["index"]].features for u in fixture["utterances"]
    ]
    return rec, fixture, feats


def _assert_matches_golden(result, expected):
    assert result.words == tuple(expected["words"])
    assert result.frames == expected["frames"]
    # Bit-exact score comparison through the committed hex encoding.
    assert result.score == float.fromhex(expected["score_hex"])
    assert result.lattice_size == expected["lattice_size"]
    assert [s.active_states for s in result.frame_stats] == expected["active_states"]
    assert [s.requested_senones for s in result.frame_stats] == (
        expected["requested_senones"]
    )
    assert [s.word_exits for s in result.frame_stats] == expected["word_exits"]
    assert result.scoring_stats.active_per_frame == expected["requested_senones"]
    if "fast_stats" in expected:
        # All four layers' work counters, per utterance.
        assert result.fast_stats is not None
        actual = {k: getattr(result.fast_stats, k) for k in expected["fast_stats"]}
        assert actual == expected["fast_stats"]
    # Per-utterance hardware accounting rides on sequential results
    # only (the banked runtimes pool it per batch).
    hardware = golden_generate.hardware_record(result)
    assert hardware == {k: expected[k] for k in hardware}


class TestGoldenFixtures:
    def test_fixture_files_are_committed(self):
        for mode in MODES:
            assert (GOLDEN_DIR / f"command_{mode}.json").exists()

    def test_fixture_lengths_are_ragged(self):
        """The fixtures must keep exercising ragged retirement."""
        for mode in MODES:
            frames = [u["frames"] for u in _load(mode)["utterances"]]
            assert len(frames) >= 4
            assert max(frames) >= 2 * min(frames)

    def test_fast_fixture_pins_layer_savings(self):
        """The committed fast fixture must show every counter live."""
        for u in _load("fast")["utterances"]:
            fs = u["fast_stats"]
            assert fs["frames"] == u["frames"]
            assert 0 < fs["frames_skipped"] < fs["frames"]
            assert 0 < fs["gaussians_evaluated"] < fs["gaussians_possible"]
            assert 0 < fs["dims_evaluated"] < fs["dims_possible"]


class TestSequentialGolden:
    def test_sequential_decode_matches_golden(self, golden):
        rec, fixture, feats = golden
        for expected, f in zip(fixture["utterances"], feats):
            _assert_matches_golden(rec.decode(f), expected)


class TestBatchGolden:
    def test_drained_batch_matches_golden(self, golden):
        rec, fixture, feats = golden
        result = rec.decode_batch(feats)
        assert len(result) == len(feats)
        for expected, lane in zip(fixture["utterances"], result):
            _assert_matches_golden(lane, expected)


class TestBlasGolden:
    """The ``exact=False`` matmul-form mode vs the REFERENCE fixtures.

    ``mode="blas"`` must reproduce the committed reference decode's
    words exactly, with path scores within the documented tolerance
    (:data:`~repro.decoder.scorer.BLAS_SCORE_ATOL`), in all three
    runtimes — the acceptance contract of the BLAS backend.
    """

    @pytest.fixture(scope="class")
    def blas_golden(self, golden_task):
        from repro.decoder.recognizer import Recognizer

        fixture = _load("reference")
        rec = Recognizer.create(
            golden_task.dictionary, golden_task.pool, golden_task.lm,
            golden_task.tying, mode="blas",
        )
        feats = [
            golden_task.corpus.test[u["index"]].features
            for u in fixture["utterances"]
        ]
        return rec, fixture, feats

    def _assert_blas_matches(self, result, expected):
        from repro.decoder.scorer import BLAS_SCORE_ATOL

        assert result.words == tuple(expected["words"])
        assert result.frames == expected["frames"]
        reference_score = float.fromhex(expected["score_hex"])
        assert abs(result.score - reference_score) <= BLAS_SCORE_ATOL

    def test_sequential_blas_matches_reference_golden(self, blas_golden):
        rec, fixture, feats = blas_golden
        for expected, f in zip(fixture["utterances"], feats):
            self._assert_blas_matches(rec.decode(f), expected)

    def test_batch_blas_matches_reference_golden(self, blas_golden):
        rec, fixture, feats = blas_golden
        result = rec.decode_batch(feats)
        for expected, lane in zip(fixture["utterances"], result):
            self._assert_blas_matches(lane, expected)

    def test_continuous_blas_matches_reference_golden(self, blas_golden):
        rec, fixture, feats = blas_golden
        result = rec.decode_stream(feats, max_lanes=2)
        assert max(result.admit_steps) > 0  # refill actually happened
        for expected, lane in zip(fixture["utterances"], result):
            self._assert_blas_matches(lane, expected)


class TestCancellationGolden:
    """Early-retire (serving deadlines/cancellation) vs the fixtures.

    A lane cancelled MID-decode must not perturb any surviving lane's
    bit-exact output — the invariant the serving front door's deadline
    enforcement rests on.  Decodes every golden utterance alongside a
    victim lane that is cancelled partway through, in every golden
    mode (the fast mode exercises the scorer's per-lane state teardown
    on cancel), then checks each survivor against the committed
    fixture.
    """

    def _drive_with_cancellation(self, rec, feats, victim_feats, reseed=None):
        from repro.runtime.batch import LaneBank

        rec._reset_accounting()
        bank = LaneBank(rec, len(feats) + 1)
        for lane, f in enumerate(feats):
            bank.admit(lane, lane, rec._validate_features(lane, f))
        victim_lane = len(feats)
        bank.admit(
            victim_lane, 900, rec._validate_features(victim_lane, victim_feats)
        )
        cancel_at = min(f.shape[0] for f in feats) // 2  # everyone mid-decode
        assert 0 < cancel_at < victim_feats.shape[0]
        results = {}
        cancelled = False
        while bank.any_active:
            if not cancelled and bank.steps == cancel_at:
                frames_done = bank.cancel(victim_lane)
                assert frames_done == cancel_at
                cancelled = True
                if reseed is not None:
                    bank.admit(
                        victim_lane,
                        901,
                        rec._validate_features(victim_lane, reseed),
                    )
            for lane in bank.step():
                utt = int(bank.lane_utt[lane])
                results[utt] = bank.retire(lane)
        assert cancelled
        return results

    def test_cancelled_lane_does_not_perturb_survivors(self, golden):
        rec, fixture, feats = golden
        results = self._drive_with_cancellation(rec, feats, feats[0])
        assert 900 not in results  # the victim never produced a result
        for utt, expected in enumerate(fixture["utterances"]):
            _assert_matches_golden(results[utt], expected)

    def test_reseeded_lane_after_cancel_matches_golden(self, golden):
        """A lane freed by cancellation and immediately re-admitted
        decodes its new utterance exactly as a sequential decode —
        no state from the cancelled occupant leaks through."""
        rec, fixture, feats = golden
        results = self._drive_with_cancellation(
            rec, feats, feats[0], reseed=feats[1]
        )
        for utt, expected in enumerate(fixture["utterances"]):
            _assert_matches_golden(results[utt], expected)
        # The reseeded utterance re-used feats[1]'s features, so it
        # must match that fixture bit for bit as well.
        _assert_matches_golden(results[901], fixture["utterances"][1])


def _dictation_golden(mode, task):
    fixture = json.loads((GOLDEN_DIR / f"dictation_{mode}.json").read_text())
    rec = golden_generate.make_tree_recognizer(task, mode)
    feats = [task.corpus.test[u["index"]].features for u in fixture["utterances"]]
    return rec, fixture, feats


class TestDictationGolden:
    """The tree-lexicon path vs COMMITTED dictation fixtures.

    ``dictation_reference.json`` pins sequential ``network="tree"``
    decodes of the scaled-down dictation task; the sequential, drained
    batch and continuous runtimes must all reproduce them bit for bit,
    so a regression in the banked tree kernel cannot hide behind
    "batch and sequential changed together".
    """

    @pytest.fixture(scope="class")
    def dictation_golden(self, dictation_task):
        return _dictation_golden("reference", dictation_task)

    def test_fixture_is_committed_and_ragged(self):
        fixture = json.loads(
            (GOLDEN_DIR / "dictation_reference.json").read_text()
        )
        assert fixture["network"] == "tree"
        assert fixture["sharing_factor"] >= 1.0
        frames = [u["frames"] for u in fixture["utterances"]]
        assert len(frames) >= 4
        assert max(frames) >= 2 * min(frames)

    def test_sequential_tree_matches_golden(self, dictation_golden):
        rec, fixture, feats = dictation_golden
        for expected, f in zip(fixture["utterances"], feats):
            _assert_matches_golden(rec.decode(f), expected)

    def test_drained_batch_tree_matches_golden(self, dictation_golden):
        rec, fixture, feats = dictation_golden
        result = rec.decode_batch(feats)
        assert len(result) == len(feats)
        for expected, lane in zip(fixture["utterances"], result):
            _assert_matches_golden(lane, expected)

    def test_continuous_tree_matches_golden(self, dictation_golden):
        """Few lanes + the 163..560-frame spread forces refill."""
        rec, fixture, feats = dictation_golden
        result = rec.decode_stream(feats, max_lanes=2)
        assert max(result.admit_steps) > 0  # refill actually happened
        for expected, lane in zip(fixture["utterances"], result):
            _assert_matches_golden(lane, expected)


class TestDictationModesGolden:
    """Tree lexicon x the other two exact modes.

    ``dictation_hardware.json`` (with the unit accounting) and
    ``dictation_fast.json`` (with the four-layer counters) were written
    by the per-utterance token passer before it was deleted; every
    runtime of the one remaining engine must reproduce them.
    """

    @pytest.fixture(scope="class", params=["hardware", "fast"])
    def dictation_golden(self, request, dictation_task):
        return _dictation_golden(request.param, dictation_task)

    def test_fixture_pins_the_mode_specific_counters(self, dictation_golden):
        _, fixture, _ = dictation_golden
        key = {"hardware": "viterbi_activity", "fast": "fast_stats"}[fixture["mode"]]
        assert fixture["network"] == "tree"
        assert all(key in u for u in fixture["utterances"])

    def test_sequential_tree_matches_golden(self, dictation_golden):
        rec, fixture, feats = dictation_golden
        for expected, f in zip(fixture["utterances"], feats):
            _assert_matches_golden(rec.decode(f), expected)

    def test_drained_batch_tree_matches_golden(self, dictation_golden):
        rec, fixture, feats = dictation_golden
        result = rec.decode_batch(feats)
        for expected, lane in zip(fixture["utterances"], result):
            _assert_matches_golden(lane, expected)

    def test_continuous_tree_matches_golden(self, dictation_golden):
        rec, fixture, feats = dictation_golden
        result = rec.decode_stream(feats, max_lanes=2)
        assert max(result.admit_steps) > 0  # refill actually happened
        for expected, lane in zip(fixture["utterances"], result):
            _assert_matches_golden(lane, expected)


class TestContinuousGolden:
    def test_continuous_stream_matches_golden(self, golden):
        """Few lanes + ragged lengths forces mid-decode refill."""
        rec, fixture, feats = golden
        result = rec.decode_stream(feats, max_lanes=2)
        assert max(result.admit_steps) > 0  # refill actually happened
        for expected, lane in zip(fixture["utterances"], result):
            _assert_matches_golden(lane, expected)

    def test_continuous_reversed_arrival_matches_golden(self, golden):
        """Admission order must not change any utterance's output."""
        rec, fixture, feats = golden
        result = rec.decode_stream(feats[::-1], max_lanes=3)
        for expected, lane in zip(fixture["utterances"][::-1], result):
            _assert_matches_golden(lane, expected)


class TestDictationCdFastGolden:
    """Fast mode over CONTEXT-DEPENDENT senones vs a committed fixture.

    The command and dictation tasks are CI-tied (every senone is its
    own parent), so layer 2 never substitutes a parent score there.
    ``dictation_cd_fast.json`` was written by the per-lane kernels the
    whole-bank array passes replaced, on the dictation task re-tied
    over 1000 senones: most of the demand is answered by a CI parent,
    as on the ``bank_tree`` workload.
    """

    @pytest.fixture(scope="class")
    def cd_golden(self, dictation_task):
        fixture = json.loads((GOLDEN_DIR / "dictation_cd_fast.json").read_text())
        task = golden_generate.make_dictation_cd_task(dictation_task)
        rec = golden_generate.make_tree_recognizer(task, "fast")
        feats = [task.corpus.test[u["index"]].features for u in fixture["utterances"]]
        return rec, fixture, feats

    def test_fixture_pins_parent_substitution(self, cd_golden):
        _, fixture, _ = cd_golden
        for u in fixture["utterances"]:
            fs = u["fast_stats"]
            assert fs["senones_approximated"] > fs["senones_full"] > 0
            assert 0 < fs["frames_skipped"] < fs["frames"]

    def test_sequential_matches_golden(self, cd_golden):
        rec, fixture, feats = cd_golden
        for expected, f in zip(fixture["utterances"], feats):
            _assert_matches_golden(rec.decode(f), expected)

    def test_drained_batch_matches_golden(self, cd_golden):
        rec, fixture, feats = cd_golden
        for expected, lane in zip(fixture["utterances"], rec.decode_batch(feats)):
            _assert_matches_golden(lane, expected)

    def test_continuous_matches_golden(self, cd_golden):
        rec, fixture, feats = cd_golden
        result = rec.decode_stream(feats, max_lanes=2)
        assert max(result.admit_steps) > 0  # refill actually happened
        for expected, lane in zip(fixture["utterances"], result):
            _assert_matches_golden(lane, expected)


_FAST_LAYERS = json.loads((GOLDEN_DIR / "fast_layers.json").read_text())


class TestFastLayersGolden:
    """The pooled fast backend, layer by layer, vs a committed fixture:
    16 layer combinations x shortlist 1|2 x PDE chunk 13|5, one lane
    alone and three pooled, counters and a digest of the score bits —
    also written by the kernels the array passes replaced."""

    @pytest.fixture(scope="class")
    def inputs(self):
        return golden_generate.fast_layer_inputs()

    def test_fixture_covers_every_configuration(self):
        assert list(_FAST_LAYERS["configs"]) == list(
            golden_generate.fast_layer_configs()
        )
        assert _FAST_LAYERS["counters"] == list(golden_generate.FAST_FIELDS)

    def test_every_layer_fires_in_the_fixture(self):
        lanes = _FAST_LAYERS["configs"]["cds+ci+vq+pde/g2/c5"]["B3"]["counters"]
        for lane in lanes:
            stats = dict(zip(_FAST_LAYERS["counters"], lane))
            assert 0 < stats["frames_skipped"] < stats["frames"]
            assert stats["senones_full"] > 0 and stats["senones_approximated"] > 0
            assert stats["gaussians_evaluated"] < stats["gaussians_possible"]
            # PDE abandoned components on top of the VQ shortlist.
            assert stats["dims_evaluated"] < stats["gaussians_evaluated"] * 39

    @pytest.mark.parametrize("name", list(_FAST_LAYERS["configs"]))
    def test_configuration_matches_golden(self, inputs, name):
        config = golden_generate.fast_layer_configs()[name]
        record = golden_generate.fast_layer_record(config, inputs)
        assert record == _FAST_LAYERS["configs"][name]
