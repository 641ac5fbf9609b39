"""Flat ``(lane, column)`` keys: the tree step and the fast-GMM scorer.

The bank's senone demand, the tree's score scatter/gather, the CDS
cache, the CI-parent tables and the VQ component table are each indexed
by ONE flat key (``lane * width + column``) read with 1-D ``take`` /
scatter instead of a 2-D fancy index.  The arithmetic, the work items
and their order are unchanged, so each test here keeps the 2-D formula
the keys replaced as its oracle and asks for the same bits.
"""

import numpy as np
import pytest

from repro.core.logadd import LOG_ZERO
from repro.decoder.fast_gmm import FastGmmConfig, FastGmmModel
from repro.decoder.recognizer import Recognizer
from repro.decoder.word_decode import DecoderConfig
from repro.hmm.senone import SenonePool


# ----------------------------------------------------------------------
# LaneBankBase._demand against the 2-D mask + np.nonzero formula
# ----------------------------------------------------------------------
def _demand_oracle(num_lanes, num_senones, cand_b, cand_senone):
    """The demand as the ``(B, N)`` mask formula computed it."""
    mask = np.zeros((num_lanes, num_senones), dtype=bool)
    mask[cand_b, cand_senone] = True
    pair_b, pair_s = np.nonzero(mask)
    return pair_b, pair_s, mask.sum(axis=1)


def _old_candidates(bank):
    """``(cand_b, cand_senone)`` as each bank listed them before keys."""
    net = bank.net
    if hasattr(bank, "_candidate_slots"):  # the tree bank
        slots = bank._candidate_slots()
        cand_b, cand_s = np.divmod(slots, net.num_states)
        return slots, cand_b, net.senone_id[cand_s]
    bank._candidate_senones()  # fills bank._candidates
    cand_b, cand_s = np.nonzero(bank._candidates)
    return None, cand_b, net.senone_id[cand_s]


@pytest.fixture(scope="module", params=["flat", "tree"])
def mid_decode_bank(request, task):
    """A 3-lane bank a few frames into lanes 0 and 2; lane 1 idle."""
    rec = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, network=request.param
    )
    bank = rec.make_bank(3)
    bank.admit(0, 0, task.corpus.test[0].features)
    bank.admit(2, 1, task.corpus.test[1].features)
    for _ in range(4):
        bank.step()
    return bank


class TestFlatDemand:
    def test_candidate_keys_are_the_old_pairs(self, mid_decode_bank):
        bank = mid_decode_bank
        num_senones = bank.scorer.num_senones
        slots, cand_b, cand_senone = _old_candidates(bank)
        if slots is None:
            keys = bank._candidate_senones()
        else:
            keys = bank._slot_key.take(slots)
        got_b, got_s = np.divmod(keys, num_senones)
        assert np.array_equal(got_b, cand_b)
        assert np.array_equal(got_s, cand_senone)

    @pytest.mark.parametrize("duplicated", [False, True])
    def test_demand_matches_the_mask_formula(self, mid_decode_bank, duplicated):
        bank = mid_decode_bank
        num_senones = bank.scorer.num_senones
        _, cand_b, cand_senone = _old_candidates(bank)
        keys = cand_b * num_senones + cand_senone
        if duplicated:  # the same senone behind many slots, in any order
            order = np.random.default_rng(3).permutation(keys.size)
            keys = np.concatenate([keys, keys[order], keys[:5]])
        lanes = np.flatnonzero(bank.active)
        pair_key, pair_b, pair_s, counts = bank._demand(lanes, keys)
        want_b, want_s, want_counts = _demand_oracle(
            bank.num_lanes, num_senones, cand_b, cand_senone
        )
        assert np.array_equal(pair_b, want_b) and pair_b.dtype == want_b.dtype
        assert np.array_equal(pair_s, want_s) and pair_s.dtype == want_s.dtype
        assert np.array_equal(pair_key, want_b * num_senones + want_s)
        assert np.array_equal(counts, want_counts)
        assert counts[1] == 0 and counts[0] > 0 and counts[2] > 0  # lane 1 idle

    def test_empty_demand(self, mid_decode_bank):
        bank = mid_decode_bank
        lanes = np.flatnonzero(bank.active)
        none = np.empty(0, dtype=np.int64)
        pair_key, pair_b, pair_s, counts = bank._demand(lanes, none)
        want_b, want_s, want_counts = _demand_oracle(
            bank.num_lanes, bank.scorer.num_senones, none, none
        )
        assert pair_key.size == pair_b.size == pair_s.size == 0
        assert np.array_equal(pair_b, want_b) and np.array_equal(pair_s, want_s)
        assert np.array_equal(counts, want_counts)

    @pytest.mark.parametrize("network", ["flat", "tree"])
    def test_feedback_off_grid_carries_its_keys(self, task, network):
        rec = Recognizer.create(
            task.dictionary, task.pool, task.lm, task.tying, network=network,
            config=DecoderConfig(use_feedback=False),
        )
        bank = rec.make_bank(3)
        for lane in (0, 2):
            bank.admit(lane, lane, task.corpus.test[lane].features)
        lanes = np.flatnonzero(bank.active)
        num_senones = rec.scorer.num_senones
        pair_key, pair_b, pair_s, counts = bank._demand(lanes, None)
        everything = np.ones((1, num_senones), dtype=int)
        want_b, want_s, want_counts = _demand_oracle(
            3, num_senones, (lanes[:, None] * everything).ravel(),
            np.tile(np.arange(num_senones), lanes.size),
        )
        assert np.array_equal(pair_b, want_b) and np.array_equal(pair_s, want_s)
        assert np.array_equal(pair_key, want_b * num_senones + want_s)
        assert np.array_equal(counts, want_counts)
        assert not any(a.flags.writeable for a in (pair_key, pair_b, pair_s))
        assert bank._demand(lanes, None)[1] is pair_b  # kept, not rebuilt


# ----------------------------------------------------------------------
# FastGmmModel.score_items / codewords_for against the broadcast forms
# ----------------------------------------------------------------------
def _score_items_oracle(model, observations, rows, senones, codewords):
    """Layers 3-4 as the 2-D gathers and broadcasts computed them."""
    pool = model.pool
    first = np.arange(pool.num_senones) * pool.num_components
    if codewords is None:
        components = (first[:, None] + np.arange(pool.num_components))[senones]
    else:
        table = first[None, :, None] + model.shortlist  # (C, N, G)
        components = table[codewords[rows], senones]
    means = pool.means.reshape(-1, pool.dim)
    precisions = model.precisions.reshape(-1, pool.dim)
    quad = observations[rows][:, None, :] - means[components]
    np.square(quad, out=quad)
    quad *= precisions[components]
    offsets = model.offsets.ravel()[components]
    if model.config.pde_enabled:
        comp, dims = model._pde(quad, offsets)
    else:
        comp, dims = quad.sum(axis=-1) + offsets, None
    if comp.shape[-1] == 1:
        return comp[:, 0], dims
    peak = comp.max(axis=-1)
    return peak + np.log(np.exp(comp - peak[:, None]).sum(axis=-1)), dims


def _codewords_oracle(model, observations):
    diff = model.codebook[None, :, :] - observations[:, None, :]
    np.square(diff, out=diff)
    return diff.sum(axis=2).argmin(axis=1)


@pytest.mark.parametrize("pde", [False, True], ids=["pde-off", "pde-on"])
@pytest.mark.parametrize("vq", [False, True], ids=["all-components", "codewords"])
@pytest.mark.parametrize("g", [1, 3])
def test_score_items_matches_the_broadcast_formula(g, vq, pde):
    # G components per item: the whole mixture without VQ, the
    # shortlist with it.
    pool = SenonePool.random(
        40, num_components=4 if vq else g, dim=13, rng=np.random.default_rng(g)
    )
    config = FastGmmConfig(
        gaussian_selection_enabled=vq, gs_codebook_size=8, gs_shortlist=g,
        pde_enabled=pde, pde_margin=4.0, pde_chunk=5,
    )
    model = FastGmmModel(pool, config=config)
    assert model.components_per_item == g
    rng = np.random.default_rng(7)
    observations = rng.normal(scale=2.0, size=(4, pool.dim))
    observations[2, 5] = np.nan  # a poisoned row
    rows = np.repeat(np.arange(4), 15)
    senones = rng.integers(0, pool.num_senones, size=rows.size)
    codewords = None
    if vq:
        codewords = model.codewords_for(observations)
        assert np.array_equal(codewords, _codewords_oracle(model, observations))
    got, got_dims = model.score_items(observations, rows, senones, codewords)
    want, want_dims = _score_items_oracle(model, observations, rows, senones, codewords)
    assert got.tobytes() == want.tobytes()  # NaN items included, bit for bit
    # The poisoned row's items are NaN, or LOG_ZERO once PDE drops them.
    poisoned = got[rows == 2]
    assert (np.isnan(poisoned) | (poisoned == LOG_ZERO)).all()
    assert (got[rows != 2] > LOG_ZERO).all()
    if want_dims is None:
        assert got_dims is None
    else:
        assert np.array_equal(got_dims, want_dims)


def test_codewords_for_matches_the_broadcast_formula(small_pool):
    model = FastGmmModel(
        small_pool, config=FastGmmConfig(gaussian_selection_enabled=True,
                                         gs_codebook_size=16),
    )
    rng = np.random.default_rng(5)
    for rows in (1, 3, 8):
        observations = rng.normal(scale=3.0, size=(rows, small_pool.dim))
        assert np.array_equal(
            model.codewords_for(observations), _codewords_oracle(model, observations)
        )


# ----------------------------------------------------------------------
# The CDS cache, moved out of the lane record, across growth/compaction
# ----------------------------------------------------------------------
def test_a_skipping_cds_lane_survives_growth_and_compaction(task):
    """Lane 0 skips frames (its cache answers them) while the scorer's
    arrays grow under it (lane 3 admitted) and after the bank compacts
    it next to lane 3 (now lane 1): every lane decodes exactly as alone."""
    rec = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, mode="fast",
        # Skips whenever it may: every third frame is scored in full.
        fast_config=FastGmmConfig.all_layers(cds_distance=1e9, cds_max_run=2),
    )
    feats = [u.features for u in task.corpus.test[:3]]
    alone = [rec.decode(f) for f in feats]

    bank = rec.twin().make_bank(4)
    scorer = bank.scorer
    bank.admit(0, 0, feats[0])
    for _ in range(4):
        bank.step()
    assert scorer._cache.shape[0] == 1
    skipped = scorer.lane_state(0).fast_stats.frames_skipped
    assert skipped > 0
    bank.admit(3, 1, feats[1])  # the scorer's arrays grow 1 -> 4 lanes
    bank.admit(1, 2, feats[2][:3])  # a short lane to retire before compacting
    assert scorer._cache.shape[0] == 4
    results = {}
    while 1 in np.flatnonzero(bank.active):
        for lane in bank.step():
            utt = int(bank.lane_utt[lane])
            results[utt] = bank.retire(lane)
    assert scorer.lane_state(0).fast_stats.frames_skipped > skipped
    assert bank.compact() == 2  # lane 3 -> lane 1
    assert scorer._cache.shape[0] == 2
    while bank.any_active:
        for lane in bank.step():
            utt = int(bank.lane_utt[lane])
            results[utt] = bank.retire(lane)
    # utterance 2 was cut to 3 frames; decode its cut alone too.
    alone[2] = rec.decode(feats[2][:3])
    for utt, want in enumerate(alone):
        got = results[utt]
        assert got.words == want.words
        assert got.score == want.score  # bit-identical
        assert got.fast_stats == want.fast_stats
    assert results[0].fast_stats.frames_skipped > 0
    assert results[1].fast_stats.frames_skipped > 0
