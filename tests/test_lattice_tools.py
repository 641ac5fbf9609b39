"""Tests for repro.decoder.lattice_tools."""

import pytest

from repro.decoder.lattice import WordLattice
from repro.decoder.lattice_tools import analyze_lattice, oracle_paths, prune_lattice
from repro.decoder.recognizer import Recognizer


@pytest.fixture()
def decoded(task):
    """A real decode's lattice plus its reference transcript."""
    rec = Recognizer.create(
        task.dictionary, task.pool, task.lm, task.tying, mode="reference"
    )
    utt = task.corpus.test[0]
    rec.decode(utt.features)
    return rec.word_stage.lattice, rec.network, list(utt.words), utt.num_frames - 1


class TestAnalyze:
    def test_oracle_at_most_best(self, decoded):
        lattice, network, reference, final = decoded
        report = analyze_lattice(lattice, network, reference, final)
        assert report.oracle_wer <= report.best_wer
        assert report.exits == len(lattice)
        assert report.density > 0

    def test_correct_decode_zero_oracle(self, decoded):
        lattice, network, reference, final = decoded
        report = analyze_lattice(lattice, network, reference, final)
        assert report.best_wer == 0.0
        assert report.oracle_wer == 0.0

    def test_oracle_paths_contain_best(self, decoded):
        lattice, network, reference, final = decoded
        paths = oracle_paths(lattice, network, final)
        assert tuple(reference) in paths

    def test_empty_lattice(self, decoded):
        _, network, reference, final = decoded
        report = analyze_lattice(WordLattice(), network, reference, final)
        assert report.oracle_wer == 1.0
        assert report.exits == 0

    def test_format(self, decoded):
        lattice, network, reference, final = decoded
        text = analyze_lattice(lattice, network, reference, final).format()
        assert "oracle" in text and "density" in text


class TestPrune:
    def test_pruned_lattice_keeps_best_path(self, decoded):
        lattice, network, reference, final = decoded
        pruned = prune_lattice(lattice, beam=5.0, final_frame=final)
        assert len(pruned) <= len(lattice)
        report = analyze_lattice(pruned, network, reference, final)
        assert report.best_wer == 0.0  # the winning path survived

    def test_tight_beam_shrinks(self, decoded):
        lattice, network, _, final = decoded
        tight = prune_lattice(lattice, beam=1.0, final_frame=final)
        loose = prune_lattice(lattice, beam=500.0, final_frame=final)
        assert len(tight) <= len(loose)
        assert len(loose) == len(lattice)

    def test_predecessor_chains_closed(self, decoded):
        lattice, _, _, final = decoded
        pruned = prune_lattice(lattice, beam=2.0, final_frame=final)
        for i in range(len(pruned)):
            record = pruned.exit(i)
            if record.predecessor >= 0:
                pruned.exit(record.predecessor)  # must not raise

    def test_rejects_bad_beam(self, decoded):
        lattice, _, _, final = decoded
        with pytest.raises(ValueError):
            prune_lattice(lattice, beam=0.0, final_frame=final)


class TestDensityKnob:
    def test_max_exits_controls_density(self, task):
        """`max_exits_per_frame` trades lattice density for size."""
        from repro.decoder.word_decode import DecoderConfig

        utt = task.corpus.test[1]
        sizes = {}
        for cap in (2, 24):
            rec = Recognizer.create(
                task.dictionary, task.pool, task.lm, task.tying,
                mode="reference", config=DecoderConfig(max_exits_per_frame=cap),
            )
            rec.decode(utt.features)
            sizes[cap] = len(rec.word_stage.lattice)
        assert 0 < sizes[2] <= sizes[24]
