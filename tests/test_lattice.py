"""Tests for repro.decoder.lattice."""

import numpy as np
import pytest

from repro.decoder.lattice import WordExit, WordLattice


class TestWordLattice:
    def test_add_and_lookup(self):
        lat = WordLattice()
        idx = lat.add(word=3, entry_frame=0, exit_frame=5, predecessor=-1,
                      score=-10.0, lm_history=3)
        assert idx == 0
        record = lat.exit(0)
        assert record.word == 3 and record.exit_frame == 5

    def test_predecessor_must_exist(self):
        lat = WordLattice()
        with pytest.raises(ValueError):
            lat.add(word=0, entry_frame=0, exit_frame=1, predecessor=5,
                    score=0.0, lm_history=0)

    def test_entry_before_exit(self):
        lat = WordLattice()
        with pytest.raises(ValueError):
            lat.add(word=0, entry_frame=5, exit_frame=2, predecessor=-1,
                    score=0.0, lm_history=0)

    def test_exits_at_frame(self):
        lat = WordLattice()
        lat.add(word=0, entry_frame=0, exit_frame=3, predecessor=-1, score=-1.0, lm_history=0)
        lat.add(word=1, entry_frame=0, exit_frame=3, predecessor=-1, score=-2.0, lm_history=1)
        lat.add(word=2, entry_frame=4, exit_frame=7, predecessor=0, score=-3.0, lm_history=2)
        assert len(lat.exits_at(3)) == 2
        assert len(lat.exits_at(7)) == 1
        assert lat.exits_at(5) == []

    def test_last_frame_with_exits(self):
        lat = WordLattice()
        lat.add(word=0, entry_frame=0, exit_frame=3, predecessor=-1, score=0.0, lm_history=0)
        lat.add(word=1, entry_frame=4, exit_frame=9, predecessor=0, score=0.0, lm_history=1)
        assert lat.last_frame_with_exits(20) == 9
        assert lat.last_frame_with_exits(8) == 3
        assert lat.last_frame_with_exits(2) is None

    def test_backtrace_order(self):
        lat = WordLattice()
        a = lat.add(word=0, entry_frame=0, exit_frame=3, predecessor=-1, score=0.0, lm_history=0)
        b = lat.add(word=1, entry_frame=4, exit_frame=8, predecessor=a, score=0.0, lm_history=1)
        c = lat.add(word=2, entry_frame=9, exit_frame=12, predecessor=b, score=0.0, lm_history=2)
        chain = lat.backtrace(c)
        assert [e.word for e in chain] == [0, 1, 2]

    def test_out_of_range_exit(self):
        with pytest.raises(IndexError):
            WordLattice().exit(0)

    def test_entries_per_frame_stats(self):
        lat = WordLattice()
        lat.add(word=0, entry_frame=0, exit_frame=3, predecessor=-1, score=0.0, lm_history=0)
        lat.add(word=1, entry_frame=0, exit_frame=3, predecessor=-1, score=0.0, lm_history=1)
        lat.add(word=2, entry_frame=0, exit_frame=5, predecessor=-1, score=0.0, lm_history=2)
        assert lat.entries_per_frame() == {3: 2, 5: 1}
        assert lat.mean_entries_per_frame() == 1.5

    def test_len(self):
        lat = WordLattice()
        assert len(lat) == 0
        lat.add(word=0, entry_frame=0, exit_frame=1, predecessor=-1, score=0.0, lm_history=0)
        assert len(lat) == 1


class TestLatticeValidation:
    """Only ``-1`` (BOS) is a legal negative predecessor, and frames are
    never negative: ``backtrace`` would read any negative index as BOS."""

    @pytest.mark.parametrize(
        "fields",
        [
            dict(predecessor=-5),
            dict(predecessor=-2),
            dict(predecessor=1),  # not yet in the lattice
            dict(entry_frame=-1),
            dict(entry_frame=-3, exit_frame=-2),
            dict(entry_frame=4),  # after its exit frame
            # Columns of unequal length: two words, one of everything else.
            dict(word=[1, 2], entry_frame=[0], predecessor=[-1], score=[0.0],
                 lm_history=[1]),
        ],
        ids=[
            "pred-5", "pred-2", "pred-ahead", "entry-neg", "both-neg", "entry-late",
            "ragged",
        ],
    )
    def test_add_rejects(self, fields):
        lat = WordLattice()
        lat.add(word=0, entry_frame=0, exit_frame=1, predecessor=-1, score=0.0, lm_history=0)
        record = dict(word=1, entry_frame=2, exit_frame=3, predecessor=0,
                      score=-1.0, lm_history=1)
        record.update(fields)
        exit_frame = record.pop("exit_frame")
        # One batch through the one writer (``add`` is its one-exit form).
        columns = [v if isinstance(v, list) else [v] for v in record.values()]
        with pytest.raises(ValueError):
            lat.extend(exit_frame, *columns)
        assert len(lat) == 1 and lat.exits_at(exit_frame) == (
            [] if exit_frame != 1 else [lat.exit(0)]
        )
        assert [len(column) for column in (
            lat.word, lat.entry_frame, lat.exit_frame, lat.predecessor,
            lat.score, lat.lm_history,
        )] == [1] * 6

    def test_extend_checks_the_whole_batch_before_storing(self):
        lat = WordLattice()
        lat.add(word=0, entry_frame=0, exit_frame=1, predecessor=-1, score=0.0, lm_history=0)
        with pytest.raises(ValueError):
            lat.extend(3, [1, 2], [2, 2], [0, -5], [-1.0, -2.0], [1, 2])
        assert len(lat) == 1 and lat.exits_at(3) == []
        assert lat.extend(3, [], [], [], [], []) == 1  # an empty batch is a no-op
        assert len(lat) == 1 and lat.last_frame_with_exits(9) == 1


def test_columns_round_trip_against_a_list_oracle():
    """Every ``exit(i)`` field is what ``extend`` was given; ``backtrace``,
    ``exits_at`` and ``last_frame_with_exits`` agree with a plain list."""
    rng = np.random.default_rng(11)
    lat = WordLattice()
    oracle: list[WordExit] = []
    for frame in range(0, 60, 3):
        count = int(rng.integers(0, 4))
        batch = [
            WordExit(
                index=len(oracle) + k,
                word=int(rng.integers(0, 50)),
                entry_frame=int(rng.integers(0, frame + 1)),
                exit_frame=frame,
                predecessor=int(rng.integers(-1, len(oracle))) if oracle else -1,
                score=float(rng.normal(-100.0, 30.0)),
                lm_history=int(rng.integers(-1, 50)),
            )
            for k in range(count)
        ]
        first = lat.extend(
            frame,
            [e.word for e in batch],
            [e.entry_frame for e in batch],
            [e.predecessor for e in batch],
            [e.score for e in batch],
            [e.lm_history for e in batch],
        )
        assert first == len(oracle)
        oracle += batch
    assert len(lat) == len(oracle) > 20
    for record in oracle:
        assert lat.exit(record.index) == record
        chain, cursor = [], record.index
        while cursor >= 0:
            chain.append(oracle[cursor])
            cursor = oracle[cursor].predecessor
        assert lat.backtrace(record.index) == chain[::-1]
    for frame in range(-1, 62):
        assert lat.exits_at(frame) == [e for e in oracle if e.exit_frame == frame]
        earlier = [e.exit_frame for e in oracle if e.exit_frame <= frame]
        assert lat.last_frame_with_exits(frame) == (max(earlier) if earlier else None)
    assert lat.backtrace(-1) == []
