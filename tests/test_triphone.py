"""Tests for repro.lexicon.triphone — context expansion and tying."""

import pytest

from repro.lexicon.phones import default_phone_set
from repro.lexicon.triphone import SenoneTying, Triphone, word_to_triphones


class TestTriphone:
    def test_name_roundtrip(self):
        tri = Triphone(base="AE", left="K", right="T")
        assert tri.name == "K-AE+T"
        assert Triphone.parse(tri.name) == tri

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            Triphone.parse("AE")

    def test_word_expansion_contexts(self):
        tris = word_to_triphones(("K", "AE", "T"))
        assert [t.name for t in tris] == ["SIL-K+AE", "K-AE+T", "AE-T+SIL"]

    def test_custom_boundary_context(self):
        tris = word_to_triphones(("K",), left_context="AA", right_context="IY")
        assert tris[0].name == "AA-K+IY"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            word_to_triphones(())

    def test_single_phone_word(self):
        tris = word_to_triphones(("AA",))
        assert len(tris) == 1
        assert tris[0].left == "SIL" and tris[0].right == "SIL"


class TestSenoneTying:
    def test_paper_budget(self):
        tying = SenoneTying(num_senones=6000)
        assert tying.num_senones == 6000
        assert tying.ci_senones == 51 * 3

    def test_budget_below_ci_rejected(self):
        with pytest.raises(ValueError):
            SenoneTying(num_senones=100)

    def test_ci_senones_dense_block(self):
        tying = SenoneTying(num_senones=6000)
        ps = default_phone_set()
        ids = {tying.ci_senone(p.name, s) for p in ps for s in range(3)}
        assert ids == set(range(51 * 3))

    def test_cd_ids_above_ci_block(self):
        tying = SenoneTying(num_senones=6000)
        tri = Triphone(base="AE", left="K", right="T")
        for s in range(3):
            assert tying.senone(tri, s) >= tying.ci_senones

    def test_all_ids_in_budget(self):
        tying = SenoneTying(num_senones=6000)
        ps = default_phone_set()
        names = [p.name for p in ps]
        for base in names[:8]:
            for left in names[::7]:
                for right in names[::11]:
                    tri = Triphone(base=base, left=left, right=right)
                    for sid in tying.senone_ids(tri):
                        assert 0 <= sid < 6000

    def test_deterministic(self):
        a = SenoneTying(num_senones=6000)
        b = SenoneTying(num_senones=6000)
        tri = Triphone(base="AE", left="K", right="T")
        assert a.senone_ids(tri) == b.senone_ids(tri)

    def test_context_classes_drive_sharing(self):
        """Same context classes -> same senone (that's the tying)."""
        tying = SenoneTying(num_senones=6000)
        # K and T are both stops, IY and AA both vowels.
        a = Triphone(base="AE", left="K", right="IY")
        b = Triphone(base="AE", left="T", right="AA")
        assert tying.senone_ids(a) == tying.senone_ids(b)

    def test_different_state_different_senone(self):
        tying = SenoneTying(num_senones=6000)
        tri = Triphone(base="AE", left="K", right="T")
        ids = tying.senone_ids(tri)
        assert len(set(ids)) == 3

    def test_silence_is_context_independent(self):
        tying = SenoneTying(num_senones=6000)
        a = Triphone(base="SIL", left="K", right="T")
        b = Triphone(base="SIL", left="AA", right="IY")
        assert tying.senone_ids(a) == tying.senone_ids(b)
        assert tying.senone(a, 0) < tying.ci_senones

    def test_zero_cd_budget_collapses_to_ci(self):
        tying = SenoneTying(num_senones=51 * 3)
        tri = Triphone(base="AE", left="K", right="T")
        assert tying.senone(tri, 1) == tying.ci_senone("AE", 1)

    def test_ci_parent(self):
        tying = SenoneTying(num_senones=6000)
        tri = Triphone(base="AE", left="K", right="T")
        for s in range(3):
            cd = tying.senone(tri, s)
            assert tying.ci_parent(cd) == tying.ci_senone("AE", s)

    def test_ci_parent_of_ci_is_itself(self):
        tying = SenoneTying(num_senones=6000)
        assert tying.ci_parent(10) == 10

    def test_ci_parent_range_check(self):
        with pytest.raises(IndexError):
            SenoneTying(num_senones=6000).ci_parent(6000)

    def test_state_range_check(self):
        tying = SenoneTying(num_senones=6000)
        with pytest.raises(ValueError):
            tying.ci_senone("AA", 3)

    def test_tying_formula(self):
        """ci_count + (phone * states + state) * cd_per_slot + cluster,
        cluster = (left class * 8 + right class) % cd_per_slot: AE is
        phone 1, 6000 senones leave 38 per slot, K and T are stops
        (class 1), IY a vowel (class 0)."""
        tying = SenoneTying(num_senones=6000)
        assert tying.senone(Triphone(base="AE", left="K", right="T"), 1) == 153 + 4 * 38 + 9
        assert tying.senone_ids(Triphone(base="AE", left="K", right="IY")) == (275, 313, 351)

    def test_senone_table_is_many_senone_ids(self):
        tying = SenoneTying(num_senones=1000)
        names = default_phone_set().names()
        tris = [Triphone(base=b, left=names[(i * 7) % 51], right=names[(i * 11) % 51])
                for i, b in enumerate(names)]
        index = tying.phone_indices
        table = tying.senone_table(index(t.base for t in tris), index(t.left for t in tris),
                                   index(t.right for t in tris))
        assert table.shape == (len(tris), 3)
        assert [tuple(row) for row in table.tolist()] == [tying.senone_ids(t) for t in tris]

    def test_unknown_phone_rejected(self):
        tying = SenoneTying(num_senones=6000)
        with pytest.raises(KeyError, match="XX"):
            tying.senone(Triphone(base="AE", left="XX", right="T"), 0)

    @pytest.mark.parametrize("num_senones", [6000, 1000, 200, 153])
    def test_ci_parents_is_every_ci_parent(self, num_senones):
        """200 senones leave no full CD slot (cd_per_slot = 0): the 47
        remainder IDs map to the last CI senone, as past any last slot."""
        tying = SenoneTying(num_senones=num_senones)
        parents = tying.ci_parents()
        assert parents.shape == (num_senones,) and not parents.flags.writeable
        assert parents.tolist() == [tying.ci_parent(s) for s in range(num_senones)]
        assert parents[:153].tolist() == list(range(153))
        assert parents.max() <= 152
        if num_senones == 200:
            assert parents[153:].tolist() == [152] * 47
