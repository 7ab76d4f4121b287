"""Cut-and-paste bookkeeping on surfaces in classification normal form."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from skkinv import surfaces as sf


class TestChi:
    def test_sphere(self):
        assert sf.chi(sf.sphere()) == 2

    def test_pair_of_pants(self):
        assert sf.chi(sf.pair_of_pants()) == -1

    def test_genus_two(self):
        assert sf.chi(sf.genus_surface(2)) == -2


class TestCut:
    def test_torus_nonseparating(self):
        result = sf.cut(sf.torus(), sf.CutSpec(0, sf.NonSeparating()))
        assert result.as_multiset() == ((0, 2),)
        assert sf.chi(result) == 0

    def test_sphere_equator(self):
        result = sf.cut(sf.sphere(), sf.CutSpec(0, sf.Separating(0)))
        assert result.as_multiset() == ((0, 1), (0, 1))

    def test_genus_two_split(self):
        result = sf.cut(sf.genus_surface(2), sf.CutSpec(0, sf.Separating(1)))
        assert result.as_multiset() == ((1, 1), (1, 1))
        assert sf.chi(result) == -2

    def test_nonseparating_needs_genus(self):
        with pytest.raises(sf.InvalidSpec):
            sf.cut(sf.sphere(), sf.CutSpec(0, sf.NonSeparating()))

    def test_bad_component(self):
        with pytest.raises(sf.InvalidSpec):
            sf.cut(sf.sphere(), sf.CutSpec(3, sf.NonSeparating()))

    def test_bad_genus_split(self):
        with pytest.raises(sf.InvalidSpec):
            sf.cut(sf.torus(), sf.CutSpec(0, sf.Separating(2)))

    def test_partition_must_use_own_circles(self):
        with pytest.raises(sf.InvalidSpec):
            sf.cut(sf.torus(), sf.CutSpec(0, sf.Separating(0, frozenset({7}))))


class TestPaste:
    def test_cylinder_to_torus(self):
        result = sf.paste(sf.cylinder(), sf.PasteSpec(((0, 1),)))
        assert result.as_multiset() == ((1, 0),)

    def test_two_disks_to_sphere(self):
        union = sf.disjoint_union(sf.disk(), sf.disk())
        result = sf.paste(union, sf.PasteSpec(((0, 1),)))
        assert result.as_multiset() == ((0, 0),)

    def test_pants_self_paste(self):
        result = sf.paste(sf.pair_of_pants(), sf.PasteSpec(((0, 1),)))
        assert result.as_multiset() == ((1, 1),)

    def test_self_match_rejected(self):
        with pytest.raises(sf.InvalidMatching):
            sf.paste(sf.cylinder(), sf.PasteSpec(((0, 0),)))

    def test_double_use_rejected(self):
        with pytest.raises(sf.InvalidMatching):
            sf.paste(sf.pair_of_pants(), sf.PasteSpec(((0, 1), (1, 2))))

    def test_missing_circle_rejected(self):
        with pytest.raises(sf.InvalidMatching):
            sf.paste(sf.cylinder(), sf.PasteSpec(((0, 9),)))


def paste_reference(S, pairs):
    """Regluing with its own owner map; a cluster of m components joined by
    k pairs has genus (sum of member genera) + k - m + 1."""
    owner = {}
    for i, comp in enumerate(S.components):
        for c in comp.circles:
            owner[c] = i
    clusters = [{i} for i in range(len(S.components))]
    for a, b in pairs:
        first = next(cl for cl in clusters if owner[a] in cl)
        second = next(cl for cl in clusters if owner[b] in cl)
        if first is not second:
            first |= second
            clusters.remove(second)
    used = {c for pair in pairs for c in pair}
    comps = []
    for cluster in sorted(clusters, key=min):
        members = [S.components[i] for i in sorted(cluster)]
        k = sum(1 for a, _ in pairs if owner[a] in cluster)
        genus = sum(m.genus for m in members) + k - len(members) + 1 if k else members[0].genus
        comps.append(sf.Component(genus, tuple(c for m in members for c in m.circles
                                               if c not in used)))
    return sf.Surface(tuple(comps), S.next_circle)


class TestPasteReference:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_matchings(self, seed):
        rng = random.Random(seed)
        S = sf.random_surface(rng, max_components=5)
        for _ in range(rng.randrange(0, 4)):  # cuts renumber circles out of order
            move = sf.random_move(rng, S)
            if isinstance(move, sf.CutSpec):
                S = sf.cut(S, move)
        ids = list(S.circle_ids())
        rng.shuffle(ids)
        pairs = tuple((ids[2 * k], ids[2 * k + 1]) for k in range(rng.randrange(len(ids) // 2 + 1)))
        assert sf.paste(S, sf.PasteSpec(pairs)) == paste_reference(S, pairs)

    @pytest.mark.parametrize("script,message", [
        ("paste 99~1 2~2", "circle 2 matched with itself"),
        ("paste 0~1 99~0", "circle 0 matched twice"),
        ("paste 0~99 98~1", "no circle 99"),
        ("paste 1~2 97~98", "no circle 97"),
    ])
    def test_error_precedence(self, script, message):
        with pytest.raises(sf.InvalidMatching, match=f"^{message}$"):
            sf.apply_script(sf.surface((0, 3)), sf.parse_script(script))


class TestSkEquivalent:
    def test_torus_vs_sphere_plus_genus_two(self):
        left = sf.torus()
        right = sf.disjoint_union(sf.sphere(), sf.genus_surface(2))
        assert sf.chi(left) == sf.chi(right) == 0
        assert sf.sk_equivalent(left, right)

    def test_sphere_vs_torus(self):
        assert not sf.sk_equivalent(sf.sphere(), sf.torus())

    def test_reflexive(self):
        S = sf.genus_surface(3)
        assert sf.sk_equivalent(S, S)

    def test_requires_closed(self):
        with pytest.raises(sf.NotClosedSurface):
            sf.sk_equivalent(sf.disk(), sf.sphere())


class TestDouble:
    def test_disk(self):
        assert sf.double(sf.disk()).as_multiset() == ((0, 0),)

    def test_cylinder(self):
        assert sf.double(sf.cylinder()).as_multiset() == ((1, 0),)

    def test_pair_of_pants(self):
        assert sf.double(sf.pair_of_pants()).as_multiset() == ((2, 0),)

    def test_closed_doubles_to_two_copies(self):
        assert sf.double(sf.torus()).as_multiset() == ((1, 0), (1, 0))

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
    def test_chi_doubles(self, g, b):
        S = sf.surface((g, b))
        assert sf.chi(sf.double(S)) == 2 * sf.chi(S)


class TestMappingTorusDemo:
    def test_returns_torus(self):
        assert sf.mapping_torus_demo().as_multiset() == ((1, 0),)

    def test_cut_gives_cylinder(self):
        cut = sf.cut(sf.mapping_torus_demo(), sf.CutSpec(0, sf.NonSeparating()))
        assert cut.as_multiset() == ((0, 2),)

    def test_round_trip(self):
        cut = sf.cut(sf.mapping_torus_demo(), sf.CutSpec(0, sf.NonSeparating()))
        ids = cut.circle_ids()
        back = sf.paste(cut, sf.PasteSpec(((ids[0], ids[1]),)))
        assert back.as_multiset() == ((1, 0),)


class TestRandomSequences:
    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_chi_preserved_along_moves(self, seed):
        rng = random.Random(seed)
        S = sf.random_surface(rng)
        chi0 = sf.chi(S)
        for _ in range(rng.randrange(1, 12)):
            move = sf.random_move(rng, S)
            if move is None:
                break
            S = sf.apply_script(S, [move])
            assert sf.chi(S) == chi0

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_closed_endpoints_sk_equivalent(self, seed):
        rng = random.Random(seed)
        start = sf.random_surface(rng, max_boundary=0)
        S = start
        for _ in range(8):
            move = sf.random_move(rng, S)
            if move is None:
                break
            S = sf.apply_script(S, [move])
        if S.is_closed:
            assert sf.sk_equivalent(start, S)

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_cut_then_restore(self, seed):
        rng = random.Random(seed)
        S = sf.random_surface(rng, max_genus=3, max_components=2)
        comp = rng.randrange(len(S.components))
        c = S.components[comp]
        if c.genus >= 1 and rng.random() < 0.5:
            spec = sf.CutSpec(comp, sf.NonSeparating())
        else:
            chosen = frozenset(x for x in c.circles if rng.random() < 0.5)
            spec = sf.CutSpec(comp, sf.Separating(rng.randrange(c.genus + 1), chosen))
        after = sf.cut(S, spec)
        restored_ids = (after.next_circle - 2, after.next_circle - 1)
        restored = sf.paste(after, sf.PasteSpec((restored_ids,)))
        assert restored.as_multiset() == S.as_multiset()

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_error_term_depends_only_on_gluings(self, seed):
        """Regluing the same boundary two ways changes chi equally for any pieces."""
        rng = random.Random(seed)
        k = rng.randrange(1, 4)

        def cut_surface():
            S = sf.surface((rng.randrange(k, k + 3), 0))
            for _ in range(k):
                comp = rng.randrange(len(S.components))
                c = S.components[comp]
                if c.genus >= 1:
                    S = sf.cut(S, sf.CutSpec(comp, sf.NonSeparating()))
                else:
                    S = sf.cut(S, sf.CutSpec(comp, sf.Separating(0)))
            return S

        X, Y = cut_surface(), cut_surface()
        positions = list(range(2 * k))
        rng.shuffle(positions)
        f_pairs = [(positions[2 * i], positions[2 * i + 1]) for i in range(k)]
        rng.shuffle(positions)
        g_pairs = [(positions[2 * i], positions[2 * i + 1]) for i in range(k)]

        def chi_after(S, pairing):
            ids = S.circle_ids()
            glued = sf.paste(S, sf.PasteSpec(tuple((ids[a], ids[b]) for a, b in pairing)))
            return sf.chi(glued)

        assert (chi_after(X, f_pairs) - chi_after(X, g_pairs)
                == chi_after(Y, f_pairs) - chi_after(Y, g_pairs))


class TestScriptFormat:
    def test_parse_and_apply(self):
        text = """
        # cut the handle, then close it again
        cut 0 nonsep
        paste 0~1
        """
        moves = sf.parse_script(text)
        assert len(moves) == 2
        result = sf.apply_script(sf.torus(), moves)
        assert result.as_multiset() == ((1, 0),)

    def test_separating_with_partition(self):
        moves = sf.parse_script("cut 0 sep 1 -\n")
        result = sf.apply_script(sf.genus_surface(2), moves)
        assert result.as_multiset() == ((1, 1), (1, 1))

    def test_separating_with_circles(self):
        S = sf.surface((0, 2))
        moves = sf.parse_script("cut 0 sep 0 0\n")
        result = sf.apply_script(S, moves)
        assert result.as_multiset() == ((0, 2), (0, 2))

    def test_multi_pair_paste(self):
        S = sf.surface((0, 4))
        moves = sf.parse_script("paste 0~1 2~3")
        result = sf.apply_script(S, moves)
        assert result.as_multiset() == ((2, 0),)

    @pytest.mark.parametrize("bad", [
        "chop 0 nonsep",
        "cut x nonsep",
        "cut 0 sep",
        "cut 0 nonsep extra",
        "paste 0-1",
        "paste",
    ])
    def test_malformed_lines(self, bad):
        with pytest.raises(sf.ScriptError):
            sf.parse_script(bad)
