"""Cut-and-paste bookkeeping on surfaces in classification normal form."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from skkinv import surfaces as sf


class TestChi:
    def test_sphere(self):
        assert sf.chi(sf.sphere()) == 2

    def test_pair_of_pants(self):
        assert sf.chi(sf.surface((0, 3))) == -1

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
        result = sf.paste(sf.surface((0, 2)), sf.PasteSpec(((0, 1),)))
        assert result.as_multiset() == ((1, 0),)

    def test_two_disks_to_sphere(self):
        union = sf.disjoint_union(sf.disk(), sf.disk())
        result = sf.paste(union, sf.PasteSpec(((0, 1),)))
        assert result.as_multiset() == ((0, 0),)

    def test_pants_self_paste(self):
        result = sf.paste(sf.surface((0, 3)), sf.PasteSpec(((0, 1),)))
        assert result.as_multiset() == ((1, 1),)

    def test_self_match_rejected(self):
        with pytest.raises(sf.InvalidMatching):
            sf.paste(sf.surface((0, 2)), sf.PasteSpec(((0, 0),)))

    def test_double_use_rejected(self):
        with pytest.raises(sf.InvalidMatching):
            sf.paste(sf.surface((0, 3)), sf.PasteSpec(((0, 1), (1, 2))))

    def test_missing_circle_rejected(self):
        with pytest.raises(sf.InvalidMatching):
            sf.paste(sf.surface((0, 2)), sf.PasteSpec(((0, 9),)))


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


def random_matching(seed):
    """A random surface, cut a few times, and a random matching of its circles."""
    rng = random.Random(seed)
    S = sf.random_surface(rng, max_components=5)
    for _ in range(rng.randrange(0, 4)):  # cuts renumber circles out of order
        move = sf.random_move(rng, S)
        if isinstance(move, sf.CutSpec):
            S = sf.cut(S, move)
    ids = list(S.circle_ids())
    rng.shuffle(ids)
    pairs = tuple((ids[2 * k], ids[2 * k + 1]) for k in range(rng.randrange(len(ids) // 2 + 1)))
    return S, pairs


class TestPasteReference:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_matchings(self, seed):
        S, pairs = random_matching(seed)
        assert sf.paste(S, sf.PasteSpec(pairs)) == paste_reference(S, pairs)

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=200, deadline=None)
    def test_glued_genus_is_whole(self, seed):
        """For each cluster a paste glues, 2 - (circles left) - chi is
        2(G + k - m + 1) for m members of genera summing to G and k pairs:
        even and non-negative, so the paste never meets a bad genus."""
        S, pairs = random_matching(seed)
        owner = {c: i for i, comp in enumerate(S.components) for c in comp.circles}
        cluster_of = list(range(len(S.components)))
        for a, b in pairs:
            old, new = cluster_of[owner[a]], cluster_of[owner[b]]
            cluster_of = [new if x == old else x for x in cluster_of]
        used = {c for pair in pairs for c in pair}
        for cluster in {cluster_of[owner[a]] for a, _ in pairs}:
            members = [comp for i, comp in enumerate(S.components) if cluster_of[i] == cluster]
            k = sum(1 for a, _ in pairs if cluster_of[owner[a]] == cluster)
            left = sum(1 for m in members for c in m.circles if c not in used)
            chi = sum(2 - 2 * m.genus - m.boundary_count for m in members)
            twice_genus = 2 - left - chi
            assert twice_genus == 2 * (sum(m.genus for m in members) + k - len(members) + 1)
            assert twice_genus % 2 == 0 and twice_genus >= 0
        sf.paste(S, sf.PasteSpec(pairs))

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


def cut_reference(S, spec):
    """A cut written out on frozen components, one new `Surface` per call."""
    comp, nxt, i = S.components[spec.component], S.next_circle, spec.component
    if isinstance(spec.kind, sf.NonSeparating):
        pieces = (sf.Component(comp.genus - 1, comp.circles + (nxt, nxt + 1)),)
    else:
        chosen, g1 = spec.kind.circles_first, spec.kind.genus_first
        pieces = (sf.Component(g1, tuple(c for c in comp.circles if c in chosen) + (nxt,)),
                  sf.Component(comp.genus - g1,
                               tuple(c for c in comp.circles if c not in chosen) + (nxt + 1,)))
    return sf.Surface(S.components[:i] + pieces + S.components[i + 1:], nxt + 2)


def random_script(rng, length):
    """A random start surface, a script of valid random moves, and the
    surface after each move by the references above."""
    S = sf.random_surface(rng, max_components=5)
    moves, surfaces = [], [S]
    for _ in range(length):
        move = sf.random_move(rng, S)
        if move is None:
            break
        if isinstance(move, sf.CutSpec):
            S = cut_reference(S, move)
        else:
            S = paste_reference(S, move.pairs)
        moves.append(move)
        surfaces.append(S)
    return moves, surfaces


def invalid_moves(S):
    """(move, exception class, message) for moves that do not apply to S."""
    n, nxt = len(S.components), S.next_circle
    cases = [(sf.CutSpec(n, sf.NonSeparating()), sf.InvalidSpec, f"no component {n}"),
             (sf.CutSpec(0, sf.Separating(S.components[0].genus + 1)), sf.InvalidSpec,
              f"genus split {S.components[0].genus + 1} out of range"
              f" for genus {S.components[0].genus}"),
             (sf.CutSpec(0, sf.Separating(0, frozenset({nxt}))), sf.InvalidSpec,
              "partition names circles absent from the component"),
             (sf.PasteSpec(((nxt, nxt),)), sf.InvalidMatching, f"circle {nxt} matched with itself"),
             (sf.PasteSpec(((nxt, nxt + 1), (nxt + 1, nxt + 2))), sf.InvalidMatching,
              f"circle {nxt + 1} matched twice"),
             (sf.PasteSpec(((nxt + 1, nxt),)), sf.InvalidMatching, f"no circle {nxt + 1}"),
             ("paste 0~1", sf.ScriptError, "unknown move object 'paste 0~1'")]
    cases += [(sf.CutSpec(i, sf.NonSeparating()), sf.InvalidSpec,
               "non-separating curve requires genus >= 1")
              for i, comp in enumerate(S.components) if comp.genus == 0][:1]
    ids = S.circle_ids()
    if ids:
        cases.append((sf.PasteSpec(((ids[0], nxt),)), sf.InvalidMatching, f"no circle {nxt}"))
    glued = sorted(set(range(nxt)) - set(ids))  # circles an earlier paste used up
    if glued:
        cases += [(sf.PasteSpec(((glued[0], nxt),)), sf.InvalidMatching, f"no circle {glued[0]}"),
                  (sf.CutSpec(0, sf.Separating(0, frozenset(glued[:1]))), sf.InvalidSpec,
                   "partition names circles absent from the component")]
    return cases


class TestTraceScript:
    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_steps_match_the_per_move_path(self, seed):
        rng = random.Random(seed)
        moves, surfaces = random_script(rng, rng.randrange(0, 40))
        S, expected = surfaces[0], [(sf.chi(surfaces[0]), surfaces[0].as_multiset())]
        for move in moves:
            S = sf.apply_script(S, [move])
            expected.append((sf.chi(S), S.as_multiset()))
        assert list(sf.trace_script(surfaces[0], moves)) == expected
        assert expected == [(sf.chi(R), R.as_multiset()) for R in surfaces]

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_apply_script_keeps_circle_ids(self, seed):
        rng = random.Random(seed)
        moves, surfaces = random_script(rng, rng.randrange(0, 40))
        assert sf.apply_script(surfaces[0], moves) == surfaces[-1]
        for move, before, after in zip(moves, surfaces, surfaces[1:]):
            single = sf.cut if isinstance(move, sf.CutSpec) else sf.paste
            assert single(before, move) == sf.apply_script(before, [move]) == after

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_invalid_move_raises_after_the_steps_before_it(self, seed):
        rng = random.Random(seed)
        moves, surfaces = random_script(rng, rng.randrange(0, 20))
        k = rng.randrange(len(moves) + 1)
        for bad, error, message in invalid_moves(surfaces[k]):
            script = moves[:k] + [bad] + moves[k:]
            steps = []
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                steps.extend(sf.trace_script(surfaces[0], script))
            assert len(steps) == k + 1
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                sf.apply_script(surfaces[0], script)


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
        "cut 0 sep 0 - extra",
        "paste 0-1",
        "paste",
    ])
    def test_malformed_lines(self, bad):
        with pytest.raises(sf.ScriptError):
            sf.parse_script(bad)
