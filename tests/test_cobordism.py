"""Cobordism words: parsing, composition, tensor, and normal forms."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from skkinv import cobordism as cb

seeds = st.integers(min_value=0, max_value=2 ** 31)


def chi_from_generators(M):
    """Euler characteristic of a dimension-2 word from its generator counts."""
    return sum(cb.CHI_2[g] * n for g, n in M.generator_counts().items())


class TestParse:
    def test_sphere_word(self):
        w = cb.parse_word("cap ; cup")
        assert w.in_arity == 0 and w.out_arity == 0

    def test_two_caps_then_pants(self):
        w = cb.parse_word("cap | cap ; pants")
        assert w.in_arity == 0 and w.out_arity == 1

    def test_arity_mismatch(self):
        with pytest.raises(cb.ArityMismatch):
            cb.parse_word("pants ; pants")

    def test_unknown_generator_position(self):
        with pytest.raises(cb.WordSyntaxError) as err:
            cb.parse_word("cap ; wrong")
        assert err.value.position == 6

    def test_empty_generator(self):
        with pytest.raises(cb.WordSyntaxError):
            cb.parse_word("cap ; ; cup")

    def test_dimension_filter(self):
        with pytest.raises(cb.WordSyntaxError):
            cb.parse_word("acap", dim=2)
        w = cb.parse_word("acap ; acup", dim=1)
        assert w.dim == 1

    def test_whitespace_insensitive(self):
        assert cb.parse_word("cap;cup") == cb.parse_word("  cap  ;   cup ")


class TestCompose:
    def test_sphere_from_disks(self):
        w = cb.compose(cb.parse_word("cap"), cb.parse_word("cup"))
        assert cb.normal_form(w).closed_genera() == (0,)

    def test_genus_one_tube(self):
        w = cb.compose(cb.parse_word("copants"), cb.parse_word("pants"))
        nf = cb.normal_form(w)
        assert len(nf.components) == 1
        assert nf.components[0].genus == 1
        assert chi_from_generators(w) == -2

    def test_identity_law(self):
        M = cb.parse_word("copants ; pants")
        cylinder = cb.identity_word(M.out_arity)
        assert cb.normal_form(cb.compose(M, cylinder)) == cb.normal_form(M)

    def test_arity_check(self):
        with pytest.raises(cb.ArityMismatch):
            cb.compose(cb.parse_word("cap"), cb.parse_word("pants"))

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_associative_normal_forms(self, seed):
        rng = random.Random(seed)
        A = cb.random_word(rng)
        B = cb.random_word(rng, start_arity=A.out_arity)
        C = cb.random_word(rng, start_arity=B.out_arity)
        left = cb.compose(cb.compose(A, B), C)
        right = cb.compose(A, cb.compose(B, C))
        assert cb.normal_form(left) == cb.normal_form(right)


class TestTensor:
    def test_caps_side_by_side(self):
        t = cb.tensor(cb.parse_word("cap"), cb.parse_word("cap"))
        assert t.layers == (("cap", "cap"),)

    def test_empty_identity(self):
        M = cb.parse_word("cap ; copants")
        assert cb.tensor(M, cb.empty_word()) == M
        assert cb.tensor(cb.empty_word(), M) == M

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_normal_form_is_shifted_union(self, seed):
        rng = random.Random(seed)
        M = cb.random_word(rng)
        N = cb.random_word(rng)
        t = cb.normal_form(cb.tensor(M, N))
        m, n = cb.normal_form(M), cb.normal_form(N)
        shifted = [
            cb.ComponentClass(
                c.genus,
                tuple(p + M.in_arity for p in c.in_positions),
                tuple(p + M.out_arity for p in c.out_positions),
            )
            for c in n.components
        ]
        expected = sorted(
            list(m.components) + shifted,
            key=lambda c: (c.in_positions, c.out_positions,
                           -1 if c.genus is None else c.genus),
        )
        assert list(t.components) == expected

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_interchange_law(self, seed):
        rng = random.Random(seed)
        A = cb.random_word(rng)
        C = cb.random_word(rng, start_arity=A.out_arity)
        B = cb.random_word(rng)
        D = cb.random_word(rng, start_arity=B.out_arity)
        left = cb.compose(cb.tensor(A, B), cb.tensor(C, D))
        right = cb.tensor(cb.compose(A, C), cb.compose(B, D))
        assert cb.normal_form(left) == cb.normal_form(right)


class TestNormalForm:
    def test_sphere(self):
        nf = cb.normal_form(cb.parse_word("cap ; cup"))
        assert nf.components == (cb.ComponentClass(0, (), ()),)

    def test_genus_one_tube(self):
        nf = cb.normal_form(cb.parse_word("copants ; pants"))
        assert nf.components == (cb.ComponentClass(1, (0,), (0,)),)

    def test_disk(self):
        nf = cb.normal_form(cb.parse_word("cap | cap ; pants"))
        assert nf.components == (cb.ComponentClass(0, (), (0,)),)
        assert nf.total_chi() == 1

    def test_closed_genus_series(self):
        for g in range(4):
            nf = cb.normal_form(cb.closed_genus_word(g))
            assert nf.closed_genera() == (g,)

    def test_chi_consistency(self):
        rng = random.Random(5)
        for _ in range(200):
            w = cb.random_word(rng)
            assert chi_from_generators(w) == cb.normal_form(w).total_chi()

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_rewrites(self, seed):
        rng = random.Random(seed)
        w = cb.random_word(rng)
        rewritten = w
        for _ in range(4):
            rewritten = cb.equivalent_rewrite(rng, rewritten)
        assert cb.normal_form(rewritten) == cb.normal_form(w)


def widths_reference(M):
    """Wire count at each boundary, summed from the generator table."""
    if not M.layers:
        return (0,)
    first_in = sum(cb.GENERATORS[g][1] for g in M.layers[0])
    return (first_in,) + tuple(sum(cb.GENERATORS[g][2] for g in layer) for layer in M.layers)


class TestWidths:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_words(self, seed):
        rng = random.Random(seed)
        for dim in (1, 2):
            M = cb.random_word(rng, dim=dim)
            assert M.widths == widths_reference(M)
            assert (M.in_arity, M.out_arity) == (M.widths[0], M.widths[-1])
            for i, layer in enumerate(M.layers):
                assert sum(cb.GENERATORS[g][1] for g in layer) == M.widths[i]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_word(self, dim):
        M = cb.empty_word(dim)
        assert M.widths == widths_reference(M) == (0,)
        assert (M.in_arity, M.out_arity) == (0, 0)

    def test_equality_hash_and_repr_ignore_widths(self):
        M = cb.parse_word("cap | cap ; pants")
        twin = cb.CobordismWord(2, M.layers)
        object.__setattr__(twin, "widths", (7, 7))
        assert twin == M and hash(twin) == hash(M)
        assert repr(twin) == repr(M) == f"CobordismWord(dim=2, layers={M.layers!r})"


class TestEquivalent:
    def test_cylinder_vs_genus_tube(self):
        tube = cb.parse_word("copants ; pants")
        assert cb.normal_form(cb.parse_word("id")) != cb.normal_form(tube)

    def test_swap_squared(self):
        twice = cb.parse_word("swap ; swap")
        assert cb.normal_form(twice) == cb.normal_form(cb.parse_word("id | id"))

    def test_reflexive(self):
        w = cb.parse_word("cap ; copants ; pants ; cup")
        assert cb.normal_form(w) == cb.normal_form(w)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_connected_classification_soundness(self, seed):
        """Connected words with one boundary circle each way and equal genus
        are equivalent regardless of how they were built."""
        rng = random.Random(seed)
        g = rng.randrange(0, 4)
        tube = [("copants",), ("pants",)] * g
        left = cb.CobordismWord(2, tuple(tube) or (("id",),))
        w = cb.parse_word("id")
        for _ in range(g):
            w = cb.compose(w, cb.parse_word("copants ; pants"))
        w = cb.equivalent_rewrite(rng, w)
        assert cb.normal_form(left) == cb.normal_form(w)


class TestDimensionOne:
    def test_circle(self):
        nf = cb.normal_form(cb.parse_word("acap ; acup", dim=1))
        assert nf.circle_count == 1
        assert nf.arc_count == 0

    def test_arc(self):
        nf = cb.normal_form(cb.parse_word("acap", dim=1))
        assert nf.arc_count == 1
        assert nf.total_chi() == 1

    def test_point_identity(self):
        nf = cb.normal_form(cb.parse_word("pid | pid", dim=1))
        assert nf.arc_count == 2

    def test_mixed_dimensions_rejected(self):
        with pytest.raises((cb.WrongDimension, cb.WordSyntaxError)):
            cb.parse_word("cap ; pid")
        with pytest.raises(cb.WrongDimension):
            cb.compose(cb.parse_word("cap ; cup"), cb.parse_word("acap ; acup", dim=1))
