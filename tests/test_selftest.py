"""Each check of `skkinv.selftest` fails, with a witness, on a planted fault.

A case replaces one library function with a plausible wrong version through
monkeypatch and runs one check on a fixed seed. A check that passed whatever
the library did would fail its case here.
"""

import pytest

from skkinv import cobordism as cb, selftest, simplicial, skk, surfaces as sf, tqft
from skkinv import virtual_bordism as vb


def _homology_loses_the_top_class(monkeypatch):
    real = simplicial.homology

    def homology(K, coefficients="integers"):
        profile = real(K, coefficients)
        return simplicial.HomologyProfile(profile.betti[:-1] + (0,), profile.torsion)

    monkeypatch.setattr(simplicial, "homology", homology)


def _signature_of_the_reversed_orientation(monkeypatch):
    real = skk.complex_signature
    monkeypatch.setattr(skk, "complex_signature", lambda K: -real(K))


def _i_n_without_the_zero_case(monkeypatch):
    monkeypatch.setattr(skk, "i_n_table", lambda n: "Z" if n % 2 == 0 else "Z/2")


def _nonseparating_cut_keeps_its_genus(monkeypatch):
    # the one cut step behind `cut`, `apply_script` and `trace_script`
    real = sf._Editor.cut

    def cut(editor, spec):
        real(editor, spec)
        if isinstance(spec.kind, sf.NonSeparating):
            editor.pieces[spec.component].genus += 1

    monkeypatch.setattr(sf._Editor, "cut", cut)


def _glued_genus_one_too_high(monkeypatch):
    # the one paste step behind `paste`, `apply_script` and `trace_script`;
    # the pieces a matching touches that survive it are the glued components
    real = sf._Editor.paste

    def paste(editor, spec):
        touched = {editor.owner.get(c) for pair in spec.pairs for c in pair}
        real(editor, spec)
        for piece in editor.pieces:
            if piece in touched:
                piece.genus += 1

    monkeypatch.setattr(sf._Editor, "paste", paste)


def _class_counts_components(monkeypatch):
    real = skk.skk_class
    monkeypatch.setattr(skk, "skk_class", lambda M: real(M) + len(M.components))


def _pants_row_is_zero(monkeypatch):
    monkeypatch.setattr(tqft.InvertibleTQFT2, "EXPONENTS",
                        {**tqft.InvertibleTQFT2.EXPONENTS, "pants": (0, 0)})


def _kernel_reads_only_the_sign(monkeypatch):
    monkeypatch.setattr(skk, "kernel_membership", lambda T: (T.cap * T.cup).sign == 1)


def _kernel_asks_for_one(monkeypatch):
    monkeypatch.setattr(skk, "kernel_membership", lambda T: (T.cap * T.cup).is_one)


def _restriction_squares_the_cap(monkeypatch):
    monkeypatch.setattr(skk, "psi", lambda T: T.cap * T.cap)


def _restriction_keeps_the_sign(monkeypatch):
    monkeypatch.setattr(skk, "abs_psi", skk.psi)


def _sampled_words_get_an_extra_outgoing_circle(monkeypatch):
    real = tqft.random_word_with_arities
    monkeypatch.setattr(tqft, "random_word_with_arities",
                        lambda rng, in_arity, out_arity: real(rng, in_arity, out_arity + 1))


def _circles_count_as_arcs(monkeypatch):
    real = cb.CobordismClass.total_chi
    monkeypatch.setattr(cb.CobordismClass, "total_chi",
                        lambda nf: len(nf.components) if nf.dim == 1 else real(nf))


def _restriction_forgets_the_cup(monkeypatch):
    monkeypatch.setattr(skk, "abs_psi", lambda T: T.cap.abs_value())


def _capping_choice_is_ignored(monkeypatch):
    monkeypatch.setattr(vb.Catalog, "with_b_sigma", lambda catalog, label, piece: catalog)


def _corruption_is_honest(monkeypatch):
    monkeypatch.setattr(tqft, "corrupted_tqft", lambda T: T)


# check name -> (fault, seed arguments of the check)
FAULTS = {
    "homology_fixtures": (_homology_loses_the_top_class, ()),
    "sk_classification": (_signature_of_the_reversed_orientation, ()),
    "i_n_table": (_i_n_without_the_zero_case, ()),
    "cutpaste_chi_invariance": (_nonseparating_cut_keeps_its_genus, (0,)),
    "skk_error_term": (_class_counts_components, (0,)),
    "tqft_axiom_grid": (_pants_row_is_zero, (0,)),
    "closed_value_law": (_pants_row_is_zero, (0,)),
    "kernel_theorem": (_kernel_reads_only_the_sign, (0,)),
    "boundary_dependence": (_sampled_words_get_an_extra_outgoing_circle, (0,)),
    "theta_multiplicativity": (_circles_count_as_arcs, (0,)),
    "lemma_relation": (_glued_genus_one_too_high, (0,)),
    "split_sequence": (_restriction_forgets_the_cup, (0,)),
    "bsigma_demo": (_capping_choice_is_ignored, ()),
    "negative_controls": (_corruption_is_honest, (0,)),
}


def test_every_check_has_a_fault():
    assert list(FAULTS) == [c.name for c in selftest.run_selftest(0).checks]


def _assert_fault_fails_the_check(monkeypatch, name, plant, args):
    assert getattr(selftest, name)(*args).passed
    plant(monkeypatch)
    result = getattr(selftest, name)(*args)
    assert (result.name, result.passed) == (name, False)
    assert result.witness


@pytest.mark.parametrize("name", FAULTS)
def test_planted_fault_fails_the_check(monkeypatch, name):
    plant, args = FAULTS[name]
    _assert_fault_fails_the_check(monkeypatch, name, plant, args)


# Faults that only a grid point with cap * cup = -1 shows: the signed grid
# must hold a sign-valued TQFT of sign -1.
@pytest.mark.parametrize("plant", [_kernel_asks_for_one, _restriction_keeps_the_sign],
                         ids=lambda plant: plant.__name__.strip("_"))
@pytest.mark.parametrize("name", ["kernel_theorem", "split_sequence"])
def test_sign_fault_fails_the_check(monkeypatch, name, plant):
    _assert_fault_fails_the_check(monkeypatch, name, plant, (0,))


# Faults in the model behind a check, each caught by a check that the
# fault table above plants differently.
@pytest.mark.parametrize("name, plant", [
    ("closed_value_law", _restriction_squares_the_cap),
    ("cutpaste_chi_invariance", _glued_genus_one_too_high),
    ("skk_error_term", _glued_genus_one_too_high),
], ids=lambda x: x if isinstance(x, str) else x.__name__.strip("_"))
def test_model_fault_fails_the_check(monkeypatch, name, plant):
    _assert_fault_fails_the_check(monkeypatch, name, plant, (0,))


def test_closed_words_off_the_kernel_fail_the_check_not_the_command(monkeypatch):
    _pants_row_is_zero(monkeypatch)
    result = selftest.boundary_dependence(0)
    assert not result.passed
    assert result.witness.startswith("(cap=2, cup=1/2): closed word ")
