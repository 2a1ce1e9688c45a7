"""A mutation gate for the fast paths: each test plants one named fault in
the library, in-process, and asserts that the oracle test meant to catch
it fails.  ``monkeypatch`` undoes the fault when the test ends, and every
check runs on fixed small inputs.  A fault in a quotient build is planted
through ``plant``, which also empties the process-wide quotient caches, so
no mutant quotient outlives its test."""

import inspect
import textwrap
from bisect import bisect_right

import pytest

import test_alexander
import test_arrows
import test_determinants
import test_expansion
import test_freegroup
import test_gauss
import test_jacobi
import test_lieweights
import test_wbraid
from wknots import (alexander, arrows, expansion, freegroup, gauss, jacobi,
                    lieweights, linalg, rings, wbraid)

# what an oracle test that meets a planted fault raises: a failed assert,
# or pytest.raises finding no error
CAUGHT = (AssertionError, pytest.fail.Exception)


def mutant(fn, old, new):
    """`fn` recompiled from its source with the one occurrence of `old`
    replaced by `new`, in `fn`'s own module namespace."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn),
                 "exec"), fn.__globals__, namespace)
    return namespace[fn.__name__]


def in_place(setattr, fn, old, new):
    """Plant `mutant(fn, old, new)` in `fn` itself, so that the modules
    that imported `fn` by name run the fault too."""
    setattr(fn, "__code__", mutant(fn, old, new).__code__)


def test_arcs_off_by_one(monkeypatch):
    monkeypatch.setattr(alexander, "bisect_left", bisect_right)
    with pytest.raises(AssertionError):
        test_alexander.test_wirtinger_arcs_match_union_find()


@pytest.mark.parametrize("check", [
    lambda: test_determinants.test_coefficient_at_the_bound((7, 1, 9), 1),
    lambda: test_determinants.test_coefficient_at_the_bound(
        (10 ** 6, 10 ** 6), -1),
    lambda: test_determinants.test_hadamard_matrix_at_the_bound(3, 1),
], ids=["at-the-bound", "at-the-bound-wide", "sylvester"])
def test_kronecker_base_below_hadamard(check, monkeypatch):
    # H² read as 1: B = 2, far below the bits the coefficients need
    monkeypatch.setattr(linalg, "prod", lambda _: 1)
    with pytest.raises(AssertionError):
        check()


@pytest.mark.parametrize("old, new", [
    ("if s < k:", "if False:"),
    ("piv[level[r]]", "piv[k]"),
], ids=["pivot-row", "other-rows"])
@pytest.mark.parametrize("virtual", [False, True])
def test_lazy_level_not_brought_up(old, new, virtual, monkeypatch):
    # a row that sat out some steps used as if it were at the current one:
    # a pivot row not brought up, or a met row divided by the current
    # pivot in place of its own level's
    in_place(monkeypatch.setattr, linalg._bareiss, old, new)
    with pytest.raises(AssertionError):
        test_determinants.test_laurent_bareiss_oracle_on_closures(virtual)


@pytest.mark.parametrize("coeffs", [(7, 1, 9), (10 ** 6, 10 ** 6)])
def test_permutation_sign_dropped(coeffs, monkeypatch):
    # the last pivot taken for the determinant, in whatever order the
    # pivots took the rows and columns
    in_place(monkeypatch.setattr, linalg._bareiss,
             "-piv[n] if inversions % 2 else piv[n]", "piv[n]")
    with pytest.raises(AssertionError):
        test_determinants.test_coefficient_at_the_bound(coeffs, 1)


def test_series_at_exp_with_the_wrong_factorial(monkeypatch):
    # the x^k coefficient of p(e^x) divided by (k+1)! in place of k!
    in_place(monkeypatch.setattr, rings.laurent_at_exp, "math.factorial(k)",
             "math.factorial(k + 1)")
    with pytest.raises(AssertionError):
        test_determinants.test_alexander_matrix_matches_laplace()


def test_concat_without_the_shift(monkeypatch):
    monkeypatch.setattr(jacobi, "concat",
                        mutant(jacobi.concat, "shift = 2 * u.m", "shift = 0"))
    with pytest.raises(AssertionError):
        test_jacobi.test_built_diagrams_are_canonical(())


def _clear_quotient_caches():
    expansion._quotient.cache_clear()
    expansion._wheel_echelon.cache_clear()


@pytest.fixture
def plant(monkeypatch):
    """``monkeypatch.setattr``, with the quotient caches emptied before the
    fault is planted and again after it is undone."""
    _clear_quotient_caches()
    yield monkeypatch.setattr
    monkeypatch.undo()
    _clear_quotient_caches()


def test_negative_arrows_read_as_positive(monkeypatch):
    monkeypatch.setattr(gauss, "SIGNS", {"+": 1, "-": 1})
    with pytest.raises(AssertionError):
        test_gauss.test_gauss_text_round_trip()


def test_r2_gap_below_zero_taken(monkeypatch):
    in_place(monkeypatch.setattr, gauss.apply_move, "0 <= gap_o <= 2 * d.k",
             "gap_o <= 2 * d.k")
    with pytest.raises(CAUGHT):
        test_gauss.test_r2_refuses_a_gap_out_of_range()


def test_pd_code_without_its_knot_check(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(gauss.PDCode, "__init__", mutant(
        gauss.PDCode.__init__, "if incoming != list(range(1, m + 1)):",
        "if False:"))
    with pytest.raises(CAUGHT):
        test_alexander.test_fox_rejects_non_knot(capsys, tmp_path)


def test_pd_code_without_its_face_count(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(gauss.PDCode, "__init__", mutant(
        gauss.PDCode.__init__, "if m and faces != m // 2 + 2:",
        "if False:"))
    with pytest.raises(CAUGHT):
        test_alexander.test_fox_rejects_non_knot(capsys, tmp_path)


def test_tc_rank_off_by_one_at_a_gap(plant):
    # a tail just after a head counted in the gap before that head
    in_place(plant, arrows.tc_rank, "bisect_left(heads, t)",
             "bisect_left(heads, t - 1)")
    with pytest.raises(AssertionError):
        test_arrows.test_class_rank_names_the_tc_canonical_column(3)


@pytest.fixture
def fresh_orders(monkeypatch):
    """``monkeypatch.setattr``, with ``Z``'s order table and its
    ``_support_terms`` memo emptied before the fault is planted and again
    after it is undone, so no order or term met under a fault outlives
    its test."""
    expansion._clear_orders()
    yield monkeypatch.setattr
    monkeypatch.undo()
    expansion._clear_orders()


def test_support_child_skips_an_insertion(fresh_orders):
    # a head placed as if its own arrow's tail had not been inserted
    in_place(fresh_orders, expansion._support_shapes, " + up)", ")")
    with pytest.raises(AssertionError):
        test_expansion.test_zed_knot_matches_recursive_oracle_at_high_degree(4)


def test_order_table_reset_keeps_the_memo(fresh_orders, monkeypatch):
    # the order table emptied without the memo keyed by its ids: a walk
    # after the reset reads the terms of the orders the old ids named
    in_place(fresh_orders, expansion._clear_orders,
             "_support_terms.cache_clear()", "pass")
    with pytest.raises(AssertionError):
        test_expansion.test_zed_knot_same_across_order_table_resets(
            monkeypatch)


def test_kink_normalization_without_its_factorial(monkeypatch):
    # exp(−sl·a) folded into Z's numerators with 1/k! read as 1
    in_place(monkeypatch.setattr, expansion.zed_knot,
             " // factorial(k)", "")
    with pytest.raises(AssertionError):
        test_expansion.test_zed_knot_matches_recursive_oracle()


def test_arrow_vector_keeps_zero_coefficients(monkeypatch):
    # a vector built from a dict keeps the terms whose sum cancelled, so
    # Z's supports that cancel leave zero terms behind
    in_place(monkeypatch.setattr, arrows.ArrowVector.__init__,
             " if c}", "}")
    with pytest.raises(AssertionError):
        test_expansion.test_zed_knot_matches_recursive_oracle_at_high_degree(7)


def test_ihx_third_diagram_with_the_wrong_sign(monkeypatch):
    # [[x,y],z] + [[y,z],x] + [[x,z],y]: not a relation, and nonzero in
    # the quotient
    in_place(monkeypatch.setattr, jacobi.ihx_instances, "(c, -1)", "(c, 1)")
    with pytest.raises(AssertionError):
        test_jacobi.test_ihx_relators_vanish()


def test_clone_of_a_flip_without_its_virtual_crossing(monkeypatch):
    # a flipped clone written f_k f_{k+1}: x_k^-1 x_{k+1}^-1 in place of
    # the inverse x_{k+1}^-1 x_k^-1 of the doubled generator
    in_place(monkeypatch.setattr, wbraid.braid_clone_strand,
             "(VIRT, pos, 1)]", "]")
    with pytest.raises(AssertionError):
        test_wbraid.test_clone_strand_compatible_with_action_on_extended_braids()


@pytest.fixture
def fresh_algebras(monkeypatch):
    """``monkeypatch.setattr``, with the straightening and weight tables of
    the Lie-algebra fixtures of ``test_lieweights`` forgotten before the
    fault is planted and again after it is undone: the tables are built
    once per algebra."""
    def forget():
        for L in test_lieweights.FIXTURES:
            vars(L).pop("_times", None)
            vars(L).pop("_weights", None)
    forget()
    yield monkeypatch.setattr
    monkeypatch.undo()
    forget()


@pytest.mark.parametrize("check", [
    test_lieweights.test_pbw_mul_matches_oracle,
    test_lieweights.test_weight_system_matches_oracle,
], ids=["pbw-mul", "weight-system"])
def test_straightening_without_its_bracket_term(check, fresh_algebras):
    # h·last·g straightened as (h·g)·last, without h·[last, g]
    times = lieweights.LieData._times.func
    fault = mutant(times, "bracket.get((last, g), ())", "()")
    fresh_algebras(times, "__code__", fault.func.__code__)
    with pytest.raises(AssertionError):
        check()


def test_braid_action_with_a_flipped_convention(monkeypatch):
    # a negative crossing conjugating by x_i^-1 in place of x_i
    in_place(monkeypatch.setattr, wbraid.braid_action,
             "word_reduce(a + c + word_inverse(a))",
             "word_reduce(word_inverse(a) + c + a)")
    with pytest.raises(AssertionError):
        test_wbraid.test_action_matches_letter_by_letter_fold()


def test_basis_conjugating_without_its_permutation_check(monkeypatch):
    # images that conjugate generators, taken as basis-conjugating even
    # when two of them conjugate the same generator
    in_place(monkeypatch.setattr, freegroup.aut_is_basis_conjugating,
             "sorted(pi) == list(range(1, len(a) + 1))", "True")
    with pytest.raises(AssertionError):
        test_freegroup.test_basis_conjugating_detection()


def test_braid_equal_on_the_first_image_alone(monkeypatch):
    # two braids taken as equal when x1 has one image under both
    in_place(monkeypatch.setattr, wbraid.braid_equal,
             "braid_action(a) == braid_action(b)",
             "braid_action(a)[0] == braid_action(b)[0]")
    with pytest.raises(AssertionError):
        test_wbraid.test_word_problem_basics()


def test_flipped_union_find_weight(plant):
    plant(arrows.QuotientSpace, "__init__", mutant(
        arrows.QuotientSpace.__init__,
        "weight[hi] = -1 if c1 * w1 == c2 * w2 else 1",
        "weight[hi] = 1 if c1 * w1 == c2 * w2 else -1"))
    with pytest.raises(AssertionError):
        test_arrows.test_canonical_word_far_commutation()


def test_image_denominator_forced_to_one(plant, monkeypatch):
    plant(arrows.QuotientSpace, "__init__", mutant(
        arrows.QuotientSpace.__init__,
        "self._den = lcm(*(row[p] for p, row in self._ech.rows.items()))",
        "self._den = 1"))
    with pytest.raises(AssertionError):
        test_arrows.test_images_over_a_denominator_above_one(monkeypatch)


def test_dropped_far_commutation_row(plant):
    plant(arrows, "_far_commutation_relators", mutant(
        arrows._far_commutation_relators, "range(len(w) - 1)",
        "range(len(w) - 2)"))
    with pytest.raises(AssertionError):
        test_arrows.test_canonical_word_far_commutation()


def test_cuts_take_every_isolated_arrow_under_ri(plant):
    plant(arrows, "_cuts", mutant(arrows._cuts, "ri and t == h + 1",
                                  "ri and abs(t - h) == 1"))
    with pytest.raises(AssertionError):
        test_arrows.test_long_quotient_dimensions(
            frozenset({"TC", "4T", "RI"}))


@pytest.mark.parametrize("rels", ["TC 4T", "TC 6T", "TC 4T RI"])
def test_both_middle_role_permutations_skipped(plant, rels):
    # (1, 0, 2) skipped as well as (1, 2, 0): either spans the other, but
    # not both are spanned by the rest
    in_place(plant, arrows._class_roles, "skip = {(1, 2, 0)}",
             "skip = {(1, 0, 2), (1, 2, 0)}")
    with pytest.raises(AssertionError):
        test_arrows.test_fold_matches_dict_oracle(
            arrows.LONG, frozenset(rels.split()), 3)


def test_identity_role_permutation_skipped_without_ri_or_fi(plant):
    # the identity skipped under {TC,4T}: its two-term rows are implied
    # only through RI or FI, and dimension 12 at degree 4 becomes 38
    in_place(plant, arrows._class_roles, 'if relset & {"RI", "FI"}:',
             "if True:")
    with pytest.raises(AssertionError):
        test_arrows.test_long_quotient_dimensions(frozenset({"TC", "4T"}))


def test_lone_tail_slid_when_not_first_in_its_gap(plant):
    # a lone tail slid left past the points before it in its gap, not
    # past the context tail, so its twin places other rows
    in_place(plant, arrows._class_two_arrow_rows,
             "and (u == 0 or gaps[u - 1] < g)", "")
    with pytest.raises(AssertionError):
        test_arrows.test_class_rows_match_the_cut_oracle("4T", 3)


def test_lone_tail_given_to_a_point_with_two_tails(plant):
    # 6T's role 0, which holds two tails in its TC-like products, slid as
    # if it held one
    plant(arrows, "_class_products", mutant(
        arrows._class_products.__wrapped__,
        "[t for t, _ in arrows].count(u) == 1",
        "[t for t, _ in arrows].count(u) >= 1"))
    with pytest.raises(AssertionError):
        test_arrows.test_class_rows_are_the_diagram_rows(3, "6T")
