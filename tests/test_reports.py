"""Every check answers with `tensors.IdentityReport`, the one verdict type.

Each check runs on one catalog input that passes and one that fails: a
passing report is `ok` and carries no witness; a failing one names its
witness, except nondegeneracy, whose verdict has none.  The Clifford
realization and its double commutator hold on every input they take, so
they run on the passing side alone.
"""

from fractions import Fraction

import pytest

from naryalg import linalg
from naryalg.catalog import a4, corrupted, heisenberg, nhw, su, su3_gla4
from naryalg.claims import clifford_double_commutator
from naryalg.filippov import check_fi, check_metric_fa, clifford_realization
from naryalg.gla import check_gji
from naryalg.lie import (SymInvariantPoly, check_invariance, check_jacobi,
                         check_metric_invariance, check_representation, killing_form,
                         killing_invariant_poly, metric_scan)
from naryalg.poisson import (bracket_multivector, gps_check, lie_poisson_bivector, np_check,
                             plucker_check)
from naryalg.tensors import IdentityReport


def stretched(d):
    g = linalg.identity(d)
    g[-1][-1] = Fraction(2)
    return g


def broken_adjoint(fa):
    rho = fa.adjoint_rep()
    rho.mats[(1, 2)] = linalg.sp_identity(fa.dim)
    return rho


# check -> (a call that passes, a call that fails or None)
CASES = {
    "check_jacobi": (lambda: check_jacobi(su(3)), lambda: check_jacobi(corrupted(su(3)))),
    "check_gji": (lambda: check_gji(su3_gla4()), lambda: check_gji(corrupted(su3_gla4()))),
    "check_fi": (lambda: check_fi(a4(), "short"), lambda: check_fi(corrupted(a4()), "short")),
    "metric_scan": (lambda: metric_scan(a4(), linalg.identity(4)),
                    lambda: metric_scan(a4(), stretched(4))),
    "check_metric_invariance": (
        lambda: check_metric_invariance(su(3), killing_form(su(3))),
        lambda: check_metric_invariance(heisenberg(), linalg.identity(3))),
    "check_metric_fa": (lambda: check_metric_fa(a4(), linalg.identity(4)),
                        lambda: check_metric_fa(corrupted(a4()), linalg.identity(4))),
    "nondegenerate": (lambda: linalg.nondegenerate(killing_form(su(3))),
                      lambda: linalg.nondegenerate(killing_form(heisenberg()))),
    "check_invariance": (
        lambda: check_invariance(su(2), killing_invariant_poly(su(2))),
        lambda: check_invariance(su(2), SymInvariantPoly(2, 3, {(1, 1): Fraction(1)}))),
    "check_representation": (
        lambda: check_representation(a4(), a4().adjoint_rep()),
        lambda: check_representation(a4(), broken_adjoint(a4()))),
    "gps_check": (lambda: gps_check(lie_poisson_bivector(su(3))),
                  lambda: gps_check(lie_poisson_bivector(corrupted(su(3))))),
    "np_check": (lambda: np_check(bracket_multivector(a4())),
                 lambda: np_check(bracket_multivector(nhw(2)))),
    "plucker_check": (
        lambda: plucker_check(2, 4, {(1, 2): Fraction(1)}),
        lambda: plucker_check(2, 4, {(1, 2): Fraction(1), (3, 4): Fraction(1)})),
    "clifford_realization": (lambda: clifford_realization(3)[1], None),
    "clifford_double_commutator": (clifford_double_commutator, None),
}


def reports(result):
    """The reports of one check: a pair as it is, a single one as a 1-tuple."""
    return result if isinstance(result, tuple) else (result,)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_check_answers_with_identity_reports(name):
    passing, failing = CASES[name]
    got = reports(passing())
    assert 1 <= len(got) <= 2
    assert all(type(r) is IdentityReport and r == IdentityReport(True) for r in got)
    if failing is None:
        return
    got = reports(failing())
    assert 1 <= len(got) <= 2 and all(type(r) is IdentityReport for r in got)
    assert not all(r.ok for r in got)
    assert all(r.ok == (r.witness is None) for r in got) or name == "nondegenerate"

