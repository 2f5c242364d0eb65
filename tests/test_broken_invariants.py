"""The invariant checks that no input reaches: each guards an identity the
code proves, so these tests break the identity on purpose (a trusted
value outside the contract, or a monkeypatched helper) and assert that
the check raises its own exception class and message."""

import builtins
from fractions import Fraction

import pytest

from toriclab import casebook, complexity, fan, lattice, markov, polytope, toric
from toriclab.complexity import ComplexityReport, decomposition_by_primes
from toriclab.pairs import standard_pair


def test_a_jump_to_zero_raises():
    # (1, 1, 3) is not a Markov triple: 3*1*1 - 3 = 0
    with pytest.raises(RuntimeError, match="^the jump of the maximal entry of a Markov triple must be positive$"):
        markov.adjacent_triple(markov.MarkovTriple._trusted(1, 1, 3))


def test_a_corrupted_segre_arrangement_raises(monkeypatch):
    arrangement = casebook.segre_arrangement
    monkeypatch.setattr(casebook, "segre_arrangement", lambda: arrangement().drop_incidence("p", "H1"))
    with pytest.raises(RuntimeError, match="^arrangement corrupted: p should span two planes$"):
        casebook.segre_certificate()


def _with_c(report: ComplexityReport, c) -> ComplexityReport:
    # unchecked: the report's own check would refuse c != dim + rho - norm
    return ComplexityReport._trusted(report.rho, report.norm, report.dim, c)


def test_a_negative_complexity_raises(monkeypatch):
    real = complexity.complexity
    monkeypatch.setattr(complexity, "complexity", lambda pair, dec: _with_c(real(pair, dec), Fraction(-1, 2)))
    pair = standard_pair(2)
    with pytest.raises(RuntimeError, match=r"^BMSZ violation: complexity -1/2 < 0; this indicates an implementation bug$"):
        complexity.assert_bmsz(pair, decomposition_by_primes(pair))


def test_a_complexity_changed_by_a_reduced_pullback_raises(monkeypatch):
    # the second call, on the pulled-back pair, reports c + 1
    real, calls = complexity.complexity, []

    def changed(pair, dec):
        report = real(pair, dec)
        calls.append(report)
        return _with_c(report, report.c + len(calls) - 1)

    monkeypatch.setattr(complexity, "complexity", changed)
    pair = standard_pair(2)
    fine = fan.star_subdivision(pair.fan, [i for i, r in enumerate(pair.fan.rays) if r in ((1, 0), (0, 1))])
    with pytest.raises(RuntimeError, match=r"^complexity changed under a reduced crepant pullback \(0 -> 1\); bug$"):
        complexity.complexity_transport(pair, fine, decomposition_by_primes(pair))
    assert len(calls) == 2


def test_a_smith_form_of_coprime_weights_off_one_raises(monkeypatch):
    real = lattice.SolveChart.of

    def doubled(cls, G, ncols):
        chart = real(G, ncols)
        return cls(chart.U, tuple(2 * x for x in chart.d), 2 * chart.L, chart.V, chart.Z)

    monkeypatch.setattr(lattice.SolveChart, "of", classmethod(doubled))
    with pytest.raises(RuntimeError, match="^Smith form of coprime weights must have leading entry 1$"):
        toric.weighted_projective_fan((2, 3, 5))


def test_a_hirzebruch_jung_walk_off_its_end_raises(monkeypatch):
    # a wrong inverse of u1 mod u2 breaks x u1 + y u2 = 1, so the first
    # ray is not the lattice point the walk starts from; `pow` is read
    # from the module's globals before the builtins
    cone = fan.Cone(((2, 3), (1, 5)), 2)
    assert fan.resolve_cone_2d(cone) == [(1, 2), (1, 3), (1, 4)]
    monkeypatch.setattr(fan, "pow", lambda b, e, m: (builtins.pow(b, e, m) + 1) % m, raising=False)
    with pytest.raises(
        RuntimeError, match="^Hirzebruch-Jung walk invariant broken: the walk did not end on the second generator$"
    ):
        fan.resolve_cone_2d(cone)


def test_a_normal_form_with_no_second_row_in_reach_raises(monkeypatch):
    # a partner twice too long breaks det(r1, r2) = 1: on the square
    # [-1, 1]^2 (lambda1 = lambda2 = 1) every row 2*r2 + k*r1 has norm 2
    square = polytope.Polytope.hull([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    assert sorted(polytope.unimodular_normal_form(square).vertices) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    real = polytope._partner
    monkeypatch.setattr(polytope, "_partner", lambda a, c: tuple(2 * x for x in real(a, c)))
    with pytest.raises(
        RuntimeError, match="^no second row of norm at most lambda2 completes the first row to a basis$"
    ):
        polytope.unimodular_normal_form(square)
