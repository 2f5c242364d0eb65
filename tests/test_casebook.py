import time
from fractions import Fraction

import pytest

from toriclab.casebook import (
    BLOWN_UP_POINTS,
    CrepantCertificate,
    IncidenceArrangement,
    segre_arrangement,
    segre_certificate,
    toric_boundary_suite,
)


def test_arrangement_incidences():
    arr = segre_arrangement()
    assert arr.incident("p") == {"H1", "H2"}
    assert arr.incident("q") == {"H1", "H3"}
    assert arr.incident("r") == {"H1", "H4"}
    assert arr.incident("s") == {"H2", "H3"}
    assert arr.incident("t") == {"H2", "H4"}
    assert arr.incident("u1") == {"H3"}
    assert arr.incident("u2") == {"H4"}
    # every hyperplane is spanned by three of the listed points
    for h in arr.hyperplanes:
        assert sum(1 for p in arr.points if h in arr.incident(p)) == 3


def test_arrangement_validation():
    with pytest.raises(ValueError, match="unknown hyperplane"):
        IncidenceArrangement(("p",), ("H1",), (("p", frozenset({"H9"})),))
    with pytest.raises(ValueError, match="every point"):
        IncidenceArrangement(("p", "q"), ("H1",), (("p", frozenset({"H1"})),))


def test_certificate_coefficients_all_zero():
    cert = segre_certificate()
    assert [c for _, c in cert.coefficients] == [Fraction(0)] * 5
    assert dict(cert.coefficients).keys() == set(BLOWN_UP_POINTS)
    assert cert.contracted_line_count == 10
    assert cert.effective


def test_certificate_mutation_breaks_effectivity():
    mutated = segre_arrangement().drop_incidence("p", "H2")
    cert = segre_certificate(mutated)
    assert dict(cert.coefficients)["p"] == -1
    assert not cert.effective
    # every single incidence of a blown-up point matters
    for point in BLOWN_UP_POINTS:
        for h in segre_arrangement().incident(point):
            broken = segre_certificate(segre_arrangement().drop_incidence(point, h))
            assert not broken.effective


def test_certificate_invariant_enforced():
    with pytest.raises(ValueError, match="effectivity"):
        CrepantCertificate(
            coefficients=(("p", Fraction(-1)),),
            contracted_line_count=10,
            effective=True,
        )


def test_suite_passes_and_is_fast():
    start = time.monotonic()
    report = toric_boundary_suite()
    elapsed = time.monotonic() - start
    assert report.passed, tuple(line for line in report.lines if line.status == "fail")
    assert elapsed < 10.0
    names = {line.name.split(":", 1)[0] for line in report.lines}
    assert len(names) >= 25
    checks = {line.name.split(":", 1)[1] for line in report.lines}
    assert checks == {"kb-class-zero", "log-cy", "index-one", "lc", "complexity-zero", "fano"}
    # deterministic: a second run renders identically
    again = toric_boundary_suite()
    assert [l.render() for l in again.lines] == [l.render() for l in report.lines]


def test_suite_records_f2_not_fano():
    report = toric_boundary_suite()
    line = next(l for l in report.lines if l.name == "F2:fano")
    assert line.status == "info" and line.witness == "False"
    line = next(l for l in report.lines if l.name == "P2:fano")
    assert line.witness == "True"
