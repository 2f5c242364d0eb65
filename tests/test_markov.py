import contextlib
import hashlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from toriclab import markov
from toriclab.cli import main
from toriclab.markov import HkwSurfaceData, MarkovTriple, adjacent_triple, enumerate_markov, hkw_surface

from oracles import (
    _markov_json,
    _markov_text,
    enumerate_markov_dfs,
    hkw_surface_gcd,
    markov_scan_quadratic,
    markov_scan_small,
)


def test_triple_validation():
    MarkovTriple(1, 2, 5)
    with pytest.raises(ValueError):
        MarkovTriple(1, 2, 3)
    with pytest.raises(ValueError):
        MarkovTriple(5, 2, 1)
    with pytest.raises(ValueError):
        MarkovTriple(0, 1, 1)


def test_enumerate_small_bounds():
    assert [t.as_tuple() for t in enumerate_markov(2)] == [(1, 1, 1), (1, 1, 2)]
    assert [t.as_tuple() for t in enumerate_markov(5)] == [(1, 1, 1), (1, 1, 2), (1, 2, 5)]
    table = [t.as_tuple() for t in enumerate_markov(30)]
    assert (1, 5, 13) in table and (2, 5, 29) in table
    assert table == sorted(table, key=lambda t: (t[2], t[1], t[0]))


def test_enumerate_matches_triple_loop_scan():
    assert {t.as_tuple() for t in enumerate_markov(60)} == markov_scan_small(60)


def test_enumerate_matches_quadratic_scan_2000():
    got = {t.as_tuple() for t in enumerate_markov(2000)}
    assert got == markov_scan_quadratic(2000)
    assert all(a * a + b * b + c * c == 3 * a * b * c for a, b, c in got)


def test_adjacent_examples():
    assert adjacent_triple(MarkovTriple(1, 2, 5)).as_tuple() == (1, 1, 2)
    assert adjacent_triple(MarkovTriple(2, 5, 29)).as_tuple() == (1, 2, 5)
    assert adjacent_triple(MarkovTriple(1, 1, 1)).as_tuple() == (1, 1, 2)


def test_adjacency_edge_involution():
    # the tree edge is walked back by re-jumping the entry that changed:
    # from (a, b, d) with d = 3ab - c, jumping d restores c exactly
    for t in enumerate_markov(1000):
        a, b, c = t.as_tuple()
        d = 3 * a * b - c
        down = adjacent_triple(t)
        assert down.as_tuple() == tuple(sorted((a, b, d)))
        remaining = list(down.as_tuple())
        remaining.remove(d)
        x, y = remaining
        assert {x, y} <= {a, b} or (x, y) == tuple(sorted((a, b)))
        assert 3 * x * y - d == c
        # and jumping the maximal entry of t is exactly what adjacent did
        assert max(t.as_tuple()) == c


def test_hkw_surface_examples():
    s = hkw_surface(MarkovTriple(1, 1, 2))
    assert s.weights == (1, 1, 1, 2)
    assert s.degree == 2 and s.amplitude == 3 and s.fano

    s = hkw_surface(MarkovTriple(1, 2, 5))
    assert s.weights == (1, 4, 1, 5)
    assert s.degree == 5 and s.amplitude == 6 and s.fano

    s = hkw_surface(MarkovTriple(2, 5, 29))
    assert s.weights == (4, 25, 1, 29)
    assert s.degree == 29 and s.amplitude == 30 and s.fano


def test_degree_identity_and_fano_up_to_1000():
    for t in enumerate_markov(1000):
        s = hkw_surface(t)
        a, b, c = t.as_tuple()
        d = 3 * a * b - c
        assert s.degree == c * d == a * a + b * b
        assert s.amplitude == a * a + b * b + c + d - s.degree
        assert s.amplitude > 0 and s.fano
        assert s.quasismooth


def test_surface_data_invariants_enforced():
    with pytest.raises(ValueError):
        HkwSurfaceData(
            triple=MarkovTriple(1, 1, 2),
            weights=(1, 1, 1, 2),
            degree=3,
            amplitude=2,
            wellformed=True,
            quasismooth=True,
            fano=True,
        )
    with pytest.raises(ValueError, match="^amplitude must be sum of weights minus degree$"):
        HkwSurfaceData(
            triple=MarkovTriple(1, 1, 2),
            weights=(1, 1, 1, 2),
            degree=2,
            amplitude=2,
            wellformed=True,
            quasismooth=True,
            fano=True,
        )


# ------------------------------------ closed forms against the gcd test


SURFACE_FIELDS = ("triple", "weights", "degree", "amplitude", "wellformed", "quasismooth", "fano")


def _surface_fields(s):
    """Every HkwSurfaceData field, in declaration order, the triple as its
    entries; the instance holds these fields and nothing else."""
    assert tuple(vars(s)) == SURFACE_FIELDS
    return (s.triple.as_tuple(), *(getattr(s, name) for name in SURFACE_FIELDS[1:]))


def test_hkw_surface_matches_gcd_oracle_to_1e40():
    triples = enumerate_markov(10**40)
    assert len(triples) == 1571
    for t in triples:
        assert _surface_fields(hkw_surface(t)) == _surface_fields(hkw_surface_gcd(t)), t


def _record(s):
    """The record a --json-lines row encodes."""
    return {
        "triple": list(s.triple.as_tuple()),
        "weights": list(s.weights),
        "degree": s.degree,
        "amplitude": s.amplitude,
        "wellformed": s.wellformed,
        "quasismooth": s.quasismooth,
        "fano": s.fano,
    }


def _table(json_lines, bound):
    """The stdout of one `markov table --max bound` through cli.main."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main((["--json-lines"] if json_lines else []) + ["markov", "table", "--max", str(bound)]) == 0
    return out.getvalue()


def test_json_rows_are_the_encoded_records():
    lines = _table(True, 10**40).splitlines()
    triples = enumerate_markov(10**40)
    assert len(lines) == len(triples)
    for line, t in zip(lines, triples):
        assert line == json.dumps(_record(hkw_surface_gcd(t)), sort_keys=True)


@pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=3)))
def test_json_row_spells_every_bool(flags):
    # every triple is well-formed, quasismooth and Fano; the row format
    # must still spell false the way the JSON encoder does
    wellformed, quasismooth, fano = flags
    s = HkwSurfaceData(
        triple=MarkovTriple(1, 2, 5),
        weights=(1, 4, 1, 5),
        degree=5,
        amplitude=6,
        wellformed=wellformed,
        quasismooth=quasismooth,
        fano=fano,
    )
    assert _markov_json(s) == json.dumps(_record(s), sort_keys=True)


@pytest.mark.parametrize("json_lines", (False, True))
@pytest.mark.parametrize("bound", (1, 2, 4, 5, 13, 1000, 10**40))
def test_table_rows_are_the_oracle_rows(json_lines, bound):
    # each row, after the text header, is the old row formatter applied to
    # the gcd oracle's surface of the DFS oracle's triple
    lines = _table(json_lines, bound).splitlines()
    row = _markov_json if json_lines else _markov_text
    assert lines[0 if json_lines else 1 :] == [row(hkw_surface_gcd(t)) for t in enumerate_markov_dfs(bound)]


def test_table_builds_no_surface_per_row(count_calls):
    walks = count_calls("_walk", markov)
    surfaces = count_calls("hkw_surface", markov)
    data = count_calls("__init__", HkwSurfaceData)
    _table(True, 10**40)
    assert (len(walks), surfaces, data) == (1, [], [])


@pytest.mark.parametrize("json_lines", (False, True))
def test_a_broken_row_raises_before_anything_is_printed(monkeypatch, json_lines):
    # (1, 2, 6) is not a Markov triple: d = 3*1*2 - 6 = 0, and c*d = 0 != 5
    walk = markov._walk
    monkeypatch.setattr(markov, "_walk", lambda bound: [*walk(bound), (1, 2, 6)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(RuntimeError, match="Markov equation broken"):
        main((["--json-lines"] if json_lines else []) + ["markov", "table", "--max", "1000"])
    assert out.getvalue() == ""
    with pytest.raises(RuntimeError, match="Markov equation broken"):
        hkw_surface(MarkovTriple._trusted(1, 2, 6))


# ----------------------------------------- tree walk against the DFS


@pytest.mark.parametrize("bound", [1, 2, 5, 13, 29] + [10**k for k in range(41)])
def test_tree_walk_matches_dfs(bound):
    assert enumerate_markov(bound) == enumerate_markov_dfs(bound)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.integers(1, 10**6), st.integers(1, 10**40)))
def test_tree_walk_matches_dfs_hypothesis(bound):
    assert enumerate_markov(bound) == enumerate_markov_dfs(bound)


def test_walked_triples_equal_the_checked_ones_to_1e40():
    """Every triple the walk builds unchecked (MarkovTriple._trusted)
    passes the checked constructor and equals what it builds, fields,
    type, order and hash alike."""
    walked = enumerate_markov(10**40)
    checked = [MarkovTriple(*t.as_tuple()) for t in walked]
    assert walked == checked and sorted(walked) == sorted(checked)
    assert all(type(t) is MarkovTriple and vars(t) == vars(c) and hash(t) == hash(c) for t, c in zip(walked, checked))
    assert all(type(x) is int for t in walked for x in t.as_tuple())


def test_nonpositive_bound_rejected():
    for bound in (0, -1):
        with pytest.raises(ValueError):
            enumerate_markov(bound)


# sha256 of the table printed before the tree walk, the shared JSON
# encoder and the rows formatted in place, which must print the same bytes
TABLE_DIGESTS = {
    (False, 1000): (14, "e84f878c8cfdfdfe4a647653f8d4ee28c4e98872c192fdb7dd493015748af3a2"),
    (False, 10**40): (1572, "ede0dd8f3d4dc8dea1c74781cdfba523021dca09a481131581fb785b27a32448"),
    (True, 1000): (13, "e949dc59b4bd2bf809376a928f4bc8ce651d50e139c74b102b219ad406469fbb"),
    (True, 10**40): (1571, "43f55bc8f4ae4de9bc9a8e44474d8f3254b894683c10c30bb0957d99dd0e5546"),
}


@pytest.mark.parametrize("json_lines, bound", sorted(TABLE_DIGESTS))
def test_markov_table_output_is_pinned(json_lines, bound):
    text = _table(json_lines, bound)
    lines, digest = TABLE_DIGESTS[json_lines, bound]
    assert len(text.splitlines()) == lines
    assert hashlib.sha256(text.encode()).hexdigest() == digest
