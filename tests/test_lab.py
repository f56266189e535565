"""Set models, difference oracles, searches, experiments, Weyl sums."""

import math
import random
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decimal_reference import decimal_digits
from polywalk.generators import bogolubov_walk, xy_minus_P_walks
from polywalk import kernel
from polywalk.kernel import orbit_points
from polywalk.lab import (
    BOGOLUBOV,
    MAGYAR,
    BohrSet,
    SearchResult,
    Status,
    Torus,
    WindowSet,
    _Arc,
    _arc_verdicts,
    corollary_experiment,
    residue_counts,
    twisted_search,
    weyl_sum_rational,
    weyl_sums,
)
from polywalk.poly import MPoly, PolyVector, binomial_poly, poly_parse
from polywalk.reals import BITS, Real

F = Fraction


def _constant_residue(mean):
    # the single residue hit by every term of a RootOfUnityMean, if any
    hits = [j for j, c in enumerate(mean.counts) if c]
    return hits[0] if len(hits) == 1 else None


def _brute_force_diff(points, w):
    # double-loop enumeration oracle
    for b1 in points:
        for b2 in points:
            if tuple(a - b for a, b in zip(b1, b2)) == tuple(w):
                return True
    return False


def test_window_basic_membership():
    w = WindowSet(1, 4, [(0,), (2,), (3,)])
    assert (2,) in w.points and (1,) not in w.points
    assert w.density == 0.75


def test_window_diffset_examples():
    w = WindowSet(1, 4, [(0,), (2,), (3,)])
    assert w.contains_difference((3,))       # 3 - 0
    assert not w.contains_difference((4,))
    assert w.contains_difference((0,))       # b - b
    assert w.contains_difference((-3,))      # 0 - 3


def test_window_rejects_out_of_range_points():
    with pytest.raises(ValueError, match="outside"):
        WindowSet(1, 4, [(5,)])


@pytest.mark.parametrize("side", [0, -3])
def test_window_rejects_an_empty_side(side):
    with pytest.raises(ValueError, match=f"^window side must be >= 1, got {side}$"):
        WindowSet(1, side, [])
    with pytest.raises(ValueError, match=f"^window side must be >= 1, got {side}$"):
        WindowSet.random(2, side, 0.5, seed=1)


@pytest.mark.parametrize("density", [1.7, -0.25, float("nan")])
def test_window_rejects_a_density_outside_the_unit_interval(density):
    with pytest.raises(ValueError, match=r"^window density must be in \[0, 1\], got "):
        WindowSet.random(2, 4, density, seed=1)


def test_window_queries_leave_the_set_unchanged():
    w = WindowSet(1, 10, [(0,), (3,), (7,)])
    before = dict(vars(w))
    # differences of points in [0, side) lie strictly inside (-side, side)
    assert not w.contains_difference((10,))
    assert not w.contains_difference((-12,))
    for _ in range(3):
        assert w.contains_difference((4,))   # 7 - 3
    # more queries than there are points
    for x in range(-9, 10):
        assert w.contains_difference((x,)) == _brute_force_diff(w.points, (x,))
    assert vars(w) == before


@st.composite
def _window_and_queries(draw):
    dim = draw(st.integers(1, 3))
    # small dense windows, and sparse ones far wider than any bitmask
    side = draw(st.one_of(st.integers(1, 6), st.just(10 ** 12)))
    coord = st.integers(0, side - 1)
    points = draw(st.lists(st.tuples(*[coord] * dim), max_size=12))
    window = WindowSet(dim, side, points)
    listed = sorted(window.points)
    differences = [tuple(a - b for a, b in zip(b1, b2))
                   for b1 in listed for b2 in listed]
    near = st.integers(-side, side)
    queries = draw(st.lists(st.one_of(st.sampled_from(differences or [(0,) * dim]),
                                      st.tuples(*[near] * dim),
                                      st.tuples(*[st.integers(-3, 3)] * dim)),
                            max_size=20))
    return window, queries


@settings(max_examples=200, deadline=None)
@given(_window_and_queries())
def test_window_difference_matches_the_pair_scan(case):
    window, queries = case
    for w in queries:
        assert window.contains_difference(w) == _brute_force_diff(window.points, w)


def test_window_diffset_matches_brute_force_random():
    rng = random.Random(1234)
    for _ in range(12):
        dim = rng.randint(1, 3)
        side = rng.randint(3, [30, 14, 8][dim - 1])
        density = rng.uniform(0.05, 0.6)
        window = WindowSet.random(dim, side, density, seed=rng.randint(0, 9999))
        for _ in range(12):
            w = tuple(rng.randint(-side, side) for _ in range(dim))
            assert window.contains_difference(w) == _brute_force_diff(window.points, w)


def test_bohr_membership_oracle_digits():
    # independent high-precision check of frac(sqrt2) and frac(5*sqrt2),
    # which decide the overlap queries below
    scale = 10 ** 30
    sqrt2_scaled = isqrt(2 * scale * scale)
    frac_1 = sqrt2_scaled % scale
    frac_5 = (5 * sqrt2_scaled) % scale
    assert str(frac_1).rjust(30, "0")[:5] == "41421"
    assert str(frac_5).rjust(30, "0")[:5] == "07106"


def test_bohr_diffset_overlap():
    b = BohrSet(1, [[Real.named("sqrt2")]], [F(1, 10)])
    assert b.contains_difference((0,))
    # frac(5*sqrt2) = 0.071 < 2*eps = 0.2
    assert b.contains_difference((5,))
    # frac(sqrt2) = 0.414 > 0.2 and 1 - 0.414 > 0.2
    assert not b.contains_difference((1,))


def test_bohr_validation():
    with pytest.raises(ValueError, match="radius"):
        BohrSet(1, [[Real.named("sqrt2")]], [F(1, 2)])
    with pytest.raises(ValueError, match="entries"):
        BohrSet(2, [[Real.named("sqrt2")]], [F(1, 10)])


def _rank(vectors, width):
    """Rank of rational vectors by plain Fraction elimination."""
    rows = [[F(x) for x in v] for v in vectors]
    rank = 0
    for c in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                factor = rows[i][c] / rows[rank][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


_BASIS = [Real(1), Real.named("sqrt2"), Real.named("sqrt3"), Real.named("sqrt5"),
          Real.named("golden")]
# sparse coefficients, so that rows often share irrational parts
_COEFFICIENTS = [F(0), F(0), F(0), F(1), F(-1), F(1, 2), F(2, 3)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_torus_relations_are_exactly_the_rational_characters(torus_dim, dim, data):
    rows = [[sum((b.scale(data.draw(st.sampled_from(_COEFFICIENTS))) for b in _BASIS),
                 Real(0)) for _ in range(dim)] for _ in range(torus_dim)]
    torus = Torus(rows)
    basis = torus.relations()
    for m in basis:
        assert all(x.is_rational() for x in torus.transposed_row(m))
    assert _rank(basis, torus_dim) == len(basis)
    for m in product(range(-2, 3), repeat=torus_dim):
        if all(x.is_rational() for x in torus.transposed_row(m)):
            assert _rank(basis + [m], torus_dim) == len(basis), m


def test_bohr_tie_on_boundary_is_outside():
    # rational frequency puts frac(A*w) exactly on the overlap boundary; the
    # open box's B - B has distances below 2*eps only
    b = BohrSet(1, [[F(1, 4)]], [F(1, 8)])
    assert b.contains_difference((1,)) is False   # dist = 1/4 = 2*eps exactly


def test_bohr_single_query_verdicts_and_messages():
    # one row exactly on its threshold, one far outside: outside either way
    tie, outside = [F(1, 4)], [F(1, 2)]
    for rows in ([tie, outside], [outside, tie]):
        b = BohrSet(1, rows, [F(1, 8) if row is tie else F(1, 10) for row in rows])
        assert b.contains_difference((1,)) is False
    assert BohrSet(1, [tie], [F(1, 8)]).contains_difference([1]) is False
    assert BohrSet(1, [tie], [F(1, 6)]).contains_difference((1,)) is True
    with pytest.raises(ValueError) as raised:
        BohrSet(1, [tie], [F(1, 8)]).contains_difference((1, 2))
    assert str(raised.value) == "vector [1, 2] has wrong dimension"


def test_twisted_search_density_one():
    everything = WindowSet(1, 9, [(i,) for i in range(9)])
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    # need a 1-d walk-like orbit: use a 2-d window instead
    window = WindowSet(2, 9, [(i, j) for i in range(9) for j in range(9)])
    result = twisted_search(walk.orbit_poly((0, 0)), window, 10)
    assert result.found() and result.n == 1


def test_twisted_search_even_window_example():
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    window = WindowSet(2, 20, [(a, b) for a in range(0, 20, 2) for b in range(20)])
    result = twisted_search(walk.orbit_poly((0, 0)), window, 50)
    # S(n)(0,0) = (n^2, n) needs n^2 even, first at n = 2
    assert result.n == 2
    assert result.point == (4, 2)


def test_twisted_search_exhausted_on_empty_oracle():
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    empty = WindowSet(2, 5, [])
    result = twisted_search(walk.orbit_poly((0, 0)), empty, 25)
    assert result.status is Status.EXHAUSTED


@pytest.mark.parametrize("n_max", [0, -3])
def test_twisted_search_rejects_empty_range(n_max):
    # an empty range is an input error, not an exhausted search
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    window = WindowSet(2, 20, [(a, b) for a in range(0, 20, 2) for b in range(20)])
    with pytest.raises(ValueError, match=f"N_max must be >= 1, got {n_max}"):
        twisted_search(walk.orbit_poly((0, 0)), window, n_max)


def test_twisted_search_monotone_in_range():
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    window = WindowSet(2, 20, [(a, b) for a in range(0, 20, 2) for b in range(20)])
    small = twisted_search(walk.orbit_poly((0, 0)), window, 10)
    large = twisted_search(walk.orbit_poly((0, 0)), window, 500)
    assert small.n == large.n == 2


def test_twisted_search_exhausts_on_boundary_ties():
    # orbit from (1, 0): (1 + n^2, n); frac((1 + n^2)/4) is 1/2 for odd n and
    # exactly on the boundary 1/4 for even n, so no candidate is inside
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    boundary = BohrSet(2, [[F(1, 4), F(0)]], [F(1, 8)])
    result = twisted_search(walk.orbit_poly((1, 0)), boundary, 12)
    assert result == SearchResult(Status.EXHAUSTED, None, None)
    all_boundary = BohrSet(1, [[F(1, 2)]], [F(1, 4)])
    assert all_boundary.contains_difference((1,)) is False


# -- the Bohr scan against the per-query oracle ----------------------------------

def _reference_dot_frac(row, v, prec):
    """frac(<row, v>) within 10^-prec on the circle, by its own digit loop
    over the basis coordinates, not through `reals.FixedRow`."""
    rational, irr = sum((x * c for x, c in zip(row, v)), Real(0)).basis()
    widest = max((len(str(abs(c.numerator))) for c in irr.values()), default=0)
    work = prec + widest + 10
    digits = sum(c * decimal_digits(name, work) for name, c in irr.items())
    return (rational + F(digits, 10 ** work)) % 1


def _reference_verdict(oracle, v):
    """Exact membership of v in B - B: per row, the circle distance of
    <row, v> to 0 against t = 2r, strictly below.  A rational <row, v> is
    compared exactly; otherwise `_reference_dot_frac` is read at rising
    precision until its distance is more than its error away from t."""
    for row, r in zip(oracle.rows, oracle.radii):
        x = sum((c * value for c, value in zip(row, v)), Real(0))
        if x.is_rational():
            delta = x.as_fraction() % 1
        else:
            prec = 8
            delta = _reference_dot_frac(row, v, prec)
            while abs(min(delta, 1 - delta) - 2 * r) <= F(1, 10 ** prec):
                prec += 8
                delta = _reference_dot_frac(row, v, prec)
        if min(delta, 1 - delta) >= 2 * r:
            return False
    return True


def _reference_verdicts(oracle, polys, count):
    # per point: eval_int, then the Fraction route
    return [_reference_verdict(oracle, polys.eval_int({"n": n}))
            for n in range(1, count + 1)]


def _reference_twisted_search(walk, v, oracle, n_max):
    # the per-point loop the scan replaced
    for n, point in enumerate(orbit_points(walk.orbit_poly(v), n_max), start=1):
        if isinstance(oracle, BohrSet):
            verdict = _reference_verdict(oracle, point)
        else:
            verdict = oracle.contains_difference(point)
        if verdict:
            return SearchResult(Status.FOUND, n, point)
    return SearchResult(Status.EXHAUSTED, None, None)


@st.composite
def _integer_valued_poly(draw, max_degree=4):
    # sum c_k C(n, k), the general integer-valued polynomial
    poly = MPoly.zero(("n",))
    for k in range(draw(st.integers(0, max_degree)) + 1):
        poly = poly + binomial_poly(("n",), "n", k) * draw(st.integers(-10 ** 5, 10 ** 5))
    return poly


_rational = st.fractions(min_value=-3, max_value=3, max_denominator=8)
_irrational = st.builds(
    lambda c, name: Real.named(name, c),
    _rational.filter(lambda c: c != 0),
    st.sampled_from(["sqrt2", "sqrt3", "sqrt5", "golden", "pifrac"]),
)
_entry = st.one_of(_rational.map(Real), _irrational,
                   st.builds(lambda a, b: Real(a) + b, _rational, _irrational))
_radius = st.one_of(
    st.fractions(min_value=F(1, 24), max_value=F(11, 24), max_denominator=24),
    st.integers(1, 7).map(lambda k: F(k, 16)),   # ties with eighths
    st.integers(50, 5000).map(lambda k: F(1, k)),
)


@st.composite
def _bohr_set(draw, dim):
    # rows of rationals (exact, with ties), irrational rows and mixed ones
    row = st.one_of(st.lists(_rational.map(Real), min_size=dim, max_size=dim),
                    st.lists(_entry, min_size=dim, max_size=dim))
    rows = draw(st.lists(row, min_size=1, max_size=3))
    torus_dim = len(rows)
    radii = [draw(_radius) for _ in range(torus_dim)]
    return BohrSet(dim, rows, radii)


@st.composite
def _bohr_query(draw):
    # rows of rationals, constants or both; small vectors for exact ties
    # and vectors up to 10^30
    dim = draw(st.integers(1, 3))
    oracle = draw(_bohr_set(dim))
    size = draw(st.sampled_from([12, 10 ** 6, 10 ** 30]))
    v = draw(st.lists(st.integers(-size, size), min_size=dim, max_size=dim))
    return oracle, v


@settings(max_examples=200, deadline=None)
@given(_bohr_query())
def test_bohr_single_queries_match_fraction_route(data):
    oracle, v = data
    assert oracle.contains_difference(v) is _reference_verdict(oracle, v)


def test_bohr_single_queries_on_exact_ties():
    # rational rows: every verdict, ties included, is exact on both routes
    oracle = BohrSet(2, [[F(1, 4), F(1, 6)], [F(1, 3), F(0)]], [F(1, 12), F(1, 6)])
    seen = set()
    for v in product(range(-6, 7), repeat=2):
        verdict = oracle.contains_difference(v)
        assert verdict is _reference_verdict(oracle, v)
        seen.add(verdict)
    assert seen == {True, False}


@st.composite
def _orbit_and_bohr(draw):
    polys = PolyVector(draw(st.lists(_integer_valued_poly(), min_size=1, max_size=3)))
    return polys, draw(_bohr_set(len(polys)))


@settings(max_examples=80, deadline=None)
@given(_orbit_and_bohr(), st.integers(0, 60))
def test_bohr_scan_matches_per_point_oracle(data, count):
    polys, oracle = data
    got = list(oracle.difference_verdicts(polys, count))
    assert got == _reference_verdicts(oracle, polys, count)


@settings(max_examples=40, deadline=None)
@given(st.lists(_integer_valued_poly(max_degree=3), min_size=2, max_size=2),
       st.lists(_radius, min_size=1, max_size=1))
def test_bohr_scan_on_rational_rows_is_exact(pair, radii):
    # W = 0: the scan sees the exact distance, ties included
    polys = PolyVector(pair)
    oracle = BohrSet(2, [[F(1, 4), F(1, 6)]], radii)
    assert list(oracle.difference_verdicts(polys, 48)) == \
        _reference_verdicts(oracle, polys, 48)


def test_bohr_scan_exact_ties_are_outside():
    # frac(n/4) lies at distance exactly 1/4 = 2r from 0 for odd n
    orbit = PolyVector([poly_parse("n", ["n"])])
    rational = BohrSet(1, [[F(1, 4)]], [F(1, 8)])
    expected = [False, False, False, True] * 3
    assert list(rational.difference_verdicts(orbit, 12)) == expected
    assert _reference_verdicts(rational, orbit, 12) == expected
    # the same tie on a row that also has an irrational entry (W > 0)
    plane = PolyVector([poly_parse("n", ["n"]), poly_parse("0", ["n"])])
    mixed = BohrSet(2, [[F(1, 4), Real.named("golden")]], [F(1, 8)])
    assert list(mixed.difference_verdicts(plane, 12)) == expected
    assert _reference_verdicts(mixed, plane, 12) == expected


def test_bohr_scan_guard_band_on_both_sides():
    # distances 1/4 +- delta against 2r = 1/4: inside the band e = 10^-40,
    # settled exactly (rational) or at more digits (sqrt2), and outside it
    orbit = PolyVector([poly_parse("n", ["n"])])
    cases = [
        (F(1, 4) + F(1, 10 ** 50), False), (F(1, 4) - F(1, 10 ** 50), True),
        (Real(F(1, 4)) + Real.named("sqrt2", F(1, 10 ** 45)), False),
        (Real(F(1, 4)) - Real.named("sqrt2", F(1, 10 ** 45)), True),
        (F(1, 4) + F(1, 10 ** 17), False), (F(1, 4) - F(1, 10 ** 17), True),
        (Real(F(1, 4)) - Real.named("pifrac", F(1, 10 ** 16)), True),
    ]
    for theta, verdict in cases:
        oracle = BohrSet(1, [[theta]], [F(1, 8)])
        assert next(oracle.difference_verdicts(orbit, 1)) is verdict
        assert oracle.contains_difference((1,)) is verdict
        assert _reference_verdicts(oracle, orbit, 1) == [verdict]


def test_bohr_band_is_settled_at_more_digits():
    # 2r lies 10^-45 above or below the true distance of w * sqrt2, inside
    # the band e > 2^-133 > 10^-41: only a read at more bits decides it
    w = 10 ** 17 + 3
    scale = 10 ** 100
    frac = w * isqrt(2 * scale * scale) % scale
    dist = F(min(frac, scale - frac), scale)   # within 10^-82 of the truth
    orbit = PolyVector([poly_parse(f"{w}*n", ["n"])])
    for offset, verdict in [(F(1, 10 ** 45), True), (F(-1, 10 ** 45), False)]:
        oracle = BohrSet(1, [[Real.named("sqrt2")]], [(dist + offset) / 2])
        assert oracle.contains_difference((w,)) is verdict
        assert list(oracle.difference_verdicts(orbit, 1)) == [verdict]
        assert _reference_verdict(oracle, (w,)) is verdict


@st.composite
def _walk_start_oracle(draw):
    p = draw(st.sampled_from(["y^2", "y^3", "2*y^2 + y", "y^4 - 3*y"]))
    if draw(st.booleans()):
        walk = bogolubov_walk(poly_parse(p, ["y"]))
    else:
        walk = xy_minus_P_walks(poly_parse(p.replace("y", "z"), ["z"]))[draw(st.integers(0, 1))]
    v = tuple(draw(st.integers(-20, 20)) for _ in range(walk.dim))
    return walk, v, draw(_bohr_set(walk.dim))


@settings(max_examples=60, deadline=None)
@given(_walk_start_oracle(), st.integers(1, 60))
def test_twisted_search_matches_per_point_loop(data, n_max):
    walk, v, oracle = data
    result = twisted_search(walk.orbit_poly(v), oracle, n_max)
    assert result == _reference_twisted_search(walk, v, oracle, n_max)


def test_twisted_search_window_matches_per_point_loop():
    rng = random.Random(5)
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    for _ in range(20):
        window = WindowSet(2, 30, [(rng.randrange(30), rng.randrange(30)) for _ in range(25)])
        v = (rng.randrange(-10, 10), rng.randrange(-3, 3))
        result = twisted_search(walk.orbit_poly(v), window, 40)
        assert result == _reference_twisted_search(walk, v, window, 40)


def test_twisted_search_passes_over_a_tie():
    # n = 1 is a tie (outside), n = 2 the first hit
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    oracle = BohrSet(2, [[F(1, 4), F(0)]], [F(1, 8)])
    result = twisted_search(walk.orbit_poly((0, 0)), oracle, 10)   # orbit (n^2, n)
    assert result == SearchResult(Status.FOUND, 2, (4, 2))


@pytest.mark.parametrize("oracle", [
    WindowSet(1, 10, [(0,), (4,)]),
    BohrSet(1, [[F(1, 2)]], [F(1, 8)]),
    BohrSet(1, [[F(1, 2)]], [F(1, 4)]),   # n = 1 is a tie, settled at the point
], ids=["window", "bohr", "bohr-tie"])
def test_an_orbit_in_m_searches_like_the_same_orbit_in_n(oracle):
    for var in ("n", "m"):
        result = twisted_search(PolyVector([poly_parse(f"{var}^2", [var])]), oracle, 10)
        assert result == SearchResult(Status.FOUND, 2, (4,))


def _circle(x):
    x %= 1
    return min(x, 1 - x)


# points of the last head block and the first points of the next blocks:
# the head holds n = 1, ..., D + 1, then blocks of 16, 32, 64, ... follow
_BLOCK_EDGES = [1, 2, 17, 18, 49, 50]


@st.composite
def _orbit_with_ties_at_block_edges(draw):
    """An orbit and a Bohr set with one row per chosen point n = D + s, s in
    `_BLOCK_EDGES`, whose radius makes that point a tie (2r equal to its
    distance), a near tie 10^-50 away, or a tie moved by 10^-45 sqrt2 in
    the row: each one inside the 2^-133 band of the arc test."""
    dim = draw(st.integers(1, 2))
    polys = PolyVector(draw(st.lists(_integer_valued_poly(max_degree=3),
                                     min_size=dim, max_size=dim)))
    degree = polys.max_degree()
    spots = draw(st.lists(st.sampled_from(_BLOCK_EDGES), min_size=1, max_size=3))
    rows, radii = [], []
    for spot in spots:
        q = draw(st.integers(2, 12))
        row = [F(draw(st.integers(-11, 11)), q) for _ in range(dim)]
        point = polys.eval_int({"n": degree + spot})
        dist = _circle(sum(map(F.__mul__, row, point), F(0)))
        kind = draw(st.sampled_from(["tie", "above", "below", "sqrt2"]))
        if dist == 0:
            dist, kind = F(1, 2), "tie"
        radius = dist / 2 + {"above": F(1, 10 ** 50), "below": F(-1, 10 ** 50)}.get(kind, 0)
        entries = [Real(x) for x in row]
        if kind == "sqrt2":
            entries[0] = entries[0] + Real.named("sqrt2", F(draw(st.sampled_from([1, -1])),
                                                          10 ** 45))
        rows.append(entries)
        radii.append(radius)
    count = degree + max(spots) + draw(st.integers(0, 3))
    return polys, BohrSet(dim, rows, radii), count


@settings(max_examples=150, deadline=None)
@given(_orbit_with_ties_at_block_edges())
def test_arc_scan_settles_ties_on_both_sides_of_block_edges(data):
    polys, oracle, count = data
    expected = _reference_verdicts(oracle, polys, count)
    assert list(oracle.difference_verdicts(polys, count)) == expected
    hit = next((n for n, verdict in enumerate(expected, start=1) if verdict), None)
    result = twisted_search(polys, oracle, count)
    assert result.n == hit
    assert result.status is (Status.EXHAUSTED if hit is None else Status.FOUND)


def test_arc_scan_never_counts_a_band_point_as_inside():
    # frac(n/4) is at distance exactly 1/4 = 2r for odd n: ties at the
    # last head point (n = 1) and at the first points of the next blocks
    orbit = PolyVector([poly_parse("n", ["n"])])
    oracle = BohrSet(1, [[F(1, 4)]], [F(1, 8)])
    got = list(oracle.difference_verdicts(orbit, 60))
    assert got == [n % 4 == 0 for n in range(1, 61)]
    assert twisted_search(orbit, oracle, 3) == SearchResult(Status.EXHAUSTED, None, None)


@pytest.mark.parametrize("shift", [Real.named("sqrt2", F(1, 7)), Real.named("sqrt3", F(-1, 5)),
                                   Real.named("golden", F(1, 11))], ids=repr)
def test_arc_test_is_exact_for_every_phase_within_its_error(shift):
    # M = 2^BITS, a row with an irrational entry: every integer a with
    # |a / M - x| < 2^-BITS may stand for x.  M = q, a row of rationals:
    # a = q x exactly, up to multiples of q, and the test runs at
    # lcm(q, 2^BITS).  The shift is read within 0.625 units of that
    # modulus and each t lies within one unit of dist(x + s), so a band
    # without that read error gives wrong verdicts
    for m, x in product((2 ** BITS, 3, 7), (F(1, 3), F(2, 7))):
        if m < 2 ** BITS:
            if (m * x).denominator != 1:
                continue
            phases = [int(m * x) + k * m for k in (-2, 0, 1)]
        else:
            phases = list(range(math.floor(m * x), math.ceil(m * x) + 1))
        value = Real(x) + shift
        dist = _circle(value.approx(2 * BITS))
        grid = 10 * math.lcm(m, 2 ** BITS)
        for j in range(-5, 6):
            t = F(math.floor(dist * grid) + j, grid)
            (got,) = _arc_verdicts([[phases]], [_Arc.of(m, t, (Real(x),), shift)],
                                   lambda i: (1,))
            assert got == [value.circle_distance_below(t)] * len(phases)


def test_bohr_scan_dimension_mismatch():
    oracle = _bohr3()
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    with pytest.raises(ValueError, match="wrong dimension"):
        twisted_search(walk.orbit_poly((1, 0)), oracle, 10)
    with pytest.raises(ValueError, match="wrong dimension"):
        oracle.difference_verdicts(walk.orbit_poly((1, 0)), 10)


def test_weyl_sum_zero_frequency():
    polys = PolyVector([poly_parse("n", ["n"])])
    assert weyl_sums(polys, [[0]], 200) == [pytest.approx(1.0)]


def test_weyl_sum_cube_roots_cancel():
    polys = PolyVector([poly_parse("n", ["n"])])
    (value,) = weyl_sums(polys, [[F(1, 3)]], 300)
    assert abs(value) < 1e-12


def test_weyl_sum_equidistribution_quadratic():
    polys = PolyVector([poly_parse("n^2", ["n"])])
    (value,) = weyl_sums(polys, [[Real.named("sqrt2")]], 20000)
    assert abs(value) < 0.05


def test_weyl_sum_rational_exact_zero():
    polys = PolyVector([poly_parse("n", ["n"])])
    mean = weyl_sum_rational(polys, [F(1, 3)], 30000)
    assert mean.is_exactly_zero
    assert mean.counts == (10000, 10000, 10000)
    assert mean.value() == 0j


def test_weyl_sum_rational_exact_one():
    polys = PolyVector([poly_parse("3*n", ["n"])])
    mean = weyl_sum_rational(polys, [F(1, 3)], 1000)
    assert mean.is_exactly_one
    assert _constant_residue(mean) == 0


def test_weyl_periodic_cross_check():
    # numeric average over N = q*m equals the exact periodic mean
    rng = random.Random(11)
    for _ in range(6):
        q = rng.choice([2, 3, 4, 5, 6])
        polys = PolyVector([poly_parse(f"{rng.randint(1,3)}*n^2 + {rng.randint(0,4)}*n", ["n"])])
        theta = F(rng.randint(1, q - 1), q)
        n_count = q * rng.randint(3, 12)
        (numeric,) = weyl_sums(polys, [[theta]], n_count)
        exact = weyl_sum_rational(polys, [theta], n_count).value()
        assert abs(numeric - exact) < 1e-9


def test_weyl_sum_rational_binomial_orbit():
    # n(n+1)/2 mod 2 has period 4, not q = 2
    polys = PolyVector([poly_parse("1/2*n^2 + 1/2*n", ["n"])])
    for n_count in (4, 7, 1000, 1001):
        exact = weyl_sum_rational(polys, [F(1, 2)], n_count).value()
        assert abs(weyl_sums(polys, [[F(1, 2)]], n_count)[0] - exact) < 1e-12


def test_weyl_sum_multidimensional():
    polys = PolyVector([poly_parse("n^2", ["n"]), poly_parse("n^3", ["n"])])
    (value,) = weyl_sums(polys, [[Real.named("sqrt2"), Real.named("sqrt3")]], 5000)
    assert abs(value) < 0.05


def _reference_rational_weyl(polys, row, n_count):
    """float(sum_n t_n) / N over the float terms t_n of the phases j / q,
    summed as Fractions: the exact sum of the stream's terms, rounded once."""
    q = math.lcm(*(x.denominator for x in row))
    parts = [F(0), F(0)]
    for n in range(1, n_count + 1):
        value = sum(map(F.__mul__, row, polys.eval_int({"n": n})), F(0))
        angle = (int(value * q) % q / q) * (2.0 * math.pi)
        parts[0] += F(math.cos(angle))
        parts[1] += F(math.sin(angle))
    return complex(float(parts[0]) / n_count, float(parts[1]) / n_count)


@settings(max_examples=60, deadline=None)
@given(st.lists(_integer_valued_poly(max_degree=3), min_size=1, max_size=2),
       st.data(), st.integers(1, 200))
def test_rational_weyl_rows_are_one_rounding_of_the_exact_sum(entries, data, n_count):
    polys = PolyVector(entries)
    rows = [[F(data.draw(st.integers(-13, 13)), data.draw(st.integers(1, 13)))
             for _ in entries] for _ in range(data.draw(st.integers(1, 3)))]
    got = weyl_sums(polys, rows, n_count)
    assert [(w.real.hex(), w.imag.hex()) for w in got] == \
        [(w.real.hex(), w.imag.hex())
         for w in (_reference_rational_weyl(polys, row, n_count) for row in rows)]


@pytest.mark.parametrize("n_count", [1, 4, 7, 1000, 1001])
def test_residue_counts_cover_every_point_once(n_count):
    # n(n+1)/2 mod 2 runs 1, 1, 0, 0: four points are streamed at most
    polys = PolyVector([poly_parse("1/2*n^2 + 1/2*n", ["n"])])
    q, total, counts = residue_counts(polys, [F(1, 2)], n_count)
    assert (q, total) == (2, n_count)
    assert counts == {j: c for j, c in ((0, sum(n % 4 in (3, 0) for n in range(1, n_count + 1))),
                                        (1, sum(n % 4 in (1, 2) for n in range(1, n_count + 1))))
                      if c}
    assert residue_counts(polys, [F(1, 2)]) == (2, 4, {1: 2, 0: 2})


def test_a_rational_row_streams_at_most_N_points(monkeypatch):
    # the period of 1/1000003 is 1000003 points; N = 50 streams 50 of them
    fixed_phases = kernel.fixed_phases
    streamed = []

    def counted(polys, rows, count, precision):
        moduli, blocks = fixed_phases(polys, rows, count, precision)

        def tally():
            for block in blocks:
                block = [list(run) for run in block]
                streamed.append(len(block[0]))
                yield block
        return moduli, tally()

    monkeypatch.setattr(kernel, "fixed_phases", counted)
    polys = PolyVector([poly_parse("n", ["n"])])
    row = [F(1, 1000003)]
    (value,) = weyl_sums(polys, [row], 50)
    assert 0 < sum(streamed) <= 50
    assert value == _reference_rational_weyl(polys, row, 50)


def _bohr3() -> BohrSet:
    return BohrSet(
        3,
        [[Real.named("sqrt2"), Real.named("sqrt3"), Real.named("sqrt5")]],
        [F(1, 5)],
    )


def test_magyar_experiment_small():
    report = corollary_experiment(MAGYAR, poly_parse("z^2", ["z"]), _bohr3(), 1, [1, -2, 3],
                                  10 ** 5)
    assert report.all_found()
    for record in report.records:
        assert record.f_value == record.target
        assert record.n is not None and record.n <= 10 ** 5
    assert report.exit_status() == 0


def test_magyar_witnesses_revalidate():
    oracle = _bohr3()
    p = poly_parse("z^2", ["z"])
    report = corollary_experiment(MAGYAR, p, oracle, 1, [2, -1], 10 ** 5)
    form = poly_parse("x*y - z^2", ["x", "y", "z"])
    for record in report.records:
        assert oracle.contains_difference(record.witness)
        value = form.eval(dict(zip(("x", "y", "z"), record.witness)))
        assert value == record.target


def test_magyar_k_divisibility():
    oracle = _bohr3()
    k = 2
    report = corollary_experiment(MAGYAR, poly_parse("z^2", ["z"]), oracle, k, [4, -8], 10 ** 5)
    assert report.all_found()
    for record in report.records:
        assert all(x % k == 0 for x in record.witness)


def test_magyar_target_preconditions():
    with pytest.raises(ValueError, match=r"^target 3 is not a non-zero multiple of k\^2=4$"):
        corollary_experiment(MAGYAR, poly_parse("z^2", ["z"]), _bohr3(), 2, [3], 100)
    with pytest.raises(ValueError, match=r"^target 0 is not a non-zero multiple of k\^2=1$"):
        corollary_experiment(MAGYAR, poly_parse("z^2", ["z"]), _bohr3(), 1, [0], 100)


def test_bogolubov_target_preconditions():
    oracle = BohrSet(2, [[Real.named("sqrt2"), Real.named("sqrt3")]], [F(1, 5)])
    with pytest.raises(ValueError, match=r"^target 3 is not a multiple of k=2$"):
        corollary_experiment(BOGOLUBOV, poly_parse("y^2", ["y"]), oracle, 2, [4, 3], 100)
    # 0 is a multiple of k, and F = 0 is a target of x - P(y)
    BOGOLUBOV.check(poly_parse("y^2", ["y"]), oracle, 2, [0, -2])
    with pytest.raises(ValueError, match=r"^k must be positive, got 0$"):
        BOGOLUBOV.check(poly_parse("y^2", ["y"]), oracle, 0, [0])


def test_corollary_rejects_a_set_model_of_the_wrong_dimension():
    bohr2 = BohrSet(2, [[Real.named("sqrt2"), Real.named("sqrt3")]], [F(1, 5)])
    window3 = WindowSet(3, 30, [(0, 0, 0), (4, 2, 1)])
    for corollary, p, oracle, message in (
            (MAGYAR, poly_parse("z^2", ["z"]), bohr2,
             "magyar needs a set model of dimension 3, got dimension 2"),
            (BOGOLUBOV, poly_parse("y^2", ["y"]), window3,
             "bogolubov needs a set model of dimension 2, got dimension 3")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            corollary.check(p, oracle, 1, [1])
        with pytest.raises(ValueError, match=f"^{message}$"):
            corollary_experiment(corollary, p, oracle, 1, [1], 10)


# report bodies (the `#` timing lines stripped) frozen from the two
# corollary drivers this one replaced, at k = 2
FROZEN_REPORTS = {
    "magyar": """experiment magyar
seed 5
config N_max = 10000
config P = z^2
config experiment = magyar
config k = 2
config oracle = bohr dim=3 torus_dim=1 freq=[(sqrt2, sqrt3, sqrt5)] radii=[1/40]
config targets = 4 -8 12
target 4: found n=13 witness=(18213371598033450695343292447735810 617831554 3354518695430459243856) F=4
target -8: found n=17 witness=(11390007344370282927885259074256781314 3089608828 187591756860879316822800) F=-8
target 12: found n=5 witness=(2000006000004000000000002 2000006 2000006000002000) F=12""",
    "bogolubov": """experiment bogolubov
seed 5
config N_max = 10000
config P = y^2
config experiment = bogolubov
config k = 2
config oracle = bohr dim=2 torus_dim=1 freq=[(sqrt2, sqrt3)] radii=[1/40]
config targets = 2 -4 6
target 2: found n=23 witness=(9474296898 97336) F=2
target -4: found n=3 witness=(46652 216) F=-4
target 6: found n=2 witness=(4102 64) F=6""",
}


@pytest.mark.parametrize("corollary, p, var, freq, targets", [
    (MAGYAR, "z^2", "z", ["sqrt2", "sqrt3", "sqrt5"], [4, -8, 12]),
    (BOGOLUBOV, "y^2", "y", ["sqrt2", "sqrt3"], [2, -4, 6]),
], ids=["magyar", "bogolubov"])
def test_corollary_report_body_frozen(corollary, p, var, freq, targets):
    oracle = BohrSet(len(freq), [[Real.named(x) for x in freq]], [F(1, 40)])
    report = corollary_experiment(corollary, poly_parse(p, [var]), oracle, 2, targets,
                                  10 ** 4, seed=5)
    body = [line for line in report.to_text().splitlines() if not line.startswith("#")]
    assert "\n".join(body) == FROZEN_REPORTS[corollary.name]


def test_bogolubov_experiment_dense_window():
    window = WindowSet(2, 30, [(a, b) for a in range(30) for b in range(30)])
    report = corollary_experiment(BOGOLUBOV, poly_parse("y^2", ["y"]), window, 1, [4], 10)
    assert report.all_found()
    record = report.records[0]
    assert record.witness[0] - record.witness[1] ** 2 == 4


def test_bogolubov_experiment_bohr():
    oracle = BohrSet(2, [[Real.named("sqrt2"), Real.named("sqrt3")]], [F(1, 5)])
    report = corollary_experiment(BOGOLUBOV, poly_parse("y^2", ["y"]), oracle, 1, [1, -1, 5],
                                  10 ** 5)
    assert report.all_found()
    for record in report.records:
        assert record.witness[0] - record.witness[1] ** 2 == record.target


def test_bogolubov_exhausted_on_sparse_window():
    window = WindowSet(2, 4, [(0, 0), (1, 3)])
    report = corollary_experiment(BOGOLUBOV, poly_parse("y^2", ["y"]), window, 1, [2], 3)
    assert report.records[0].status is Status.EXHAUSTED
    assert report.exit_status() == 2


def test_report_text_and_csv_shape():
    window = WindowSet(2, 30, [(a, b) for a in range(30) for b in range(30)])
    report = corollary_experiment(BOGOLUBOV, poly_parse("y^2", ["y"]), window, 1, [4, 9], 10)
    text = report.to_text()
    assert "experiment bogolubov" in text
    assert "target 4: found" in text
    rows = report.csv_rows()
    assert rows[0] == ["target", "status", "n", "w1", "w2", "f_value", "millis"]
    assert rows[1][0] == "4" and rows[1][1] == "found"
    # timing stays in the marked column / marked comment lines
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert all("millis" not in line for line in body)
