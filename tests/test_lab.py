"""Set models, difference oracles, searches, experiments, Weyl sums."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywalk.generators import bogolubov_walk, xy_minus_P_walks
from polywalk.kernel import orbit_points
from polywalk.lab import (
    BohrSet,
    IndeterminateError,
    Status,
    WindowSet,
    bogolubov_experiment,
    magyar_experiment,
    twisted_search,
    weyl_sum,
    weyl_sum_rational,
)
from polywalk.poly import MPoly, PolyVector, binomial_poly, poly_parse
from polywalk.reals import Real

F = Fraction


def _brute_force_diff(points, w):
    # double-loop enumeration oracle
    for b1 in points:
        for b2 in points:
            if tuple(a - b for a, b in zip(b1, b2)) == tuple(w):
                return True
    return False


def test_window_basic_membership():
    w = WindowSet(1, 4, [(0,), (2,), (3,)])
    assert w.contains((2,)) and not w.contains((1,))
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


def test_window_index_and_scan_paths_agree():
    rng = random.Random(7)
    points = [(rng.randrange(6), rng.randrange(6)) for _ in range(14)]
    indexed = WindowSet(2, 6, points)
    scanning = WindowSet(2, 6, points)
    # force the scan path on one copy by pretending the window is huge
    scanning.side = 200
    queries = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(40)]
    for w in queries:
        expected = _brute_force_diff(indexed.points, w)
        assert indexed.contains_difference(w) == expected
        assert scanning.contains_difference(w) == expected


def test_window_scans_before_building_the_index():
    w = WindowSet(1, 10, [(0,), (3,), (7,)])
    # differences of points in [0, side) lie strictly inside (-side, side)
    assert not w.contains_difference((10,))
    assert not w.contains_difference((-12,))
    for _ in range(3):
        assert w.contains_difference((4,))   # 7 - 3
    assert w._diff_index is None
    assert w.contains_difference((-7,))
    assert w._diff_index is not None


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


def test_bohr_membership_examples():
    b = BohrSet(1, [[Real.named("sqrt2")]], [F(1, 10)])
    assert b.contains((0,))
    assert not b.contains((1,))   # frac(sqrt2) = 0.41421...
    assert b.contains((5,))       # frac(5*sqrt2) = 0.07107...


def test_bohr_membership_oracle_digits():
    # independent high-precision check of the two decisions above
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


def test_bohr_indeterminate_on_boundary():
    # rational frequency puts frac(A*w) exactly on the overlap boundary
    b = BohrSet(1, [[F(1, 4)]], [F(1, 8)])
    with pytest.raises(IndeterminateError):
        b.contains_difference((1,))   # dist = 1/4 = 2*eps exactly
    member = BohrSet(1, [[F(1, 4)]], [F(1, 4)])
    with pytest.raises(IndeterminateError):
        member.contains((1,))         # dist = eps exactly


def test_twisted_search_density_one():
    everything = WindowSet(1, 9, [(i,) for i in range(9)])
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    # need a 1-d walk-like orbit: use a 2-d window instead
    window = WindowSet(2, 9, [(i, j) for i in range(9) for j in range(9)])
    result = twisted_search(walk, (0, 0), window, 10)
    assert result.found() and result.n == 1


def test_twisted_search_even_window_example():
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    window = WindowSet(2, 20, [(a, b) for a in range(0, 20, 2) for b in range(20)])
    result = twisted_search(walk, (0, 0), window, 50)
    # S(n)(0,0) = (n^2, n) needs n^2 even, first at n = 2
    assert result.n == 2
    assert result.point == (4, 2)


def test_twisted_search_exhausted_on_empty_oracle():
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    empty = WindowSet(2, 5, [])
    result = twisted_search(walk, (0, 0), empty, 25)
    assert result.status is Status.EXHAUSTED


@pytest.mark.parametrize("n_max", [0, -3])
def test_twisted_search_rejects_empty_range(n_max):
    # an empty range is an input error, not an exhausted or indeterminate search
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    window = WindowSet(2, 20, [(a, b) for a in range(0, 20, 2) for b in range(20)])
    with pytest.raises(ValueError, match=f"N_max must be >= 1, got {n_max}"):
        twisted_search(walk, (0, 0), window, n_max)


def test_twisted_search_monotone_in_range():
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    window = WindowSet(2, 20, [(a, b) for a in range(0, 20, 2) for b in range(20)])
    small = twisted_search(walk, (0, 0), window, 10)
    large = twisted_search(walk, (0, 0), window, 500)
    assert small.n == large.n == 2


def test_twisted_search_indeterminate_propagation():
    # every orbit point lands exactly on the boundary: all candidates indeterminate
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    boundary = BohrSet(2, [[F(1, 4), F(0)]], [F(1, 8)])
    # orbit from (1, 0): (1 + n^2, n); frac((1 + n^2)/4) hits 1/4 when n odd
    result = twisted_search(walk, (1, 0), boundary, 2)
    assert result.indeterminate >= 1
    assert result.status in (Status.EXHAUSTED, Status.INDETERMINATE)
    all_boundary = BohrSet(1, [[F(1, 2)]], [F(1, 4)])
    with pytest.raises(IndeterminateError):
        all_boundary.contains_difference((1,))


# -- the Bohr scan against the per-query oracle ----------------------------------

def _reference_verdicts(oracle, polys, count):
    # per point: eval_int, then the exact dot_frac route
    out = []
    for n in range(1, count + 1):
        try:
            out.append(oracle.contains_difference(polys.eval_int({"n": n})))
        except IndeterminateError:
            out.append(None)
    return out


def _reference_twisted_search(walk, v, oracle, n_max):
    # the per-point loop the scan replaced
    indeterminate = 0
    for n, point in enumerate(orbit_points(walk.orbit_poly(v), n_max), start=1):
        try:
            if oracle.contains_difference(point):
                return Status.FOUND, n, point, indeterminate
        except IndeterminateError:
            indeterminate += 1
    status = Status.INDETERMINATE if indeterminate == n_max else Status.EXHAUSTED
    return status, None, None, indeterminate


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
_precision = st.integers(0, 80)


@st.composite
def _bohr_set(draw, dim):
    # rows of rationals (exact, with ties), irrational rows and mixed ones
    row = st.one_of(st.lists(_rational.map(Real), min_size=dim, max_size=dim),
                    st.lists(_entry, min_size=dim, max_size=dim))
    rows = draw(st.lists(row, min_size=1, max_size=3))
    torus_dim = len(rows)
    radii = [draw(_radius) for _ in range(torus_dim)]
    return BohrSet(dim, rows, radii, precision=draw(_precision))


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
       st.lists(_radius, min_size=1, max_size=1), _precision)
def test_bohr_scan_on_rational_rows_is_exact(pair, radii, precision):
    # W = 0: the scan sees the exact distance, ties included
    polys = PolyVector(pair)
    oracle = BohrSet(2, [[F(1, 4), F(1, 6)]], radii, precision=precision)
    assert list(oracle.difference_verdicts(polys, 48)) == \
        _reference_verdicts(oracle, polys, 48)


def test_bohr_scan_exact_ties_are_indeterminate():
    # frac(n/4) lies at distance exactly 1/4 = 2r from 0 for odd n
    orbit = PolyVector([poly_parse("n", ["n"])])
    rational = BohrSet(1, [[F(1, 4)]], [F(1, 8)])
    expected = [None, False, None, True] * 3
    assert list(rational.difference_verdicts(orbit, 12)) == expected
    assert _reference_verdicts(rational, orbit, 12) == expected
    # the same tie on a row that also has an irrational entry (W > 0)
    plane = PolyVector([poly_parse("n", ["n"]), poly_parse("0", ["n"])])
    mixed = BohrSet(2, [[F(1, 4), Real.named("golden")]], [F(1, 8)])
    assert list(mixed.difference_verdicts(plane, 12)) == expected
    assert _reference_verdicts(mixed, plane, 12) == expected


def test_bohr_scan_guard_band_on_both_sides():
    # distances 1/4 +- delta against 2r = 1/4 with G = 10^-18
    orbit = PolyVector([poly_parse("n", ["n"])])
    cases = [
        (F(1, 4) + F(1, 10 ** 20), None), (F(1, 4) - F(1, 10 ** 20), None),
        (Real(F(1, 4)) + Real.named("sqrt2", F(1, 10 ** 25)), None),
        (F(1, 4) + F(1, 10 ** 17), False), (F(1, 4) - F(1, 10 ** 17), True),
        (Real(F(1, 4)) - Real.named("pifrac", F(1, 10 ** 16)), True),
    ]
    for theta, verdict in cases:
        oracle = BohrSet(1, [[theta]], [F(1, 8)])
        assert next(oracle.difference_verdicts(orbit, 1)) is verdict
        assert _reference_verdicts(oracle, orbit, 1) == [verdict]


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
    result = twisted_search(walk, v, oracle, n_max)
    expected = _reference_twisted_search(walk, v, oracle, n_max)
    assert (result.status, result.n, result.point, result.indeterminate) == expected


def test_twisted_search_window_matches_per_point_loop():
    rng = random.Random(5)
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    for _ in range(20):
        window = WindowSet(2, 30, [(rng.randrange(30), rng.randrange(30)) for _ in range(25)])
        v = (rng.randrange(-10, 10), rng.randrange(-3, 3))
        result = twisted_search(walk, v, window, 40)
        expected = _reference_twisted_search(walk, v, window, 40)
        assert (result.status, result.n, result.point, result.indeterminate) == expected


def test_twisted_search_found_after_indeterminate_candidates():
    # n = 1 is a tie (indeterminate), n = 2 the first certified hit
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    oracle = BohrSet(2, [[F(1, 4), F(0)]], [F(1, 8)])
    result = twisted_search(walk, (0, 0), oracle, 10)   # orbit (n^2, n)
    assert (result.status, result.n, result.point, result.indeterminate) == \
        (Status.FOUND, 2, (4, 2), 1)


def test_bohr_scan_dimension_mismatch():
    oracle = _bohr3()
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    with pytest.raises(ValueError, match="wrong dimension"):
        twisted_search(walk, (1, 0), oracle, 10)
    with pytest.raises(ValueError, match="wrong dimension"):
        oracle.difference_verdicts(walk.orbit_poly((1, 0)), 10)


def test_weyl_sum_zero_frequency():
    polys = PolyVector([poly_parse("n", ["n"])])
    assert weyl_sum(polys, [0], 200) == pytest.approx(1.0)


def test_weyl_sum_cube_roots_cancel():
    polys = PolyVector([poly_parse("n", ["n"])])
    value = weyl_sum(polys, [F(1, 3)], 300)
    assert abs(value) < 1e-12


def test_weyl_sum_equidistribution_quadratic():
    polys = PolyVector([poly_parse("n^2", ["n"])])
    value = weyl_sum(polys, [Real.named("sqrt2")], 20000)
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
    assert mean.constant_residue == 0


def test_weyl_periodic_cross_check():
    # numeric average over N = q*m equals the exact periodic mean
    rng = random.Random(11)
    for _ in range(6):
        q = rng.choice([2, 3, 4, 5, 6])
        polys = PolyVector([poly_parse(f"{rng.randint(1,3)}*n^2 + {rng.randint(0,4)}*n", ["n"])])
        theta = F(rng.randint(1, q - 1), q)
        n_count = q * rng.randint(3, 12)
        numeric = weyl_sum(polys, [theta], n_count)
        exact = weyl_sum_rational(polys, [theta], n_count).value()
        assert abs(numeric - exact) < 1e-9


def test_weyl_sum_rational_binomial_orbit():
    # n(n+1)/2 mod 2 has period 4, not q = 2
    polys = PolyVector([poly_parse("1/2*n^2 + 1/2*n", ["n"])])
    for n_count in (4, 7, 1000, 1001):
        exact = weyl_sum_rational(polys, [F(1, 2)], n_count).value()
        assert abs(weyl_sum(polys, [F(1, 2)], n_count) - exact) < 1e-12


def test_weyl_sum_multidimensional():
    polys = PolyVector([poly_parse("n^2", ["n"]), poly_parse("n^3", ["n"])])
    value = weyl_sum(polys, [Real.named("sqrt2"), Real.named("sqrt3")], 5000)
    assert abs(value) < 0.05


def _bohr3() -> BohrSet:
    return BohrSet(
        3,
        [[Real.named("sqrt2"), Real.named("sqrt3"), Real.named("sqrt5")]],
        [F(1, 5)],
    )


def test_magyar_experiment_small():
    report = magyar_experiment(poly_parse("z^2", ["z"]), _bohr3(), 1, [1, -2, 3], 10 ** 5)
    assert report.all_found()
    for record in report.records:
        assert record.f_value == record.target
        assert record.n is not None and record.n <= 10 ** 5
    assert report.exit_status() == 0


def test_magyar_witnesses_revalidate():
    oracle = _bohr3()
    p = poly_parse("z^2", ["z"])
    report = magyar_experiment(p, oracle, 1, [2, -1], 10 ** 5)
    form = poly_parse("x*y - z^2", ["x", "y", "z"])
    for record in report.records:
        assert oracle.contains_difference(record.witness)
        value = form.eval(dict(zip(("x", "y", "z"), record.witness)))
        assert value == record.target


def test_magyar_k_divisibility():
    oracle = _bohr3()
    k = 2
    report = magyar_experiment(poly_parse("z^2", ["z"]), oracle, k, [4, -8], 10 ** 5)
    assert report.all_found()
    for record in report.records:
        assert all(x % k == 0 for x in record.witness)


def test_magyar_target_preconditions():
    with pytest.raises(ValueError, match="multiple of k"):
        magyar_experiment(poly_parse("z^2", ["z"]), _bohr3(), 2, [3], 100)
    with pytest.raises(ValueError, match="multiple of k"):
        magyar_experiment(poly_parse("z^2", ["z"]), _bohr3(), 1, [0], 100)


def test_bogolubov_experiment_dense_window():
    window = WindowSet(2, 30, [(a, b) for a in range(30) for b in range(30)])
    report = bogolubov_experiment(poly_parse("y^2", ["y"]), window, 1, [4], 10)
    assert report.all_found()
    record = report.records[0]
    assert record.witness[0] - record.witness[1] ** 2 == 4


def test_bogolubov_experiment_bohr():
    oracle = BohrSet(2, [[Real.named("sqrt2"), Real.named("sqrt3")]], [F(1, 5)])
    report = bogolubov_experiment(poly_parse("y^2", ["y"]), oracle, 1, [1, -1, 5], 10 ** 5)
    assert report.all_found()
    for record in report.records:
        assert record.witness[0] - record.witness[1] ** 2 == record.target


def test_bogolubov_exhausted_on_sparse_window():
    window = WindowSet(2, 4, [(0, 0), (1, 3)])
    report = bogolubov_experiment(poly_parse("y^2", ["y"]), window, 1, [2], 3)
    assert report.records[0].status is Status.EXHAUSTED
    assert report.exit_status() == 2


def test_report_text_and_csv_shape():
    window = WindowSet(2, 30, [(a, b) for a in range(30) for b in range(30)])
    report = bogolubov_experiment(poly_parse("y^2", ["y"]), window, 1, [4, 9], 10)
    text = report.to_text()
    assert "experiment bogolubov" in text
    assert "target 4: found" in text
    rows = report.csv_rows()
    assert rows[0] == ["target", "status", "n", "w1", "w2", "f_value", "millis"]
    assert rows[1][0] == "4" and rows[1][1] == "found"
    # timing stays in the marked column / marked comment lines
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert all("millis" not in line for line in body)
