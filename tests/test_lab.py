"""Set models, difference oracles, searches, experiments, Weyl sums."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from polywalk.generators import bogolubov_walk
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
from polywalk.poly import PolyVector, poly_parse
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
