"""Torus systems: character classification, closed-form orbit averages,
empirical averages, modulus selection, correlation estimates."""

import functools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decimal_reference import decimal_digits

from polywalk.ergodic import (
    BoxIndicator,
    TorusSystem,
    TrigPoly,
    _BoxIndex,
    choose_k,
    classify_characters,
    correlation_average,
    empirical_average,
    q_p_closed_form,
    q_p_multipliers,
)
from polywalk.lab import weyl_sums
from polywalk.poly import MPoly, PolyVector, poly_parse
from polywalk.reals import Real, RootOfUnityMean, cyclotomic, parse_real

F = Fraction


def _period(info) -> int | None:
    """The period of an induced character: the lcm of the denominators of
    its row when every entry is rational, None otherwise."""
    if not all(entry.is_rational() for entry in info.row):
        return None
    return math.lcm(*(entry.as_fraction().denominator for entry in info.row))


def rational_projection(sys: TorusSystem, f: TrigPoly) -> TrigPoly:
    """Keep exactly the components with rational induced character: the
    projection the Jensen-inequality tests below take, built on
    `classify_characters`."""
    infos = {info.freq: info for info in classify_characters(sys, f)}
    return TrigPoly.of(
        (freq, coeff) for freq, coeff in f.components if _period(infos[freq])
    )


# TrigPoly algebra for the Jensen tests: the constant term, the L2 inner
# product and the product of two trigonometric polynomials

def _integral(f: TrigPoly) -> complex:
    return next((c for freq, c in f.components if not any(freq)), 0j)


def _inner(f: TrigPoly, g: TrigPoly) -> complex:
    other = dict(g.components)
    return sum(c * other[freq].conjugate() for freq, c in f.components if freq in other)


def _mul(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    return TrigPoly.of((tuple(a + b for a, b in zip(fa, fb)), ca * cb)
                       for fa, ca in f.components for fb, cb in g.components)


def _constant_residue(mean):
    # the single residue hit by every term of a RootOfUnityMean, if any
    hits = [j for j, c in enumerate(mean.counts) if c]
    return hits[0] if len(hits) == 1 else None


def _pv(expr: str) -> PolyVector:
    return PolyVector([poly_parse(piece.strip(), ("n",)) for piece in expr.split(",")])


def test_classify_rational_denominator():
    sys1 = TorusSystem([[F(1, 3)]])
    infos = classify_characters(sys1, TrigPoly.of([((1,), 1.0)]))
    assert _period(infos[0]) == 3


def test_classify_irrational_and_trivial():
    sys1 = TorusSystem([[Real.named("sqrt2")]])
    f = TrigPoly.of([((1,), 1.0), ((0,), 0.5)])
    infos = {info.freq: info for info in classify_characters(sys1, f)}
    assert _period(infos[(1,)]) is None
    assert _period(infos[(0,)]) == 1


def test_classify_combination_cancels_to_rational():
    # two torus rows with the same irrational entry: m = (1, -1) induces a
    # rational character even though each row alone is irrational
    sys2 = TorusSystem([[Real.named("sqrt2")], [Real.named("sqrt2") + F(1, 2)]])
    f = TrigPoly.of([((1, -1), 1.0)])
    info = classify_characters(sys2, f)[0]
    assert _period(info) == 2


def test_multiplier_exactly_one_for_divisible_orbit():
    sys1 = TorusSystem([[F(1, 3)]])
    f = TrigPoly.of([((1,), 1.0)])
    (_, mean), = q_p_multipliers(sys1, f, _pv("3*n"))
    assert mean.is_exactly_one


def test_multiplier_exactly_zero_for_linear_orbit():
    sys1 = TorusSystem([[F(1, 3)]])
    f = TrigPoly.of([((1,), 1.0)])
    (_, mean), = q_p_multipliers(sys1, f, _pv("n"))
    assert mean.is_exactly_zero
    assert mean.counts == (1, 1, 1)


def test_multiplier_battery_exact_identity():
    # p(n) = k*n + k*n^3 lands in k*Z, so the multiplier is exactly 1
    for k in (2, 3, 4, 6, 12):
        sysk = TorusSystem([[F(1, k)]])
        f = TrigPoly.of([((1,), 1.0)])
        (info, mean), = q_p_multipliers(sysk, f, _pv(f"{k}*n + {k}*n^3"))
        assert _period(info) == k
        assert mean.is_exactly_one


def _float(x: Real) -> float:
    rational, irrational = x.basis()
    return float(rational) + sum(float(c) * math.sqrt(int(name[4:]))
                                 for name, c in irrational.items())


_PARTS = [F(0), F(1, 2), F(1, 3), F(-1, 4)]
_IRRATIONAL_PARTS = [Real(0), Real(0), Real.named("sqrt2"), Real.named("sqrt2", -1),
                     Real.named("sqrt3"), Real.named("golden")]
_ORBIT_ENTRIES = ["0", "1", "n", "2*n", "3*n + 1", "n^2", "n^2 + n", "1/2*n^2 + 1/2*n",
                  "n^3 - n"]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_multiplier_is_the_limit_of_the_exact_phase_polynomial(dim, torus_dim, data):
    """Reference: the exact phases s(n) = <A^T m, p(n)> at n = 0, ..., D and
    their forward differences.  s is "rational non-constant" iff every
    difference of order >= 1 is rational; otherwise the limit is 0 (Weyl).
    Then s(n) = c + R(n), c the irrational part of s(0) and
    R(n) = sum_k r_k C(n, k) rational, of period dividing Q D! (Q the lcm of
    the denominators of the r_k), and the limit is e(c) times the mean of
    e(R(n)) over two such periods, by brute force."""
    draw = data.draw
    rows = [[draw(st.sampled_from(_PARTS)) + draw(st.sampled_from(_IRRATIONAL_PARTS))
             for _ in range(dim)] for _ in range(torus_dim)]
    polys = _pv(", ".join(draw(st.sampled_from(_ORBIT_ENTRIES)) for _ in range(dim)))
    freq = tuple(draw(st.integers(-2, 2)) for _ in range(torus_dim))
    (info, mean), = q_p_multipliers(TorusSystem(rows), TrigPoly.of([(freq, 1.0)]), polys)

    row = [sum((rows[j][i].scale(m) for j, m in enumerate(freq)), Real(0)) for i in range(dim)]
    degree = max(1, polys.max_degree())
    level = [sum((x.scale(v) for x, v in zip(row, polys.eval_int({"n": n}))), Real(0))
             for n in range(degree + 1)]
    differences = [level[0]]
    while len(level) > 1:
        level = [b - a for a, b in zip(level, level[1:])]
        differences.append(level[0])
    if not all(d.is_rational() for d in differences[1:]):
        assert mean is None
        return
    shift = differences[0] - differences[0].basis()[0]
    coefficients = [differences[0].basis()[0]] + [d.as_fraction() for d in differences[1:]]
    period = math.lcm(*(c.denominator for c in coefficients)) * math.factorial(degree)
    phases = [sum(c * math.comb(n, k) for k, c in enumerate(coefficients)) % 1
              for n in range(1, 2 * period + 1)]
    angles = [2 * math.pi * (float(x) + _float(shift)) for x in phases]
    expected = complex(math.fsum(map(math.cos, angles)), math.fsum(map(math.sin, angles)))
    assert mean is not None
    assert abs(mean.value() - expected / len(phases)) < 1e-9
    assert mean.is_exactly_one == (shift == 0 and not any(phases))


def test_golden_is_half_plus_half_sqrt5():
    # 2*golden - sqrt5 = 1: the character of frequency (2, -1) is trivial
    assert Real.named("golden", 2) - Real.named("sqrt5") == 1
    sys2 = TorusSystem([[Real.named("golden")], [Real.named("sqrt5")]])
    f = TrigPoly.of([((2, -1), 1.0)])
    closed = q_p_closed_form(sys2, f, _pv("n"))
    assert closed.components == (((2, -1), 1 + 0j),)
    assert closed.value_at([0.0, 0.0]) == 1


def test_multiplier_period_of_binomial_orbit():
    # n(n+1)/2 is odd, odd, even, even: the mean of (-1)^p(n) is exactly 0,
    # while one period of length q = 2 would read -1
    sys1 = TorusSystem([[F(1, 2)]])
    f = TrigPoly.of([((1,), 1.0)])
    (_, mean), = q_p_multipliers(sys1, f, _pv("1/2*n^2 + 1/2*n"))
    assert mean.is_exactly_zero
    assert mean.counts == (2, 2)


@pytest.mark.parametrize("theta, orbit, counts", [
    (F(1, 6), "n^2", (1, 2, 0, 1, 2, 0)),   # 1 + 2z + z^3 + 2z^4 at z = e(1/6)
    (F(1, 4), "2*n", (2, 0, 2, 0)),
])
def test_multiplier_exactly_zero_beyond_uniform_counts(theta, orbit, counts):
    sys1 = TorusSystem([[theta]])
    f = TrigPoly.of([((1,), 1.0)])
    (_, mean), = q_p_multipliers(sys1, f, _pv(orbit))
    assert mean.counts == counts
    assert mean.is_exactly_zero and mean.value() == 0j
    assert q_p_closed_form(sys1, f, _pv(orbit)).components == ()


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_divisor_product_is_x_to_the_q_minus_one():
    for q in range(1, 41):
        product = [1]
        for d in range(1, q + 1):
            if q % d == 0:
                product = _poly_mul(product, cyclotomic(d))
        assert product == [-1] + [0] * (q - 1) + [1]
        # monic of degree phi(q)
        assert cyclotomic(q)[-1] == 1 and len(cyclotomic(q)) - 1 == sum(
            math.gcd(q, k) == 1 for k in range(1, q + 1))


def _divmod_monic(a, b):
    """Quotient and remainder by a monic b; coefficients lowest degree first."""
    rem, k = list(a), len(b) - 1
    quot = [0] * max(len(a) - k, 0)
    for i in reversed(range(len(quot))):
        c = quot[i] = rem[i + k]
        for j, coeff in enumerate(b):
            rem[i + j] -= c * coeff
    return quot, rem[:k]


_REFERENCE_CYCLOTOMIC: dict[int, tuple[int, ...]] = {}


def _reference_cyclotomic(q):
    """x^q - 1 divided by the d-th cyclotomic polynomial for each d | q,
    d < q: the recursive construction, about q^2 steps."""
    if q not in _REFERENCE_CYCLOTOMIC:
        poly = [-1] + [0] * (q - 1) + [1]
        for d in range(1, q):
            if q % d == 0:
                poly, _ = _divmod_monic(poly, _reference_cyclotomic(d))
        _REFERENCE_CYCLOTOMIC[q] = tuple(poly)
    return _REFERENCE_CYCLOTOMIC[q]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 300))
def test_cyclotomic_product_formula_matches_the_recursion(q):
    assert cyclotomic(q) == _reference_cyclotomic(q)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 120), st.data())
def test_exactly_zero_matches_the_reference_division(q, data):
    phi = _reference_cyclotomic(q)
    counts = data.draw(st.lists(st.integers(-3, 3), min_size=q, max_size=q))
    if data.draw(st.booleans()):
        # a multiple of Phi_q, perhaps with one count moved
        factor = data.draw(st.lists(st.integers(-3, 3), min_size=q - len(phi) + 1,
                                    max_size=q - len(phi) + 1))
        counts = _poly_mul(phi, factor)
        counts[data.draw(st.integers(0, q - 1))] += data.draw(st.sampled_from([0, 0, 1]))
    _, rem = _divmod_monic(counts, phi)
    assert RootOfUnityMean(q, tuple(counts), sum(counts)).is_exactly_zero == (not any(rem))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 60), st.data())
def test_root_of_unity_mean_is_zero_exactly_on_polygon_sums(q, data):
    # a regular p-gon of q-th roots (p a prime factor of q), rotated, sums
    # to 0; one more root cannot, as the q-th cyclotomic polynomial does
    # not divide a monomial
    primes = [p for p in range(2, q + 1) if q % p == 0 and all(p % d for d in range(2, p))]
    counts = [0] * q
    for _ in range(data.draw(st.integers(1, 4))):
        p = data.draw(st.sampled_from(primes))
        start = data.draw(st.integers(0, q - 1))
        for i in range(p):
            counts[(start + i * q // p) % q] += 1
    mean = RootOfUnityMean(q, tuple(counts), sum(counts))
    assert mean.is_exactly_zero and mean.value() == 0j
    counts[data.draw(st.integers(0, q - 1))] += 1
    assert not RootOfUnityMean(q, tuple(counts), sum(counts)).is_exactly_zero


def test_multiplier_constant_nonzero_residue():
    # p(n) = 3n + 1 has constant residue 1/3: multiplier is the exact root e(1/3)
    sys1 = TorusSystem([[F(1, 3)]])
    f = TrigPoly.of([((1,), 1.0)])
    (_, mean), = q_p_multipliers(sys1, f, _pv("3*n + 1"))
    assert _constant_residue(mean) == 1
    expected = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    assert mean.value() == pytest.approx(expected)


def test_closed_form_drops_irrational_components():
    sys2 = TorusSystem([[F(1, 2), Real.named("sqrt2")],
                        [F(0), F(1, 3)]])
    f = TrigPoly.of([((1, 0), 0.7), ((0, 1), 0.3)])
    polys = PolyVector([poly_parse("6*n", ("n",)), poly_parse("6*n^2", ("n",))])
    limit = q_p_closed_form(sys2, f, polys)
    # (1,0) induces (1/2, sqrt2): irrational, dropped; (0,1) induces (0, 1/3)
    assert dict(limit.components) == {(0, 1): 0.3 + 0j}


def test_closed_form_requires_integer_valued_orbit():
    sys1 = TorusSystem([[F(1, 3)]])
    f = TrigPoly.of([((1,), 1.0)])
    bad = PolyVector([MPoly(("n",), {(1,): F(1, 2)})])
    with pytest.raises(ValueError, match="integer-valued"):
        q_p_closed_form(sys1, f, bad)


def test_rational_projection_idempotent_and_selective():
    sys1 = TorusSystem([[Real.named("sqrt2")], [F(1, 4)]])
    f = TrigPoly.of([((1, 0), 1.0), ((0, 1), 2.0), ((0, 0), 0.25)])
    projected = rational_projection(sys1, f)
    assert dict(projected.components) == {(0, 1): 2.0 + 0j, (0, 0): 0.25 + 0j}
    assert rational_projection(sys1, projected) == projected
    all_irrational = TrigPoly.of([((1, 0), 1.0)])
    assert rational_projection(sys1, all_irrational).components == ()


def test_empirical_average_constant_observable():
    sys1 = TorusSystem([[Real.named("sqrt2")]])
    f = TrigPoly.of([((0,), 1.0)])
    for n_count in (1, 7, 100):
        result = empirical_average(sys1, f, _pv("n^2"), n_count)
        assert result.value == pytest.approx(1.0)


def test_empirical_average_exact_rational_case():
    # k = 3 character with orbit in 3Z: every term is 1 exactly
    sys1 = TorusSystem([[F(1, 3)]])
    f = TrigPoly.of([((1,), 1.0)])
    result = empirical_average(sys1, f, _pv("3*n"), 500)
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert result.l2_to_prediction < 1e-12


def test_empirical_average_cancelling_rational_case():
    sys1 = TorusSystem([[F(1, 3)]])
    f = TrigPoly.of([((1,), 1.0)])
    result = empirical_average(sys1, f, _pv("n"), 300)
    assert abs(result.value) < 1e-9
    assert result.predicted == 0


def test_empirical_average_irrational_decay():
    sys1 = TorusSystem([[Real.named("sqrt2")]])
    f = TrigPoly.of([((1,), 1.0)])
    result = empirical_average(sys1, f, _pv("n^2"), 20000)
    assert abs(result.value) < 0.05
    assert result.l2_to_prediction < 0.05


def test_trig_average_reads_one_phase_stream(monkeypatch):
    # four irrational characters: no closed-form residue stream, and the
    # four Weyl sums share one kernel stream
    import polywalk.kernel as kernel

    calls = []
    fixed_phases = kernel.fixed_phases

    def counted(*args):
        calls.append(args)
        return fixed_phases(*args)

    monkeypatch.setattr(kernel, "fixed_phases", counted)
    system = TorusSystem([["sqrt2"], ["sqrt3"]], ["1/8", "3/8"])
    f = TrigPoly.of([((1, 0), 0.5), ((0, 1), -0.25), ((1, 1), 0.75), ((2, -1), 0.25)])
    result = empirical_average(system, f, _pv("n^2"), 3000)
    assert len(calls) == 1
    assert len(calls[0][1]) == 4
    assert result.predicted == 0
    # the same value as one single-row stream per character
    monkeypatch.undo()
    weyl = [weyl_sums(_pv("n^2"), [system.transposed_row(freq)], 3000)[0]
            for freq, _ in f.components]
    assert result.value == TrigPoly.of(
        (freq, c * w) for (freq, c), w in zip(f.components, weyl)).value_at([0.125, 0.375])


def test_empirical_average_classifies_its_characters_once(monkeypatch):
    import polywalk.ergodic as ergodic
    calls = []

    def counted(sys, f):
        calls.append(f)
        return classify_characters(sys, f)

    monkeypatch.setattr(ergodic, "classify_characters", counted)
    system = TorusSystem([[F(1, 3)], ["sqrt2"]])
    f = TrigPoly.of([((1, 0), 0.5), ((0, 1), 0.25)])
    result = empirical_average(system, f, _pv("3*n"), 300)
    assert len(calls) == 1
    assert result.predicted == 0.5

def test_empirical_average_box_indicator():
    sys1 = TorusSystem([[Real.named("golden")]])
    box = BoxIndicator.of([0], [F(1, 4)])
    result = empirical_average(sys1, box, _pv("n"), 4000)
    # equidistribution: visit frequency approaches the measure 1/2
    assert result.value.real == pytest.approx(0.5, abs=0.02)
    assert result.predicted is None


def _circle(x: F) -> F:
    x %= 1
    return min(x, 1 - x)


def _reference_box_count(rows, x0, centers, radii, polys, n_count):
    """#{n : dist(<row_j, p(n)> + x0_j - c_j) < r_j on every arc j}, in Fractions."""
    count = 0
    for n in range(1, n_count + 1):
        point = polys.eval({"n": n})
        count += all(_circle(sum(map(F.__mul__, row, point), F(0)) + x - c) < r
                     for row, x, c, r in zip(rows, x0, centers, radii))
    return count


_small_fraction = st.builds(F, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def _box_on_rational_rows(draw):
    """Rows of rationals, a base point and a box with at most one arc per
    torus coordinate.  Each radius is either drawn or the distance of a
    drawn point n, a tie; base points and centres with denominators that
    do not divide the rows' make the shift read inexact."""
    dim = draw(st.integers(1, 2))
    polys = PolyVector([poly_parse(draw(st.sampled_from(["n", "n^2", "3*n^2 + n", "n^3 - 2*n",
                                                         "1/2*n^2 + 1/2*n"])), ("n",))
                        for _ in range(dim)])
    torus_dim = draw(st.integers(1, 3))
    rows = [[draw(_small_fraction) for _ in range(dim)] for _ in range(torus_dim)]
    x0 = [draw(_small_fraction) for _ in range(torus_dim)]
    arcs = draw(st.integers(1, torus_dim))
    centers = [draw(_small_fraction) for _ in range(arcs)]
    n_count = draw(st.integers(1, 40))
    radii = []
    for row, x, c in zip(rows, x0, centers):
        n = draw(st.integers(1, n_count))
        tie = _circle(sum(map(F.__mul__, row, polys.eval({"n": n})), F(0)) + x - c)
        drawn = F(draw(st.integers(1, 11)), 24)
        radii.append(tie if 0 < tie < F(1, 2) and draw(st.booleans()) else drawn)
    return rows, x0, centers, radii, polys, n_count


@settings(max_examples=200, deadline=None)
@given(_box_on_rational_rows())
def test_box_count_equals_the_fraction_count_on_rational_rows(data):
    rows, x0, centers, radii, polys, n_count = data
    result = empirical_average(TorusSystem(rows, x0), BoxIndicator.of(centers, radii),
                               polys, n_count)
    hits = _reference_box_count(rows, x0, centers, radii, polys, n_count)
    assert result.value == complex(hits / n_count, 0.0)


_TINY = "1/1000000000000000000000000000000000000000000000*sqrt2"   # 10^-45 sqrt2


@pytest.mark.parametrize("row, x0, radius, n_count, value", [
    ("1/4", "0", "1/4", 1, 0.0),               # n = 1 at distance exactly r: outside
    ("1/4", "-" + _TINY, "1/4", 1, 1.0),       # inside the 10^-40 band, settled
    ("1/4", _TINY, "1/4", 1, 0.0),
    ("1/10", "1/3", "1/5", 10, 0.4),           # shifts off the grid 1/M, M = 10:
    ("1/10", "1/20", "1/4", 10, 0.4),          # read at lcm(M, 3) and lcm(M, 20)
], ids=["tie", "tie-minus", "tie-plus", "shift-1/3", "shift-1/20"])
def test_box_count_reads_the_shift_and_its_error(row, x0, radius, n_count, value):
    # on row 1/10 with shift 1/20, n = 2 and n = 7 are ties (2.5/10 = r);
    # the shift rounded to 0 at M = 10 would count them
    result = empirical_average(TorusSystem([[row]], [x0]), BoxIndicator.of([0], [radius]),
                               _pv("n"), n_count)
    assert result.value == complex(value, 0.0)


_QMC_ALPHAS = (0.41421356237309515, 0.7320508075688772)   # frac(sqrt 2), frac(sqrt 3)


def _qmc_l2(difference: TrigPoly, torus_dim: int, grid: int = 128) -> float:
    # reference oracle: the L2 norm estimated on a 128-point Kronecker grid
    total = math.fsum(
        abs(difference.value_at([_QMC_ALPHAS[j] * (s + 1) % 1.0 for j in range(torus_dim)])) ** 2
        for s in range(grid))
    return math.sqrt(total / grid)


# the benchmark's rational-1/6 and mixed-1/2-sqrt3 ergodic-avg configurations
_BENCHMARK_TRIG_CASES = [
    ([["1/6"]], ["5/12"], "n^2 + n^3", 20000, [((1,), 0.75), ((2,), -0.5), ((3,), 0.25)]),
    ([["1/2", "0"], ["0", "sqrt3"]], ["3/8", "1/8"], "n, n^2", 10000,
     [((1, 0), 0.5), ((2, 0), -0.25), ((0, 1), 0.75), ((1, 1), -0.5)]),
]


@pytest.mark.parametrize("rows, x0, orbit, n_count, components", _BENCHMARK_TRIG_CASES)
def test_l2_to_prediction_is_parseval(rows, x0, orbit, n_count, components):
    system = TorusSystem(rows, x0)
    f = TrigPoly.of(components)
    polys = _pv(orbit)
    result = empirical_average(system, f, polys, n_count)
    coeffs = dict(f.components)
    squares = []
    for info, mean in q_p_multipliers(system, f, polys):
        limit = 0 if mean is None or mean.is_exactly_zero else mean.value()
        (weyl,) = weyl_sums(polys, [info.row], n_count)
        squares.append(abs(coeffs[info.freq]) ** 2 * abs(weyl - limit) ** 2)
    exact = math.sqrt(math.fsum(squares))
    assert exact > 1e-6
    assert math.isclose(result.l2_to_prediction, exact, rel_tol=1e-12)
    prediction = q_p_closed_form(system, f, polys)
    assert result.predicted == prediction.value_at([float(F(x)) for x in x0])
    difference = TrigPoly.of(
        (freq, c * weyl_sums(polys, [system.transposed_row(freq)], n_count)[0])
        for freq, c in f.components) - prediction
    assert math.isclose(result.l2_to_prediction, _qmc_l2(difference, len(rows)), rel_tol=1e-3)


@functools.cache
def _digits(name, prec):
    return decimal_digits(name, prec)


def _reference_below(value: Real, r: F) -> bool:
    """dist(value) < r, by a route that shares no code with the arc test:
    Fractions for a rational value, otherwise the decimal digits of its
    constants (`decimal_reference`) at rising precision, until the read is
    more than its error away from r.  A tie is False: the box is open."""
    rational, irr = value.basis()
    prec = 20
    while True:
        read = rational + sum(c * F(_digits(name, prec), 10 ** prec) for name, c in irr.items())
        error = sum(map(abs, irr.values())) / F(10 ** prec)   # floor errs by < 10^-prec
        if abs(_circle(read) - r) > error or not irr:
            return _circle(read) < r
        prec *= 2


def _grid(v: F) -> float:
    # a float on correlate's sample grid 2^-55 near v mod 1: every float of
    # at least 1/8 is on it, and u 2^-55 for u < 2^52 is a float
    return float(F(round((v % 1) * 2 ** 55) % 2 ** 55, 2 ** 55))


def _around(v: F, steps: int) -> float:
    # the grid float nearest v, moved by `steps` ulps (at least 2^-55 each)
    x = _grid(v)
    return _grid(F(x) + steps * max(F(math.ulp(x)), F(1, 2 ** 55)))


_S = 2 ** 55 * 10 ** 40   # the reference's fixed point: x _S is an integer for every sample


def _fixed(value: Real) -> int:
    # an integer within 2 of value _S: the floor of a read of each constant
    # (at most five) at 60 digits past its widest coefficient, off by < 1
    rational, irr = value.basis()
    prec = 60 + max((len(str(abs(c.numerator))) for c in irr.values()), default=0)
    return math.floor((rational + sum(c * F(_digits(name, prec), 10 ** prec)
                                      for name, c in irr.items())) * _S)


class _ReferenceIndex:
    """`_BoxIndex` by brute force: every point n <= N on every row, read at
    the fixed point _S, within 4 units of the true distance, and by
    `_reference_below` when that read is within 4 units of r _S."""

    def __init__(self, box, rows, polys, n_count, cut):
        self.box, self.cut = box, cut
        self.values = [[sum(map(Real.scale, row, polys.eval({"n": n})), Real(0)) for row in rows]
                       for n in range(1, n_count + 1)]
        self.fixed = [list(map(_fixed, values)) for values in self.values]

    def _inside(self, values, fixed, x):
        for v, a, xj, c, r in zip(values, fixed, x, self.box.centers, self.box.radii):
            y = (a + int(F(xj) * _S) - _fixed(c)) % _S
            d = min(y, _S - y)
            if d + 4 > r * _S and (d - 4 >= r * _S
                                   or not _reference_below(v + Real(F(xj)) - c, r)):
                return False
        return True

    def count(self, x):
        inside = [self._inside(values, fixed, x) for values, fixed in zip(self.values, self.fixed)]
        return sum(inside), sum(inside[:self.cut])


_center = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=30).map(Real),
    st.builds(lambda c, name: Real.named(name, c),
              st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool),
              st.sampled_from(["sqrt2", "sqrt3", "sqrt5", "golden", "pifrac"])),
)
_radius = st.fractions(min_value=F(1, 10 ** 6), max_value=F(1, 2), max_denominator=10 ** 6
                       ).filter(lambda r: r < F(1, 2))
# radii up to just below 1/2, where a near window is a full turn
_index_radius = st.one_of(_radius, st.sampled_from(
    [F(1, 2) - F(1, 10 ** 20), F(1, 2) - F(1, 2 ** 30), F(3, 10), F(1, 4), F(1, 8)]))
# a row of rationals (1/1000 packs 60 phases into one strip), or irrational
_row_entry = st.one_of(_small_fraction.map(Real), st.sampled_from([F(1, 1000), F(1, 4)]).map(Real),
                       st.builds(Real.named, st.sampled_from(["sqrt2", "sqrt3", "golden"]),
                                 st.sampled_from([1, -1, F(1, 3)])))
_orbit_entry = st.sampled_from(["n", "n^2", "3*n^2 + n", "n^3 - 2*n", "1/2*n^2 + 1/2*n", "2"])


@st.composite
def _indexed_box(draw, max_count=60):
    """A box of 1 to 3 arcs on rows of rationals or irrational rows, an
    orbit and a count, and samples that put a point of the orbit (or 0) at,
    or a few ulps around, an arc end, or anywhere on the sample grid."""
    arcs = draw(st.lists(st.tuples(_center, _index_radius), min_size=1, max_size=3))
    box = BoxIndicator.of([c for c, _ in arcs], [r for _, r in arcs])
    dim = draw(st.integers(1, 2))
    rows = [tuple(draw(_row_entry) for _ in range(dim)) for _ in arcs]
    polys = PolyVector([poly_parse(draw(_orbit_entry), ("n",)) for _ in range(dim)])
    n_count = draw(st.integers(1, max_count))

    def coordinate(j):
        n = draw(st.integers(0, n_count))
        phase = sum(map(Real.scale, rows[j], polys.eval({"n": n})), Real(0)) if n else Real(0)
        end = box.centers[j] + Real(draw(st.sampled_from([1, -1])) * box.radii[j]) - phase
        return draw(st.one_of(st.builds(_around, st.just(end.frac(200)), st.integers(-2, 2)),
                              st.just(0.0), st.integers(0, 2 ** 55 - 1).map(
                                  lambda u: _grid(F(u, 2 ** 55)))))

    samples = [[coordinate(j) for j in range(len(arcs))] for _ in range(3)]
    return box, rows, polys, n_count, samples


def _zero_orbit(dim: int) -> PolyVector:
    return PolyVector([MPoly.zero(("n",))] * dim)


@settings(max_examples=100, deadline=None)
@given(_indexed_box(max_count=1))
def test_box_contains_matches_the_exact_reference(data):
    # 1_B(x) in correlation_average is the count of the zero orbit at N = 1
    box, rows, _, _, samples = data
    index = _BoxIndex(box, rows, _zero_orbit(len(rows[0])), 1, 1)
    reference = _ReferenceIndex(box, rows, _zero_orbit(len(rows[0])), 1, 1)
    for x in samples:
        assert index.count(x) == reference.count(x)


@settings(max_examples=150, deadline=None)
@given(_indexed_box(), st.data())
def test_strip_index_matches_the_scan(data, more):
    box, rows, polys, n_count, samples = data
    cut = more.draw(st.integers(0, n_count))
    index = _BoxIndex(box, rows, polys, n_count, cut)
    reference = _ReferenceIndex(box, rows, polys, n_count, cut)
    for x in samples:
        assert index.count(x) == reference.count(x)


@settings(max_examples=40, deadline=None)
@given(_indexed_box(max_count=12), st.data())
def test_shifted_box_scan_matches_contains_float(data, more):
    # the orbit's count at x is the number of n with x in the box shifted
    # by -A p(n), each read as 1_B(x) of the zero orbit at N = 1
    box, rows, polys, n_count, samples = data
    cut = more.draw(st.integers(0, n_count))
    index = _BoxIndex(box, rows, polys, n_count, cut)
    contains = []
    for n in range(1, n_count + 1):
        phases = [sum(map(Real.scale, row, polys.eval({"n": n})), Real(0)) for row in rows]
        shifted = BoxIndicator.of([c - p for c, p in zip(box.centers, phases)], box.radii)
        contains.append(_BoxIndex(shifted, rows, _zero_orbit(len(rows[0])), 1, 1))
    for x in samples:
        inside = [c.count(x)[0] for c in contains]
        assert index.count(x) == (sum(inside), sum(inside[:cut]))


_O = 2 ** 56 // 7   # 2/7 of the modulus 2^55, rounded down: the inner window's end


@pytest.mark.parametrize("row, center, radius, x, expected, ties", [
    ("1/2", "0", "1/4", 0.25, (0, 0), 4),     # every point at distance exactly r
    ("1/2", "0", "1/4", 0.75, (0, 0), 4),
    ("1/4", "1/8", "1/8", 0.0, (0, 0), 2),    # ties at n = 1 and n = 4
    ("1/4", "1/8", "1/8", 2.0 ** -55, (1, 0), 0),        # one grid unit inside at n = 4
    ("1/4", "1/8", "1/8", 1 - 2.0 ** -53, (1, 1), 0),    # one ulp inside at n = 1
    ("1/4", "1/8", "1/8", 0.125, (1, 0), 0),
    ("1/2", "0", "2/7", _O / 2 ** 55, (4, 2), 0),        # n = 2, 4 at either end of the
    ("1/2", "0", "2/7", 1 - _O / 2 ** 55, (4, 2), 0),    # inner window, no tie
    ("sqrt2", "sqrt2 + 1/4", "1/4", 0.0, (2, 1), 1),     # a rational tie at n = 1
])
def test_strip_index_settles_only_the_ties(monkeypatch, row, center, radius, x, expected, ties):
    # exact reads on rows of rationals leave only the ties to `_arc_verdicts`
    settled = []
    settle = _BoxIndex._settle

    def spy(self, x, runs, point):
        settled.extend(runs[0])
        return settle(self, x, runs, point)

    monkeypatch.setattr(_BoxIndex, "_settle", spy)
    box = BoxIndicator.of([parse_real(center)], [F(radius)])
    rows = [(parse_real(row),)]
    assert _BoxIndex(box, rows, _pv("n"), 4, 2).count([x]) == expected
    assert _ReferenceIndex(box, rows, _pv("n"), 4, 2).count([x]) == expected
    assert len(settled) == ties


# samples near an arc end, where the float rule (x - float(c)) % 1.0 < r,
# rounded, gives the other verdict
@pytest.mark.parametrize("center, radius, x, inside", [
    ("1/10", F(49, 100), 0.61, False),
    ("1/3", F(1, 5), 0.5333333333333333, True),
    ("sqrt3", F(3, 10), 0.4320508075688773, True),
    ("sqrt2", F(49, 100), 0.924213562373095, False),
    ("2/7", F(49, 100), 0.7957142857142857, False),
])
def test_box_contains_is_exact_where_float_rounding_is_not(monkeypatch, center, radius, x,
                                                           inside):
    import polywalk.ergodic as ergodic
    box = BoxIndicator.of([parse_real(center)], [radius])
    for rows in ([(Real.named("sqrt2"),)], [(Real(0),)]):
        assert _BoxIndex(box, rows, _zero_orbit(1), 1, 1).count([x]) == (inside, inside)
        assert _ReferenceIndex(box, rows, _zero_orbit(1), 1, 1).count([x]) == (inside, inside)
    # a replicate shift that puts the first sample at x: the estimate over
    # that sample is positive exactly when x is in the box, as some phase
    # k/20 lies within 1/40 of c - x
    alpha = ergodic._QMC_ALPHAS[0]
    shift = float((F(x) - F(alpha)) % 1)
    while (shift + alpha) % 1.0 != x:
        shift = math.nextafter(shift, math.inf if (shift + alpha) % 1.0 < x else -math.inf)
    monkeypatch.setattr(ergodic, "random", SimpleNamespace(
        Random=lambda seed: SimpleNamespace(random=lambda: shift)))
    estimate = correlation_average(TorusSystem([["1/20"]]), box, [_pv("n")], [20],
                                   samples=1, replicates=1)
    assert (estimate.value > 0) is inside


def _check_against_the_scan(monkeypatch, rows, centers, orbits, counts):
    # correlation_average equals itself with every index replaced by the
    # exact reference scan, and builds one index per distinct (orbit, N_i),
    # cut at max(1, N_i // 2), and one for the zero orbit at N = 1
    import polywalk.ergodic as ergodic
    built = []

    class Scan(_ReferenceIndex):
        def __init__(self, box, rows, polys, n_count, cut):
            super().__init__(box, rows, polys, n_count, cut)
            built.append((n_count, cut))

    system = TorusSystem(rows)
    box = BoxIndicator.of(centers, [F(3, 10)] * len(centers))
    polys = [_pv(orbit) for orbit in orbits]
    indexed = correlation_average(system, box, polys, counts, samples=64,
                                  replicates=2, seed=3)
    monkeypatch.setattr(ergodic, "_BoxIndex", Scan)
    assert indexed == correlation_average(system, box, polys, counts, samples=64,
                                          replicates=2, seed=3)
    assert sorted(built) == sorted([(1, 1)] + [(n, max(1, n // 2))   # (1, 1): 1_B(x)
                                               for _, n in set(zip(orbits, counts))])


_PLANE = [["sqrt2", "sqrt3"], ["sqrt5", "sqrt2"]]


@pytest.mark.parametrize("rows,centers,orbit", [
    (_PLANE, ["1/10", "7/10"], "n^6, n^3"),
    ([["sqrt2"], ["sqrt3"], ["sqrt5"]], ["0", "1/2", "9/10"], "n^2"),
])
def test_correlation_average_matches_the_reference_scan(monkeypatch, rows, centers, orbit):
    _check_against_the_scan(monkeypatch, rows, centers, [orbit, orbit], [300, 200])


@pytest.mark.parametrize("orbits,counts", [
    (["n^6, n^3", "n^2, n"], [300, 200]),
    (["n^6, n^3", "n^6, n^3"], [300, 300]),
])
def test_correlation_average_indexes_each_distinct_orbit_and_count_once(monkeypatch, orbits,
                                                                        counts):
    _check_against_the_scan(monkeypatch, _PLANE, ["1/10", "7/10"], orbits, counts)


@pytest.mark.parametrize("orbits,counts", [
    (["n^6, n^3", "n^6, n^3"], [300, 300]),
    (["n^6, n^3", "n^6, n^3"], [301, 1]),
    (["n^6, n^3", "n^2, n"], [300, 201]),
    (["n^6, n^3", "n^2, n", "n^6, n^3"], [41, 97, 40]),
])
def test_half_value_is_the_estimate_at_halved_counts(orbits, counts):
    system = TorusSystem(_PLANE)
    box = BoxIndicator.of(["1/10", "7/10"], [F(3, 10), F(3, 10)])
    polys = [_pv(orbit) for orbit in orbits]
    both = correlation_average(system, box, polys, counts, samples=64, replicates=3, seed=5)
    halved = correlation_average(system, box, polys, [max(1, n // 2) for n in counts],
                                 samples=64, replicates=3, seed=5)
    assert both.half_value == halved.value


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_half_value_is_a_separate_call_at_halved_counts(data):
    # rational, irrational and mixed rows, rational and irrational centres,
    # repeated and distinct orbits and counts
    dim = data.draw(st.integers(1, 2))
    arcs = data.draw(st.integers(1, 2))
    rows = [[data.draw(_row_entry) for _ in range(dim)] for _ in range(arcs)]
    box = BoxIndicator.of([data.draw(_center) for _ in range(arcs)],
                          [data.draw(st.sampled_from([F(1, 8), F(1, 4), F(3, 10), F(2, 5)]))
                           for _ in range(arcs)])
    pool = [PolyVector([poly_parse(data.draw(_orbit_entry), ("n",)) for _ in range(dim)])
            for _ in range(2)]
    orbits = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    counts = [data.draw(st.integers(1, 80)) for _ in orbits]
    seed = data.draw(st.integers(0, 99))
    both = correlation_average(TorusSystem(rows), box, orbits, counts, samples=16,
                               replicates=2, seed=seed)
    halved = correlation_average(TorusSystem(rows), box, orbits,
                                 [max(1, n // 2) for n in counts], samples=16,
                                 replicates=2, seed=seed)
    assert both.half_value == halved.value


def test_strip_index_counts_a_one_dimensional_arc_end_inside():
    # F(0.3) < 3/10 < F(0.30000000000000004), so x = 0.3 at phase 0 is
    # inside the arc of radius 3/10 about 0, and the next float is not
    box = BoxIndicator.of([0], [F(3, 10)])
    assert F(0.3) < F(3, 10) < F(math.nextafter(0.3, 1))
    index = _BoxIndex(box, [(Real(0),)], _pv("n"), 1, 1)
    assert index.count([0.3]) == (1, 1)
    assert index.count([math.nextafter(0.3, 1)]) == (0, 0)


def test_strip_index_tests_every_other_coordinate_on_a_crossing_strip():
    # One strip (N = 3), x = 0, phases (7/20, 1/2, 1/2), (9/20, 1/2, 9/10)
    # and (9/20, 1/2, 1/2): the row-0 phases cross the arc end 2/5, so the
    # members are tested on rows 0 and 2.  The second one lies in the key
    # arc and inside on row 0, but outside on row 2; only the third one is
    # in the box, and it is past the cut 2.
    box = BoxIndicator.of([F(1, 2)] * 3, [F(1, 10)] * 3)
    rows = [(F(1, 20), 0, 0), (0, F(1, 2), 0), (0, 0, F(1, 10))]
    rows = [tuple(map(Real.of, row)) for row in rows]
    polys = _pv("5*n + 3 - n^2, 1, 16*n - 7 - 4*n^2")
    index = _BoxIndex(box, rows, polys, 3, 2)
    assert len(index.strips) == 1
    assert index.count([0.0] * 3) == (1, 0) == _ReferenceIndex(box, rows, polys, 3, 2).count(
        [0.0] * 3)


@pytest.mark.parametrize("counts,kwargs,message", [
    ([0], {}, "every N_i must be >= 1"),
    ([40, -1], {}, "every N_i must be >= 1"),
    ([40], {"samples": 0}, "samples must be >= 1"),
    ([40], {"replicates": 0}, "replicates must be >= 1"),
])
def test_correlation_rejects_empty_counts(counts, kwargs, message):
    sys1 = TorusSystem([[Real.named("sqrt2")]])
    box = BoxIndicator.of([0], [F(3, 20)])
    orbit = PolyVector([poly_parse("n^2", ("n",))])
    with pytest.raises(ValueError, match=message):
        correlation_average(sys1, box, [orbit] * len(counts), counts, **kwargs)


def test_empirical_average_rejects_more_arcs_than_torus_coordinates():
    sys1 = TorusSystem([[Real.named("sqrt2")]])
    box = BoxIndicator.of([0, 0], [F(1, 8), F(1, 8)])
    with pytest.raises(ValueError, match="^box has 2 arcs for a torus of dimension 1$"):
        empirical_average(sys1, box, _pv("n^2"), 2000)


def test_choose_k_box_cases():
    irrational = TorusSystem([[Real.named("sqrt2"), Real.named("sqrt3")]])
    assert choose_k(irrational) == 1
    rational = TorusSystem([[F(1, 2), F(1, 3)]])
    assert choose_k(rational) == 6
    degenerate = TorusSystem([[Real.named("sqrt2")], [Real.named("sqrt2")]])
    with pytest.raises(ValueError, match="rational spectrum"):
        choose_k(degenerate)


def test_correlation_zero_orbit_gives_measure():
    sys2 = TorusSystem([[Real.named("sqrt2"), Real.named("sqrt3")]])
    box = BoxIndicator.of([0], [F(3, 20)])
    zero_orbit = PolyVector([MPoly.zero(("n",)), MPoly.zero(("n",))])
    est = correlation_average(sys2, box, [zero_orbit], [40],
                              samples=512, replicates=4, seed=9)
    assert est.value == pytest.approx(0.3, abs=0.02)
    assert 0.0 <= est.value <= float(box.measure) + 0.02


def test_correlation_skew_orbit_approaches_measure_squared():
    sys1 = TorusSystem([[Real.named("sqrt2")]])
    box = BoxIndicator.of([0], [F(3, 20)])
    orbit = PolyVector([poly_parse("n^2", ("n",))])
    est = correlation_average(sys1, box, [orbit], [3000],
                              samples=512, replicates=4, seed=4)
    assert est.value == pytest.approx(0.09, abs=0.03)


def test_correlation_reproducible_for_fixed_seed():
    sys1 = TorusSystem([[Real.named("sqrt2")]])
    box = BoxIndicator.of([0], [F(3, 20)])
    orbit = PolyVector([poly_parse("n^2", ("n",))])
    a = correlation_average(sys1, box, [orbit], [200], samples=128, replicates=3, seed=5)
    b = correlation_average(sys1, box, [orbit], [200], samples=128, replicates=3, seed=5)
    assert a == b


def test_correlation_fast_path_matches_scan():
    # same experiment on a 1-d torus and a 2-d torus whose second
    # coordinate is constant
    sys1 = TorusSystem([[Real.named("sqrt2")]])
    box = BoxIndicator.of([0], [F(3, 20)])
    orbit = PolyVector([poly_parse("n^2", ("n",))])
    fast = correlation_average(sys1, box, [orbit], [150], samples=64, replicates=2, seed=6)
    sys2 = TorusSystem([[Real.named("sqrt2")], [F(0)]])
    box2 = BoxIndicator.of([0, 0], [F(3, 20), F(49, 100)])
    scan = correlation_average(sys2, box2, [orbit], [150], samples=64, replicates=2, seed=6)
    # the second coordinate arc covers 0.98 of the circle and always contains
    # the orbit (offset 0), so the products differ only by the box factor
    assert scan.value == pytest.approx(fast.value * 0.98, abs=0.02)


def test_jensen_inequality_for_nonnegative_trig():
    # f = (1 + cos(2 pi x)) / 2 is non-negative with integral 1/2
    sys1 = TorusSystem([[F(1, 3)]])
    f = TrigPoly.of([((0,), 0.5), ((1,), 0.25), ((-1,), 0.25)])
    projected = rational_projection(sys1, f)
    assert projected == f
    for m in (1, 2, 3):
        power = f
        for _ in range(m - 1):
            power = _mul(power, f)
        inner = _inner(f, power).real
        assert inner >= 0.5 ** (m + 1) - 1e-12


def test_jensen_inequality_with_irrational_tail():
    # mixed spectrum: the irrational component disappears under projection,
    # and products of rational-character frequencies never collide with it
    sys2 = TorusSystem([[F(1, 3)], [Real.named("sqrt2")]])
    f = TrigPoly.of([
        ((0, 0), 0.5), ((1, 0), 0.25), ((-1, 0), 0.25), ((0, 1), 0.1),
    ])
    projected = rational_projection(sys2, f)
    assert dict(projected.components).keys() == {(0, 0), (1, 0), (-1, 0)}
    for m in (1, 2):
        power = projected
        for _ in range(m - 1):
            power = _mul(power, projected)
        inner = _inner(f, power).real
        assert inner >= abs(_integral(f)) ** (m + 1) - 1e-12


def test_trigpoly_algebra():
    f = TrigPoly.of([((1,), 1.0), ((-1,), 1.0)])
    square = _mul(f, f)
    assert dict(square.components)[(0,)] == pytest.approx(2.0)
    assert _integral(f) == 0j
    assert f.l2_norm() == pytest.approx(math.sqrt(2.0))
    g = f - f
    assert g.components == ()
