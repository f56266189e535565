"""Orbit/phase kernel against the Fraction route it replaced.

The reference oracle is the per-point route: the Fraction evaluation
`PolyVector.eval` for the orbit point, then `_reference_dot_frac` for the
phase and exact Fractions for the residues.  `_reference_dot_frac` is the
digit loop that `dot_frac` ran before every evaluation went through
`reals.FixedRow` (and `dot_frac` itself was deleted), so the kernel is
checked against a route that does not share `FixedRow`.  Both read the
constants in decimal (`decimal_reference`), not through the package's
binary engines.  `FixedRow` itself is checked against the constants read
at 400 decimal digits, and against `_ReferenceFixedRow`, its Fraction
form, bit for bit; the float phases against the correctly rounded
Fractions of the fixed-point ones; the difference table against
`_reference_backward_table`, its tuple loop."""

import math
from fractions import Fraction
from itertools import chain
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decimal_reference import decimal_digits
from polywalk import kernel, reals
from polywalk.kernel import orbit_points, phases, residues
from polywalk.lab import weyl_sums
from polywalk.poly import MPoly, PolyVector, binomial_poly, poly_parse
from polywalk.reals import BITS, FixedRow, Real

F = Fraction
UNIVERSE = ("n",)
FLOAT_ROUNDING = F(1, 2 ** 52)


def circle_distance(a, b):
    """Distance between two points of the circle R/Z."""
    delta = (a - b) % 1
    return min(delta, 1 - delta)


def _reference_point(polys, n):
    """p(n) by the Fraction route, `MPoly.eval`, which the kernel never calls."""
    values = polys.eval({"n": n})
    assert all(v.denominator == 1 for v in values)
    return tuple(v.numerator for v in values)


def _reference_points(polys, count):
    return [_reference_point(polys, n) for n in range(1, count + 1)]


def _reference_dot_frac(thetas, values, prec):
    """frac(sum(theta_i * v_i)) within 10^-prec, by its own digit loop."""
    rational = Fraction(0)
    irr: dict[str, Fraction] = {}
    for theta, v in zip(thetas, values):
        theta_rational, theta_irr = theta.basis()
        rational += theta_rational * v
        for name, c in theta_irr.items():
            irr[name] = irr.get(name, Fraction(0)) + c * v
    if not irr:
        return rational % 1
    widest = max(len(str(abs(c.numerator))) for c in irr.values())
    # quantize the working precision so the digit cache stays warm while
    # orbit values grow
    work = prec + widest + 10
    work += (-work) % 32
    scale = 10 ** work
    acc = rational * scale
    for name, c in irr.items():
        acc += c * decimal_digits(name, work)
    return Fraction(acc.numerator // acc.denominator, scale) % 1


def _reference_phase(row, point):
    return _reference_dot_frac(list(row), list(point), 80)


class KahanSum:
    """Compensated float accumulator: the summation the Weyl sums used
    before `math.fsum`, kept as their reference."""

    __slots__ = ("total", "compensation")

    def __init__(self):
        self.total = 0.0
        self.compensation = 0.0

    def add(self, value: float):
        y = value - self.compensation
        t = self.total + y
        self.compensation = (t - self.total) - y
        self.total = t


def _reference_weyl(polys, thetas, n_count, precision=40):
    re, im = KahanSum(), KahanSum()
    for n in range(1, n_count + 1):
        values = _reference_point(polys, n)
        phase = 2.0 * math.pi * float(_reference_dot_frac(thetas, list(values), precision))
        re.add(math.cos(phase))
        im.add(math.sin(phase))
    return complex(re.total / n_count, im.total / n_count)


@st.composite
def integer_valued_poly(draw, max_degree=5):
    """sum c_k C(n, k): every integer-valued polynomial has this form, and
    for k >= 2 the power-basis coefficients are not integers."""
    degree = draw(st.integers(0, max_degree))
    coeffs = draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                           min_size=degree + 1, max_size=degree + 1))
    poly = MPoly.zero(UNIVERSE)
    for k, c in enumerate(coeffs):
        poly = poly + binomial_poly(UNIVERSE, "n", k) * c
    return poly


polys_strategy = st.lists(integer_valued_poly(), min_size=1, max_size=3).map(PolyVector)
rational = st.fractions(min_value=-5, max_value=5, max_denominator=12)
named = st.sampled_from(["sqrt2", "sqrt3", "sqrt5", "golden", "pifrac"])
irrational = st.builds(lambda c, name: Real.named(name, c),
                       rational.filter(lambda c: c != 0), named)
mixed = st.builds(lambda a, b: Real(a) + b, rational, irrational)
entry = st.one_of(rational.map(Real), irrational, mixed)


@st.composite
def polys_and_rows(draw, entries=entry):
    polys = draw(polys_strategy)
    n_rows = draw(st.integers(1, 3))
    rows = [[draw(entries) for _ in polys] for _ in range(n_rows)]
    return polys, rows


def test_triangular_numbers_are_stepped_exactly():
    tri = PolyVector([poly_parse("1/2*n^2 + 1/2*n", ["n"])])
    assert list(orbit_points(tri, 6)) == [(1,), (3,), (6,), (10,), (15,), (21,)]


@settings(max_examples=60, deadline=None)
@given(polys_strategy, st.integers(0, 80))
def test_orbit_points_equal_eval_int(polys, count):
    assert list(orbit_points(polys, count)) == _reference_points(polys, count)


def test_orbit_points_reject_non_integer_values():
    half = PolyVector([poly_parse("1/2*n", ["n"])])
    with pytest.raises(ValueError, match="non-integer value"):
        list(orbit_points(half, 10))


@settings(max_examples=60, deadline=None)
@given(polys_and_rows(), st.integers(0, 20), st.integers(1, 60))
def test_fixed_phases_within_documented_bound(data, precision, count):
    # the docstring bound: max(1, C(n - 1, D)) / M on the circle
    polys, rows = data
    degree = polys.max_degree()
    moduli, blocks = kernel.fixed_phases(
        polys, [[Real.of(x) for x in row] for row in rows], count, precision)
    got = [tuple(point) for block in blocks for point in zip(*block)]
    points = _reference_points(polys, count)
    assert len(got) == count
    for n, point, accs in zip(range(1, count + 1), points, got):
        for row, acc, m in zip(rows, accs, moduli):
            error = circle_distance(F(acc, m), _reference_phase(row, point))
            if all(x.is_rational() for x in row):
                assert error == 0
            else:
                assert error < F(max(1, comb(n - 1, degree)), m)
                assert error < F(1, 2 ** precision)


@settings(max_examples=60, deadline=None)
@given(polys_and_rows(), st.integers(0, 40), st.integers(1, 60))
def test_float_phases_within_precision(data, precision, count):
    polys, rows = data
    points = _reference_points(polys, count)
    got = [point for block in phases(polys, rows, count, precision) for point in zip(*block)]
    assert len(got) == count
    for point, fracs in zip(points, got):
        for row, x in zip(rows, fracs):
            assert 0 <= x <= 1
            error = circle_distance(F(x), _reference_phase(row, point))
            assert error <= F(1, 2 ** precision) + FLOAT_ROUNDING


def _correctly_rounded(polys, rows, count, precision, scale=1.0):
    """The blocks of `phases`: the floats nearest (a mod M) / M of the
    fixed-point phases a, as float(Fraction) rounds them, times scale."""
    moduli, blocks = kernel.fixed_phases(polys, rows, count, precision)
    return [[[float(F(a % m, m)) * scale for a in run] for run, m in zip(block, moduli)]
            for block in blocks]


@settings(max_examples=60, deadline=None)
@given(polys_and_rows(), st.sampled_from([0, 1, 40, BITS, 1000, 1100]), st.integers(1, 80),
       st.sampled_from([1.0, 2.0 * math.pi]))
def test_float_phases_are_the_correctly_rounded_fixed_phases(data, precision, count, scale):
    # bit for bit, on both sides of W = 1022, where the float conversion
    # of a power-of-two modulus gives way to an int / int division
    polys, rows = data
    assert list(phases(polys, rows, count, precision, scale)) == \
        _correctly_rounded(polys, rows, count, precision, scale)


@pytest.mark.parametrize("scale", [1.0, 2.0 * math.pi])
@pytest.mark.parametrize("width", [52, 53, 54, 1021, 1022, 1023, 1100])
def test_float_phases_round_ties_and_carries_like_fractions(width, scale):
    # halfway cases, carries into the next power of two and the largest
    # residues: a truncating conversion misses half of them
    m = 2 ** width
    run = [a + k for a in (0, 2 ** 53 - 1, 2 ** 54 + 1, m // 3, m - 2 ** 60, m - 1)
           for k in range(-3, 4)] + [-1, -m - 1, 5 * m + 7]
    assert kernel._floats(run, m, scale) == [float(F(a % m, m)) * scale for a in run]


@settings(max_examples=60, deadline=None)
@given(st.lists(integer_valued_poly(max_degree=3), min_size=1, max_size=3).map(PolyVector),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=3,
                max_size=3))
def test_residues_exact_over_a_full_period(polys, thetas):
    row = [Real(t) for t in thetas[:len(polys)]]
    q, stream = residues(polys, row)
    got = list(stream)
    period = len(got)
    assert period % q == 0

    def exact(n):
        value = sum((x.as_fraction() * v for x, v in zip(row, _reference_point(polys, n))),
                    F(0))
        assert (value * q).denominator == 1
        return int(value * q) % q

    for i, residue in enumerate(got):
        assert residue == exact(1 + i) == exact(1 + i + period)


def test_residues_period_covers_binomial_coefficients():
    # n(n+1)/2 mod 2 runs 1, 1, 0, 0: period 4, not q = 2
    tri = PolyVector([poly_parse("1/2*n^2 + 1/2*n", ["n"])])
    q, stream = residues(tri, [F(1, 2)])
    assert q == 2
    assert list(stream) == [1, 1, 0, 0]


def test_residues_reject_irrational_rows():
    with pytest.raises(ValueError, match="rationals"):
        residues(PolyVector([poly_parse("n", ["n"])]), [Real.named("sqrt2")])


def test_phases_at_high_precision_on_large_values():
    # W above 1022 bits: float(a mod M) would overflow
    cube = PolyVector([poly_parse("n^3", ["n"])])
    assert kernel._width(200, 3, 1400) > 1022
    got = [point for block in phases(cube, [[Real.named("sqrt3")]], 200, 1400)
           for point in zip(*block)]
    assert got == [point for block in _correctly_rounded(cube, [[Real.named("sqrt3")]], 200,
                                                         1400) for point in zip(*block)]
    for n, (x,) in enumerate(got, start=1):
        error = circle_distance(F(x), _reference_phase([Real.named("sqrt3")], (n ** 3,)))
        assert error <= FLOAT_ROUNDING


@pytest.mark.parametrize("exprs, thetas, n_count", [
    (["n^2"], ["sqrt2"], 3000),
    (["n^2", "n^3"], ["sqrt2", "sqrt3"], 2000),
    (["1/2*n^2 + 1/2*n"], ["1/3 + golden"], 2000),
    (["7*n^5 - 3*n", "n"], ["1/7*pifrac + 2/9", "1/4"], 1500),
])
def test_weyl_sum_matches_fraction_route(exprs, thetas, n_count):
    polys = PolyVector([poly_parse(e, ["n"]) for e in exprs])
    rows = [Real.of(t) for t in thetas]
    (value,) = weyl_sums(polys, [rows], n_count)
    assert abs(value - _reference_weyl(polys, rows, n_count)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(polys_and_rows(), st.integers(1, 600))
def test_weyl_sums_of_many_rows_equal_single_row_calls(data, count):
    polys, rows = data
    together = weyl_sums(polys, rows, count)
    alone = [weyl_sums(polys, [row], count)[0] for row in rows]
    assert [(w.real.hex(), w.imag.hex()) for w in together] == \
        [(w.real.hex(), w.imag.hex()) for w in alone]


U = F(1, 2 ** 53)


@settings(max_examples=40, deadline=None)
@given(polys_and_rows(), st.integers(1, 2000))
def test_weyl_sums_within_the_summation_bound(data, count):
    # the terms are those of the float phases of the same stream, in its
    # blocks; the reference sums them exactly, and per point with Kahan
    # summation
    polys, rows = data
    blocks = [list(zip(*block)) for block in phases(polys, rows, count, BITS)]
    for j, value in enumerate(weyl_sums(polys, rows, count)):
        for part, fn in ((value.real, math.cos), (value.imag, math.sin)):
            terms = [[fn(2.0 * math.pi * point[j]) for point in block] for block in blocks]
            block_sums = [sum(map(F, block), F(0)) for block in terms]
            exact = sum(block_sums)
            absolute = sum(abs(F(t)) for block in terms for t in block)
            # |T - S| <= u |S| + (u + u^2) sum |S_k| <= (2u + u^2) sum |t_n|,
            # then the division by N rounds by at most u |T| / N
            total = U * abs(exact) + (U + U * U) * sum(map(abs, block_sums))
            assert total <= (2 * U + U * U) * absolute
            bound = (total + U * (abs(exact) + total)) / count
            assert abs(F(part) - exact / count) <= bound
            kahan = KahanSum()
            for t in chain.from_iterable(terms):
                kahan.add(t)
            # Kahan's (2u + O(N u^2)) sum |t_n|, and its division
            assert abs(part - kahan.total / count) <= bound + 3 * (2 * U + U * U) * absolute / count


REFERENCE_DIGITS = 400


def _reference_value(row, v):
    """<row, v> with every constant as written (golden too) read at 400
    decimal digits: off by less than sum |c v| * 10^-400."""
    total = F(0)
    for x, value in zip(row, v):
        total += x.rational * value
        for name, c in x.irr.items():
            total += c * value * F(decimal_digits(name, REFERENCE_DIGITS),
                                   10 ** REFERENCE_DIGITS)
    return total


@settings(max_examples=300, deadline=None)
@given(st.lists(entry, min_size=1, max_size=4), st.data())
def test_fixed_row_is_within_one_unit(row, data):
    v = data.draw(st.lists(st.integers(-10 ** 60, 10 ** 60),
                           min_size=len(row), max_size=len(row)))
    exact = _reference_value(row, v)
    rational = all(x.is_rational() for x in row)
    # 64 consecutive widths meet every residue of the bit quantization
    for width in range(64):
        fixed = FixedRow(row, width)
        error = abs(fixed(v) - fixed.modulus * exact)
        assert error == 0 if rational else error < 1
    precision = data.draw(st.integers(0, 200))
    bound = F(1, 2 ** precision)
    # the decimal reference at as many digits as there are bits is
    # within 10^-precision
    reference_bound = bound + F(1, 10 ** precision)
    fixed = FixedRow(row, precision)
    got = F(fixed(v) % fixed.modulus, fixed.modulus)
    assert circle_distance(got, exact) < bound
    assert circle_distance(got, _reference_dot_frac(row, v, precision)) < reference_bound
    for x in row:
        value = x.approx(precision)
        assert abs(value - _reference_value([x], [1])) < bound
        assert circle_distance(value, _reference_dot_frac([x], [1], precision)) < reference_bound
        if x.is_rational():
            assert value == x.as_fraction()


class _ReferenceFixedRow:
    """`FixedRow` in Fraction form: the rational part and the coefficients
    K of the constants are Fractions, and so is the sum that is rounded."""

    def __init__(self, row, width):
        coords = [Real.of(entry).basis() for entry in row]
        self.names = sorted({name for _, irr in coords for name in irr})
        self.width = max(width, 0) if self.names else 0
        self.modulus = 2 ** self.width if self.names else math.lcm(
            *(rational.denominator for rational, _ in coords))
        self.rational = [rational for rational, _ in coords]
        self.irrational = {name: [irr.get(name, 0) for _, irr in coords] for name in self.names}

    def __call__(self, v):
        rational = sum((r * x for r, x in zip(self.rational, v)), Fraction(0))
        if not self.names:
            assert (rational * self.modulus).denominator == 1
            return int(rational * self.modulus)
        coeffs = {
            name: sum((a * x for a, x in zip(column, v)), Fraction(0))
            for name, column in self.irrational.items()
        }
        widest = max(math.floor(abs(k)).bit_length() for k in coeffs.values())
        work = self.width + widest + 5
        work += (-work) % 64
        scaled = rational * 2 ** work + sum(k * reals.constant_digits(name, work)
                                            for name, k in coeffs.items())
        return math.floor(scaled / 2 ** (work - self.width) + Fraction(1, 2))


# coefficients with coprime, shared and large denominators, as in 3/7*sqrt2
coefficient = st.builds(F, st.integers(-40, 40), st.sampled_from([1, 2, 3, 6, 7, 9, 10, 1009]))
row_entry = st.one_of(
    coefficient.map(Real),
    st.builds(lambda c, name: Real.named(name, c), coefficient.filter(bool), named),
    st.builds(lambda a, b, c, x, y: Real(a) + Real.named(x, b) + Real.named(y, c),
              coefficient, coefficient, coefficient, named, named),
)
huge = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 200, 10 ** 200))


def _same_digits_and_value(row, width, v):
    """FixedRow and the Fraction formula agree on fix(v) and on the
    constant digits they read, request by request."""
    fixed, reference = FixedRow(row, width), _ReferenceFixedRow(row, width)
    assert fixed.modulus == reference.modulus
    with mock.patch.object(reals, "constant_digits", wraps=reals.constant_digits) as spy:
        got = fixed(v)
        read = spy.call_args_list[:]
        spy.reset_mock()
        assert got == reference(v)
        assert read == spy.call_args_list


@settings(max_examples=300, deadline=None)
@given(st.lists(row_entry, min_size=1, max_size=4), st.data())
def test_fixed_row_matches_fraction_formula(row, data):
    v = data.draw(st.lists(huge, min_size=len(row), max_size=len(row)))
    width = data.draw(st.one_of(st.integers(0, 140), st.integers(1000, 1140)))
    _same_digits_and_value(row, width, v)
    _same_digits_and_value(row, width, [-x for x in v])


@pytest.mark.parametrize("row", [
    ["3/7*sqrt2"],
    ["1/3", "3/7*sqrt2", "golden + 2/9*pifrac"],
    ["1/6*sqrt3 - 5/4*sqrt5", "2/1009*golden", "sqrt2 + 1/10"],
    ["1/2", "2/3"],
])
@pytest.mark.parametrize("width", [0, 1, 19, 59, BITS, 301, 333, 1000, 1107])
def test_fixed_row_matches_fraction_formula_at_the_edges(row, width):
    for sign in (1, -1):
        for v in ([sign * 10 ** 200] * 3, [sign, -sign * (10 ** 200 - 1), 7],
                  [0, 0, 0], [sign * 3 ** 400, 2 ** 600, -5 ** 250]):
            _same_digits_and_value(row, width, v[:len(row)])


def test_fixed_row_reads_digits_from_lowest_terms():
    # den = 7 divides S = 21 * 2^j, so K = 3 * 2^j: a bit count taken
    # from S itself is larger and, past a multiple of 64, reads more bits
    for width in (0, 1000):
        for j in range(200):
            _same_digits_and_value(["3/7*sqrt2"], width, [7 * 2 ** j])


def _reference_backward_table(head):
    """`kernel._backward_table` as it was before it ran column-wise: one
    tuple per difference order, each level by a tuple comprehension."""
    table = [head[-1]]
    rows = head
    while len(rows) > 1:
        rows = [tuple(b - a for a, b in zip(r0, r1)) for r0, r1 in zip(rows, rows[1:])]
        table.append(rows[-1])
    table.reverse()
    return table


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.sampled_from([10, 10 ** 200]), st.randoms(use_true_random=False))
def test_backward_table_matches_tuple_loop(dim, size, rng):
    for degree in range(41):
        head = [tuple(rng.randint(-size, size) for _ in range(dim)) for _ in range(degree + 1)]
        columns = kernel._backward_table(head)
        assert len(columns) == dim
        assert list(zip(*columns)) == _reference_backward_table(head)


def test_streams_never_call_fraction_eval(monkeypatch):
    # the kernel reads points by integer numerators; MPoly.eval is the
    # Fraction reference only
    polys = PolyVector([poly_parse("1/2*n^2 + 1/2*n", ["n"]),
                        poly_parse("n^7 - 3*n + 1/6*n^3 - 1/6*n", ["n"])])
    rows = [[Real.named("sqrt2"), Real.of("1/3 + 2/7*golden")],
            [Real(F(1, 4)), Real(F(2, 5))]]
    count = 60
    points = _reference_points(polys, count)
    expected = [[_reference_phase(row, point) for row in rows] for point in points]

    def refuse(self, point):
        raise AssertionError("MPoly.eval called")

    monkeypatch.setattr(MPoly, "eval", refuse)
    fresh = PolyVector(list(polys))
    assert list(orbit_points(fresh, count)) == points
    moduli, blocks = kernel.fixed_phases(fresh, rows, count, 40)
    got = [point for block in blocks for point in zip(*block)]
    assert len(got) == count
    for accs, want in zip(got, expected):
        for acc, m, phase in zip(accs, moduli, want):
            assert circle_distance(F(acc, m), phase) < F(1, 2 ** 40)
    floats = [point for block in phases(fresh, rows, count, 40) for point in zip(*block)]
    assert len(floats) == count
    q, stream = residues(fresh, rows[1])
    for residue, want in zip(stream, expected):
        assert F(residue, q) == want[1]
