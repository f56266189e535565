"""Torus systems: character classification, closed-form orbit averages,
empirical averages, modulus selection, correlation estimates."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywalk.ergodic import (
    BoxIndicator,
    _shifted_box_hits,
    TorusSystem,
    TrigPoly,
    choose_k,
    classify_characters,
    correlation_average,
    empirical_average,
    q_p_closed_form,
    q_p_multipliers,
    rational_projection,
)
from polywalk.poly import MPoly, PolyVector, poly_parse
from polywalk.reals import Real

F = Fraction


def _pv(expr: str) -> PolyVector:
    return PolyVector([poly_parse(piece.strip(), ("n",)) for piece in expr.split(",")])


def test_classify_rational_denominator():
    sys1 = TorusSystem([[F(1, 3)]])
    infos = classify_characters(sys1, TrigPoly.of([((1,), 1.0)]))
    assert infos[0].rational and infos[0].period == 3


def test_classify_irrational_and_trivial():
    sys1 = TorusSystem([[Real.named("sqrt2")]])
    f = TrigPoly.of([((1,), 1.0), ((0,), 0.5)])
    infos = {info.freq: info for info in classify_characters(sys1, f)}
    assert not infos[(1,)].rational
    assert infos[(0,)].rational and infos[(0,)].period == 1


def test_classify_combination_cancels_to_rational():
    # two torus rows with the same irrational entry: m = (1, -1) induces a
    # rational character even though each row alone is irrational
    sys2 = TorusSystem([[Real.named("sqrt2")], [Real.named("sqrt2") + F(1, 2)]])
    f = TrigPoly.of([((1, -1), 1.0)])
    info = classify_characters(sys2, f)[0]
    assert info.rational and info.period == 2


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
        assert info.period == k
        assert mean.is_exactly_one


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


def test_multiplier_constant_nonzero_residue():
    # p(n) = 3n + 1 has constant residue 1/3: multiplier is the exact root e(1/3)
    sys1 = TorusSystem([[F(1, 3)]])
    f = TrigPoly.of([((1,), 1.0)])
    (_, mean), = q_p_multipliers(sys1, f, _pv("3*n + 1"))
    assert mean.constant_residue == 1
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
    assert result.prediction.components == ()


def test_empirical_average_irrational_decay():
    sys1 = TorusSystem([[Real.named("sqrt2")]])
    f = TrigPoly.of([((1,), 1.0)])
    result = empirical_average(sys1, f, _pv("n^2"), 20000)
    assert abs(result.value) < 0.05
    assert result.l2_to_prediction < 0.05


def test_empirical_average_box_indicator():
    sys1 = TorusSystem([[Real.named("golden")]])
    box = BoxIndicator.of([0], [F(1, 4)])
    result = empirical_average(sys1, box, _pv("n"), 4000)
    # equidistribution: visit frequency approaches the measure 1/2
    assert result.value.real == pytest.approx(0.5, abs=0.02)
    assert result.prediction is None


def _reference_contains_float(box, point):
    # the per-call route: float center each time, exact float/Fraction compare
    for x, center, radius in zip(point, box.centers, box.radii):
        delta = (x - float(center.frac(30))) % 1.0
        if min(delta, 1.0 - delta) >= radius:
            return False
    return True


_center = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=30).map(Real),
    st.builds(lambda c, name: Real.named(name, c),
              st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool),
              st.sampled_from(["sqrt2", "sqrt3", "sqrt5", "golden", "pifrac"])),
)
_radius = st.fractions(min_value=F(1, 10 ** 6), max_value=F(1, 2), max_denominator=10 ** 6
                       ).filter(lambda r: r < F(1, 2))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_center, _radius), min_size=1, max_size=3),
       st.data())
def test_box_contains_float_matches_per_call_route(arcs, data):
    box = BoxIndicator.of([c for c, _ in arcs], [r for _, r in arcs])
    # points at, one ulp inside and one ulp outside each arc end, and anywhere
    for _ in range(6):
        point = []
        for (center, radius) in arcs:
            c, r = float(center.frac(30)), float(radius)
            near = (c + data.draw(st.sampled_from([r, -r]))) % 1.0
            step = data.draw(st.sampled_from([0, 1, -1, 2, -2]))
            for _ in range(abs(step)):
                near = math.nextafter(near, math.inf if step > 0 else -math.inf)
            point.append(data.draw(st.one_of(st.just(near),
                                              st.floats(0, 1, exclude_max=True))))
        assert box.contains_float(point) == _reference_contains_float(box, point)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_center, _radius), min_size=2, max_size=3), st.data())
def test_shifted_box_scan_matches_contains_float(arcs, data):
    box = BoxIndicator.of([c for c, _ in arcs], [r for _, r in arcs])
    x = [data.draw(st.one_of(st.just(0.0), st.floats(0, 1, exclude_max=True)))
         for _ in arcs]
    # offsets that put x + off at, a few ulps inside or outside each arc end,
    # or anywhere
    offsets = []
    for _ in range(8):
        off = []
        for j, (_, radius) in enumerate(arcs):
            end = box.float_centers[j] + data.draw(st.sampled_from([1, -1])) * float(radius)
            end -= x[j]
            step = data.draw(st.sampled_from([0, 1, -1, 2, -2]))
            for _ in range(abs(step)):
                end = math.nextafter(end, math.inf if step > 0 else -math.inf)
            off.append(data.draw(st.one_of(st.just(end), st.floats(-2, 2))))
        offsets.append(off)
    expected = sum(box.contains_float([a + b for a, b in zip(x, off)]) for off in offsets)
    assert _shifted_box_hits(box, x, offsets) == expected


def test_shifted_box_scan_reads_radius_ceilings():
    # float(3/10) < 3/10, so a distance of exactly float(3/10) is inside
    box = BoxIndicator.of([0, 0], [F(3, 10), F(3, 10)])
    assert _shifted_box_hits(box, [0.0, 0.0], [(float(F(3, 10)), 0.0)]) == 1


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


def test_choose_k_lcm_of_periods():
    sys2 = TorusSystem([[F(1, 2)], [F(1, 3)]])
    f = TrigPoly.of([((1, 0), 1.0), ((0, 1), 1.0)])
    assert choose_k(sys2, f, 1e-9) == 6


def test_choose_k_large_eps_allows_one():
    sys1 = TorusSystem([[F(1, 5)]])
    f = TrigPoly.of([((1,), 0.001)])
    assert choose_k(sys1, f, 1.0) == 1
    assert choose_k(sys1, f, 1e-6) == 5


def test_choose_k_all_irrational():
    sys1 = TorusSystem([[Real.named("sqrt3")]])
    f = TrigPoly.of([((1,), 1.0)])
    assert choose_k(sys1, f, 1e-9) == 1


def test_choose_k_box_cases():
    irrational = TorusSystem([[Real.named("sqrt2"), Real.named("sqrt3")]])
    box = BoxIndicator.of([0], [F(3, 20)])
    assert choose_k(irrational, box, 0.02) == 1
    rational = TorusSystem([[F(1, 2), F(1, 3)]])
    assert choose_k(rational, box, 0.02) == 6
    degenerate = TorusSystem([[Real.named("sqrt2")], [Real.named("sqrt2")]])
    box2 = BoxIndicator.of([0, 0], [F(3, 20), F(3, 20)])
    with pytest.raises(ValueError, match="rational spectrum"):
        choose_k(degenerate, box2, 0.02)


def test_torus_translation_additivity():
    sys2 = TorusSystem([[Real.named("sqrt2"), F(1, 3)],
                        [F(2), Real.named("golden")]])
    rng = random.Random(3)
    for _ in range(20):
        v = [rng.randint(-9, 9) for _ in range(2)]
        w = [rng.randint(-9, 9) for _ in range(2)]
        vw = [a + b for a, b in zip(v, w)]
        lhs = sys2.image(vw)
        rhs = tuple(a + b for a, b in zip(sys2.image(v), sys2.image(w)))
        assert lhs == rhs


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
    # same experiment on a 1-d torus (bisect path) and a degenerate scan
    sys1 = TorusSystem([[Real.named("sqrt2")]])
    box = BoxIndicator.of([0], [F(3, 20)])
    orbit = PolyVector([poly_parse("n^2", ("n",))])
    fast = correlation_average(sys1, box, [orbit], [150], samples=64, replicates=2, seed=6)
    # 2-d system with a dummy constant second coordinate exercises the scan path
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
            power = power * f
        inner = f.inner(power).real
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
            power = power * projected
        inner = f.inner(power).real
        assert inner >= abs(f.integral()) ** (m + 1) - 1e-12


def test_trigpoly_algebra():
    f = TrigPoly.of([((1,), 1.0), ((-1,), 1.0)])
    square = f * f
    assert dict(square.components)[(0,)] == pytest.approx(2.0)
    assert f.integral() == 0j
    assert f.l2_norm() == pytest.approx(math.sqrt(2.0))
    g = f - f
    assert g.components == ()
