"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Tolerances and runtime budgets are pinned here and nowhere else.  Exact
claims (preservation identities, certificates, multipliers, witnesses) are
asserted with no tolerance at all; numeric claims carry the frozen bounds.
"""

import math
import random
import time
from fractions import Fraction

from polywalk.ergodic import (
    BoxIndicator,
    TorusSystem,
    TrigPoly,
    choose_k,
    correlation_average,
    empirical_average,
    q_p_multipliers,
)
from polywalk.fleeing import construct_fleeing_walk, is_fleeing
from polywalk.generators import (
    adjoint_action_matrix,
    bogolubov_walk,
    signature_form,
    signature_form_walks,
    unipotent_walk,
    xy_minus_P_walks,
)
from polywalk.lab import (
    BOGOLUBOV,
    MAGYAR,
    WindowSet,
    BohrSet,
    corollary_experiment,
    weyl_sum_rational,
    weyl_sums,
)
from polywalk.poly import MPoly, PolyVector, poly_parse
from polywalk.reals import Real
from polywalk.walks import (
    identity_walk,
    preserves,
    walk_scaling_certificate,
)
from test_fleeing import orbit_polynomials

F = Fraction


def _report(capsys, number: int, name: str, passed: bool, detail: str = ""):
    with capsys.disabled():
        marker = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"ACCEPTANCE {number:02d} [{name}]: {marker}{suffix}")


def test_criterion_01_symbolic_preservation(capsys):
    start = time.perf_counter()
    shear_ok = True
    bogolubov_ok = True
    for expr in ("z^2", "z^3", "z^4", "2*z^2 - 3*z^3", "z^5"):
        p = poly_parse(expr, ["z"])
        s1, s2 = xy_minus_P_walks(p)
        form = (MPoly.var(("x", "y", "z"), "x") * MPoly.var(("x", "y", "z"), "y")
                - p.substitute({"z": MPoly.var(("x", "y", "z"), "z")}).extend(("x", "y", "z")))
        shear_ok &= preserves(form, s1) and preserves(form, s2)

        p_y = poly_parse(expr.replace("z", "y"), ["y"])
        walk = bogolubov_walk(p_y)
        bog_form = (MPoly.var(("x", "y"), "x")
                    - p_y.substitute({"y": MPoly.var(("x", "y"), "y")}).extend(("x", "y")))
        bogolubov_ok &= preserves(bog_form, walk)
    elapsed = time.perf_counter() - start
    passed = shear_ok and bogolubov_ok and elapsed < 5.0
    _report(capsys, 1, "symbolic preservation", passed, f"{elapsed:.2f}s")
    assert shear_ok and bogolubov_ok
    assert elapsed < 5.0


def _zoo(rng: random.Random):
    walks = [
        identity_walk(2, ("x", "y")),
        bogolubov_walk(poly_parse("y^2", ["y"])),
        bogolubov_walk(poly_parse("y^3 - 2*y^2", ["y"])),
        unipotent_walk([[1, 1], [0, 1]], ("x", "y")),
        unipotent_walk([[1, -2], [0, 1]], ("x", "y")),
    ]
    walks.append(walks[1].compose(walks[3]))
    walks.append(walks[2].reparam(2))
    return walks


def test_criterion_02_walk_algebra_battery(capsys):
    rng = random.Random(220811)
    walks = _zoo(rng)
    compose_ok = reparam_ok = scaling_ok = True
    for _ in range(100):
        s, r = rng.choice(walks), rng.choice(walks)
        n = rng.randint(0, 10)
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        compose_ok &= (s.compose(r).apply(n, v)
                       == s.apply(n, r.apply(n, v)))
    for _ in range(100):
        s = rng.choice(walks)
        power = rng.randint(1, 3)
        n = rng.randint(0, 5)
        v = (rng.randint(-6, 6), rng.randint(-6, 6))
        reparam_ok &= s.reparam(power).apply(n, v) == s.apply(n ** power, v)
    for _ in range(100):
        s = rng.choice(walks)
        k = rng.randint(1, 20)
        n = rng.randint(0, 50)
        v = tuple(k * rng.randint(-5, 5) for _ in range(s.dim))
        scaling_ok &= all(x % k == 0 for x in s.apply(k * n, v))
        scaling_ok &= walk_scaling_certificate(s).ok
    passed = compose_ok and reparam_ok and scaling_ok
    _report(capsys, 2, "walk algebra battery", passed)
    assert compose_ok
    assert reparam_ok
    assert scaling_ok


def test_criterion_03_fleeing_constructor(capsys):
    start = time.perf_counter()

    bog = bogolubov_walk(poly_parse("y^2", ["y"]))
    cert_a = construct_fleeing_walk([bog], (0, 0))
    a_ok = cert_a.depth == 1 and is_fleeing(cert_a.orbit_poly)

    s1, s2 = xy_minus_P_walks(poly_parse("z^2", ["z"]))
    vars2 = ("t1", "t2")
    frozen_orbit = PolyVector([
        MPoly(vars2, {(0, 0): F(1), (1, 1): F(2), (2, 2): F(1)}),
        MPoly(vars2, {(2, 0): F(1)}),
        MPoly(vars2, {(1, 0): F(1), (2, 1): F(1)}),
    ])
    cert_b = construct_fleeing_walk([s1, s2], (1, 0, 0))
    b_ok = (cert_b.depth <= 2
            and orbit_polynomials([s1, s2], (1, 0, 0), 2) == frozen_orbit
            and is_fleeing(cert_b.orbit_poly))

    gens = [
        unipotent_walk(adjoint_action_matrix([[1, 1], [0, 1]])),
        unipotent_walk(adjoint_action_matrix([[1, 0], [1, 1]])),
    ]
    c_ok = True
    traces = [cert_a.annihilator_dims, cert_b.annihilator_dims]
    for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        cert = construct_fleeing_walk(gens, v)
        c_ok &= is_fleeing(cert.orbit_poly)
        c_ok &= cert.final_walk.orbit_poly(v) == cert.orbit_poly
        traces.append(cert.annihilator_dims)
    monotone = all(
        all(a >= b for a, b in zip(trace, trace[1:])) for trace in traces
    )
    elapsed = time.perf_counter() - start
    passed = a_ok and b_ok and c_ok and monotone and elapsed < 30.0
    _report(capsys, 3, "fleeing constructor", passed, f"{elapsed:.2f}s")
    assert a_ok
    assert b_ok
    assert c_ok
    assert monotone
    assert elapsed < 30.0


def test_criterion_04_magyar_desk_scale(capsys):
    start = time.perf_counter()
    oracle = BohrSet(
        3,
        [[Real.named("sqrt2"), Real.named("sqrt3"), Real.named("sqrt5")]],
        [F(1, 5)],
    )
    p = poly_parse("z^2", ["z"])
    targets = [1, -1, 2, -2, 3, -3, 4, -4, 5, -5]
    report = corollary_experiment(MAGYAR, p, oracle, 1, targets, 10 ** 5)
    form = poly_parse("x*y - z^2", ["x", "y", "z"])
    found = report.all_found()
    revalidated = True
    for record in report.records:
        revalidated &= record.n is not None and record.n <= 10 ** 5
        revalidated &= oracle.contains_difference(record.witness)
        value = form.eval(dict(zip(("x", "y", "z"), record.witness)))
        revalidated &= value == record.target == record.f_value
    elapsed = time.perf_counter() - start
    passed = found and revalidated and elapsed < 120.0
    _report(capsys, 4, "Magyar desk-scale", passed, f"{elapsed:.1f}s")
    assert found, [str(r.status) for r in report.records]
    assert revalidated
    assert elapsed < 120.0


def test_criterion_05_bogolubov_desk_scale(capsys):
    oracle = BohrSet(2, [[Real.named("sqrt2"), Real.named("sqrt3")]], [F(1, 5)])
    p = poly_parse("y^2", ["y"])
    targets = [1, -1, 2, -2, 3, -3, 4, -4, 5, -5]
    report = corollary_experiment(BOGOLUBOV, p, oracle, 1, targets, 10 ** 5)
    found = report.all_found()
    exact = all(
        record.witness[0] - record.witness[1] ** 2 == record.target
        for record in report.records
    )
    _report(capsys, 5, "Bogolubov desk-scale", found and exact)
    assert found, [str(r.status) for r in report.records]
    assert exact


def test_criterion_06_weyl_decay(capsys):
    (quadratic,) = map(abs, weyl_sums(
        PolyVector([poly_parse("n^2", ["n"])]), [[Real.named("sqrt2")]], 10 ** 5
    ))
    (pair,) = map(abs, weyl_sums(
        PolyVector([poly_parse("n^2", ["n"]), poly_parse("n^3", ["n"])]),
        [[Real.named("sqrt2"), Real.named("sqrt3")]],
        10 ** 5,
    ))
    exact = weyl_sum_rational(
        PolyVector([poly_parse("n", ["n"])]), [F(1, 3)], 3 * 10 ** 4
    )
    passed = quadratic <= 0.05 and pair <= 0.05 and exact.is_exactly_zero
    _report(capsys, 6, "Weyl decay", passed,
            f"|S(n^2)|={quadratic:.4f} |S(n^2,n^3)|={pair:.4f}")
    assert quadratic <= 0.05
    assert pair <= 0.05
    assert exact.is_exactly_zero
    assert exact.value() == 0j


def test_criterion_07_closed_form_identity(capsys):
    exact_ok = True
    empirical_ok = True
    for k in (2, 3, 4, 6, 12):
        sys_k = TorusSystem([[F(1, k)]])
        f = TrigPoly.of([((1,), 1.0)])
        orbit = PolyVector([poly_parse(f"{k}*n + {k}*n^3", ["n"])])
        (info, mean), = q_p_multipliers(sys_k, f, orbit)
        period = math.lcm(*(x.as_fraction().denominator for x in info.row))
        exact_ok &= period == k and mean.is_exactly_one
        result = empirical_average(sys_k, f, orbit, 10 ** 5)
        empirical_ok &= abs(result.value - 1.0) < 0.02

    sys_3 = TorusSystem([[F(1, 3)]])
    f = TrigPoly.of([((1,), 1.0)])
    linear = PolyVector([poly_parse("n", ["n"])])
    (_, mean_lin), = q_p_multipliers(sys_3, f, linear)
    exact_ok &= mean_lin.is_exactly_zero
    result = empirical_average(sys_3, f, linear, 10 ** 5)
    empirical_ok &= abs(result.value) < 0.02

    passed = exact_ok and empirical_ok
    _report(capsys, 7, "closed-form multipliers", passed)
    assert exact_ok
    assert empirical_ok


def test_criterion_08_correlation_bound(capsys):
    system = TorusSystem([[Real.named("sqrt2"), Real.named("sqrt3")]])
    box = BoxIndicator.of([0], [F(3, 20)])   # arc of measure 0.3
    k = choose_k(system)
    bog = bogolubov_walk(poly_parse("y^2", ["y"]))
    cert = construct_fleeing_walk([bog], (0, 0))
    orbit = cert.orbit_poly
    if k != 1:
        n_var = MPoly.var(("n",), "n")
        orbit = orbit.substitute({"n": n_var * k})
    est = correlation_average(
        system, box, [orbit, orbit], [2000, 2000],
        samples=512, replicates=8, seed=220811,
    )
    bound = 0.3 ** 3 - 0.02
    passed = est.value > bound and est.std_error < 0.003
    _report(capsys, 8, "correlation lower bound", passed,
            f"C={est.value:.4f} > {bound:.4f}, se={est.std_error:.5f}")
    assert k == 1
    assert est.value > bound
    assert est.std_error < 0.003


def test_criterion_09_signature_generators(capsys):
    all_ok = True
    for p, q in [(1, 2), (2, 2), (1, 3)]:
        family = signature_form_walks(p, q)
        form = signature_form(p, q)
        for matrix, walk in zip(family.matrices, family.walks):
            all_ok &= all(isinstance(x, int) for row in matrix for x in row)
            all_ok &= preserves(form, walk)
            size = len(matrix)
            shifted = [
                [matrix[i][j] - (1 if i == j else 0) for j in range(size)]
                for i in range(size)
            ]
            cube = shifted
            for _ in range(2):
                cube = [
                    [sum(cube[i][l] * shifted[l][j] for l in range(size))
                     for j in range(size)]
                    for i in range(size)
                ]
            all_ok &= cube == [[0] * size for _ in range(size)]
    sample = signature_form_walks(1, 2).matrices[0]
    sample_ok = sample == ((3, -2, 2), (2, -1, 2), (2, -2, 1))
    passed = all_ok and sample_ok
    _report(capsys, 9, "signature generators", passed)
    assert all_ok
    assert sample_ok


def test_criterion_10_diffset_oracle_equivalence(capsys):
    rng = random.Random(101010)
    agree = True
    for _ in range(50):
        dim = rng.randint(1, 3)
        side = rng.randint(3, {1: 30, 2: 12, 3: 7}[dim])
        density = rng.uniform(0.05, 0.6)
        window = WindowSet.random(dim, side, density, seed=rng.randint(0, 10 ** 6))
        for _ in range(6):
            w = tuple(rng.randint(-side, side) for _ in range(dim))
            brute = any(
                tuple(a - b for a, b in zip(b1, b2)) == w
                for b1 in window.points
                for b2 in window.points
            )
            agree &= window.contains_difference(w) == brute
    _report(capsys, 10, "difference-oracle equivalence", agree)
    assert agree
