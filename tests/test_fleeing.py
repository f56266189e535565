"""Annihilator linear algebra and the fleeing-walk constructor."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywalk.fleeing import (
    DepthExhausted,
    _collapse,
    _orbit_stream,
    affine_annihilator,
    construct_fleeing_walk,
    is_fleeing,
    time_var,
)
from polywalk.generators import (
    adjoint_action_matrix,
    bogolubov_walk,
    signature_form_walks,
    unipotent_walk,
    xy_minus_P_walks,
)
from polywalk.poly import MPoly, PolyVector, poly_parse
from polywalk.walks import TIME, identity_walk, walk_scaling_certificate

F = Fraction


def _apply_polys(functional, polys: PolyVector) -> MPoly:
    # L(p_1, ..., p_d) = <linear, p> + constant as a polynomial
    total = MPoly.const(polys.vars, functional.constant)
    for a, p in zip(functional.linear, polys):
        if a:
            total = total + p * a
    return total


def _pv(*exprs, vars=("t",)):
    return PolyVector([poly_parse(e, vars) for e in exprs])


def test_annihilator_affine_line():
    # hand-solved: 2*t - (2t + 3) + 3 = 0, so the kernel is one line
    basis = affine_annihilator(_pv("t", "2*t + 3"))
    assert len(basis) == 1
    functional = basis[0]
    assert functional.linear == (F(2), F(-1))
    assert functional.constant == F(3)
    # and it annihilates the vector symbolically
    assert _apply_polys(functional, _pv("t", "2*t + 3")).is_zero()


def test_annihilator_independent_monomials():
    assert affine_annihilator(_pv("t", "t^2")) == []


def test_annihilator_of_constants():
    basis = affine_annihilator(_pv("5", "7"))
    assert len(basis) == 2
    for functional in basis:
        assert functional((5, 7)) == 0


def test_is_fleeing_examples():
    assert is_fleeing(_pv("n", "n^2", vars=("n",)))
    assert not is_fleeing(_pv("n", "2*n + 3", vars=("n",)))
    assert not is_fleeing(_pv("n", "n", vars=("n",)))


def test_is_fleeing_rejects_multivariate():
    bad = PolyVector([poly_parse("t1*t2", ["t1", "t2"])])
    with pytest.raises(ValueError, match="single-variable"):
        is_fleeing(bad)


def orbit_polynomials(gens, v, depth: int) -> PolyVector:
    """Entries of s_depth(t_depth) ... s_1(t_1) v, generators cycling in
    list order: the orbit `_orbit_stream` yields at `depth`.  Also used by
    test_scenarios.py and test_acceptance.py."""
    stream = _orbit_stream(gens, v)
    orbit = next(stream)  # checks gens and v before depth
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for _ in range(depth - 1):
        orbit = next(stream)
    return orbit


def test_orbit_bogolubov_depth_one():
    s = bogolubov_walk(poly_parse("y^2", ["y"]))
    orbit = orbit_polynomials([s], (0, 0), 1)
    assert orbit == _pv("t1^2", "t1", vars=("t1",))


def test_orbit_shears_depth_one_and_two():
    s1, s2 = xy_minus_P_walks(poly_parse("z^2", ["z"]))
    orbit1 = orbit_polynomials([s1, s2], (1, 0, 0), 1)
    assert orbit1 == _pv("1", "t1^2", "t1", vars=("t1",))
    # symbolic composition oracle, frozen monomial by monomial
    vars2 = ("t1", "t2")
    expected = PolyVector([
        MPoly(vars2, {(0, 0): F(1), (1, 1): F(2), (2, 2): F(1)}),
        MPoly(vars2, {(2, 0): F(1)}),
        MPoly(vars2, {(1, 0): F(1), (2, 1): F(1)}),
    ])
    assert orbit_polynomials([s1, s2], (1, 0, 0), 2) == expected


def test_orbit_cycles_through_generators():
    s1, s2 = xy_minus_P_walks(poly_parse("z^2", ["z"]))
    orbit3 = orbit_polynomials([s1, s2], (1, 0, 0), 3)
    assert orbit3.vars == ("t1", "t2", "t3")
    # depth 3 must reuse the first generator: t3 enters through S1's shear
    assert any("t3" in p.support() for p in orbit3)


def _orbit_from_scratch(gens, v, depth):
    """Reference: every generator applied again from depth 1, over the
    full universe t1..t_depth."""
    universe = tuple(time_var(k) for k in range(1, depth + 1))
    current = PolyVector([MPoly.const(universe, value) for value in v])
    for k in range(1, depth + 1):
        walk = gens[(k - 1) % len(gens)]
        bindings = {TIME: MPoly.var(universe, time_var(k))}
        bindings.update(zip(walk.coords, current))
        current = walk.entries.substitute(bindings)
        if current.vars != universe:
            current = PolyVector([p.extend(universe) for p in current])
    return current


@pytest.mark.parametrize("family,v", [
    ("xyP", (1, 0, 0)),
    ("xyP", (2, -1, 3)),
    ("bogolubov", (3, -1)),
    ("sl2", (1, -2, 3)),
    ("signature", (1, 0, 0)),
])
def test_orbit_polynomials_match_from_scratch(family, v):
    gens = {
        "xyP": lambda: xy_minus_P_walks(poly_parse("z^2", ["z"])),
        "bogolubov": lambda: [bogolubov_walk(poly_parse("y^2", ["y"]))],
        "sl2": lambda: [unipotent_walk(adjoint_action_matrix(m))
                        for m in ([[1, 1], [0, 1]], [[1, 0], [1, 1]])],
        "signature": lambda: signature_form_walks(1, 2).walks,
    }[family]()
    for depth in range(1, 5):
        got = orbit_polynomials(gens, v, depth)
        expected = _orbit_from_scratch(gens, v, depth)
        assert got == expected
        assert got.vars == expected.vars
        assert [str(p) for p in got] == [str(p) for p in expected]


def test_orbit_polynomials_error_order():
    s = bogolubov_walk(poly_parse("y^2", ["y"]))
    with pytest.raises(ValueError, match="at least one generator"):
        orbit_polynomials([], (1, 0), 0)
    with pytest.raises(ValueError, match="share dimension"):
        orbit_polynomials([s, identity_walk(3)], (1, 0), 0)
    with pytest.raises(ValueError, match="vector has length 3"):
        orbit_polynomials([s], (1, 0, 0), 0)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        orbit_polynomials([s], (1, 0), 0)


def test_construct_bogolubov_certificate():
    s = bogolubov_walk(poly_parse("y^2", ["y"]))
    cert = construct_fleeing_walk([s], (0, 0))
    assert cert.depth == 1
    assert cert.base == 3  # largest power in (t1^2, t1) is 2
    assert cert.exponents == (3,)
    assert cert.orbit_poly == _pv("n^6", "n^3", vars=("n",))
    assert is_fleeing(cert.orbit_poly)


def test_construct_shears_certificate():
    s1, s2 = xy_minus_P_walks(poly_parse("z^2", ["z"]))
    cert = construct_fleeing_walk([s1, s2], (1, 0, 0))
    assert cert.depth == 2
    assert cert.exponents == (3, 9)
    assert cert.annihilator_dims == (1, 0)
    assert is_fleeing(cert.orbit_poly)
    # soundness: the certificate orbit equals the walk applied symbolically
    assert cert.final_walk.orbit_poly((1, 0, 0)) == cert.orbit_poly
    # and numerically
    for n in range(4):
        point = cert.final_walk.apply(n, (1, 0, 0))
        assert point == tuple(
            int(p.eval({"n": n})) for p in cert.orbit_poly
        )


def test_construct_depth_exhausted_for_identity():
    with pytest.raises(DepthExhausted) as err:
        construct_fleeing_walk([identity_walk(2)], (1, 1), depth_cap=4)
    assert err.value.dims == [2, 2, 2, 2]


@pytest.mark.parametrize("depth_cap", [0, -3])
def test_construct_rejects_an_empty_depth_range(depth_cap):
    # no depth would be examined: an input error, not DepthExhausted
    s = bogolubov_walk(poly_parse("y^2", ["y"]))
    with pytest.raises(ValueError, match=f"^depth cap must be >= 1, got {depth_cap}$"):
        construct_fleeing_walk([s], (-3, 0), depth_cap=depth_cap)


def test_annihilator_dims_non_increasing():
    s1, s2 = xy_minus_P_walks(poly_parse("z^3", ["z"]))
    for v in [(1, 0, 0), (2, -1, 3), (1, 1, 1)]:
        cert = construct_fleeing_walk([s1, s2], v)
        dims = cert.annihilator_dims
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        assert dims[-1] == 0


def test_construct_scaling_compatibility():
    # v in k*Z^d plus a zero-constant-term walk keeps the orbit in k*Z^d
    s = bogolubov_walk(poly_parse("y^2", ["y"]))
    k = 3
    cert = construct_fleeing_walk([s], (2 * k, k))
    assert walk_scaling_certificate(cert.final_walk).ok
    scaled = cert.final_walk.time_scale(k)
    for n in range(4):
        assert all(x % k == 0 for x in scaled.apply(n, (2 * k, k)))


def test_construct_adjoint_walks_all_basis_vectors():
    # linear unipotent generators acting irreducibly: construction succeeds
    # from every non-zero start, here the coordinate vectors
    gens = [
        unipotent_walk(adjoint_action_matrix([[1, 1], [0, 1]])),
        unipotent_walk(adjoint_action_matrix([[1, 0], [1, 1]])),
    ]
    for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        cert = construct_fleeing_walk(gens, v)
        assert is_fleeing(cert.orbit_poly)
        assert cert.final_walk.orbit_poly(v) == cert.orbit_poly


def test_generator_order_is_respected():
    s1, s2 = xy_minus_P_walks(poly_parse("z^2", ["z"]))
    # (0, 1, 0): S1 fixes x = 0 and z stays 0, so the S1-first schedule
    # needs more depth than the S2-first one
    cert_21 = construct_fleeing_walk([s2, s1], (0, 1, 0))
    cert_12 = construct_fleeing_walk([s1, s2], (0, 1, 0))
    assert cert_21.depth <= cert_12.depth


def test_certificate_serialization_mentions_all_parts():
    s = bogolubov_walk(poly_parse("y^2", ["y"]))
    cert = construct_fleeing_walk([s], (0, 0))
    text = cert.to_text()
    assert "depth 1" in text
    assert "exponents 3" in text
    assert "orbit n^6; n^3" in text
    assert "vars t x y" in text


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda c: pickle.loads(pickle.dumps(c))],
                         ids=["copy", "deepcopy", "pickle"])
def test_certificate_copies_and_pickles(clone):
    cert = construct_fleeing_walk(list(xy_minus_P_walks(poly_parse("z^2", ["z"]))), (1, 0, 0))
    twin = clone(cert)
    assert twin == cert and twin.to_text() == cert.to_text()
    assert twin.final_walk.orbit_poly((1, 0, 0)) == twin.orbit_poly


def test_random_unipotent_orbits_are_certified():
    rng = random.Random(31337)
    gens = [
        unipotent_walk(adjoint_action_matrix([[1, 1], [0, 1]])),
        unipotent_walk(adjoint_action_matrix([[1, 0], [1, 1]])),
    ]
    for _ in range(5):
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        if v == (0, 0, 0):
            continue
        cert = construct_fleeing_walk(gens, v)
        assert is_fleeing(cert.orbit_poly)


@st.composite
def _generators_and_start(draw):
    family = draw(st.sampled_from(["xyP", "bogolubov", "sl2"]))
    if family == "xyP":
        gens = xy_minus_P_walks(poly_parse(f"z^{draw(st.integers(2, 5))}", ["z"]))
    elif family == "bogolubov":
        gens = [bogolubov_walk(poly_parse(f"y^{draw(st.integers(2, 4))}", ["y"]))]
    else:
        gens = [unipotent_walk(adjoint_action_matrix(m))
                for m in ([[1, 1], [0, 1]], [[1, 0], [1, 1]])]
    dim = gens[0].dim
    v = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any))
    return gens, tuple(v)


@settings(max_examples=40, deadline=None)
@given(_generators_and_start())
def test_one_exponent_base_certifies(case):
    # base = 1 + the largest time exponent of the final-depth orbit is
    # always taken, and the certificate agrees with the walk it prints
    gens, v = case
    cert = construct_fleeing_walk(gens, v)
    orbit = next(islice(_orbit_stream(gens, v), cert.depth - 1, None))
    assert cert.base == 1 + max(e for p in orbit for exps in p.terms for e in exps)
    assert cert.exponents == tuple(cert.base ** k for k in range(1, cert.depth + 1))
    for n in (0, 1, 2, 5):
        assert cert.final_walk.apply(n, v) == tuple(int(p.eval({"n": n}))
                                                    for p in cert.orbit_poly)


def _collapse_by_substitution(orbit, exponents):
    """Reference: t_k -> n^(e_k) through exact polynomial substitution."""
    n_var = MPoly.var(("n",), "n")
    bindings = {
        time_var(k): n_var ** e for k, e in enumerate(exponents, start=1)
    }
    collapsed = orbit.substitute({k: b for k, b in bindings.items() if k in orbit.vars})
    if collapsed.vars != ("n",):
        collapsed = PolyVector([p.extend(("n",)) for p in collapsed])
    return collapsed


def _collapse_by_fractions(orbit, exponents):
    """Reference: the monomial map t^a -> n^<a, e>, summing Fraction
    coefficients one term at a time."""
    by_name = {time_var(k): e for k, e in enumerate(exponents, start=1)}
    weights = [by_name[name] for name in orbit.vars]
    entries = []
    for p in orbit:
        terms = {}
        for exps, coeff in p.terms.items():
            key = (sum(a * e for a, e in zip(exps, weights)),)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        entries.append(MPoly(("n",), terms))
    return PolyVector(entries)


@st.composite
def _orbit_and_exponents(draw):
    depth = draw(st.integers(1, 3))
    universe = tuple(time_var(k) for k in range(1, depth + 1))
    exps = st.tuples(*[st.integers(0, 3)] * depth)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    entries = draw(st.lists(st.dictionaries(exps, coeffs, max_size=5),
                            min_size=1, max_size=3))
    # small exponents make distinct monomials collide, which must sum
    exponents = tuple(draw(st.lists(st.integers(1, 9), min_size=depth,
                                    max_size=depth)))
    return PolyVector([MPoly(universe, t) for t in entries]), exponents


@settings(max_examples=150, deadline=None)
@given(_orbit_and_exponents())
def test_collapse_matches_substitution(case):
    orbit, exponents = case
    collapsed = _collapse(orbit, exponents)
    reference = _collapse_by_substitution(orbit, exponents)
    assert collapsed == reference
    assert [str(p) for p in collapsed] == [str(p) for p in reference]
    assert collapsed.vars == reference.vars == ("n",)


@settings(max_examples=150, deadline=None)
@given(_orbit_and_exponents())
def test_collapse_matches_the_fraction_sums(case):
    orbit, exponents = case
    collapsed = _collapse(orbit, exponents)
    reference = _collapse_by_fractions(orbit, exponents)
    assert [p.terms for p in collapsed] == [p.terms for p in reference]
    assert [str(p) for p in collapsed] == [str(p) for p in reference]
    assert collapsed.vars == reference.vars == ("n",)
