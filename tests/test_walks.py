"""Walk algebra: application, composition, reparametrization, scaling, preservation."""

import copy
import pickle
import random
from itertools import product
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomial_reference import binomial_poly
from polywalk.generators import bogolubov_walk, unipotent_walk, xy_minus_P_walks
from polywalk.poly import MPoly, poly_parse
from polywalk.walks import (
    Walk,
    default_coords,
    identity_walk,
    preserves,
    walk_scaling_certificate,
)


def _mat_pow_apply(m, n, v):
    # independent matrix-power oracle for linear walks
    out = list(v)
    for _ in range(n):
        out = [sum(row[j] * out[j] for j in range(len(out))) for row in m]
    return tuple(out)


def _zoo(rng: random.Random):
    walks = [
        identity_walk(2, ("x", "y")),
        bogolubov_walk(poly_parse("y^2", ["y"])),
        bogolubov_walk(poly_parse("y^3 + 2*y^2", ["y"])),
    ]
    u = unipotent_walk([[1, rng.randint(-3, 3)], [0, 1]], ("x", "y"))
    walks.append(u)
    walks.append(walks[1].compose(u))
    walks.append(walks[2].reparam(2))
    return walks


def test_apply_identity_at_zero():
    rng = random.Random(5)
    for walk in _zoo(rng):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert walk.apply(0, v) == v


def test_apply_bogolubov_example():
    s = bogolubov_walk(poly_parse("y^2", ["y"]))
    # direct arithmetic from (x + 2*y*n + n^2, y + n)
    assert s.apply(3, (3, 3)) == (3 + 2 * 3 * 3 + 9, 3 + 3) == (30, 6)


def test_apply_unipotent_matches_matrix_power():
    gamma = [[1, 1], [0, 1]]
    s = unipotent_walk(gamma)
    assert s.apply(5, (1, 2)) == _mat_pow_apply(gamma, 5, (1, 2)) == (11, 2)


def test_apply_dimension_mismatch():
    s = identity_walk(3)
    with pytest.raises(ValueError, match="dimension"):
        s.apply(1, (1, 2))
    with pytest.raises(ValueError, match="non-negative"):
        s.apply(-1, (1, 2, 3))


def test_compose_identity_law():
    s = bogolubov_walk(poly_parse("y^2", ["y"]))
    e = identity_walk(2, ("x", "y"))
    assert s.compose(e) == s
    assert e.compose(s) == s


def test_compose_unipotent_doubles_the_step():
    gamma = [[1, 1], [0, 1]]
    s = unipotent_walk(gamma, ("x", "y"))
    doubled = s.compose(s)
    universe = ("t", "x", "y")
    expected = Walk(
        [poly_parse("x + 2*t*y", universe), poly_parse("y", universe)],
        ("x", "y"),
    )
    assert doubled == expected
    for n in range(6):
        assert doubled.apply(n, (3, -2)) == _mat_pow_apply(gamma, 2 * n, (3, -2))


def test_compose_shears_identity_at_zero():
    s1, s2 = xy_minus_P_walks(poly_parse("z^2", ["z"]))
    both = s1.compose(s2)
    assert both.apply(0, (4, -7, 2)) == (4, -7, 2)


def test_reparam_trivial_and_square():
    s = unipotent_walk([[1, 1], [0, 1]], ("x", "y"))
    assert s.reparam(1) == s
    squared = s.reparam(2)
    universe = ("t", "x", "y")
    assert squared == Walk(
        [poly_parse("x + t^2*y", universe), poly_parse("y", universe)], ("x", "y")
    )
    with pytest.raises(ValueError):
        s.reparam(0)


def test_reparam_bogolubov_cubed():
    s = bogolubov_walk(poly_parse("y^2", ["y"])).reparam(3)
    universe = ("t", "x", "y")
    assert s.entries[0] == poly_parse("x + 2*y*t^3 + t^6", universe)


def test_scaling_certificate_identity():
    cert = walk_scaling_certificate(identity_walk(3))
    assert cert.ok and cert.witness is None


def test_scaling_certificate_concrete_example():
    s = bogolubov_walk(poly_parse("y^2", ["y"]))
    assert s.apply(3, (3, 3)) == (30, 6)  # both divisible by k = 3
    assert walk_scaling_certificate(s).ok


def test_scaling_certificate_failure_reports_constant():
    universe = ("t", "x")
    shifted = Walk([poly_parse("x + 1", universe)], ("x",), check=False)
    cert = walk_scaling_certificate(shifted)
    assert not cert.ok
    assert cert.witness == (2, 0, (0,))
    assert shifted.apply(0, (0,)) == (1,)


def test_scaling_certificate_finds_a_large_scale():
    # lcm(1..20) * C(t, 23) is divisible by every k <= 20 at t = k*n, but
    # C(23, 23) * lcm(1..20) is not divisible by 23
    universe = ("t", "x1")
    entry = MPoly.var(universe, "x1") + binomial_poly(universe, "t", 23) * lcm(*range(1, 21))
    walk = Walk([entry], ("x1",))
    cert = walk_scaling_certificate(walk)
    assert not cert.ok
    assert cert.witness == (23, 1, (0,))
    assert walk.apply(23, (0,)) == (232792560,)
    assert 232792560 % 23 == 15


def _binom(x: int, b: int) -> int:
    # C(x, b) at any integer x: x (x - 1) ... (x - b + 1) / b!
    num = 1
    for i in range(b):
        num *= x - i
    return num // factorial(b)


# entry i of a walk: x_i + sum c * C(t, a) * C(x_j, b) over terms (c, a, j, b),
# a >= 1 so that the walk is the identity at t = 0
@st.composite
def _walk_specs(draw):
    dim = draw(st.integers(1, 2))
    term = st.tuples(st.integers(-6, 6).filter(bool), st.integers(1, 4),
                     st.integers(0, dim - 1), st.integers(0, 3))
    return dim, [draw(st.lists(term, max_size=3)) for _ in range(dim)]


def _spec_walk(dim, entries) -> Walk:
    coords = default_coords(dim)
    universe = ("t",) + coords
    polys = []
    for i, terms in enumerate(entries):
        p = MPoly.var(universe, coords[i])
        for c, a, j, b in terms:
            p = p + binomial_poly(universe, "t", a) * binomial_poly(universe, coords[j], b) * c
        polys.append(p)
    return Walk(polys, coords)


def _spec_value(terms, i, t, x) -> int:
    return x[i] + sum(c * _binom(t, a) * _binom(x[j], b) for c, a, j, b in terms)


@settings(max_examples=200, deadline=None)
@given(_walk_specs())
def test_scaling_certificate_is_exact(spec):
    dim, entries = spec
    walk = _spec_walk(dim, entries)
    cert = walk_scaling_certificate(walk)
    if not cert.ok:
        k, n, v = cert.witness
        assert k >= 1 and n >= 0 and all(y % k == 0 for y in v)
        assert any(y % k for y in walk.apply(k * n, v))
    # brute force over k <= 12, n <= 6 and v in k * {-2, ..., 2}^dim
    failure = any(
        _spec_value(terms, i, k * n, [k * y for y in x]) % k
        for k in range(1, 13) for n in range(7)
        for x in product(range(-2, 3), repeat=dim)
        for i, terms in enumerate(entries)
    )
    assert not (failure and cert.ok)


def test_preserves_identity_walk():
    f = poly_parse("x^2 - 3*x*y", ["x", "y"])
    assert preserves(f, identity_walk(2, ("x", "y")))


def test_preserves_shear_and_bogolubov():
    s1, _ = xy_minus_P_walks(poly_parse("z^2", ["z"]))
    assert preserves(poly_parse("x*y - z^2", ["x", "y", "z"]), s1)
    b = bogolubov_walk(poly_parse("y^2", ["y"]))
    assert preserves(poly_parse("x - y^2", ["x", "y"]), b)
    assert not preserves(poly_parse("x", ["x", "y"]), b)


def test_preserves_rejects_foreign_variable():
    b = bogolubov_walk(poly_parse("y^2", ["y"]))
    with pytest.raises(ValueError, match="coordinate"):
        preserves(poly_parse("w", ["w"]), b)


def test_constructor_rejects_non_identity_at_zero():
    universe = ("t", "x")
    with pytest.raises(ValueError, match="identity"):
        Walk([poly_parse("x + 1", universe)], ("x",))


def _reference_identity_error(entries, coords):
    """The message of the substitute route that the constructor's t = 0
    check replaced, or None when every entry is the identity at t = 0."""
    universe = ("t",) + coords
    for name, entry in zip(coords, entries):
        at0 = entry.extend(universe).substitute({"t": MPoly.zero(())})
        if at0 != MPoly.var(universe, name):
            return f"entry for '{name}' is {at0} at t=0, not the identity"
    return None


def _assert_identity_check_matches_reference(entries, coords):
    expected = _reference_identity_error(entries, coords)
    if expected is None:
        Walk(entries, coords)
        return
    with pytest.raises(ValueError) as raised:
        Walk(entries, coords)
    assert str(raised.value) == expected


@pytest.mark.parametrize("texts", [["x + 1"], ["2*x"], ["y", "x"], ["x", "y + 3*x^2 - 1"],
                                   ["x + t*y", "y + t^2*x"]])
def test_identity_check_matches_the_substitute_route(texts):
    coords = ("x", "y")[:len(texts)]
    _assert_identity_check_matches_reference(
        [poly_parse(text, ("t",) + coords) for text in texts], coords)


_small_terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-2, 2),
                               max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(_small_terms, min_size=1, max_size=2))
def test_identity_check_matches_the_substitute_route_on_random_entries(perturbations):
    # the identity plus integer terms in (t, x, y), with and without t
    coords = ("x", "y")[:len(perturbations)]
    universe = ("t",) + coords
    entries = [MPoly.var(universe, name)
               + MPoly(universe, {e[:len(universe)]: c for e, c in terms.items()})
               for name, terms in zip(coords, perturbations)]
    _assert_identity_check_matches_reference(entries, coords)


def _reference_orbit_poly(walk, v, var="n"):
    """The substitute route that `Walk.orbit_poly` replaced."""
    universe = (var,)
    bindings = {"t": MPoly.var(universe, var)}
    bindings.update((name, MPoly.const(universe, value)) for name, value in zip(walk.coords, v))
    return walk.entries.substitute(bindings)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                                st.fractions(min_value=-3, max_value=3, max_denominator=4),
                                max_size=5), min_size=1, max_size=2),
       st.lists(st.integers(-4, 4), min_size=2, max_size=2))
def test_orbit_poly_matches_the_substitute_route(entries, v):
    coords = ("x", "y")[:len(entries)]
    universe = ("t",) + coords
    walk = Walk([MPoly(universe, {e[:len(universe)]: c for e, c in terms.items()})
                 for terms in entries], coords, check=False)
    v = v[:len(coords)]
    assert walk.orbit_poly(v) == _reference_orbit_poly(walk, v)
    assert walk.orbit_poly(v, "m") == _reference_orbit_poly(walk, v, "m")


def test_constructor_rejects_non_integral_entries():
    universe = ("t", "x")
    with pytest.raises(ValueError, match="integer-valued"):
        Walk([poly_parse("x + 1/2*t", universe)], ("x",))


def test_constructor_rejects_reserved_coordinate_names():
    universe = ("t", "x")
    for bad in ("t", "t1", "t17"):
        with pytest.raises(ValueError, match="reserved"):
            Walk([poly_parse("x", universe)], (bad,), check=False)


def test_composition_consistency_random():
    rng = random.Random(1008)
    walks = _zoo(rng)
    for _ in range(100):
        s = rng.choice(walks)
        r = rng.choice(walks)
        n = rng.randint(0, 12)
        v = (rng.randint(-8, 8), rng.randint(-8, 8))
        assert s.compose(r).apply(n, v) == s.apply(n, r.apply(n, v))


def test_reparam_consistency_random():
    rng = random.Random(1009)
    walks = _zoo(rng)
    for _ in range(50):
        s = rng.choice(walks)
        power = rng.randint(1, 3)
        n = rng.randint(0, 6)
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert s.reparam(power).apply(n, v) == s.apply(n ** power, v)


def test_scaling_divisibility_random():
    rng = random.Random(1010)
    walks = _zoo(rng)
    for _ in range(100):
        s = rng.choice(walks)
        assert walk_scaling_certificate(s).ok
        rng.randint(0, 10 ** 6)  # an unused draw; the cases below stay fixed
        k = rng.randint(1, 20)
        n = rng.randint(0, 50)
        v = tuple(k * rng.randint(-6, 6) for _ in range(s.dim))
        assert all(x % k == 0 for x in s.apply(k * n, v))


def test_preserves_implies_numeric_invariance():
    rng = random.Random(1011)
    f = poly_parse("x - y^2", ["x", "y"])
    s = bogolubov_walk(poly_parse("y^2", ["y"]))
    assert preserves(f, s)
    for _ in range(25):
        n = rng.randint(0, 15)
        v = (rng.randint(-10, 10), rng.randint(-10, 10))
        w = s.apply(n, v)
        assert f.eval({"x": w[0], "y": w[1]}) == f.eval({"x": v[0], "y": v[1]})


def test_serialization_roundtrip():
    rng = random.Random(1012)
    for walk in _zoo(rng):
        assert Walk.from_text(walk.to_text()) == walk


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda w: pickle.loads(pickle.dumps(w))],
                         ids=["copy", "deepcopy", "pickle"])
def test_walks_copy_and_pickle_without_rechecking(clone, monkeypatch):
    walks = [*_zoo(random.Random(1013)), xy_minus_P_walks(poly_parse("z^3", ["z"]))[0]]

    def refuse(self):
        raise AssertionError("a copied walk was checked again")

    monkeypatch.setattr(Walk, "_check_identity_at_zero", refuse)
    monkeypatch.setattr(Walk, "_certify_integrality", refuse)
    for walk in walks:
        twin = clone(walk)
        assert type(twin) is Walk and twin == walk and twin.to_text() == walk.to_text()
        assert twin.apply(3, (2,) * walk.dim) == walk.apply(3, (2,) * walk.dim)


def test_serialization_text_shape():
    s = unipotent_walk([[1, 1], [0, 1]], ("x", "y"))
    text = s.to_text()
    assert text.splitlines()[0] == "dim 2"
    assert text.splitlines()[1] == "vars t x y"


def test_time_scale_keeps_scaled_lattice():
    s = bogolubov_walk(poly_parse("y^3", ["y"]))
    scaled = s.time_scale(4)
    for n in range(5):
        assert scaled.apply(n, (8, 4)) == s.apply(4 * n, (8, 4))
