"""Concrete walk families and their defining identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomial_reference import reference_unipotent_walk
from polywalk.fleeing import construct_fleeing_walk, is_fleeing
from polywalk.generators import (
    NotUnipotent,
    adjoint_action_matrix,
    bogolubov_walk,
    mat,
    mat_identity,
    mat_mul,
    secant_quotient,
    signature_form,
    signature_form_walks,
    sl_basis,
    sl_coordinates,
    unipotent_walk,
    xy_minus_P_walks,
)
from polywalk.poly import MPoly, poly_parse
from polywalk.walks import identity_walk, preserves, walk_scaling_certificate

F = Fraction


def _coefficients_in(p: MPoly, name: str) -> dict[int, MPoly]:
    # p as univariate in `name`: degree -> coefficient over the other variables
    i = p.vars.index(name)
    rest = p.vars[:i] + p.vars[i + 1:]
    buckets: dict[int, dict] = {}
    for exps, coeff in p.terms.items():
        buckets.setdefault(exps[i], {})[exps[:i] + exps[i + 1:]] = coeff
    return {d: MPoly(rest, t) for d, t in buckets.items()}


# independent little matrix helpers for oracles (kept local on purpose)

def _mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _pow(a, k):
    n = len(a)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = _mul(out, a)
    return out


def _apply(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def test_unipotent_identity_matrix():
    assert unipotent_walk(mat_identity(3)) == identity_walk(3)


def test_unipotent_two_by_two():
    s = unipotent_walk([[1, 1], [0, 1]], ("x", "y"))
    universe = ("t", "x", "y")
    assert s.entries[0] == poly_parse("x + t*y", universe)
    assert s.entries[1] == poly_parse("y", universe)


def test_unipotent_jordan_three_by_three():
    jordan = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    s = unipotent_walk(jordan)
    # entry 1 carries C(t,2) * x3 = ((t^2 - t)/2) * x3
    coeff = _coefficients_in(s.entries[0], "x3")[1]
    assert coeff == poly_parse("1/2*t^2 - 1/2*t", ("t", "x1", "x2"))
    for n in range(7):
        v = (2, -5, 3)
        assert s.apply(n, v) == _apply(_pow(jordan, n), v)


def test_unipotent_rejects_non_unipotent():
    with pytest.raises(NotUnipotent) as err:
        unipotent_walk([[0, 1], [1, 0]])
    assert err.value.size == 2


@st.composite
def conjugated_triangular(draw):
    """G T G^-1 for an upper triangular T and a unimodular G, a product of
    elementary matrices I + c E_ij.  T is unitriangular unless `unipotent`
    came out false, when one diagonal entry is 0, 2 or -1 instead."""
    n = draw(st.integers(1, 5))
    t = [[1 if i == j else draw(st.integers(-3, 3)) if j > i else 0 for j in range(n)]
         for i in range(n)]
    unipotent = draw(st.booleans())
    if not unipotent:
        i = draw(st.integers(0, n - 1))
        t[i][i] = draw(st.sampled_from([0, 2, -1]))
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    g_inv = [row[:] for row in g]
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-2, 2))
        e = [[c if (r, k) == (i, j) else 0 for k in range(n)] for r in range(n)]
        g = [[a + b for a, b in zip(x, y)] for x, y in zip(g, _mul(g, e))]
        g_inv = [[a - b for a, b in zip(x, y)] for x, y in zip(g_inv, _mul(e, g_inv))]
    return _mul(_mul(g, t), g_inv), unipotent, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(conjugated_triangular())
def test_unipotent_walk_matches_the_binomial_route(case):
    gamma, unipotent, named = case
    coords = tuple(f"c{i}" for i in range(len(gamma))) if named else None
    if not unipotent:
        for build in (unipotent_walk, reference_unipotent_walk):
            with pytest.raises(NotUnipotent):
                build(gamma, coords)
        return
    walk = unipotent_walk(gamma, coords)
    reference = reference_unipotent_walk(gamma, coords)
    assert walk == reference
    assert walk.to_text() == reference.to_text()


def test_unipotent_semigroup_law():
    rng = random.Random(2718)
    s = unipotent_walk([[1, 2, -1], [0, 1, 3], [0, 0, 1]])
    for _ in range(40):
        a, b = rng.randint(0, 8), rng.randint(0, 8)
        v = tuple(rng.randint(-6, 6) for _ in range(3))
        assert s.apply(a, s.apply(b, v)) == s.apply(a + b, v)


def test_adjoint_identity():
    assert adjoint_action_matrix(mat_identity(2)) == mat_identity(3)


def test_adjoint_basis_images():
    # conjugation oracle: g e g^-1 and g f g^-1 computed with raw 2x2 arithmetic
    g = [[1, 1], [0, 1]]
    g_inv = [[1, -1], [0, 1]]
    e = [[0, 1], [0, 0]]
    f = [[0, 0], [1, 0]]
    assert _mul(_mul(g, e), g_inv) == [[0, 1], [0, 0]]          # Ad(g)e = e
    assert _mul(_mul(g, f), g_inv) == [[1, -1], [1, -1]]        # = f + h - e
    ad = adjoint_action_matrix(g)
    # columns are coordinates in the (e, h, f) basis
    assert [row[0] for row in ad] == [1, 0, 0]
    assert [row[2] for row in ad] == [-1, 1, 1]


def test_adjoint_rejects_wrong_determinant():
    with pytest.raises(ValueError, match="determinant"):
        adjoint_action_matrix([[2, 0], [0, 1]])


def test_adjoint_is_multiplicative():
    rng = random.Random(1618)
    uppers = [mat([[1, a], [0, 1]]) for a in (-2, 1, 3)]
    lowers = [mat([[1, 0], [b, 1]]) for b in (-1, 2)]
    pool = uppers + lowers
    for _ in range(20):
        g1 = rng.choice(pool)
        g2 = rng.choice(pool)
        lhs = adjoint_action_matrix(mat_mul(g1, g2))
        rhs = mat_mul(adjoint_action_matrix(g1), adjoint_action_matrix(g2))
        assert lhs == rhs


def test_sl_coordinates_roundtrip():
    for n in (2, 3):
        basis = sl_basis(n)
        for idx, b in enumerate(basis):
            coords = sl_coordinates(b)
            assert coords == tuple(1 if i == idx else 0 for i in range(len(basis)))


def test_xyP_quadratic_H():
    s1, s2 = xy_minus_P_walks(poly_parse("z^2", ["z"]))
    universe = ("t", "x", "y", "z")
    # H(n, x, z) = 2*z*n + x*n^2, expanded from (z + n*x)^2 - z^2 over x
    assert s1.entries[1] == poly_parse("y + 2*z*t + x*t^2", universe)
    assert s1.entries[2] == poly_parse("z + t*x", universe)
    assert s2.entries[0] == poly_parse("x + 2*z*t + y*t^2", universe)


def test_xyP_cubic_H():
    s1, _ = xy_minus_P_walks(poly_parse("z^3", ["z"]))
    universe = ("t", "x", "y", "z")
    expected_h = poly_parse("3*z^2*t + 3*z*x*t^2 + x^2*t^3", universe)
    assert s1.entries[1] == poly_parse("y", universe) + expected_h


def test_xyP_preconditions():
    with pytest.raises(ValueError, match="^P\\(0\\) must be 0, got 1$"):
        xy_minus_P_walks(poly_parse("z^2 + 1", ["z"]))
    with pytest.raises(ValueError, match="degree"):
        xy_minus_P_walks(poly_parse("z", ["z"]))
    with pytest.raises(ValueError, match="integer"):
        xy_minus_P_walks(MPoly(("z",), {(2,): F(1, 2)}))


def test_xyP_reads_P_in_its_own_variable_and_universe():
    # P in w over a universe with an unused name gives the walks of P(z)
    assert (xy_minus_P_walks(poly_parse("w^3 - 2*w^2", ["q", "w"]))
            == xy_minus_P_walks(poly_parse("z^3 - 2*z^2", ["z"])))


def test_bogolubov_reads_P_in_its_own_variable_and_universe():
    # P in w, or in y over a universe with an unused name, gives the walk of P(y)
    assert (bogolubov_walk(poly_parse("w^3 - 2*w^2", ["q", "w"]))
            == bogolubov_walk(poly_parse("y^3 - 2*y^2", ["y"])))
    assert bogolubov_walk(poly_parse("y^2", ["y", "w"])) == bogolubov_walk(poly_parse("y^2", ["y"]))


@pytest.mark.parametrize("universe", [["q"], ["y"], ["z"]])
@pytest.mark.parametrize("family", [bogolubov_walk, xy_minus_P_walks], ids=["bogolubov", "xyP"])
def test_a_P_without_support_is_rejected_as_inadmissible(family, universe):
    # P = 0 and P = 3 have no variable to read: the admissibility messages,
    # whichever name the universe holds
    with pytest.raises(ValueError, match="^degree must be >= 2, got 0$"):
        family(poly_parse("0", universe))
    with pytest.raises(ValueError, match="^P\\(0\\) must be 0, got 3$"):
        family(poly_parse("3", universe))
    with pytest.raises(ValueError, match="^polynomial must involve only 'w', got"):
        family(poly_parse("w^2 + y*w", ["w", "y"]))


def test_secant_quotient_rejects_an_inexact_division():
    universe = ("x", "y", "z")
    p = poly_parse("z^2", universe)
    assert (secant_quotient(p, "z", poly_parse("x*y", universe), "x")
            == poly_parse("2*y*z + x*y^2", universe))
    with pytest.raises(ArithmeticError,
                       match=r"^monomial \(0, 1, 1\) lacks 'x'; division is not exact$"):
        secant_quotient(p, "z", poly_parse("y", universe), "x")


def test_xyP_leading_term_of_H():
    # as a polynomial in the time variable, H has top coefficient C * x^(deg P - 1)
    rng = random.Random(55)
    for _ in range(6):
        degree = rng.randint(2, 5)
        coeffs = {(degree,): F(rng.choice([1, 2, -3]))}
        for d in range(2, degree):
            c = rng.randint(-2, 2)
            if c:
                coeffs[(d,)] = F(c)
        p = MPoly(("z",), coeffs)
        s1, _ = xy_minus_P_walks(p)
        h = s1.entries[1] - poly_parse("y", s1.entries[1].vars)
        by_degree = _coefficients_in(h, "t")
        assert max(by_degree) == degree
        lead = by_degree[degree]
        x_power = MPoly(("x", "y", "z"), {(degree - 1, 0, 0): coeffs[(degree,)]})
        assert lead == x_power


def test_xyP_preserves_random_P():
    rng = random.Random(66)
    for _ in range(5):
        degree = rng.randint(2, 5)
        terms = {(degree,): F(rng.choice([1, -1, 2]))}
        for d in range(1, degree):
            c = rng.randint(-3, 3)
            if c:
                terms[(d,)] = F(c)
        p = MPoly(("z",), terms)
        s1, s2 = xy_minus_P_walks(p)
        form = (MPoly.var(("x", "y", "z"), "x") * MPoly.var(("x", "y", "z"), "y")
                - p.substitute({"z": MPoly.var(("x", "y", "z"), "z")}).extend(("x", "y", "z")))
        assert preserves(form, s1)
        assert preserves(form, s2)


def test_bogolubov_entries():
    s = bogolubov_walk(poly_parse("y^2", ["y"]))
    universe = ("t", "x", "y")
    assert s.entries[0] == poly_parse("x + 2*y*t + t^2", universe)
    assert s.entries[1] == poly_parse("y + t", universe)
    cubic = bogolubov_walk(poly_parse("y^3", ["y"]))
    assert cubic.entries[0] == poly_parse("x + 3*y^2*t + 3*y*t^2 + t^3", universe)
    assert s.apply(0, (9, -4)) == (9, -4)


def test_bogolubov_orbit_is_fleeing_from_any_start():
    s = bogolubov_walk(poly_parse("y^2", ["y"]))
    for v in [(0, 0), (5, -3), (-2, 7)]:
        cert = construct_fleeing_walk([s], v)
        assert cert.depth == 1
        assert is_fleeing(cert.orbit_poly)


def test_signature_sample_matrix():
    family = signature_form_walks(1, 2)
    assert len(family.walks) == 2
    # conjugation oracle result, frozen: (x,y,z) -> (3x-2y+2z, 2x-y+2z, 2x-2y+z)
    assert family.matrices[0] == ((3, -2, 2), (2, -1, 2), (2, -2, 1))


def test_signature_families_preserve_form():
    for p, q in [(1, 2), (2, 2), (1, 3)]:
        family = signature_form_walks(p, q)
        assert family.form == signature_form(p, q)
        for m, walk in zip(family.matrices, family.walks):
            assert preserves(family.form, walk)
            # nilpotency oracle: (M - I)^3 = 0
            n = len(m)
            shifted = [[m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
            assert _mul(_mul(shifted, shifted), shifted) == [[0] * n for _ in range(n)]


def test_signature_block_layout():
    family = signature_form_walks(2, 3)
    assert family.blocks == ((1, 1, 2), (2, 1, 2), (1, 2, 3))
    assert len(family.walks) == 6
    dim = 5
    for m in family.matrices:
        assert len(m) == dim


def test_signature_rejects_small_q():
    with pytest.raises(ValueError, match="q >= 2"):
        signature_form_walks(1, 1)


def test_signature_walks_pass_walk_invariants():
    family = signature_form_walks(1, 2)
    for walk in family.walks:
        assert walk_scaling_certificate(walk).ok


def test_generator_families_scaling_certificates():
    # every family the command line builds, and a fleeing walk composed from two
    s1, s2 = xy_minus_P_walks(poly_parse("z^3", ["z"]))
    walks = [s1, s2, bogolubov_walk(poly_parse("y^2", ["y"])),
             unipotent_walk([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
             *xy_minus_P_walks(poly_parse("z^3 + 2*z", ["z"])),
             bogolubov_walk(poly_parse("y^3", ["y"])),
             unipotent_walk([[1, 2, 3, 4], [0, 1, 5, 6], [0, 0, 1, 7], [0, 0, 0, 1]]),
             unipotent_walk(adjoint_action_matrix([[1, 1], [0, 1]])),
             unipotent_walk(adjoint_action_matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])),
             unipotent_walk(adjoint_action_matrix([[1, 0, 0], [1, 1, 0], [0, 1, 1]])),
             *signature_form_walks(2, 2).walks,
             identity_walk(2),
             construct_fleeing_walk([s1, s2], (1, 0, 0)).final_walk]
    for walk in walks:
        cert = walk_scaling_certificate(walk)
        assert cert.ok and cert.witness is None, walk


def test_shear_orbits_flee_when_x0_nonzero():
    # the two shears generate a fleeing orbit from any start with x != 0
    for p_expr in ("z^2", "z^3"):
        s1, s2 = xy_minus_P_walks(poly_parse(p_expr, ["z"]))
        for v in [(1, 0, 0), (2, -1, 3), (-1, 5, 2)]:
            cert = construct_fleeing_walk([s1, s2], v)
            assert is_fleeing(cert.orbit_poly)
