"""Exact polynomial kernel: parsing, substitution, evaluation, integrality."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywalk.fleeing import _collapse
from polywalk.generators import secant_quotient
from polywalk.poly import (
    MPoly,
    PolySyntaxError,
    PolyVector,
    UnknownIdentifierError,
    binomial_poly,
    poly_parse,
    poly_parse_auto,
)
from polywalk.walks import Walk

F = Fraction


def test_parse_additive_identity():
    assert poly_parse("x + 0", ["x"]) == MPoly.var(("x",), "x")


def test_parse_square_expansion():
    # reference expansion of (z + n*x)^2 - z^2, frozen term by term
    expected = MPoly(("n", "x", "z"), {(1, 1, 1): F(2), (2, 2, 0): F(1)})
    assert poly_parse("(z + n*x)^2 - z^2", ["n", "x", "z"]) == expected


def test_parse_rejects_symbolic_exponent():
    with pytest.raises(PolySyntaxError) as err:
        poly_parse("x ^ y", ["x", "y"])
    assert err.value.position > 0


def test_parse_rejects_negative_exponent():
    with pytest.raises(PolySyntaxError):
        poly_parse("x^-2", ["x"])


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        poly_parse("x + w", ["x"])


def test_parse_reports_position():
    with pytest.raises(PolySyntaxError) as err:
        poly_parse("x + ", ["x"])
    assert err.value.position == 4


def test_parse_grammar_corners():
    # unary minus binds to the base, so -x^2 is (-x)^2 under this grammar
    assert poly_parse("-x^2", ["x"]) == poly_parse("x^2", ["x"])
    assert poly_parse("2^3", ["x"]) == MPoly.const(("x",), 8)
    assert poly_parse("1/2*x", ["x"]) == MPoly(("x",), {(1,): F(1, 2)})
    assert poly_parse("-(x + 1)", ["x"]) == MPoly(("x",), {(1,): F(-1), (0,): F(-1)})


def test_parse_auto_collects_variables():
    p = poly_parse_auto("a*b - c^2")
    assert p.vars == ("a", "b", "c")


def test_substitute_power_rule():
    t2 = poly_parse("t^2", ["t"])
    n3 = poly_parse("n^3", ["n"])
    assert t2.substitute({"t": n3}) == poly_parse("n^6", ["n"])


def test_substitute_preservation_identity():
    # the x*y - z^2 invariance under the first shear, expanded independently:
    # x*(y + 2*z*n + x*n^2) - (z + n*x)^2 collapses back to x*y - z^2
    vars4 = ("n", "x", "y", "z")
    p = poly_parse("x*y - z^2", ["x", "y", "z"])
    bindings = {
        "x": poly_parse("x", vars4),
        "y": poly_parse("y + 2*z*n + x*n^2", vars4),
        "z": poly_parse("z + n*x", vars4),
    }
    assert p.substitute(bindings) == p.extend(vars4)


def test_substitute_at_zero():
    t = poly_parse("t", ["t"])
    assert t.substitute({"t": MPoly.zero(())}).is_zero()


def test_substitute_rejects_retained_collision():
    p = poly_parse("x*y", ["x", "y"])
    with pytest.raises(ValueError, match="collides"):
        p.substitute({"x": poly_parse("y + 1", ["y"])})


def test_substitute_unbound_passthrough():
    p = poly_parse("x*y", ["x", "y"])
    out = p.substitute({"x": poly_parse("w^2", ["w"])})
    assert out == poly_parse("w^2*y", ["w", "y"])


def substitute_reference(p: MPoly, bindings) -> MPoly:
    """Reference oracle: composition by adding up one polynomial per term,
    each a product of the cached binding powers and a passthrough monomial."""
    for name in bindings:
        if name not in p.vars:
            raise ValueError(f"binding for '{name}' which is not in universe {p.vars}")
    retained = [v for v in p.vars if v not in bindings]
    target: list[str] = list(retained)
    for v in p.vars:
        if v in bindings:
            introduced = set(bindings[v].support())
            for w in bindings[v].vars:
                if w in retained and w in introduced:
                    raise ValueError(
                        f"binding for '{v}' introduces '{w}' which collides "
                        f"with a retained variable"
                    )
                if w not in target:
                    target.append(w)
    target_t = tuple(target)

    embedded = {v: bindings[v].extend(target_t) for v in bindings}
    power_cache: dict[tuple[str, int], MPoly] = {}

    def powered(name: str, e: int) -> MPoly:
        key = (name, e)
        if key not in power_cache:
            power_cache[key] = embedded[name] ** e
        return power_cache[key]

    total = MPoly.zero(target_t)
    for exps, coeff in p.terms.items():
        term = MPoly.const(target_t, coeff)
        passthrough = [0] * len(target_t)
        for v, e in zip(p.vars, exps):
            if e == 0:
                continue
            if v in embedded:
                term = term * powered(v, e)
            else:
                passthrough[target.index(v)] = e
        if any(passthrough):
            term = term * MPoly(target_t, {tuple(passthrough): Fraction(1)})
        total = total + term
    return total if total.vars == target_t else total.extend(target_t)


_OUTER = ("x", "y", "z")
_INNER = ("u", "v", "y", "z")


@st.composite
def _poly_over(draw, names):
    vars_n = tuple(draw(st.permutations(names))[: draw(st.integers(1, 3))])
    den = draw(st.sampled_from([1, 2, 3]))
    terms = draw(st.dictionaries(
        st.tuples(*(st.integers(0, 3) for _ in vars_n)),
        st.integers(-5, 5).map(lambda num: F(num, den)),
        max_size=5,
    ))
    return MPoly(vars_n, terms)


@st.composite
def _substitution_case(draw):
    p = draw(_poly_over(_OUTER))
    bound = draw(st.lists(st.sampled_from(p.vars), unique=True))
    bindings = {name: draw(_poly_over(_INNER)) for name in bound}
    return p, bindings


@settings(max_examples=300, deadline=None)
@given(_substitution_case())
def test_substitute_matches_reference(case):
    # bindings may cover some variables or none, introduce new ones (u, v),
    # reuse retained names (y, z) and carry unused universe variables
    p, bindings = case
    try:
        expected = substitute_reference(p, bindings)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            p.substitute(bindings)
        assert str(got.value) == str(err)
        return
    out = p.substitute(bindings)
    assert out == expected
    assert out.vars == expected.vars
    assert str(out) == str(expected)


# -- the integer kernel against the Fraction loops it replaced -----------------
#
# Verbatim copies of the Fraction-coefficient MPoly.__mul__, __pow__ and
# substitute that the integer-numerator kernel replaced, with `self` a
# parameter and their products and powers routed to each other.

def _fraction_mul(self: MPoly, other) -> MPoly:
    other = self._coerce(other)
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in self.terms.items():
        for eb, cb in other.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return MPoly(self.vars, out)


def _fraction_pow(self: MPoly, n: int) -> MPoly:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"exponent must be a non-negative integer, got {n!r}")
    result = MPoly.const(self.vars, 1)
    base = self
    while n:
        if n & 1:
            result = _fraction_mul(result, base)
        base = _fraction_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def _fraction_substitute(self: MPoly, bindings) -> MPoly:
    for name in bindings:
        if name not in self.vars:
            raise ValueError(f"binding for '{name}' which is not in universe {self.vars}")
    retained = [v for v in self.vars if v not in bindings]
    target: list[str] = list(retained)
    for v in self.vars:
        if v in bindings:
            introduced = set(bindings[v].support())
            for w in bindings[v].vars:
                if w in retained and w in introduced:
                    raise ValueError(
                        f"binding for '{v}' introduces '{w}' which collides "
                        f"with a retained variable"
                    )
                if w not in target:
                    target.append(w)
    target_t = tuple(target)

    factors = [bindings[v].extend(target_t) if v in bindings else MPoly.var(target_t, v)
               for v in self.vars]
    powers: dict[tuple[int, int], MPoly] = {}
    one = {(0,) * len(target_t): 1}
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in self.terms.items():
        product = None
        for i, e in enumerate(exps):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = _fraction_pow(factors[i], e)
                product = powers[i, e] if product is None else _fraction_mul(product, powers[i, e])
        for key, c in (one if product is None else product.terms).items():
            out[key] = out.get(key, 0) + coeff * c
    return MPoly(target_t, out)


def _assert_canonical_equal(out: MPoly, expected: MPoly):
    # only non-zero Fractions over exponent tuples of the universe's length,
    # the oracle's terms and universe exactly, and == / hash equal to the
    # same polynomial built through the checking constructor
    for exps, c in out.terms.items():
        assert type(c) is Fraction and c != 0
        assert len(exps) == len(out.vars) and all(type(e) is int and e >= 0 for e in exps)
    assert out.vars == expected.vars
    assert out.terms == expected.terms
    rebuilt = MPoly(out.vars, dict(out.terms))
    assert out == rebuilt == expected
    assert hash(out) == hash(rebuilt) == hash(expected)


_KERNEL_VARS = ("a", "b", "c", "d")

# mixed denominators: coprime, shared factors and a large prime
_coefficient = st.builds(
    F, st.integers(-7, 7), st.sampled_from([1, 1, 2, 3, 4, 6, 9, 10, 1009]))


@st.composite
def _kernel_poly(draw, vars_n, max_terms=4, max_exp=3):
    # the zero polynomial, a constant, a monomial, or a general polynomial
    kind = draw(st.sampled_from(["zero", "constant", "monomial"] + ["general"] * 3))
    if kind == "zero":
        return MPoly.zero(vars_n)
    exps = st.tuples(*(st.integers(0, max_exp) for _ in vars_n))
    if kind == "constant":
        return MPoly(vars_n, {(0,) * len(vars_n): draw(_coefficient)})
    if kind == "monomial":
        return MPoly(vars_n, {draw(exps): draw(_coefficient.filter(bool))})
    return MPoly(vars_n, draw(st.dictionaries(exps, _coefficient, min_size=2, max_size=max_terms)))


@st.composite
def _universe(draw):
    return _KERNEL_VARS[: draw(st.integers(1, 4))]


@st.composite
def _product_case(draw):
    vars_n = draw(_universe())
    return draw(_kernel_poly(vars_n)), draw(_kernel_poly(vars_n))


@settings(max_examples=300, deadline=None)
@given(_product_case())
def test_mul_matches_fraction_oracle(case):
    p, q = case
    _assert_canonical_equal(p * q, _fraction_mul(p, q))
    _assert_canonical_equal(p * F(-3, 4), _fraction_mul(p, F(-3, 4)))


@st.composite
def _power_case(draw):
    vars_n = draw(_universe())
    p = draw(_kernel_poly(vars_n))
    if len(p.terms) <= 1:
        n = draw(st.one_of(st.integers(0, 3), st.integers(50, 400)))
    else:
        n = draw(st.integers(0, 7))
    return p, n


@settings(max_examples=300, deadline=None)
@given(_power_case())
def test_pow_matches_fraction_oracle(case):
    p, n = case
    _assert_canonical_equal(p ** n, _fraction_pow(p, n))


def test_pow_edge_exponents():
    x = MPoly.var(("x", "y"), "x")
    p = x * F(2, 3) - MPoly.var(("x", "y"), "y") * F(5, 7) + F(1, 2)
    zero = MPoly.zero(("x", "y"))
    for base in (zero, MPoly.const(("x", "y"), F(-3, 2)), x * F(-5, 9), p):
        for n in (0, 1, 2, 3, 64):
            if len(base.terms) > 1 and n == 64:
                n = 9
            _assert_canonical_equal(base ** n, _fraction_pow(base, n))
    assert zero ** 0 == MPoly.const(("x", "y"), 1)
    assert (x * F(-5, 9)) ** 301 == MPoly(("x", "y"), {(301, 0): F(-5, 9) ** 301})


def test_products_that_cancel():
    names = ("x", "y")
    x, y = MPoly.var(names, "x"), MPoly.var(names, "y")
    c = F(7, 6)
    # the x*y terms cancel to zero and must not be stored
    _assert_canonical_equal((x + y * c) * (x - y * c), _fraction_mul(x + y * c, x - y * c))
    assert ((x + y * c) * (x - y * c)).terms == {(2, 0): F(1), (0, 2): -c * c}
    # the whole product cancels to the zero polynomial after a difference
    square = (x * F(1, 2) - y * F(1, 3)) ** 2
    _assert_canonical_equal(square - _fraction_pow(x * F(1, 2) - y * F(1, 3), 2),
                            MPoly.zero(names))
    # a substitution whose terms all cancel
    diff = poly_parse("x - y", names)
    w = poly_parse("1/3*w^2 - 5/2", ["w"])
    _assert_canonical_equal(diff.substitute({"x": w, "y": w}), MPoly.zero(("w",)))


@st.composite
def _kernel_substitution_case(draw):
    vars_n = draw(_universe())
    p = draw(_kernel_poly(vars_n))
    bound = draw(st.lists(st.sampled_from(vars_n), unique=True, min_size=1))
    # bindings introduce u, v and may reuse a name of the outer universe;
    # a reused name that stays unbound is a collision both sides refuse
    inner = ("u", "v") + tuple(draw(st.lists(st.sampled_from(vars_n), unique=True, max_size=2)))
    inner = draw(st.permutations(inner))[: draw(st.integers(1, len(inner)))]
    bindings = {name: draw(_kernel_poly(tuple(inner), max_terms=3, max_exp=2)) for name in bound}
    return p, bindings


@settings(max_examples=300, deadline=None)
@given(_kernel_substitution_case())
def test_substitute_matches_fraction_oracle(case):
    # rational bindings (constants, monomials, zero and general ones) and
    # unbound variables that pass through
    p, bindings = case
    try:
        expected = _fraction_substitute(p, bindings)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            p.substitute(bindings)
        assert str(got.value) == str(err)
        return
    _assert_canonical_equal(p.substitute(bindings), expected)


def _assert_lowest_terms(p: MPoly):
    # the stored pair: a positive int denominator coprime to the non-zero
    # int numerators as a whole (the zero polynomial is 1 over no terms)
    assert type(p.denominator) is int and p.denominator > 0
    assert all(type(c) is int and c for c in p.numerators.values())
    assert gcd(p.denominator, *p.numerators.values()) == 1


@settings(max_examples=200, deadline=None)
@given(_product_case(), st.integers(0, 5), _kernel_substitution_case(), st.data())
def test_every_result_is_stored_in_lowest_terms(case, n, substitution, data):
    p, q = case
    results = [p * q, p * F(-3, 4), p ** n, p + q, p - q, 2 - p, -p, p.extend(p.vars + ("w",))]
    s, bindings = substitution
    try:
        results.append(s.substitute(bindings))
    except ValueError:
        pass   # a binding that collides with a retained variable
    coords = ("x", "y")
    entries = [data.draw(_kernel_poly(("t",) + coords)) for _ in coords]
    v = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    walk = Walk(entries, coords, check=False)
    k = data.draw(st.integers(2, 4))
    results += [*walk.orbit_poly(v), *walk.reparam(k).entries, *walk.time_scale(k).entries]
    # exponents may coincide, so collapsing can merge and cancel terms
    orbit = PolyVector([data.draw(_kernel_poly(("t1", "t2"))) for _ in range(2)])
    results += _collapse(orbit, data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3))))
    # (P(z + x q) - P(z)) / x, and a map that merges terms by parity with signs
    zx = ("z", "x")
    shift = MPoly.var(zx, "x") * data.draw(_kernel_poly(zx, max_exp=2))
    results.append(secant_quotient(data.draw(_kernel_poly(("z",))).extend(zx), "z", shift, "x"))
    results.append(p.map_monomials(("n",), lambda e: (sum(e) % 2,), lambda e: (-1) ** sum(e)))
    for result in results:
        _assert_lowest_terms(result)


@st.composite
def _monomial_map_case(draw):
    # a polynomial and, per variable, a one-term image w * u^a * v^b with
    # small exponents and weights (0 included), so keys collide and cancel;
    # unweighted maps send every variable to a monomial with coefficient 1
    vars_n = draw(_universe())
    weighted = draw(st.booleans())
    images = [(draw(st.integers(-3, 3)) if weighted else 1,
               draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))) for _ in vars_n]
    return draw(_kernel_poly(vars_n)), images, weighted


@settings(max_examples=300, deadline=None)
@given(_monomial_map_case())
def test_map_monomials_matches_substitute_and_the_fraction_sums(case):
    p, images, weighted = case
    target = ("u", "v")

    def key(e):
        return tuple(sum(k * a[j] for k, (_, a) in zip(e, images)) for j in range(2))

    def weight(e):
        return prod(w ** k for k, (w, _) in zip(e, images))

    mapped = p.map_monomials(target, key, weight if weighted else None)
    _assert_lowest_terms(mapped)
    # substitute with one-term bindings is the reference
    bindings = {x: MPoly(target, {a: w}) for x, (w, a) in zip(p.vars, images)}
    _assert_canonical_equal(mapped, p.substitute(bindings))
    sums = {}
    for e, c in p.terms.items():
        sums[key(e)] = sums.get(key(e), 0) + c * weight(e)
    _assert_canonical_equal(mapped, MPoly(target, sums))


def test_map_monomials_rejects_repeated_names_and_passes_key_errors():
    p = poly_parse("x^2 + 1", ["x"])
    with pytest.raises(ValueError, match=r"duplicate variable names in \('n', 'n'\)"):
        p.map_monomials(("n", "n"), lambda e: (e[0], 0))

    def odd_only(e):
        if e[0] % 2 == 0:
            raise ArithmeticError(f"even exponent {e}")
        return e

    with pytest.raises(ArithmeticError, match=r"even exponent \(2,\)"):
        p.map_monomials(("x",), odd_only)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["copy", "deepcopy", "pickle"])
def test_polynomials_copy_and_pickle_to_their_stored_pair(clone):
    p = poly_parse("2/3*x^2*y - 5/6*y + 1", ["x", "y", "w"])
    for value in (p, MPoly.zero(("x",)), MPoly.const((), F(-7, 4)), PolyVector([p, -p])):
        twin = clone(value)
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)
    twin = clone(p)
    assert (twin.vars, twin.denominator, twin.numerators) == (p.vars, p.denominator, p.numerators)
    assert twin.terms == p.terms
    with pytest.raises(AttributeError, match="MPoly is immutable"):
        twin.vars = ()


def test_constructor_rejects_duplicate_variables():
    with pytest.raises(ValueError, match=r"duplicate variable names in \('x', 'x'\)"):
        MPoly(("x", "x"), {})
    for build in (MPoly.zero, lambda vars: MPoly.const(vars, F(1, 2)),
                  lambda vars: MPoly.var(vars, "x")):
        with pytest.raises(ValueError, match=r"duplicate variable names in \('x', 'x'\)"):
            build(["x", "x"])


def test_constructor_rejects_exponent_length():
    with pytest.raises(ValueError, match=r"exponent tuple \(1,\) does not match variables"):
        MPoly(("x", "y"), {(1,): F(1)})


def test_constructor_rejects_negative_exponent():
    with pytest.raises(ValueError, match=r"negative exponent in \(2, -1\)"):
        MPoly(("x", "y"), {(2, -1): F(1)})


def test_constructor_rejects_non_numeric_coefficient():
    with pytest.raises(TypeError, match="expected int or Fraction, got float"):
        MPoly(("x",), {(1,): 0.5})


def test_constructor_drops_zero_coefficients():
    p = MPoly(("x",), {(2,): F(0), (1,): 3, (0,): F(-1, 2)})
    assert p.terms == {(1,): F(3), (0,): F(-1, 2)}
    assert all(isinstance(c, Fraction) for c in p.terms.values())


def test_eval_examples():
    p = poly_parse("2*z*n + x*n^2", ["n", "x", "z"])
    assert p.eval({"n": 1, "x": 1, "z": 0}) == 1
    q = poly_parse("n^2 - n", ["n"])
    assert q.eval({"n": 7}) == 42
    assert poly_parse("x*y + 3*x", ["x", "y"]).eval({"x": 0, "y": 0}) == 0


def test_eval_rejects_unbound():
    with pytest.raises(ValueError, match="unbound"):
        poly_parse("x*y", ["x", "y"]).eval({"x": 1})


def _grid_points(p: MPoly):
    return product(*(range(p.degree_in(v) + 1) for v in p.vars))


def mahler_coefficients(p: MPoly) -> dict[tuple[int, ...], Fraction]:
    """Reference oracle: coordinates in the binomial basis prod C(v_i, a_i),
    by the double sum c_a = sum_{b <= a} (-1)^{|a-b|} prod C(a_i, b_i) p(b)."""
    values = {b: p.eval(dict(zip(p.vars, b))) for b in _grid_points(p)}
    coeffs = {}
    for a in values:
        total = Fraction(0)
        for b in product(*(range(x + 1) for x in a)):
            sign = -1 if (sum(a) - sum(b)) % 2 else 1
            weight = 1
            for x, y in zip(a, b):
                weight *= comb(x, y)
            total += sign * weight * values[b]
        if total:
            coeffs[a] = total
    return coeffs


def test_integer_valued_binomial():
    c_n_2 = MPoly(("n",), {(2,): F(1, 2), (1,): F(-1, 2)})
    cert = c_n_2.integer_valued()
    assert cert.integral


def test_integer_valued_counterexample():
    cert = MPoly(("n",), {(1,): F(1, 2)}).integer_valued()
    assert not cert.integral
    assert cert.witness == {"n": 1}


def test_integer_valued_cubic():
    # (n^3 + 3n^2 + 2n)/6: Mahler oracle says coefficients (0, 1, 2, 1)
    p = MPoly(("n",), {(3,): F(1, 6), (2,): F(1, 2), (1,): F(1, 3)})
    cert = p.integer_valued()
    assert cert.integral
    assert mahler_coefficients(p) == {(1,): F(1), (2,): F(2), (3,): F(1)}


def test_mahler_matches_binomial_basis():
    # C(n, 3) must have a single Mahler coordinate
    c3 = binomial_poly(("n",), "n", 3)
    assert mahler_coefficients(c3) == {(3,): F(1)}


def test_integer_valued_witness_at_far_corner():
    # the first non-integral grid point is the grid's last one, so a grid
    # cut one short in any variable misses it
    half = MPoly.const(("n",), F(1, 2))
    assert (binomial_poly(("n",), "n", 2) * half).integer_valued().witness == {"n": 2}
    ab = ("a", "b")
    p = binomial_poly(ab, "a", 2) * binomial_poly(ab, "b", 3) * F(1, 2)
    assert p.integer_valued().witness == {"a": 2, "b": 3}


@st.composite
def _binomial_basis_poly(draw):
    vars_n = ("a", "b", "c")[: draw(st.integers(1, 3))]
    p = MPoly.zero(vars_n)
    for _ in range(draw(st.integers(1, 4))):
        term = MPoly.const(vars_n, F(draw(st.integers(-4, 4)),
                                     draw(st.sampled_from([1, 2, 3]))))
        for v in vars_n:
            term = term * binomial_poly(vars_n, v, draw(st.integers(0, 3)))
        p = p + term
    return p


@settings(max_examples=150, deadline=None)
@given(_binomial_basis_poly())
def test_integer_valued_matches_mahler_oracle(p):
    cert = p.integer_valued()
    assert bool(cert) == all(c.denominator == 1 for c in mahler_coefficients(p).values())
    first_bad = next((dict(zip(p.vars, b)) for b in _grid_points(p)
                      if p.eval(dict(zip(p.vars, b))).denominator != 1), None)
    assert cert.witness == first_bad


def _reference_integer_valued(p: MPoly):
    """The grid scan `MPoly.integer_valued` used before it read the Mahler
    coordinates: (verdict, first non-integral degree-grid point or None)."""
    if p.has_integer_coefficients():
        return True, None
    L = lcm(*(c.denominator for c in p.terms.values()))
    scaled = {e: c.numerator * (L // c.denominator) for e, c in p.terms.items()}
    for b in _grid_points(p):
        total = 0
        for exps, c in scaled.items():
            for x, e in zip(b, exps):
                if e:
                    c *= x ** e
            total += c
        if total % L:
            return False, dict(zip(p.vars, b))
    return True, None


@st.composite
def _rational_poly(draw, names=("a", "b", "c"), max_degree=6):
    """Binomial-basis terms with small denominators, often integer-valued,
    plus power-basis terms with rational coefficients; degree <= 6 in each
    of 1-3 variables."""
    vars_n = names[: draw(st.integers(1, len(names)))]
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    exps = st.tuples(*(st.integers(0, max_degree) for _ in vars_n))
    p = MPoly.zero(vars_n)
    for ks in draw(st.lists(exps, max_size=3)):
        term = MPoly.const(vars_n, draw(st.integers(-4, 4)) * F(1, draw(st.sampled_from([1, 1, 2, 3]))))
        for v, k in zip(vars_n, ks):
            term = term * binomial_poly(vars_n, v, k)
        p = p + term
    return p + MPoly(vars_n, draw(st.dictionaries(exps, coeff, max_size=2)))


@settings(max_examples=200, deadline=None)
@given(_rational_poly())
def test_integer_valued_matches_the_grid_scan(p):
    cert = p.integer_valued()
    assert (cert.integral, cert.witness) == _reference_integer_valued(p)


def test_integer_valued_degree_189():
    c = binomial_poly(("n",), "n", 189)
    assert c.integer_valued().integral
    half = c * F(1, 2)
    cert = half.integer_valued()
    assert not cert.integral and cert.witness == {"n": 189}
    assert _reference_integer_valued(half) == (False, {"n": 189})


def test_integer_valued_reads_the_constant_coordinate():
    # only the constant term has a constant Mahler coordinate
    ab = ("a", "b")
    for p in (MPoly.const(("n",), F(1, 2)),
              binomial_poly(ab, "a", 2) * binomial_poly(ab, "b", 1) + F(1, 3)):
        cert = p.integer_valued()
        assert not cert.integral and cert.witness == dict.fromkeys(p.vars, 0)


def _random_poly(rng: random.Random, vars, degree=3, terms=4, rational=False) -> MPoly:
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, degree) for _ in vars)
        num = rng.randint(-6, 6)
        den = rng.choice([1, 2, 3]) if rational else 1
        if num:
            out[exps] = F(num, den)
    return MPoly(vars, out)


def test_ring_axioms_random():
    rng = random.Random(20240811)
    vars3 = ("x", "y", "z")
    for _ in range(60):
        a = _random_poly(rng, vars3, rational=True)
        b = _random_poly(rng, vars3, rational=True)
        c = _random_poly(rng, vars3, rational=True)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_substitution_evaluation_consistency():
    rng = random.Random(77)
    vars2 = ("x", "y")
    inner_vars = ("u", "v")
    for _ in range(40):
        p = _random_poly(rng, vars2, degree=2, terms=3, rational=True)
        bindings = {
            "x": _random_poly(rng, inner_vars, degree=2, terms=2),
            "y": _random_poly(rng, inner_vars, degree=2, terms=2),
        }
        point = {"u": F(rng.randint(-4, 4)), "v": F(rng.randint(-4, 4))}
        via_subst = p.substitute(bindings).eval(point)
        via_eval = p.eval({v: bindings[v].eval(point) for v in vars2})
        assert via_subst == via_eval


def test_integer_valued_agrees_with_grid():
    rng = random.Random(4242)
    for _ in range(30):
        vars_n = ("a", "b")[: rng.randint(1, 2)]
        # mix Mahler-integral polynomials with genuinely fractional ones
        p = MPoly.zero(vars_n)
        for _ in range(3):
            ks = tuple(rng.randint(0, 3) for _ in vars_n)
            basis = MPoly.const(vars_n, 1)
            for v, k in zip(vars_n, ks):
                basis = basis * binomial_poly(vars_n, v, k)
            weight = F(rng.randint(-3, 3), rng.choice([1, 1, 1, 2]))
            p = p + basis * weight
        grid_ok = True
        points = [()]
        for _ in vars_n:
            points = [pt + (x,) for pt in points for x in range(-6, 7)]
        for pt in points:
            if p.eval(dict(zip(vars_n, pt))).denominator != 1:
                grid_ok = False
                break
        assert bool(p.integer_valued()) == grid_ok


def test_print_parse_roundtrip_random():
    rng = random.Random(99)
    for _ in range(60):
        vars_n = ("x", "y", "z")[: rng.randint(1, 3)]
        p = _random_poly(rng, vars_n, degree=4, terms=5, rational=True)
        assert poly_parse(str(p), vars_n) == p
        assert str(poly_parse(str(p), vars_n)) == str(p)


def _reference_str(p: MPoly) -> str:
    """`MPoly.__str__` as it was before it formatted integer numerators:
    through abs(Fraction) and Fraction comparisons."""
    if not p.terms:
        return "0"

    def fmt(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    pieces = []
    graded = sorted(p.terms.items(), key=lambda it: (sum(it[0]), it[0]), reverse=True)
    for index, (exps, coeff) in enumerate(graded):
        monomial = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(p.vars, exps) if e)
        mag = abs(coeff)
        if monomial and mag == 1:
            body = monomial
        elif monomial:
            body = f"{fmt(mag)}*{monomial}"
        else:
            body = fmt(mag)
        if index == 0:
            if coeff < 0:
                pieces.append(f"-{fmt(mag)}*{monomial}" if monomial else f"-{fmt(mag)}")
            else:
                pieces.append(body)
        else:
            pieces.append(f" {'-' if coeff < 0 else '+'} {body}")
    return "".join(pieces)


_print_coeff = st.one_of(
    st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 2), F(7, 3), F(-12, 5)]),
    st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool),
)


@st.composite
def _printable_poly(draw):
    vars_n = ("x", "y", "z")[: draw(st.integers(1, 3))]
    exps = st.tuples(*(st.integers(0, 4) for _ in vars_n))
    return MPoly(vars_n, draw(st.dictionaries(exps, _print_coeff, max_size=5)))


@settings(max_examples=200, deadline=None)
@given(_printable_poly())
def test_str_matches_the_fraction_printer_and_round_trips(p):
    text = str(p)
    assert text == _reference_str(p)
    assert poly_parse(text, p.vars) == p


@pytest.mark.parametrize("terms,printed", [
    ({(2, 0): F(-1), (1, 0): F(1)}, "-1*x^2 + x"),
    ({(2, 0): F(1), (1, 0): F(-1)}, "x^2 - x"),
    ({(1, 1): F(-1, 2), (0, 0): F(-1)}, "-1/2*x*y - 1"),
    ({(0, 0): F(-3)}, "-3"),
    ({(0, 0): F(1, 3)}, "1/3"),
    ({(0, 1): F(1), (0, 0): F(-2, 3)}, "y - 2/3"),
])
def test_str_corners(terms, printed):
    # a leading -1 stays explicit: "-x^2" would re-parse as (-x)^2
    p = MPoly(("x", "y"), terms)
    assert str(p) == printed == _reference_str(p)
    assert poly_parse(printed, ("x", "y")) == p


def test_zero_polynomial_conventions():
    z = MPoly.zero(("x",))
    assert z.is_zero()
    assert str(z) == "0"
    assert poly_parse("0", ["x"]) == z
    assert z.integer_valued().integral


def test_equality_ignores_unused_universe_vars():
    a = MPoly.var(("x",), "x")
    b = MPoly.var(("x", "y"), "x")
    assert a == b
    assert hash(a) == hash(b)


def test_polyvector_requires_shared_universe():
    with pytest.raises(ValueError, match="mixed universes"):
        PolyVector([MPoly.var(("x",), "x"), MPoly.var(("y",), "y")])


def test_polyvector_eval_int_rejects_fractions():
    pv = PolyVector([MPoly(("n",), {(1,): F(1, 2)})])
    with pytest.raises(ValueError, match="non-integer"):
        pv.eval_int({"n": 1})


def _reference_eval_int(pv: PolyVector, point):
    """`PolyVector.eval_int` as it was before it read integer numerators:
    every entry by the Fraction route, `MPoly.eval`, then one check."""
    values = pv.eval(point)
    for v in values:
        if v.denominator != 1:
            raise ValueError(f"non-integer value {v} at {dict(point)}")
    return tuple(v.numerator for v in values)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_point_value = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(-10 ** 40, 10 ** 40),
    st.builds(F, st.integers(-50, 50), st.sampled_from([1, 2, 3, 4, 6, 1009])),
    st.just(True),
    st.sampled_from([None, None, 1.0, 0.5, "1"]),  # None: the variable is unbound
)


@st.composite
def _eval_int_case(draw):
    vars_n = draw(_universe())
    entry = st.one_of(_kernel_poly(vars_n), _binomial_basis_poly().map(
        lambda p: p.extend(tuple(dict.fromkeys(p.vars + vars_n)))))
    entries = draw(st.lists(entry, min_size=1, max_size=3))
    universe = max((p.vars for p in entries), key=len)
    pv = PolyVector([p.extend(universe) for p in entries])
    point = {}
    for v in universe + ("w",):
        value = draw(_point_value)
        if value is not None:
            point[v] = value
    return pv, point


@settings(max_examples=300, deadline=None)
@given(_eval_int_case())
def test_eval_int_matches_fraction_eval(case):
    pv, point = case
    assert _outcome(pv.eval_int, point) == _outcome(_reference_eval_int, pv, point)


def test_eval_int_errors_match_fraction_eval():
    universe = ("n", "x", "y")
    pv = PolyVector([poly_parse("1/2*n^2 + x", universe), poly_parse("n*y", universe)])
    cases = [
        ({"n": 2, "x": 0, "y": 1}, None, (2, 2)),
        ({"n": F(4, 2), "x": 0, "y": 1}, None, (2, 2)),
        ({"n": 1, "x": 0, "y": 2}, ValueError, "non-integer value 1/2 at {'n': 1, 'x': 0, 'y': 2}"),
        ({"n": 2, "x": 0}, ValueError, "unbound variable 'y'"),
        ({"x": 0, "y": 1}, ValueError, "unbound variable 'n'"),
        ({"n": 2.0, "x": 0, "y": 1}, TypeError, "expected int or Fraction, got float"),
        ({"n": 2, "x": 0, "y": "1"}, TypeError, "expected int or Fraction, got str"),
    ]
    for point, error, expected in cases:
        assert _outcome(pv.eval_int, point) == _outcome(_reference_eval_int, pv, point)
        if error is None:
            assert pv.eval_int(point) == expected
        else:
            with pytest.raises(error) as info:
                pv.eval_int(point)
            assert str(info.value) == expected
    # a float is refused, never truncated, even for a variable of no term
    unused = PolyVector([poly_parse("n", ["n", "x"])])
    with pytest.raises(TypeError, match="got float"):
        unused.eval_int({"n": 3, "x": 1.5})
