"""Cross-checks on the less-travelled paths: non-triangular unipotents,
higher-rank adjoints, kernel properties, the fraction-free elimination
against the Fraction routines it replaced, serializer error handling,
precision plumbing, and the record types' value contract."""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decimal_reference import decimal_digits
from polywalk.cli import parse_walk_spec
from polywalk.ergodic import (BoxIndicator, CharacterInfo, CorrelationEstimate,
                              EmpiricalAverage, TrigPoly)
from polywalk.fleeing import (AffineFunctional, _orbit_stream, affine_annihilator,
                              construct_fleeing_walk, kernel_basis)
from polywalk.generators import (
    adjoint_action_matrix,
    mat,
    mat_det,
    mat_identity,
    mat_inverse_sl,
    mat_mul,
    nilpotent_powers,
    signature_form_walks,
    unipotent_walk,
)
from polywalk.lab import (MAGYAR, BohrSet, ExperimentReport, SearchResult, Status,
                          TargetRecord)
from polywalk.poly import MPoly, PolyVector, poly_parse
from polywalk.reals import FixedRow, Real, constant_digits, parse_real
from polywalk.walks import Walk

F = Fraction


def _conjugate(g, m):
    return mat_mul(mat_mul(g, m), mat_inverse_sl(g))


def test_unipotent_walk_non_triangular():
    # conjugating a Jordan block gives a dense unipotent matrix
    g = mat([[2, 1], [1, 1]])
    gamma = _conjugate(g, mat([[1, 1], [0, 1]]))
    assert gamma != ((1, 1), (0, 1))
    walk = unipotent_walk(gamma)
    power = mat_identity(2)
    for n in range(8):
        for v in [(1, 0), (3, -4)]:
            expected = tuple(sum(row[j] * v[j] for j in range(2)) for row in power)
            assert walk.apply(n, v) == expected
        power = mat_mul(power, gamma)


def test_unipotent_walk_nilpotency_three():
    g = mat([[1, 0, 0], [2, 1, 0], [1, 1, 1]])
    gamma = _conjugate(g, mat([[1, 1, 1], [0, 1, 1], [0, 0, 1]]))
    nil = tuple(
        tuple(x - (1 if i == j else 0) for j, x in enumerate(row))
        for i, row in enumerate(gamma)
    )
    assert len(nilpotent_powers(nil)) == 3
    walk = unipotent_walk(gamma)
    assert walk.apply(0, (5, 6, 7)) == (5, 6, 7)


def test_adjoint_sl3_is_unipotent_and_multiplicative():
    e12 = mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    e23 = mat([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    ad12 = adjoint_action_matrix(e12)
    ad23 = adjoint_action_matrix(e23)
    assert len(ad12) == 8
    for ad in (ad12, ad23):
        nil = tuple(
            tuple(x - (1 if i == j else 0) for j, x in enumerate(row))
            for i, row in enumerate(ad)
        )
        assert nilpotent_powers(nil) is not None
    assert adjoint_action_matrix(mat_mul(e12, e23)) == mat_mul(ad12, ad23)
    # and the induced walk is a genuine polynomial walk on Z^8
    walk = unipotent_walk(ad12)
    assert walk.apply(0, tuple(range(8))) == tuple(range(8))


def test_kernel_basis_properties_random():
    rng = random.Random(90210)
    for _ in range(25):
        rows = rng.randint(1, 5)
        width = rng.randint(1, 5)
        matrix = [
            [F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(width)]
            for _ in range(rows)
        ]
        basis = kernel_basis(matrix, width)
        # every basis vector annihilates every row
        for vec in basis:
            for row in matrix:
                assert sum(r * x for r, x in zip(row, vec)) == 0
        # basis vectors are primitive integer vectors with positive lead
        for vec in basis:
            assert all(x.denominator == 1 for x in vec)
            lead = next((x for x in vec if x), None)
            assert lead is None or lead > 0
        # rank-nullity: re-derive the rank by brute-force minor testing is
        # overkill; instead check the kernel is big enough to annihilate and
        # independent: stack the basis and verify its own kernel is trivial
        if basis:
            stacked = [[vec[i] for vec in basis] for i in range(width)]
            assert kernel_basis(stacked, len(basis)) == []


# -- fraction-free elimination against the Fraction Gauss-Jordan route --------
#
# The three functions below are the Fraction eliminations that `mat_det`,
# `mat_inverse_sl` and `kernel_basis` used before they shared one
# fraction-free routine; they stay here as the reference oracle.

def _reference_det(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = m[c][c]
        m[c] = [x / inv for x in m[c]]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    assert det.denominator == 1
    return det.numerator


def _reference_inverse_sl(a):
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[c], m[pivot] = m[pivot], m[c]
        inv = m[c][c]
        m[c] = [x / inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    out = []
    for row in m:
        tail = row[n:]
        if any(x.denominator != 1 for x in tail):
            raise ValueError("inverse is not integral (determinant is not +-1)")
        out.append(tuple(x.numerator for x in tail))
    return tuple(out)


def _reference_kernel_basis(rows, width):
    matrix = [row[:] for row in rows]
    pivot_cols = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][c] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = matrix[r][c]
        matrix[r] = [x / inv for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [x - f * y for x, y in zip(matrix[i], matrix[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(matrix):
            break
    basis = []
    for fc in (c for c in range(width) if c not in pivot_cols):
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for row_i, pc in enumerate(pivot_cols):
            vec[pc] = -matrix[row_i][fc]
        basis.append(_reference_primitive(vec))
    return basis


def _reference_primitive(vec):
    denom_lcm = 1
    for x in vec:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [x.numerator * (denom_lcm // x.denominator) for x in vec]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    if g:
        ints = [n // g for n in ints]
    lead = next((n for n in ints if n), 0)
    if lead < 0:
        ints = [-n for n in ints]
    return [Fraction(n) for n in ints]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


_rational = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_sparse_rational = st.one_of(st.just(F(0)), _rational)


@st.composite
def _rational_matrices(draw):
    """Rows of rationals with zero rows, zero columns and dependent rows mixed in."""
    width = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(_sparse_rational, min_size=width, max_size=width),
                         max_size=7))
    if rows and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(_rational)
        rows.insert(draw(st.integers(0, len(rows))), [x + c * y for x, y in zip(a, b)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [F(0)] * width)
    for col in draw(st.sets(st.integers(0, max(width - 1, 0)), max_size=2)):
        for row in rows:
            if col < width:
                row[col] = F(0)
    return rows, width


@st.composite
def _integer_matrices(draw, max_size=5):
    n = draw(st.integers(0, max_size))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return mat(rows)


@st.composite
def _unimodular_matrices(draw):
    """Products of elementary matrices: row additions, swaps and negations."""
    n = draw(st.integers(1, 5))
    rows = [list(row) for row in mat_identity(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(("add", "swap", "negate")))
        if op == "add" and i != j:
            c = draw(st.integers(-4, 4))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-x for x in rows[i]]
    return mat(rows)


@settings(max_examples=150, deadline=None)
@given(_rational_matrices())
def test_kernel_basis_matches_fraction_route(case):
    rows, width = case
    expected = _reference_kernel_basis([row[:] for row in rows], width)
    assert kernel_basis([row[:] for row in rows], width) == expected
    for vec in expected:
        for row in rows:
            assert sum(r * x for r, x in zip(row, vec)) == 0


@st.composite
def _tall_matrices(draw):
    """Up to 200 rational rows of width at most 9, spanning a known space:
    full rank reached at the first `width` rows, only at the last row, or
    never.  Rows are integer combinations of the rows of an invertible
    matrix, each scaled by a random rational, with zero and duplicate rows."""
    width = draw(st.integers(1, 9))
    when = draw(st.sampled_from(("first", "last", "never")))
    rng = draw(st.randoms(use_true_random=False))
    # an invertible integer matrix: unit lower triangular, columns shuffled
    basis = [[1 if i == j else rng.randint(-3, 3) if j < i else 0
              for j in range(width)] for i in range(width)]
    order = draw(st.permutations(range(width)))
    basis = [[row[c] for c in order] for row in basis]
    span = width - 1 if when == "last" else width
    if when == "never":
        span = draw(st.integers(0, width - 1))

    def combination():
        weights = [rng.randint(-3, 3) for _ in range(span)]
        return [sum(w * row[c] for w, row in zip(weights, basis)) for c in range(width)]

    rows = [combination() for _ in range(draw(st.integers(1, 200)))]
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(rng.randint(0, len(rows)), rng.choice(rows)[:])
        rows.insert(rng.randint(0, len(rows)), [0] * width)
    if when == "first":
        rows[:0] = [row[:] for row in basis]
    elif when == "last":
        for row in basis[:-1]:
            rows.insert(rng.randint(0, len(rows)), row[:])
        rows.append([x + y for x, y in zip(basis[-1], combination())])
    scales = [F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4)) for _ in rows]
    return [[F(x) * scale for x in row] for row, scale in zip(rows, scales)], width, when


@settings(max_examples=60, deadline=None)
@given(_tall_matrices())
def test_kernel_basis_matches_fraction_route_on_tall_matrices(case):
    rows, width, when = case
    basis = kernel_basis(rows, width)
    assert basis == _reference_kernel_basis(rows, width)
    if when != "never":
        assert basis == []


@pytest.mark.parametrize("gens,v", [
    (("xyP:z^5:1", "xyP:z^5:2"), (1, 0, 0)),
    (("bogolubov:y^3",), (3, 0)),
    (("adjoint:1,1,0,1", "adjoint:1,0,1,1"), (1, 2, -1)),
    (("adjoint:1,1,0,0,1,1,0,0,1", "adjoint:1,0,0,1,1,0,0,1,1"), (1,) + (0,) * 7),
    (tuple(f"signature:1,3:{i}" for i in range(1, 5)), (1, 0, 0, 0)),
], ids=["xyP-z^5", "bogolubov-y^3", "sl2-adjoint", "sl3-adjoint", "signature-1,3"])
def test_affine_annihilator_matches_all_rows_at_every_depth(gens, v):
    """The annihilator at every depth of the orbit stream, up to the first
    trivial one, equals the Fraction elimination of every monomial row."""
    walks = [parse_walk_spec(g) for g in gens]
    for orbit in _orbit_stream(walks, v):
        d = len(orbit)
        rows = {(0,) * len(orbit.vars): [F(0)] * d + [F(1)]}
        for j, p in enumerate(orbit):
            for exps, coeff in p.terms.items():
                rows.setdefault(exps, [F(0)] * (d + 1))[j] = coeff
        expected = _reference_kernel_basis([rows[e] for e in sorted(rows)], d + 1)
        basis = affine_annihilator(orbit)
        assert [list(f.linear) + [f.constant] for f in basis] == expected
        if not basis:
            break


@settings(max_examples=200, deadline=None)
@given(_integer_matrices())
def test_mat_det_matches_fraction_route(a):
    assert mat_det(a) == _reference_det(a)


@settings(max_examples=200, deadline=None)
@given(_unimodular_matrices())
def test_mat_inverse_sl_matches_fraction_route(a):
    inverse = mat_inverse_sl(a)
    assert inverse == _reference_inverse_sl(a)
    assert mat_mul(a, inverse) == mat_identity(len(a))
    assert mat_det(a) in (1, -1)


@settings(max_examples=200, deadline=None)
@given(_integer_matrices())
def test_mat_inverse_sl_same_outcome_on_any_integer_matrix(a):
    assert _outcome(mat_inverse_sl, a) == _outcome(_reference_inverse_sl, a)


@settings(max_examples=100, deadline=None)
@given(_unimodular_matrices(), st.data())
def test_mat_inverse_sl_rejects_singular_and_non_unimodular(a, data):
    n = len(a)
    i = data.draw(st.integers(0, n - 1))
    # a non-unimodular matrix: one row scaled by k, so the determinant is +-k
    k = data.draw(st.integers(2, 5))
    scaled = mat([[k * x for x in row] if r == i else row for r, row in enumerate(a)])
    message = "inverse is not integral (determinant is not +-1)"
    with pytest.raises(ValueError, match=r"inverse is not integral"):
        mat_inverse_sl(scaled)
    assert _outcome(_reference_inverse_sl, scaled) == f"ValueError: {message}"
    # a singular one: that row replaced by a multiple of another row (or zero)
    j = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(-3, 3))
    source = [c * x for x in a[j]] if j != i else [0] * n
    singular = mat([source if r == i else row for r, row in enumerate(a)])
    with pytest.raises(ValueError, match="matrix is singular"):
        mat_inverse_sl(singular)
    assert _outcome(_reference_inverse_sl, singular) == "ValueError: matrix is singular"
    assert mat_det(singular) == _reference_det(singular) == 0


def test_affine_annihilator_dimension_formula():
    # for a single point, the annihilating affine maps have codimension 1
    for point in [(0, 0), (3, -5), (7, 7)]:
        polys = PolyVector([MPoly.const(("t",), c) for c in point])
        assert len(affine_annihilator(polys)) == len(point)


def test_walk_from_text_error_paths():
    with pytest.raises(ValueError, match="missing dim"):
        Walk.from_text("# empty record\n")
    with pytest.raises(ValueError, match="before vars"):
        Walk.from_text("dim 1\nentry x\nvars t x\n")
    with pytest.raises(ValueError, match="first variable"):
        Walk.from_text("dim 1\nvars x t\nentry x\n")
    with pytest.raises(ValueError, match="expected 2 entries"):
        Walk.from_text("dim 2\nvars t x y\nentry x\n")
    with pytest.raises(ValueError, match="unknown walk record"):
        Walk.from_text("dim 1\nvars t x\nrow x\n")


def test_walk_text_comments_ignored():
    base = unipotent_walk([[1, 1], [0, 1]], ("x", "y"))
    text = "# generated record\n" + base.to_text()
    assert Walk.from_text(text) == base


def test_bohr_rejects_empty_torus():
    with pytest.raises(ValueError, match="torus coordinate"):
        BohrSet(2, [], [])


def test_dot_frac_against_reference_precision():
    # reference: integer arithmetic at much higher precision
    rng = random.Random(31)
    names = ("sqrt2", "sqrt3", "sqrt5", "golden", "pifrac")
    for _ in range(20):
        name = rng.choice(names)
        value = rng.randint(-10 ** 12, 10 ** 12)
        theta = Real.named(name, F(rng.randint(1, 9), rng.randint(1, 9)))
        fixed = FixedRow([theta], 160)   # 2^-160 < 10^-48
        got = F(fixed([value]) % fixed.modulus, fixed.modulus)
        ref_scale = 10 ** 200
        ref = (theta.irr[name] * value * decimal_digits(name, 200)) / ref_scale
        ref_frac = ref % 1
        delta = abs(got - ref_frac)
        assert min(delta, 1 - delta) < F(1, 10 ** 45)


def test_constant_digit_engines_agree_with_isqrt():
    for name, k in (("sqrt2", 2), ("sqrt3", 3), ("sqrt5", 5)):
        assert constant_digits(name, 266) == isqrt(k << 532)
    golden = constant_digits("golden", 266)
    # golden ratio satisfies x^2 = x + 1
    approx_sq = golden * golden
    target = (golden + 2 ** 266) * 2 ** 266
    assert abs(approx_sq - target) < 3 * 2 ** 266
    pifrac = constant_digits("pifrac", 133)
    assert str(pifrac * 10 ** 40 >> 133).startswith("1415926535897932384626433832795")


@pytest.mark.parametrize("bits", [0, 1, 53, 133, 1000, 4000])
def test_binary_engines_are_the_floor_of_the_decimal_reference(bits):
    # floor(c 2^p) from the decimal digits at p / 3 + 20 places, whose
    # error 10^-(p/3 + 20) < 2^-(p + 60) only matters within 2^-60 of an
    # integer
    places = bits // 3 + 20
    for name in ("sqrt2", "sqrt3", "sqrt5", "golden", "pifrac"):
        reference = decimal_digits(name, places)
        assert constant_digits(name, bits) == (reference << bits) // 10 ** places


def test_parse_real_forms():
    assert parse_real("1/3") == Real(F(1, 3))
    assert parse_real("sqrt2") == Real.named("sqrt2")
    assert parse_real("3/2*sqrt5") == Real.named("sqrt5", F(3, 2))
    assert parse_real("sqrt2*3") == Real.named("sqrt2", 3)
    assert parse_real("-sqrt3") == Real.named("sqrt3", -1)
    assert parse_real("sqrt2 + 1/2") == Real(F(1, 2), {"sqrt2": F(1)})
    assert parse_real("0.25") == Real(F(1, 4))
    with pytest.raises(ValueError):
        parse_real("sqrt2*sqrt3")
    with pytest.raises(ValueError):
        parse_real("7up")


def test_real_arithmetic_exactness():
    a = Real.named("sqrt2") + F(1, 3)
    b = Real.named("sqrt2", -1) + F(2, 3)
    total = a + b
    assert total.is_rational()
    assert total.as_fraction() == 1
    assert (a - a) == Real(0)
    with pytest.raises(ValueError, match="irrational"):
        a.as_fraction()
    with pytest.raises(TypeError):
        Real.named("sqrt2") * Real.named("sqrt3")


def test_substitution_universe_order_is_deterministic():
    p = poly_parse("a*b + c", ["a", "b", "c"])
    bindings = {
        "a": poly_parse("u + v", ["u", "v"]),
        "b": poly_parse("w", ["w"]),
    }
    out = p.substitute(bindings)
    # retained variables first (p order), then binding universes in bound order
    assert out.vars == ("c", "u", "v", "w")
    again = p.substitute(bindings)
    assert again.vars == out.vars and again == out


def _records():
    cert = construct_fleeing_walk([parse_walk_spec("bogolubov:y^2")], (1, 0))
    found = TargetRecord(4, Status.FOUND, 3, (12, 0), 4, 1.5)
    report = ExperimentReport("magyar", (found, TargetRecord(8, Status.EXHAUSTED, None,
                                                             None, None, 2.0)),
                              {"k": 2, "P": "z^2"}, 7)
    return [TrigPoly.of([((1, 0), 0.5), ((0, 1), -1)]), BoxIndicator.of(["sqrt2"], ["1/4"]),
            CharacterInfo((1,), (Real.of("sqrt2"),)), EmpiricalAverage(0.5 + 1j, 0.25, None),
            CorrelationEstimate(0.5, 0.01, 0.45), AffineFunctional((F(1), F(-2)), F(3)),
            cert, signature_form_walks(1, 2), SearchResult(Status.FOUND, 3, (12, 0)),
            found, report, MAGYAR]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_values(record):
    # every field is read-only and no attribute can be added
    for name in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    # equal by fields: a copy is equal, a record with one field changed is not
    assert record == copy.copy(record)
    assert record != record._replace(**{record._fields[0]: object()})


def test_certificates_and_reports_survive_pickle_and_deepcopy():
    records = _records()
    for record in (records[6], records[10]):
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(clone) is type(record)
            assert clone == record
            assert clone.to_text() == record.to_text()
