"""Output checkers and the benchmark's own exact arithmetic.

Nothing here imports polywalk.  Every check recomputes what the program
printed with independent code: its own parser for printed polynomials,
its own fixed-point digits for the named constants (integer `isqrt`), its
own fraction-free elimination, and its own root-of-unity means.  Each
checker returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from math import gcd, isqrt

# Frequencies are kept as {basis name: Fraction} over the basis
# {1, sqrt2, sqrt3, sqrt5}, which is linearly independent over Q.  The
# golden ratio is rewritten in that basis, so 2*golden - sqrt5 is the
# rational number 1 here.
BASIS_SQUARES = {"sqrt2": 2, "sqrt3": 3, "sqrt5": 5}
GUARD_DIGITS = 30
WEYL_MODULUS_BOUND = 0.05
AVERAGE_ERROR_BOUND = 0.02
PRINTED_TOLERANCE = 1e-9


# -- exact reals ------------------------------------------------------------

def parse_real(text: str) -> dict[str, Fraction]:
    """'1/2', 'sqrt3', '3/2*sqrt5', 'golden', '-sqrt2' as a basis dict."""
    text = text.strip().replace(" ", "")
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    coeff = Fraction(1)
    name = "1"
    for factor in text.split("*"):
        if factor in BASIS_SQUARES or factor == "golden":
            name = factor
        else:
            coeff *= Fraction(factor)
    if negative:
        coeff = -coeff
    if name == "golden":
        return _clean({"1": coeff / 2, "sqrt5": coeff / 2})
    return _clean({name: coeff})


def _clean(real: dict[str, Fraction]) -> dict[str, Fraction]:
    return {k: v for k, v in real.items() if v != 0}


def real_combination(reals, weights) -> dict[str, Fraction]:
    """sum(w_i * real_i), exact."""
    out: dict[str, Fraction] = {}
    for real, w in zip(reals, weights):
        for name, c in real.items():
            out[name] = out.get(name, Fraction(0)) + c * w
    return _clean(out)


def is_rational(real: dict[str, Fraction]) -> bool:
    return all(name == "1" for name in real)


def fixed_point(real: dict[str, Fraction], digits: int) -> tuple[int, int]:
    """(A, e): A = floor(real * 10^digits) up to e units, i.e.
    |real * 10^digits - A| < e."""
    scale = 10 ** digits
    total = Fraction(0)
    err = 1
    for name, c in real.items():
        if name == "1":
            total += c * scale
        else:
            # isqrt(k * 10^(2d)) is floor(sqrt(k) * 10^d), error below one unit
            total += c * isqrt(BASIS_SQUARES[name] * scale * scale)
            err += math.ceil(abs(c))
    return math.floor(total), err + 1


def circle_distance_below(real_coeffs, values, threshold: Fraction):
    """Decide ||sum(real_i * v_i)|| < threshold with enough digits for the
    size of the integer vector.  Returns True/False, or None when the
    value is within the error of the boundary at the chosen precision."""
    widest = max((len(str(abs(v))) for v in values), default=1)
    digits = widest + GUARD_DIGITS
    scale = 10 ** digits
    total = 0
    err = 0
    for real, v in zip(real_coeffs, values):
        a, e = fixed_point(real, digits)
        total += a * v
        err += e * abs(v)
    s = total % scale
    dist = min(s, scale - s)
    bound = threshold * scale
    if dist + err < bound:
        return True
    if dist - err > bound:
        return False
    return None


class PhaseScanner:
    """First n in [1, n_max] with ||<theta, p(n)>|| < threshold, for integer
    orbit polynomials, at one fixed precision sized for n_max."""

    def __init__(self, orbit, thetas, threshold: Fraction, n_max: int):
        self.orbit = orbit
        self.n_max = n_max
        largest = max(sum(abs(c) * n_max ** e for c, e in poly) for poly in orbit)
        self.digits = len(str(largest)) + GUARD_DIGITS
        self.scale = 10 ** self.digits
        pairs = [fixed_point(t, self.digits) for t in thetas]
        self.fixed = [a for a, _ in pairs]
        self.errs = [e for _, e in pairs]
        bound = threshold * self.scale
        self.bound_num, self.bound_den = bound.numerator, bound.denominator

    def first_hit(self):
        """(n, ambiguous): n is None when no certain hit exists; ambiguous
        is True when a point before the answer sat within the error of the
        boundary."""
        scale, num, den = self.scale, self.bound_num, self.bound_den
        ambiguous = False
        for n in range(1, self.n_max + 1):
            values = [eval_int_poly(poly, n) for poly in self.orbit]
            total = 0
            err = 0
            for a, e, v in zip(self.fixed, self.errs, values):
                total += a * v
                err += e * abs(v)
            s = total % scale
            dist = min(s, scale - s)
            if (dist + err) * den < num:
                return n, ambiguous
            if (dist - err) * den <= num:
                ambiguous = True
        return None, ambiguous


# -- printed polynomials ----------------------------------------------------

_TERM_RE = re.compile(r"[+-]?[^+-]+")


def parse_univariate(text: str, var: str = "n") -> list[tuple[Fraction, int]]:
    """Terms (coefficient, exponent) of a printed univariate polynomial
    such as 'n^24 - 3*n^18 + 1/2*n + 1'."""
    terms: dict[int, Fraction] = {}
    compact = text.replace(" ", "")
    if compact == "0":
        return []
    for raw in _TERM_RE.findall(compact):
        sign = -1 if raw.startswith("-") else 1
        body = raw.lstrip("+-")
        coeff = Fraction(sign)
        exponent = 0
        for factor in body.split("*"):
            if factor == var:
                exponent += 1
            elif factor.startswith(var + "^"):
                exponent += int(factor[len(var) + 1:])
            else:
                coeff *= Fraction(factor)
        terms[exponent] = terms.get(exponent, Fraction(0)) + coeff
    return [(c, e) for e, c in sorted(terms.items(), reverse=True) if c != 0]


def eval_poly(poly, n) -> Fraction:
    return sum((c * Fraction(n) ** e for c, e in poly), start=Fraction(0))


def eval_int_poly(poly, n: int) -> int:
    """Value of an integer-coefficient polynomial at an integer."""
    return sum(c.numerator * n ** e for c, e in poly)


def poly_degree(poly) -> int:
    return max((e for _, e in poly), default=0)


# -- exact elimination ------------------------------------------------------

def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss) over the integers."""
    m = [row[:] for row in matrix]
    size = len(m)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def affinely_independent(orbit, point_sets) -> bool:
    """True once some set of d+1 sample points gives a non-singular matrix
    of rows (1, p_1(n), ..., p_d(n)); a relation a_0 + sum a_i p_i = 0
    would make every such matrix singular."""
    for points in point_sets:
        rows = []
        for n in points:
            values = [eval_poly(p, n) for p in orbit]
            den = 1
            for v in values:
                den = den * v.denominator // gcd(den, v.denominator)
            rows.append([den] + [int(v * den) for v in values])
        if bareiss_determinant(rows) != 0:
            return True
    return False


# -- root-of-unity means --------------------------------------------------------

def residue_mean(residues_one_period: list[int], q: int, n_count: int) -> complex:
    """(1/N) sum_{n=1}^{N} e(r_n / q) for residues with period q."""
    counts = [0] * q
    cycles, remainder = divmod(n_count, q)
    for j in residues_one_period:
        counts[j] += cycles
    for j in residues_one_period[:remainder]:
        counts[j] += 1
    re_part = math.fsum(c * math.cos(2 * math.pi * j / q) for j, c in enumerate(counts))
    im_part = math.fsum(c * math.sin(2 * math.pi * j / q) for j, c in enumerate(counts))
    return complex(re_part, im_part) / n_count


def character_mean(row: list[Fraction], orbit_polys, n_count: int | None = None) -> complex:
    """Mean of e(<row, p(n)>) over n = 1..N for a rational character, `row`
    holding one rational per orbit coordinate; N defaults to one period."""
    q = 1
    for c in row:
        q = q * c.denominator // gcd(q, c.denominator)
    residues = []
    for n in range(1, q + 1):
        total = sum((c * eval_poly(p, n) for c, p in zip(row, orbit_polys)), start=Fraction(0))
        residues.append(int(total * q) % q)
    return residue_mean(residues, q, n_count or q)


def closed_form(rows, base, components, orbit_polys, n_count=None) -> complex:
    """Limit of (1/N) sum f(x0 + A p(n)) for a trigonometric polynomial f:
    a component whose induced character A^T m is rational keeps its
    root-of-unity mean over one period, every other component averages to
    zero.  With n_count the finite-N mean of the rational components is
    returned instead (irrational ones still count as zero)."""
    total = 0j
    dim = len(orbit_polys)
    for freq, coeff in components:
        induced = [real_combination([row[i] for row in rows], freq) for i in range(dim)]
        if not all(is_rational(x) for x in induced):
            continue
        rational_row = [x.get("1", Fraction(0)) for x in induced]
        phase0 = real_combination(base, freq)
        if not is_rational(phase0):
            raise ValueError("base points must be rational")
        mean = character_mean(rational_row, orbit_polys, n_count)
        total += coeff * cmath.exp(2j * math.pi * float(phase0.get("1", 0))) * mean
    return total


# -- report parsing -------------------------------------------------------------

def report_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def parse_complex(text: str) -> complex:
    """'a + bi' or 'a + -bi' as printed by the reports."""
    re_text, _, im_text = text.partition(" + ")
    return complex(float(re_text), float(im_text.rstrip("i")))


def parse_certificate(text: str) -> dict:
    cert = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        if key == "orbit":
            cert["orbit"] = [parse_univariate(p) for p in rest.split(";")]
        elif key == "depth":
            cert[key] = int(rest)
        elif key == "exponents":
            cert[key] = [int(x) for x in rest.split()]
    return cert


_TARGET_RE = re.compile(r"target (-?\d+): found n=(\d+) witness=\(([-\d ]+)\) F=(-?\d+)")


def parse_search_report(text: str) -> dict[int, tuple[int, tuple[int, ...], int]]:
    found = {}
    for line in text.splitlines():
        m = _TARGET_RE.fullmatch(line.strip())
        if m:
            witness = tuple(int(x) for x in m.group(3).split())
            found[int(m.group(1))] = (int(m.group(2)), witness, int(m.group(4)))
    return found


# -- forms ----------------------------------------------------------------------

def form_value(form: dict, point) -> int:
    """Evaluate one of the preserved forms at an integer point."""
    kind = form["kind"]
    p = form.get("P")
    if kind == "xyP":
        x, y, z = point
        return x * y - eval_int_poly(p, z)
    if kind == "bogolubov":
        x, y = point
        return x - eval_int_poly(p, y)
    if kind == "signature":
        plus = form["p"]
        return sum(v * v for v in point[:plus]) - sum(v * v for v in point[plus:])
    raise ValueError(f"unknown form {kind!r}")


# -- checkers ---------------------------------------------------------------------

def check_construct(check: dict, out: str) -> list[str]:
    errors = []
    cert = parse_certificate(out)
    orbit = cert.get("orbit")
    v = check["v"]
    if not orbit:
        return ["no orbit line in the certificate"]
    if len(orbit) != len(v):
        return [f"orbit has {len(orbit)} entries, start vector {len(v)}"]
    if len(cert.get("exponents", ())) != cert.get("depth"):
        errors.append("depth does not match the number of exponents")
    if [eval_poly(p, 0) for p in orbit] != [Fraction(x) for x in v]:
        errors.append("orbit at n = 0 is not the start vector")
    d = len(orbit)
    point_sets = [list(range(1, d + 2))] + [
        [s + 2 * j for j in range(d + 1)] for s in check["sample_points"]
    ]
    if not affinely_independent(orbit, point_sets):
        errors.append("no sample point set shows 1, p_1, ..., p_d affinely independent")
    for n in check["sample_points"]:
        values = [eval_poly(p, n) for p in orbit]
        if any(x.denominator != 1 for x in values):
            errors.append(f"orbit is not integral at n = {n}")
            continue
        if check.get("form"):
            point = [int(x) for x in values]
            if form_value(check["form"], point) != form_value(check["form"], v):
                errors.append(f"form is not constant on the orbit at n = {n}")
    return errors


def check_search(check: dict, out: str) -> list[str]:
    errors = []
    found = parse_search_report(out)
    for target, expected_n in zip(check["targets"], check["expected_n"]):
        if target not in found:
            errors.append(f"target {target} not reported as found")
            continue
        n, witness, f_value = found[target]
        if n > check["n_max"]:
            errors.append(f"target {target}: n = {n} exceeds N_max")
        if n != expected_n:
            errors.append(f"target {target}: n = {n}, first hit along the orbit is {expected_n}")
        form = check["form"]
        if len(witness) != (3 if form["kind"] == "xyP" else 2):
            errors.append(f"target {target}: witness has the wrong length")
            continue
        if form_value(form, witness) != target or f_value != target:
            errors.append(f"target {target}: form value of the witness is not the target")
        if "thetas" in check:
            thetas = [parse_real(t) for t in check["thetas"]]
            inside = circle_distance_below(thetas, witness, 2 * Fraction(check["radius"]))
            if inside is not True:
                errors.append(f"target {target}: witness is not in B - B")
        else:
            points = {tuple(p) for p in check["points"]}
            if not any(tuple(a + b for a, b in zip(p, witness)) in points for p in points):
                errors.append(f"target {target}: no pair b, b + w in the point set")
    return errors


def check_weyl(check: dict, out: str) -> list[str]:
    fields = report_fields(out)
    try:
        value = parse_complex(fields["value"])
        modulus = float(fields["modulus"])
    except (KeyError, ValueError):
        return ["weyl report lacks value or modulus"]
    errors = []
    if abs(abs(value) - modulus) > PRINTED_TOLERANCE:
        errors.append("modulus does not match the value")
    if check.get("exact"):
        orbit = [parse_univariate(p) for p in check["polys"]]
        row = [Fraction(t) for t in check["thetas"]]
        own = character_mean(row, orbit, check["N"])
        if abs(own - value) > PRINTED_TOLERANCE:
            errors.append(f"exact Weyl mean {value} differs from {own}")
        zero = abs(own) < 1e-12
        if fields.get("exactly_zero") != ("true" if zero else "false"):
            errors.append("exactly_zero flag is wrong")
    elif modulus > WEYL_MODULUS_BOUND:
        errors.append(f"Weyl modulus {modulus} above {WEYL_MODULUS_BOUND}")
    return errors


def check_ergodic(check: dict, out: str) -> list[str]:
    fields = report_fields(out)
    try:
        estimate = parse_complex(fields["estimate"])
    except (KeyError, ValueError):
        return ["ergodic report lacks an estimate"]
    errors = []
    if check["observable"] == "box":
        measure = 2 * float(Fraction(check["radius"]))
        if abs(estimate.real - measure) > AVERAGE_ERROR_BOUND or estimate.imag != 0:
            errors.append(f"box estimate {estimate} not within "
                          f"{AVERAGE_ERROR_BOUND} of the measure {measure}")
        return errors
    rows = [[parse_real(x) for x in row] for row in check["rows"]]
    base = [parse_real(x) for x in check["x0"]]
    components = [(tuple(m), complex(c)) for m, c in check["components"]]
    orbit = [parse_univariate(p) for p in check["p"]]
    own = closed_form(rows, base, components, orbit)
    try:
        predicted = parse_complex(fields["predicted"])
    except (KeyError, ValueError):
        return ["ergodic report lacks a prediction"]
    if abs(predicted - own) > PRINTED_TOLERANCE:
        errors.append(f"predicted {predicted} differs from the closed form {own}")
    if abs(estimate - own) > AVERAGE_ERROR_BOUND:
        errors.append(f"estimate {estimate} not within {AVERAGE_ERROR_BOUND} of {own}")
    if all(is_rational(x) for row in rows for x in row):
        finite = closed_form(rows, base, components, orbit, n_count=check["N"])
        if abs(estimate - finite) > PRINTED_TOLERANCE:
            errors.append(f"estimate {estimate} differs from the exact mean {finite}")
    return errors


def check_correlate(check: dict, out: str) -> list[str]:
    fields = report_fields(out)
    try:
        estimate = float(fields["estimate"])
        measure = float(fields["measure"])
    except (KeyError, ValueError):
        return ["correlate report lacks estimate or measure"]
    errors = []
    own_measure = 1.0
    for r in check["radii"]:
        own_measure *= 2 * float(Fraction(r))
    if abs(measure - own_measure) > PRINTED_TOLERANCE:
        errors.append(f"measure {measure} differs from {own_measure}")
    floor = own_measure ** (check["orbits"] + 1) - AVERAGE_ERROR_BOUND
    if not estimate > floor:
        errors.append(f"estimate {estimate} not above measure^(m+1) - "
                      f"{AVERAGE_ERROR_BOUND} = {floor}")
    return errors


CHECKERS = {
    "construct": check_construct,
    "search": check_search,
    "weyl": check_weyl,
    "ergodic": check_ergodic,
    "correlate": check_correlate,
}


def check_operation(op: dict, rc: int, out: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    return CHECKERS[op["kind"]](op["check"], out)
