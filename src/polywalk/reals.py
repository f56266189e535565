"""Exact real numbers of the form q0 + sum(q_i * c_i) with named constants.

The named constants (sqrt2, sqrt3, sqrt5, golden, pifrac) are the irrational
frequencies used by Bohr sets and torus systems.  They are not independent:
golden = 1/2 + sqrt5/2.  So every Real also carries its coordinates in the
basis 1, sqrt2, sqrt3, sqrt5, pifrac, which is linearly independent over the
rationals (pifrac = pi - 3 is transcendental).  Rationality and equality are
decided symbolically on those coordinates: the value is rational exactly
when every irrational basis coordinate is zero.

Numeric evaluation goes through integer digit engines: constant_digits(name,
p) returns c * 2^p in binary fixed point, with error below one unit in the
last place.  `FixedRow` is their only reader; `Real.approx`, the Bohr-set
queries and the orbit kernel all evaluate through it.  It gives <row, v> as
an exact integer over a modulus M, so every downstream comparison stays in
integer or rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt, lcm, prod
from operator import mul
from typing import Mapping, Sequence

# Bits of every float read of an exact real, of every torus phase stream and
# of the first read of a Bohr-set verdict: 2^-133 < 10^-40.
BITS = 133


def _pi_digits(prec: int) -> int:
    # Machin: pi = 16*atan(1/5) - 4*atan(1/239), in scaled integers.
    work = prec + 40

    def atan_inv(x: int) -> int:
        total, term, x2, k, sign = 0, (1 << work) // x, x * x, 1, 1
        while term:
            total += sign * term // k
            term //= x2
            k += 2
            sign = -sign
        return total

    pi_scaled = 16 * atan_inv(5) - 4 * atan_inv(239)
    return pi_scaled >> (work - prec)


_ENGINES = {
    "sqrt2": lambda p: isqrt(2 << 2 * p),
    "sqrt3": lambda p: isqrt(3 << 2 * p),
    "sqrt5": lambda p: isqrt(5 << 2 * p),
    "golden": lambda p: ((1 << p) + isqrt(5 << 2 * p)) >> 1,
    "pifrac": lambda p: _pi_digits(p) - (3 << p),
}

CONSTANT_NAMES = tuple(sorted(_ENGINES))

_digit_cache: dict[tuple[str, int], int] = {}


def constant_digits(name: str, prec: int) -> int:
    """Integer approximation of constant * 2^prec, error below 1 ulp."""
    if name not in _ENGINES:
        raise ValueError(f"unknown constant '{name}' (known: {CONSTANT_NAMES})")
    key = (name, prec)
    if key not in _digit_cache:
        _digit_cache[key] = _ENGINES[name](prec)
    return _digit_cache[key]


class Real:
    """Immutable exact combination: rational + sum of rational * named constant.

    `rational` and `irr` hold the combination as written; `basis()` holds it
    over the independent basis, with golden rewritten as 1/2 + sqrt5/2."""

    __slots__ = ("rational", "irr", "_basis")

    def __init__(self, rational=0, irr: Mapping[str, Fraction] | None = None):
        object.__setattr__(self, "rational", Fraction(rational))
        clean = {}
        for name, coeff in (irr or {}).items():
            if name not in _ENGINES:
                raise ValueError(f"unknown constant '{name}'")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[name] = coeff
        object.__setattr__(self, "irr", clean)
        rational = self.rational
        basis: dict[str, Fraction] = {}
        for name, coeff in clean.items():
            if name == "golden":
                rational += coeff / 2
                name, coeff = "sqrt5", coeff / 2
            basis[name] = basis.get(name, Fraction(0)) + coeff
        object.__setattr__(
            self, "_basis", (rational, {n: c for n, c in basis.items() if c != 0})
        )

    def __setattr__(self, name, value):
        raise AttributeError("Real is immutable")

    @classmethod
    def named(cls, name: str, multiple=1) -> Real:
        return cls(0, {name: Fraction(multiple)})

    @classmethod
    def of(cls, value) -> Real:
        if isinstance(value, Real):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        if isinstance(value, str):
            return parse_real(value)
        raise TypeError(f"cannot interpret {value!r} as an exact real")

    def basis(self) -> tuple[Fraction, dict[str, Fraction]]:
        """(rational part, irrational coordinates) over 1, sqrt2, sqrt3,
        sqrt5, pifrac; only non-zero coordinates are listed."""
        return self._basis

    def is_rational(self) -> bool:
        return not self._basis[1]

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self._basis[0]

    def __add__(self, other) -> Real:
        other = Real.of(other)
        irr = dict(self.irr)
        for name, coeff in other.irr.items():
            irr[name] = irr.get(name, Fraction(0)) + coeff
        return Real(self.rational + other.rational, irr)

    __radd__ = __add__

    def __neg__(self) -> Real:
        return Real(-self.rational, {n: -c for n, c in self.irr.items()})

    def __sub__(self, other) -> Real:
        return self + (-Real.of(other))

    def __rsub__(self, other) -> Real:
        return Real.of(other) - self

    def scale(self, q) -> Real:
        q = Fraction(q)
        return Real(self.rational * q, {n: c * q for n, c in self.irr.items()})

    def __mul__(self, other) -> Real:
        # Only rational scaling is supported; products of two irrational
        # combinations never arise in the torus computations.
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = Real.of(other)
        if other.is_rational():
            return self.scale(other.as_fraction())
        if self.is_rational():
            return other.scale(self.as_fraction())
        raise TypeError("product of two irrational combinations is not supported")

    __rmul__ = __mul__

    def approx(self, prec: int = BITS) -> Fraction:
        """Fraction within 2^-prec of the true value: fix((1,)) / M for
        the row FixedRow([self], prec), as 1/M = 2^-prec.  A rational
        value is returned exactly."""
        fixed = FixedRow([self], prec)
        return Fraction(fixed((1,)), fixed.modulus)

    def frac(self, prec: int = BITS) -> Fraction:
        """Fractional part, as a Fraction within 2^-prec of the true one on
        the circle."""
        return self.approx(prec) % 1

    def circle_distance_below(self, t: Fraction) -> bool:
        """Whether the distance of the value to the nearest integer is below
        the rational t, decided exactly (proof in `lab.BohrSet`): the
        distance d of `frac(p)`, exact for a rational value and otherwise
        within error = 2^-p, is read at p = BITS, 2 BITS, ... until
        d + error <= t (True) or d - error >= t (False); so a tie is False."""
        prec = BITS
        while True:
            x = self.frac(prec)
            d = min(x, 1 - x)
            error = 0 if self.is_rational() else Fraction(1, 1 << prec)
            if d + error <= t or d - error >= t:
                return d < t
            prec *= 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Real, int, Fraction)):
            return NotImplemented
        return self._basis == Real.of(other)._basis

    def __hash__(self) -> int:
        rational, irr = self._basis
        return hash((rational, tuple(sorted(irr.items()))))

    def __repr__(self) -> str:
        parts = []
        if self.rational or not self.irr:
            parts.append(str(self.rational))
        for name in sorted(self.irr):
            coeff = self.irr[name]
            parts.append(name if coeff == 1 else f"{coeff}*{name}")
        return " + ".join(parts)


class FixedRow:
    """One row of exact reals in fixed point modulo M.

    A row of rationals has M = q, the lcm of the denominators of its
    entries, and fix(v) = q <row, v> exactly.  A row with an irrational
    entry has M = 2^W, W = max(width, 0), and an integer fix(v) with
    |fix(v) - M <row, v>| < 1, so fix(v) / M is within 2^-W of <row, v>.
    Every coefficient is held as an integer over one denominator den, the
    lcm of the denominators of all the row's coefficients: den r_c for the
    rational parts r_c, and per basis constant c the column den a_c.

    Proof.  With the exact integers R = sum (den r_c) v_c and, per basis
    constant c, S = sum (den a_c) v_c, M <row, v> = (R + sum S c) 2^W / den.
    The constants are read at W + g bits, W + g the multiple of 64 at or
    above W + b + 5, b the bit length of floor(|K|), K = S / den, so
    |K| < 2^b.  With d = constant_digits(c, W + g), |c 2^(W+g) - d| < 1, so
    (R 2^(W+g) + sum S d) / (den 2^g) is within sum |K| / 2^g < 4 / 32 of
    M <row, v> for at most four basis constants.  Rounding it to an
    integer, rational part included, adds at most 1/2."""

    def __init__(self, row: Sequence[Real | Fraction | int | str], width: int):
        coords = [Real.of(entry).basis() for entry in row]
        names = sorted({name for _, irr in coords for name in irr})
        self.den = lcm(*(a.denominator for rational, irr in coords
                         for a in (rational, *irr.values())))
        self.width = max(width, 0) if names else 0
        self.modulus = 1 << self.width if names else self.den
        self.weights = [int(rational * self.den) for rational, _ in coords]
        self.irrational = {
            name: [int(irr.get(name, 0) * self.den) for _, irr in coords] for name in names
        }

    def __call__(self, v: Sequence[int]) -> int:
        total = sum(map(mul, self.weights, v))
        if not self.irrational:
            return total
        sums = {name: sum(map(mul, column, v)) for name, column in self.irrational.items()}
        widest = max((abs(s) // self.den).bit_length() for s in sums.values())
        # quantize the precision so the digit cache stays warm
        work = self.width + widest + 5
        work += (-work) % 64
        shift = work - self.width
        scaled = (total << work) + sum(s * constant_digits(name, work)
                                       for name, s in sums.items())
        return ((scaled + (self.den << (shift - 1))) >> shift) // self.den


@lru_cache(maxsize=None)
def cyclotomic(q: int) -> tuple[int, ...]:
    """The q-th cyclotomic polynomial, coefficients lowest degree first.

    Moebius inversion of x^q - 1 = prod_{d | q} Phi_d gives
    Phi_q = prod (x^d - 1)^mu(q/d), where mu(s) = (-1)^k for s a product of
    k distinct primes and 0 otherwise.  Multiplying by every factor with
    mu = 1 first makes each later division by x^d - 1 exact: p = c (x^d - 1)
    gives c_i = c_(i-d) - p_i."""
    primes = [p for p in range(2, q + 1)
              if q % p == 0 and all(p % r for r in range(2, isqrt(p) + 1))]
    squarefree = sorted((k % 2, prod(c)) for k in range(len(primes) + 1)
                        for c in combinations(primes, k))
    poly = [1]
    for odd, s in squarefree:
        d = q // s
        if odd:
            poly = [-c for c in poly[:len(poly) - d]]
            for i in range(d, len(poly)):
                poly[i] += poly[i - d]
        else:
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    return tuple(poly)


class RootOfUnityMean:
    """Exact average of q-th root-of-unity terms, stored as residue counts,
    times e(phase) for an exact constant phase (0 by default).

    Exactness queries (is the mean exactly 0, exactly 1, or a single root)
    come from the counts and the phase alone; the complex value is only
    materialized on demand."""

    __slots__ = ("q", "counts", "n_count", "phase", "is_exactly_zero", "is_exactly_one")

    def __init__(self, q: int, counts: tuple[int, ...], n_count: int, phase=0):
        self.q = q
        self.counts = tuple(counts)
        self.n_count = n_count
        self.phase = Real.of(phase)
        # exactly 0 iff the minimal polynomial of e(1/q), the monic Phi_q,
        # divides sum counts[j] z^j: divide, over the non-zero terms of Phi_q
        rem, phi = list(self.counts), cyclotomic(q)
        k = len(phi) - 1
        terms = [(j, c) for j, c in enumerate(phi[:k]) if c]
        for i in reversed(range(len(rem) - k)):
            if rem[i + k]:
                for j, c in terms:
                    rem[i + j] -= rem[i + k] * c
        self.is_exactly_zero = not any(rem[:k])
        self.is_exactly_one = self.counts[0] == n_count and self.phase == 0

    def value(self) -> complex:
        if self.is_exactly_zero:
            return 0j
        terms = [(count, 2.0 * math.pi * j / self.q)
                 for j, count in enumerate(self.counts) if count]
        re = math.fsum(count * math.cos(angle) for count, angle in terms)
        im = math.fsum(count * math.sin(angle) for count, angle in terms)
        mean = complex(re / self.n_count, im / self.n_count)
        if self.phase != 0:
            angle = 2.0 * math.pi * float(self.phase.frac())
            mean *= complex(math.cos(angle), math.sin(angle))
        return mean

    def __repr__(self) -> str:
        return (f"RootOfUnityMean(q={self.q}, counts={self.counts}, N={self.n_count}, "
                f"phase={self.phase!r})")


def parse_real(text: str) -> Real:
    """Parse '1/3', 'sqrt2', '3/2*sqrt5', 'sqrt2+1', '-sqrt3', '0.25'."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty real expression")
    total = Real(0)
    for chunk in _split_signed(text):
        total = total + _parse_real_term(chunk)
    return total


def _split_signed(text: str) -> list[str]:
    out = []
    current = ""
    for i, ch in enumerate(text):
        if ch in "+-" and i > 0 and text[i - 1] not in "+-*/":
            out.append(current)
            current = ch if ch == "-" else ""
        else:
            current += ch
    out.append(current)
    return [c for c in out if c]


def _parse_real_term(text: str) -> Real:
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    factors = text.split("*")
    coeff = Fraction(1)
    name = None
    for f in factors:
        f = f.strip()
        if f in _ENGINES:
            if name is not None:
                raise ValueError(f"cannot multiply two constants in '{text}'")
            name = f
        else:
            coeff *= _parse_rational(f)
    if negative:
        coeff = -coeff
    return Real(coeff) if name is None else Real.named(name, coeff)


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        if "." in text:
            return Fraction(text)
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal '{text}'") from exc
