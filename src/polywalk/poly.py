"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is an ordered tuple of variable names and a pair: a
denominator D and a map from exponent tuples to non-zero integer
numerators, the coefficient of x^e being numerators[e] / D.  The pair is
in lowest terms: D > 0 and gcd(D, every numerator) = 1, so D is the lcm
of the coefficients' denominators (1 for zero) and the pair is unique.
Two values compare equal exactly when they denote the same polynomial,
even if their variable universes differ by unused names.  `terms`, the
coefficients as Fractions, is a read-only view built only when read.

Products, powers and substitution run on the numerators, as in Monagan
and Pearce, "Sparse polynomial multiplication and division in Maple 14"
(2010): sums of products of ints over the product of the operands'
denominators (for a substitution, D = L * prod L_i^m_i, L and L_i the
denominators of the polynomial and of the bindings, m_i its degree in
the i-th bound variable).  A one-term power is {e*n: c**n} at once.
Monomials stay exponent tuples; packing them into one int measured no
faster here.  `_lowest_terms` then drops zero numerators and divides the
pair by its gcd, signed as D, which makes D > 0 (negation passes -D).
It trusts the operands to be canonical: distinct variables, and exponent
tuples of the right length with non-negative entries.  Every monomial
map (t -> n^a, x -> v, a new universe) goes through `MPoly.map_monomials`.

Terms print in graded lexicographic order (total degree descending, then
lexicographic by the declared variable order), which keeps printing and
serialization deterministic.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping

_IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")

# Fresh time variables t, t1, t2, ... are reserved for walk machinery;
# walk coordinates must not use them (see walks.Walk).
_RESERVED_TIME_RE = re.compile(r"^t[0-9]*$")


def is_reserved_time_name(name: str) -> bool:
    return _RESERVED_TIME_RE.match(name) is not None


class PolySyntaxError(ValueError):
    """Expression text violates the grammar; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(PolySyntaxError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}'", position)
        self.name = name


def _ratio(value) -> tuple[int, int]:
    """Numerator and denominator of an int or Fraction (a TypeError for
    anything else)."""
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int):
        return value, 1
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class MPoly:
    """Immutable sparse multivariate polynomial over the rationals, stored
    as the pair (`denominator`, `numerators`) in lowest terms (module
    docstring).  `terms` reads the coefficients as Fractions."""

    __slots__ = ("vars", "denominator", "numerators", "_terms")

    def __new__(cls, vars: Iterable[str], terms: Mapping[tuple[int, ...], Fraction]):
        vars = _universe(vars)
        clean: dict[tuple[int, ...], tuple[int, int]] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(vars):
                raise ValueError(f"exponent tuple {exps} does not match variables {vars}")
            if exps and min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
            num, den = _ratio(coeff)
            if num:
                clean[exps] = num, den
        # Lowest terms over L: a prime power exactly dividing L exactly
        # divides some den, so the prime divides neither num nor L // den.
        L = lcm(*(den for _, den in clean.values()))
        return cls._trusted(vars, L, {e: num * (L // den) for e, (num, den) in clean.items()})

    @classmethod
    def _trusted(cls, vars: tuple[str, ...], denominator: int, numerators: dict) -> MPoly:
        """A pair already in lowest terms over canonical `vars` and exponent
        tuples (module docstring).  Skips every check."""
        self = object.__new__(cls)
        set_ = object.__setattr__
        set_(self, "vars", vars)
        set_(self, "denominator", denominator)
        set_(self, "numerators", numerators)
        set_(self, "_terms", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    def __reduce__(self):
        return MPoly._trusted, (self.vars, self.denominator, self.numerators)

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """The non-zero coefficients as Fractions, keyed by exponent tuple:
        a read-only view, built on the first read and kept."""
        view = self._terms
        if view is None:
            d = self.denominator
            view = MappingProxyType({e: Fraction(c, d) for e, c in self.numerators.items()})
            object.__setattr__(self, "_terms", view)
        return view

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: Iterable[str]) -> MPoly:
        return cls._trusted(_universe(vars), 1, {})

    @classmethod
    def const(cls, vars: Iterable[str], value) -> MPoly:
        vars = _universe(vars)
        num, den = _ratio(value)
        return cls._trusted(vars, den, {(0,) * len(vars): num} if num else {})

    @classmethod
    def var(cls, vars: Iterable[str], name: str) -> MPoly:
        vars = _universe(vars)
        if name not in vars:
            raise ValueError(f"variable '{name}' not in universe {vars}")
        return cls._trusted(vars, 1, {tuple(int(v == name) for v in vars): 1})

    # -- canonical view (universe independent) ------------------------

    def _canonical(self) -> tuple:
        # The denominator, and the numerators keyed by (name, exponent)
        # pairs with zero exponents dropped, so unused universe variables
        # do not affect equality.
        return (self.denominator, frozenset(
            (frozenset((v, e) for v, e in zip(self.vars, exps) if e), c)
            for exps, c in self.numerators.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        if self.vars == other.vars:   # one universe: the stored pairs decide
            return (self.denominator, self.numerators) == (other.denominator, other.numerators)
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.numerators

    def support(self) -> tuple[str, ...]:
        """Variables that actually occur, in universe order."""
        used = {i for exps in self.numerators for i, e in enumerate(exps) if e}
        return tuple(v for i, v in enumerate(self.vars) if i in used)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.numerators), default=0)

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self.numerators), default=0)

    def constant_term(self) -> Fraction:
        return Fraction(self.numerators.get((0,) * len(self.vars), 0), self.denominator)

    def has_integer_coefficients(self) -> bool:
        return self.denominator == 1

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> MPoly:
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise ValueError(f"variable universes differ: {self.vars} vs {other.vars}")
            return other
        return MPoly.const(self.vars, other)

    def _combine(self, other: MPoly, sign: int) -> MPoly:
        """self + sign * other, over the lcm of the two denominators."""
        den = lcm(self.denominator, other.denominator)
        f, g = den // self.denominator, sign * (den // other.denominator)
        out = {e: c * f for e, c in self.numerators.items()}
        get = out.get
        for e, c in other.numerators.items():
            out[e] = get(e, 0) + c * g
        return _lowest_terms(self.vars, out, den)

    def __add__(self, other) -> MPoly:
        return self._combine(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return _lowest_terms(self.vars, self.numerators, -self.denominator)

    def __sub__(self, other) -> MPoly:
        return self._combine(self._coerce(other), -1)

    def __rsub__(self, other) -> MPoly:
        return self._coerce(other) - self

    def __mul__(self, other) -> MPoly:
        other = self._coerce(other)
        return _lowest_terms(self.vars, _mul_into({}, self.numerators, other.numerators),
                             self.denominator * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {n!r}")
        if n == 0:
            return MPoly.const(self.vars, 1)
        return _lowest_terms(self.vars, _int_pow(self.numerators, n), self.denominator ** n)

    # -- universe management and monomial maps ---------------------------

    def extend(self, vars: Iterable[str]) -> MPoly:
        """Re-express over a universe that contains every current variable."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        for v in self.vars:
            if v not in vars:
                raise ValueError(f"extension {vars} drops variable '{v}'")
        if not self.vars:   # past this, vars has 2+ names and itemgetter gives tuples
            return MPoly.const(vars, self.constant_term())
        # index len(self.vars) reads the 0 appended to each exponent tuple
        get = itemgetter(*(self.vars.index(v) if v in self.vars else len(self.vars) for v in vars))
        return self.map_monomials(vars, lambda e: get((*e, 0)))

    def map_monomials(self, vars: Iterable[str], key, weight=None) -> MPoly:
        """sum_e weight(e) * c_e * x^key(e) over `vars`, c_e x^e the terms
        of self and weight(e) an int (1 when None): terms with one key are
        summed, and the pair is reduced once.  `key` returns exponent tuples
        of len(vars) with entries >= 0, or raises to reject a term."""
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for e, c in self.numerators.items():
            k = key(e)
            out[k] = get(k, 0) + (c if weight is None else c * weight(e))
        return _lowest_terms(_universe(vars), out, self.denominator)

    # -- substitution and evaluation --------------------------------------

    def substitute(self, bindings: Mapping[str, MPoly]) -> MPoly:
        """Exact polynomial composition.

        Bound variables are replaced by their binding polynomials; unbound
        universe variables pass through.  A binding may not introduce a
        variable with the same name as a retained variable of this
        polynomial (that would silently identify two distinct symbols).
        """
        for name in bindings:
            if name not in self.vars:
                raise ValueError(f"binding for '{name}' which is not in universe {self.vars}")
        retained = [v for v in self.vars if v not in bindings]
        target: list[str] = list(retained)
        for v in self.vars:
            if v in bindings:
                for w in bindings[v].vars:
                    if w in retained and w in bindings[v].support():
                        raise ValueError(
                            f"binding for '{v}' introduces '{w}' which collides "
                            f"with a retained variable"
                        )
                    if w not in target:
                        target.append(w)
        target_t = tuple(target)

        # Over D = L * prod L_i^m_i (L, L_i the denominators of self and of the
        # bindings, m_i the degree of self in its i-th variable) a term
        # c * prod x_i^e_i adds (L c) * prod L_i^(m_i - e_i) * prod F_i^e_i,
        # F_i = L_i * binding_i, all in integers.
        width = len(target_t)
        degrees = [max((e[i] for e in self.numerators), default=0) for i in range(len(self.vars))]
        factors: list[tuple[int, dict] | None] = []
        for v, m in zip(self.vars, degrees):
            if not m:
                factors.append(None)
            elif v in bindings:
                binding = bindings[v].extend(target_t)
                factors.append((binding.denominator, binding.numerators))
            else:
                factors.append((1, {tuple(int(w == v) for w in target_t): 1}))
        lifted = [(i, f[0], m) for i, (f, m) in enumerate(zip(factors, degrees))
                  if f is not None and f[0] != 1]
        denominator = self.denominator
        for _, scale, m in lifted:
            denominator *= scale ** m
        powers: dict[tuple[int, int], dict] = {}
        one = {(0,) * width: 1}
        out: dict[tuple[int, ...], int] = {}
        for exps, c in self.numerators.items():
            for i, scale, m in lifted:
                c *= scale ** (m - exps[i])
            product = last = one
            for i, e in enumerate(exps):
                if e:
                    if last is not one:
                        product = last if product is one else _mul_into({}, product, last)
                    last = powers.get((i, e))
                    if last is None:
                        last = powers[i, e] = _int_pow(factors[i][1], e)
            _mul_into(out, product, last, c)
        return _lowest_terms(target_t, out, denominator)

    def eval(self, point: Mapping[str, Fraction | int]) -> Fraction:
        """Exact value at a rational point; every occurring variable must be bound."""
        values = []
        for i, v in enumerate(self.vars):
            if v in point:
                values.append(Fraction(*_ratio(point[v])))
            else:
                if any(e[i] for e in self.numerators):
                    raise ValueError(f"unbound variable '{v}'")
                values.append(Fraction(0))
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for val, e in zip(values, exps):
                if e:
                    term *= val ** e
            total += term
        return total

    # -- integer-valuedness ------------------------------------------------

    def integer_valued(self) -> IntegralityCertificate:
        """Decide whether the polynomial is integer at every integer point.

        A polynomial with integer coefficients is integral.  Otherwise the
        verdict is read from the Mahler coordinates m_a of p, its
        coefficients in the binomial basis C(v, a) = prod C(v_i, a_i).  When
        p is not integer-valued, the witness is the first point b of the
        degree grid 0 <= b_i <= deg_i (deg_i the degree in the i-th
        variable), in lexicographic order, with a non-integer value: it is
        the lexicographically least a with m_a not an integer.

        Proof.  x^e = sum_k k! S(e, k) C(x, k), S the Stirling numbers of
        the second kind: both sides count the maps from an e-set into an
        x-set, grouped on the right by their image.  Rewriting one variable
        after another, each term c * v^e becomes sum_a c * prod_i
        a_i! S(e_i, a_i) C(v, a), over a <= e, and m_a is the sum of these
        over the terms.  Each C(v, a) is an integer at every integer point,
        so integer m_a make p integer-valued.  Otherwise let a* be the
        lexicographically least a with m_a not an integer; a* lies on the
        grid, since m_a = 0 unless a <= deg.  At a grid point b,
        p(b) = sum_{a <= b} m_a C(b, a), where a <= b holds entrywise and
        implies a <= b lexicographically.  For b before a*, every such m_a
        is an integer, and so is p(b).  At b = a*, every a <= a* other than
        a* comes before it, and C(a*, a*) = 1, so p(a*) is an integer plus
        m_a*: not an integer.  So p is integer-valued iff it is an integer
        on its degree grid.  With L the denominator of the stored
        pair, L * m_a is an integer, and m_a is one exactly when L
        divides it.  The rewrite takes, per variable, at most sum over the
        terms of prod (e_i + 1) products and deg_i^2 / 2 steps of one
        Stirling row, against the prod (deg_i + 1) evaluations of every
        term that scanning the grid takes.
        """
        if self.has_integer_coefficients():
            return IntegralityCertificate(True, None)
        L, coords = self.denominator, self.numerators
        for i in range(len(self.vars)):
            coords = _to_binomial_basis(coords, i)
        bad = [a for a, x in coords.items() if x % L]
        if bad:
            return IntegralityCertificate(False, dict(zip(self.vars, min(bad))))
        return IntegralityCertificate(True, None)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.numerators:
            return "0"
        pieces: list[str] = []
        # Graded lex: total degree descending, then exponent vector
        # descending in the declared variable order (exponent tuples are
        # distinct, so reversing the ascending order gives exactly that).
        for exps, c in sorted(self.numerators.items(), key=lambda it: (sum(it[0]), it[0]),
                              reverse=True):
            monomial = "*".join([v if e == 1 else f"{v}^{e}"
                                 for v, e in zip(self.vars, exps) if e])
            g = gcd(c, self.denominator)
            num, den = c // g, self.denominator // g
            negative = num < 0
            if negative:
                num = -num
            mag = str(num) if den == 1 else f"{num}/{den}"
            if not monomial:
                body = mag
            elif num == den == 1 and (pieces or not negative):
                # A leading sign stays fused to an explicit 1 ("-1*x^2"),
                # which keeps printed walks and certificates as they were.
                body = monomial
            else:
                body = f"{mag}*{monomial}"
            if not pieces:
                pieces.append("-" + body if negative else body)
            else:
                pieces.append(f" - {body}" if negative else f" + {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MPoly({self})"


class IntegralityCertificate:
    """Outcome of the integer-valuedness check.  When the check fails,
    `witness` is an integer point with a non-integer value."""

    __slots__ = ("integral", "witness")

    def __init__(self, integral: bool, witness):
        self.integral = integral
        self.witness = witness

    def __bool__(self) -> bool:
        return self.integral

    def __repr__(self) -> str:
        status = "integral" if self.integral else f"non-integral (witness {self.witness})"
        return f"IntegralityCertificate({status})"


def _universe(vars: Iterable[str]) -> tuple[str, ...]:
    """The variable names as a tuple; a ValueError if any repeats."""
    vars = tuple(vars)
    if len(set(vars)) != len(vars):
        raise ValueError(f"duplicate variable names in {vars}")
    return vars


def _lowest_terms(vars: tuple[str, ...], numerators: dict, denominator: int) -> MPoly:
    """The polynomial with coefficients numerators[e] / denominator, for a
    non-zero denominator: zero numerators dropped, then the pair divided by
    its gcd, signed as the denominator, so the denominator is positive."""
    if 0 in numerators.values():
        numerators = {e: c for e, c in numerators.items() if c}
    g = gcd(denominator, *numerators.values())
    if denominator < 0:
        g = -g
    if g != 1:
        denominator //= g
        numerators = {e: c // g for e, c in numerators.items()}
    return MPoly._trusted(vars, denominator, numerators)


def _mul_into(out: dict, a: dict, b: dict, scale: int = 1) -> dict:
    """Add scale * a * b into `out`; all three map exponent tuples to ints."""
    get = out.get
    for ea, ca in a.items():
        ca *= scale
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            out[key] = get(key, 0) + ca * cb
    return out


def _int_pow(a: dict, n: int) -> dict:
    """a^n, n >= 1, for a map from exponent tuples to ints: one term at
    once, else by repeated squaring."""
    if len(a) == 1:
        ((e, c),) = a.items()
        return {tuple(x * n for x in e): c ** n}
    result = None
    while True:
        if n & 1:
            result = a if result is None else _mul_into({}, result, a)
        n >>= 1
        if not n:
            return result
        a = _mul_into({}, a, a)


def _to_binomial_basis(coords: dict, i: int) -> dict:
    """Rewrite the i-th variable of a map from exponent tuples to ints from
    the power basis to the binomial basis, x^e = sum_k k! S(e, k) C(x, k).
    The terms go by ascending e_i, and one row k! S(e, k), k = 0..e, is
    stepped up to each e_i by k! S(e+1, k) = k (k! S(e, k) + (k-1)!
    S(e, k-1)): O(deg^2) steps and one row held at a time."""
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    row, at = (1,), 0
    for exps, c in sorted(coords.items(), key=lambda item: item[0][i]):
        while at < exps[i]:
            row = (0,) + tuple(k * (a + b) for k, (a, b) in enumerate(zip(row[1:] + (0,), row), 1))
            at += 1
        head, tail = exps[:i], exps[i + 1:]
        for k, s in enumerate(row):
            if s:
                key = head + (k,) + tail
                out[key] = get(key, 0) + c * s
    return out


# -- parsing ---------------------------------------------------------------
#
# expr   := term (("+"|"-") term)*
# term   := factor ("*" factor)*
# factor := "-" factor | base ("^" nonneg-int)?
# base   := number | identifier | "(" expr ")"
# number := nonneg-int ("/" nonneg-int)?
#
# The "/" extension over plain integers lets rational coefficients
# round-trip through printing (needed for binomial-coefficient entries).


class _Parser:
    def __init__(self, text: str, vars: tuple[str, ...]):
        self.text = text
        self.vars = vars
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, message: str):
        raise PolySyntaxError(message, self.pos)

    def parse(self) -> MPoly:
        result = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected '{self.text[self.pos]}'")
        return result

    def expr(self) -> MPoly:
        result = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self) -> MPoly:
        result = self.factor()
        while self.peek() == "*":
            self.pos += 1
            result = result * self.factor()
        return result

    def factor(self) -> MPoly:
        if self.peek() == "-":
            self.pos += 1
            return -self.factor()
        base = self.base()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            if not (self.pos < len(self.text) and self.text[self.pos].isdigit()):
                self.error("exponent must be a non-negative integer literal")
            return base ** self.integer()
        return base

    def base(self) -> MPoly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return inner
        if ch.isdigit():
            num = self.integer()
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                if not (self.pos < len(self.text) and self.text[self.pos].isdigit()):
                    self.error("expected integer denominator")
                den = self.integer()
                if den == 0:
                    self.error("zero denominator")
                return MPoly.const(self.vars, Fraction(num, den))
            return MPoly.const(self.vars, num)
        match = _IDENT_RE.match(self.text, self.pos)
        if match is not None:
            start = self.pos
            name = match.group(0)
            self.pos = match.end()
            if name not in self.vars:
                raise UnknownIdentifierError(name, start)
            return MPoly.var(self.vars, name)
        self.error("expected a number, identifier, '(' or '-'")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        return int(self.text[start:self.pos])


def poly_parse(text: str, vars: Iterable[str]) -> MPoly:
    """Parse an expression over the declared variables into canonical form."""
    return _Parser(text, tuple(vars)).parse()


def poly_parse_auto(text: str) -> MPoly:
    """Parse with the universe inferred from identifiers, in order of first use."""
    seen: list[str] = []
    for match in _IDENT_RE.finditer(text):
        if match.group(0) not in seen:
            seen.append(match.group(0))
    return poly_parse(text, seen)


class PolyVector:
    """Ordered sequence of polynomials over one shared variable universe."""

    __slots__ = ("entries", "vars", "_form")

    def __init__(self, entries: Iterable[MPoly]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("PolyVector must be non-empty")
        vars = entries[0].vars
        for p in entries[1:]:
            if p.vars != vars:
                raise ValueError(f"mixed universes: {vars} vs {p.vars}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "_form", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyVector is immutable")

    def __reduce__(self):
        return PolyVector, (self.entries,)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> MPoly:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def substitute(self, bindings: Mapping[str, MPoly]) -> PolyVector:
        return PolyVector([p.substitute(bindings) for p in self.entries])

    def eval(self, point: Mapping[str, Fraction | int]) -> tuple[Fraction, ...]:
        return tuple(p.eval(point) for p in self.entries)

    def _numerator_form(self) -> tuple[list, list[int], list[list[int]]]:
        """Per entry its denominator L, its (exponents, numerator) pairs and the
        indices of its variables; per variable its largest exponent M_i and
        its exponents in use.  Computed once per vector."""
        form = object.__getattribute__(self, "_form")
        if form is None:
            entries = []
            for p in self.entries:
                terms = p.numerators
                entries.append((p.denominator, tuple(terms.items()), tuple(
                    i for i in range(len(self.vars)) if any(e[i] for e in terms))))
            exponents = [sorted({e[i] for p in self.entries for e in p.numerators})
                         for i in range(len(self.vars))]
            form = entries, [max(used, default=0) for used in exponents], exponents
            object.__setattr__(self, "_form", form)
        return form

    def eval_int(self, point: Mapping[str, Fraction | int]) -> tuple[int, ...]:
        """The values of `eval` as ints, in integer arithmetic only.

        Entry k is read on its stored pair, integer numerators c_e over
        the denominator L_k (`_numerator_form`).  At x_i = a_i / b_i, with M_i
        the largest exponent of x_i in the vector, its value is
        N_k / (L_k prod_i b_i^M_i), where
            N_k = sum_e c_e prod_i a_i^e_i b_i^(M_i - e_i),
        so one remainder decides whether it is an integer.  The errors are
        those of `eval`, in its order, then a ValueError for the first
        non-integer value."""
        entries, degrees, exponents = self._numerator_form()
        ratios = []
        for i, v in enumerate(self.vars):
            if v in point:
                ratios.append(_ratio(point[v]))
            elif i in entries[0][2]:
                raise ValueError(f"unbound variable '{v}'")
            else:
                ratios.append((0, 1))
        for _, _, used in entries[1:]:
            for i in used:
                if self.vars[i] not in point:
                    raise ValueError(f"unbound variable '{self.vars[i]}'")
        tables = [{e: a ** e * b ** (m - e) for e in used}
                  for (a, b), m, used in zip(ratios, degrees, exponents)]
        unit = prod(b ** m for (_, b), m in zip(ratios, degrees))
        values = []
        for L, terms, _ in entries:
            total = 0
            for exps, c in terms:
                for table, e in zip(tables, exps):
                    c *= table[e]
                total += c
            value, rest = divmod(total, L * unit)
            if rest:
                raise ValueError(f"non-integer value {Fraction(total, L * unit)} at {dict(point)}")
            values.append(value)
        return tuple(values)

    def max_degree(self) -> int:
        return max(p.total_degree() for p in self.entries)

    def __repr__(self) -> str:
        return "PolyVector(" + ", ".join(str(p) for p in self.entries) + ")"
