"""Affine annihilators and the constructive search for hyperplane-fleeing walks.

Given generator walks s_1..s_r and a start vector v, the orbit polynomials
at depth N are the entries of s_N(t_N) ... s_1(t_1) v in fresh time
variables t_1..t_N (generators cycle when N exceeds r).  The affine maps
annihilating that orbit form a vector space; once it is trivial, collapsing
the time variables to n^(e_1), ..., n^(e_N) with rapidly growing exponents
produces a single-parameter walk whose orbit stays out of every proper
affine subspace.  Independence is always decided by exact rational kernel
computation, never by numeric rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator, Sequence

from .generators import kernel_basis
from .poly import MPoly, PolyVector
from .walks import TIME, Walk


class DepthExhausted(RuntimeError):
    """The annihilator never became trivial up to the depth cap: the orbit
    may not be hyperplane-fleeing."""

    def __init__(self, depth_cap: int, dims: list[int]):
        super().__init__(
            f"annihilator still non-trivial at depth {depth_cap} "
            f"(dimension trace {dims})"
        )
        self.depth_cap = depth_cap
        self.dims = dims


class BaseExhausted(RuntimeError):
    """No exponent base up to the cap produced an independent single-variable orbit."""

    def __init__(self, base_cap: int):
        super().__init__(f"no exponent base up to {base_cap} gave independence")
        self.base_cap = base_cap


@dataclass(frozen=True)
class AffineFunctional:
    """L(y) = <linear, y> + constant, stored as a primitive integer vector
    with positive leading entry (deterministic basis representative)."""

    linear: tuple[Fraction, ...]
    constant: Fraction

    def __call__(self, point: Sequence[Fraction | int]) -> Fraction:
        return sum((a * Fraction(x) for a, x in zip(self.linear, point)),
                   start=self.constant)

    def apply_polys(self, polys: PolyVector) -> MPoly:
        total = MPoly.const(polys.vars, self.constant)
        for a, p in zip(self.linear, polys):
            if a:
                total = total + p * a
        return total


def affine_annihilator(polys: PolyVector) -> list[AffineFunctional]:
    """Basis of the affine maps L with L(p_1, ..., p_d) identically zero.

    Unknowns are (a_1, ..., a_d, c); each monomial occurring in any entry
    (or the constant monomial) contributes one linear condition.
    """
    d = len(polys)
    monomials: dict[tuple[int, ...], list[Fraction]] = {}
    zero_exps = (0,) * len(polys.vars)

    def row_for(exps):
        if exps not in monomials:
            monomials[exps] = [Fraction(0)] * (d + 1)
        return monomials[exps]

    for j, p in enumerate(polys):
        for exps, coeff in p.terms.items():
            row_for(exps)[j] = coeff
    row_for(zero_exps)[d] = Fraction(1)

    rows = [monomials[e] for e in sorted(monomials)]
    basis = kernel_basis(rows, d + 1)
    return [AffineFunctional(tuple(vec[:d]), vec[d]) for vec in basis]


def is_fleeing(polys: PolyVector) -> bool:
    """True iff 1, p_1(n), ..., p_d(n) are linearly independent over Q
    (rational coefficients suffice: the condition matrix is rational, so
    its real kernel is spanned by rational vectors)."""
    if len(polys.vars) > 1:
        occupied = {v for p in polys for v in p.support()}
        if len(occupied) > 1:
            raise ValueError(f"expected single-variable entries, got {polys.vars}")
    return not affine_annihilator(polys)


def time_var(k: int) -> str:
    return f"t{k}"


def check_start(gens: Sequence[Walk], v: Sequence[int]) -> None:
    """Raise ValueError unless there is a generator, all generators share
    one dimension and coordinates, and v has that dimension."""
    if not gens:
        raise ValueError("need at least one generator walk")
    dim = gens[0].dim
    for g in gens[1:]:
        if g.dim != dim or g.coords != gens[0].coords:
            raise ValueError("generator walks must share dimension and coordinates")
    if len(v) != dim:
        raise ValueError(f"vector has length {len(v)}, walks have dimension {dim}")


def _orbit_stream(gens: Sequence[Walk], v: Sequence[int]) -> Iterator[PolyVector]:
    """The orbits at depths 1, 2, ...: depth n is depth n-1 pushed through
    the next generator in the fresh time variable t_n."""
    check_start(gens, v)
    universe: tuple[str, ...] = ()
    current = PolyVector([MPoly.const(universe, value) for value in v])
    for k in count(1):
        universe += (time_var(k),)
        walk = gens[(k - 1) % len(gens)]
        bindings = {TIME: MPoly.var(universe, time_var(k))}
        bindings.update(zip(walk.coords, (p.extend(universe) for p in current)))
        current = walk.entries.substitute(bindings)
        yield current


def orbit_polynomials(gens: Sequence[Walk], v: Sequence[int], depth: int) -> PolyVector:
    """Entries of s_depth(t_depth) ... s_1(t_1) v, generators cycling in list order."""
    stream = _orbit_stream(gens, v)
    orbit = next(stream)  # checks gens and v before depth
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for _ in range(depth - 1):
        orbit = next(stream)
    return orbit


@dataclass(frozen=True)
class FleeingCertificate:
    """Self-certifying output of the fleeing-walk construction."""

    depth: int
    exponents: tuple[int, ...]
    final_walk: Walk
    orbit_poly: PolyVector
    annihilator_dims: tuple[int, ...] = ()
    base: int = 0

    def to_text(self) -> str:
        lines = [
            f"depth {self.depth}",
            f"base {self.base}",
            "exponents " + " ".join(str(e) for e in self.exponents),
            "annihilator-dimension-trace " + " ".join(str(d) for d in self.annihilator_dims),
            "orbit " + "; ".join(str(p) for p in self.orbit_poly),
            "walk:",
        ]
        lines += ["  " + line for line in self.final_walk.to_text().splitlines()]
        return "\n".join(lines) + "\n"


def construct_fleeing_walk(
    gens: Sequence[Walk],
    v: Sequence[int],
    depth_cap: int | None = None,
    base_cap: int | None = None,
) -> FleeingCertificate:
    """Search the orbit tree for a hyperplane-fleeing single-parameter walk.

    Deepens until the affine annihilator of the orbit polynomials is
    trivial, then collapses time variables via t_k -> n^(base^k), taking
    base = 1 + (largest exponent of any time variable) and retrying with a
    larger base if the collapsed orbit loses independence (cheap to verify,
    and makes the certificate self-checking rather than trusting the
    exponent growth rule).
    """
    check_start(gens, v)
    if depth_cap is None:
        depth_cap = 8 * len(gens) * gens[0].dim

    dims: list[int] = []
    depth = None
    for n, orbit in zip(range(1, depth_cap + 1), _orbit_stream(gens, v)):
        basis = affine_annihilator(orbit)
        if dims and len(basis) > dims[-1]:
            raise AssertionError(
                f"annihilator dimension grew from {dims[-1]} to {len(basis)} at depth {n}"
            )
        dims.append(len(basis))
        if not basis:
            depth = n
            break
    if depth is None:
        raise DepthExhausted(depth_cap, dims)

    max_power = max(
        (e for p in orbit for exps in p.terms for e in exps),
        default=0,
    )
    base = max_power + 1
    if base_cap is None:
        base_cap = 10 * base

    while base <= base_cap:
        exponents = tuple(base ** k for k in range(1, depth + 1))
        substituted = _collapse(orbit, exponents)
        if is_fleeing(substituted):
            final = _build_final_walk(gens, exponents)
            check = final.orbit_poly(v)
            if check != substituted:
                raise AssertionError(
                    "collapsed orbit does not match the composed walk applied to v"
                )
            return FleeingCertificate(
                depth=depth,
                exponents=exponents,
                final_walk=final,
                orbit_poly=substituted,
                annihilator_dims=tuple(dims),
                base=base,
            )
        base += 1
    raise BaseExhausted(base_cap)


def _collapse(orbit: PolyVector, exponents: tuple[int, ...]) -> PolyVector:
    """Substitute t_k -> n^(e_k): a monomial map, t^a -> n^<a, e>, so each
    entry's coefficients are summed by their new exponent."""
    by_name = {time_var(k): e for k, e in enumerate(exponents, start=1)}
    weights = [by_name[name] for name in orbit.vars]
    entries = []
    for p in orbit:
        terms: dict[tuple[int], Fraction] = {}
        for exps, coeff in p.terms.items():
            key = (sum(a * e for a, e in zip(exps, weights)),)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        entries.append(MPoly(("n",), terms))
    return PolyVector(entries)


def _build_final_walk(gens: Sequence[Walk], exponents: tuple[int, ...]) -> Walk:
    walk = gens[0].reparam(exponents[0])
    for k in range(2, len(exponents) + 1):
        step = gens[(k - 1) % len(gens)].reparam(exponents[k - 1])
        walk = step.compose(walk)
    return walk
