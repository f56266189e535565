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
from math import lcm
from operator import mul
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


@dataclass(frozen=True)
class AffineFunctional:
    """L(y) = <linear, y> + constant, stored as a primitive integer vector
    with positive leading entry (deterministic basis representative)."""

    linear: tuple[Fraction, ...]
    constant: Fraction

    def __call__(self, point: Sequence[Fraction | int]) -> Fraction:
        return sum((a * Fraction(x) for a, x in zip(self.linear, point)),
                   start=self.constant)


def affine_annihilator(polys: PolyVector) -> list[AffineFunctional]:
    """Basis of the affine maps L with L(p_1, ..., p_d) identically zero.

    Unknowns are (a_1, ..., a_d, c); each monomial occurring in any entry
    (or the constant monomial) contributes one linear condition, written
    as an integer row: the coefficients times D, the lcm of the entries'
    denominators, read off their numerators.  The rank is at most d + 1,
    and `kernel_basis` reduces the conditions one at a time against at
    most that many rows, stopping as soon as d + 1 of them are
    independent.  Its basis depends only on the row space, so neither the
    scaling by D nor the order of the conditions changes it; in ascending
    exponent order the reduction measured twice as fast as in the order
    the monomials are met.
    """
    d = len(polys)
    scale = lcm(*(p.denominator for p in polys))
    monomials = {(0,) * len(polys.vars): [0] * d + [scale]}
    for j, p in enumerate(polys):
        f = scale // p.denominator
        for exps, c in p.numerators.items():
            row = monomials.get(exps)
            if row is None:
                row = monomials[exps] = [0] * (d + 1)
            row[j] = c * f
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


def check_start(gens: Sequence[Walk], v: Sequence[int], depth_cap: int | None = None) -> None:
    """Raise ValueError unless there is a generator, all generators share
    one dimension and coordinates, v has that dimension, and a depth cap,
    if given, lets at least one depth be examined."""
    if depth_cap is not None and depth_cap < 1:
        raise ValueError(f"depth cap must be >= 1, got {depth_cap}")
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


@dataclass(frozen=True)
class FleeingCertificate:
    """Self-certifying output of the fleeing-walk construction."""

    depth: int
    exponents: tuple[int, ...]
    final_walk: Walk
    orbit_poly: PolyVector
    annihilator_dims: tuple[int, ...]
    base: int

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
) -> FleeingCertificate:
    """Search the orbit tree for a hyperplane-fleeing single-parameter walk.

    Deepens until the affine annihilator of the orbit polynomials is
    trivial, at depth N, then collapses the time variables via
    t_k -> n^(base^k) with base = 1 + (largest exponent of any time
    variable in the orbit).

    Proof that the collapsed orbit is fleeing.  Every exponent a_k of a
    monomial t^a = t_1^a_1 ... t_N^a_N of the orbit lies in [0, base), so
    E(a) = sum_k a_k base^k is the number with base-`base` digits
    (a_N, ..., a_1, 0), and t^a -> n^E(a) is injective on the orbit's
    monomials (the constant one goes to n^0).  So collapsing sums no two
    coefficients: it relabels the monomials, the same way in every entry.
    An affine map L = <a, y> + c vanishes on the orbit iff each monomial's
    coefficient of L(p) is zero, and these conditions are the same before
    and after relabelling; so the collapsed orbit has the same, trivial,
    annihilator.  Both that and `final.orbit_poly(v) == collapsed` are
    still checked, as AssertionErrors: the certificate checks itself.
    """
    check_start(gens, v, depth_cap)
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

    base = 1 + max((e for p in orbit for exps in p.numerators for e in exps), default=0)
    exponents = tuple(base ** k for k in range(1, depth + 1))
    collapsed = _collapse(orbit, exponents)
    if not is_fleeing(collapsed):
        raise AssertionError(f"collapsing with base {base} lost independence")
    final = _build_final_walk(gens, exponents)
    if final.orbit_poly(v) != collapsed:
        raise AssertionError("collapsed orbit does not match the composed walk applied to v")
    return FleeingCertificate(
        depth=depth,
        exponents=exponents,
        final_walk=final,
        orbit_poly=collapsed,
        annihilator_dims=tuple(dims),
        base=base,
    )


def _collapse(orbit: PolyVector, exponents: tuple[int, ...]) -> PolyVector:
    """Substitute t_k -> n^(e_k): the monomial map t^a -> n^<a, e>
    (`MPoly.map_monomials`), which sums the terms landing on one power."""
    by_name = {time_var(k): e for k, e in enumerate(exponents, start=1)}
    weights = [by_name[name] for name in orbit.vars]
    return PolyVector([p.map_monomials(("n",), lambda e: (sum(map(mul, e, weights)),))
                       for p in orbit])


def _build_final_walk(gens: Sequence[Walk], exponents: tuple[int, ...]) -> Walk:
    walk = gens[0].reparam(exponents[0])
    for k in range(2, len(exponents) + 1):
        step = gens[(k - 1) % len(gens)].reparam(exponents[k - 1])
        walk = step.compose(walk)
    return walk
