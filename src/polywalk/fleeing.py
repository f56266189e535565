"""Affine annihilators and the constructive search for hyperplane-fleeing walks.

Given generator walks s_1..s_r and a start vector v, the orbit polynomials
at depth N are the entries of s_N(t_N) ... s_1(t_1) v in fresh time
variables t_1..t_N (generators cycle when N exceeds r).  The affine maps
annihilating that orbit form a vector space (for affine generators its
dimension comes from a recursion on (d+1)-vectors, with no orbit built);
once it is trivial, collapsing the time variables to n^(e_1), ..., n^(e_N)
with rapidly growing exponents produces a single-parameter walk whose
orbit stays out of every proper affine subspace.  Independence is always decided by exact rational kernel
computation, never by numeric rank.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import lcm
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .generators import kernel_basis, reduce_into
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


class AffineFunctional(NamedTuple):
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


class FleeingCertificate(NamedTuple):
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

    Deepens until the affine annihilator of the depth-N orbit
    w_N = s_N(t_N) ... s_1(t_1) v is trivial, then collapses the time
    variables via t_k -> n^(base^k) with base = 1 + (largest exponent of
    any time variable in w_N).  The trace lists the annihilator's
    dimension at depths 1..N.

    Affine generators (every term of degree <= 1 in the coordinates,
    `_affine_parts`) build no orbit: the annihilator recursion.  Such a
    walk g(s)x = A(s)x + b(s) acts on (x, 1) as G(s) = sum_j s^j H_j, with
    H_j = [[A_j, b_j], [0, 0]] for j >= 1 and H_0 = I, as g(0) = id.  The
    t_k being distinct, (w_N, 1) = sum_a t^a H^N_{a_N} ... H^1_{a_1} (v, 1),
    H^k the k-th generator's: one word per monomial, none summed.  So
    <c, y> + c_0 vanishes on w_N iff (c, c_0) is orthogonal to the span
    V_N of the words, and the trace entry is d + 1 - dim V_k.  A word of
    length k is H^k_j u, u one of length k - 1 (j = 0 gives u), so
    V_0 = span{(v, 1)} and V_k = V_{k-1} + sum_{j >= 1} H^k_j V_{k-1}, kept
    as integer rows by `reduce_into` (scaling H_j moves no span); N is the
    first k with dim V_k = d + 1.  Base rule: t_k has exponent j >= 1 in
    w_N iff H^k_j V_{k-1} != 0.  A word is zero once its prefix H^k_j u
    is; and if H^k_j u != 0, extending it by a_{k+1..N} = 0 gives H^k_j u
    itself (H_0 = I), whose last entry is 0, so it shows in w_N.  Later
    maps cannot cancel it: det G(0) = 1, so each G(s) is invertible over
    Q(s).  Hence base = 1 + max_k max{j : H^k_j V_{k-1} != 0} (max {} = 0).
    This route keeps one AssertionError: `is_fleeing` on
    `final.orbit_poly(v)`.  Other walks take the tower (`_orbit_stream`,
    `affine_annihilator` per depth, `_collapse`) and keep three: the
    annihilator grew, the collapse differs from `final.orbit_poly(v)`, or
    it is not fleeing.

    Proof that the collapsed orbit is fleeing.  Every exponent a_k of a
    monomial t^a = t_1^a_1 ... t_N^a_N of the orbit lies in [0, base), so
    E(a) = sum_k a_k base^k is the number with base-`base` digits
    (a_N, ..., a_1, 0), and t^a -> n^E(a) is injective on the orbit's
    monomials (the constant one goes to n^0).  So collapsing sums no two
    coefficients: it relabels the monomials, the same way in every entry.
    An affine map L = <a, y> + c vanishes on the orbit iff each monomial's
    coefficient of L(p) is zero, and these conditions are the same before
    and after relabelling; so the collapsed orbit has the same, trivial,
    annihilator.  The composed walk at time n is s_N(n^(e_N)) ... s_1(n^(e_1)),
    so its orbit is that collapse: the certificate checks itself.
    """
    check_start(gens, v, depth_cap)
    if depth_cap is None:
        depth_cap = 8 * len(gens) * gens[0].dim

    parts = [_affine_parts(g) for g in gens]
    if any(p is None for p in parts):
        depth, base, dims, collapsed = _tower(gens, v, depth_cap)
    else:
        depth, base, dims = _span_recursion(parts, v, depth_cap)
        collapsed = None
    exponents = tuple(base ** k for k in range(1, depth + 1))
    final = _build_final_walk(gens, exponents)
    orbit = final.orbit_poly(v)
    if collapsed is not None and orbit != collapsed:
        raise AssertionError("collapsed orbit does not match the composed walk applied to v")
    if not is_fleeing(orbit):
        raise AssertionError(f"collapsing with base {base} lost independence")
    return FleeingCertificate(
        depth=depth,
        exponents=exponents,
        final_walk=final,
        orbit_poly=orbit,
        annihilator_dims=tuple(dims),
        base=base,
    )


def _affine_parts(walk: Walk) -> list[tuple[int, list[list[int]]]] | None:
    """The pairs (j, rows of D * [A_j, b_j]) for j >= 1 with a non-zero
    part, D the lcm of the entries' denominators, when every term has
    degree <= 1 in the coordinates; else None.  Terms free of t are the
    identity and are skipped."""
    d = walk.dim
    scale = lcm(*(p.denominator for p in walk.entries))
    parts: dict[int, list[list[int]]] = {}
    for i, p in enumerate(walk.entries):
        f = scale // p.denominator
        for e, c in p.numerators.items():
            x = e[1:]
            degree = sum(x)
            if degree > 1:
                return None
            if e[0]:
                if e[0] not in parts:
                    parts[e[0]] = [[0] * (d + 1) for _ in range(d)]
                parts[e[0]][i][x.index(1) if degree else d] = c * f
    return sorted(parts.items())


def _span_recursion(parts: list, v: Sequence[int], depth_cap: int) -> tuple[int, int, list[int]]:
    """Depth, base and trace by V_k = V_{k-1} + sum_j H_j V_{k-1}
    (`construct_fleeing_walk`), or DepthExhausted."""
    width = len(v) + 1
    kept: list[list[int]] = []
    leads: list[int] = []
    reduce_into(kept, leads, [*v, 1])
    dims: list[int] = []
    top = 0
    for k in range(depth_cap):
        previous = kept[:]
        for j, rows in parts[k % len(parts)]:
            for u in previous:
                image = [sum(map(mul, row, u)) for row in rows]
                if any(image):
                    top = max(top, j)
                    reduce_into(kept, leads, image + [0])
        dims.append(width - len(kept))
        if len(kept) == width:
            return k + 1, 1 + top, dims
    raise DepthExhausted(depth_cap, dims)


def _tower(gens: Sequence[Walk], v: Sequence[int], depth_cap: int) -> tuple:
    """Depth, base, trace and collapsed orbit from the orbit tower and one
    annihilator per depth, or DepthExhausted."""
    dims: list[int] = []
    for n, orbit in zip(range(1, depth_cap + 1), _orbit_stream(gens, v)):
        basis = affine_annihilator(orbit)
        if dims and len(basis) > dims[-1]:
            raise AssertionError(
                f"annihilator dimension grew from {dims[-1]} to {len(basis)} at depth {n}"
            )
        dims.append(len(basis))
        if not basis:
            break
    else:
        raise DepthExhausted(depth_cap, dims)
    base = 1 + max((e for p in orbit for exps in p.numerators for e in exps), default=0)
    return n, base, dims, _collapse(orbit, tuple(base ** k for k in range(1, n + 1)))


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
