"""The binomial-polynomial route to unipotent walks, kept as a reference:
C(t, j) built as a product of MPolys and gamma^t summed term by term over
the powers of gamma - I, with the nilpotency test run on its own.  The
package writes the same walks as integer numerators over one denominator
(`generators.unipotent_walk`)."""

from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from polywalk.generators import NotUnipotent, mat, mat_identity, mat_is_zero, mat_mul, mat_sub
from polywalk.poly import MPoly
from polywalk.walks import TIME, Walk, default_coords


def binomial_poly(vars: Iterable[str], name: str, k: int) -> MPoly:
    """The binomial coefficient C(name, k) as a polynomial: name*(name-1)*.../k!."""
    vars = tuple(vars)
    result = MPoly.const(vars, Fraction(1, factorial(k)))
    v = MPoly.var(vars, name)
    for s in range(k):
        result = result * (v - s)
    return result


def nilpotency_index(a) -> int | None:
    """Least j with a^j = 0, or None if a is not nilpotent (j <= size suffices)."""
    power = mat_identity(len(a))
    for j in range(len(a) + 1):
        if mat_is_zero(power):
            return j
        power = mat_mul(power, a)
    return None


def reference_unipotent_walk(gamma: Sequence[Sequence[int]],
                             coords: Sequence[str] | None = None) -> Walk:
    """gamma^t = sum_j C(t, j) (gamma - I)^j, one MPoly term at a time."""
    gamma = mat(gamma)
    n = len(gamma)
    nil = mat_sub(gamma, mat_identity(n))
    index = nilpotency_index(nil)
    if index is None:
        raise NotUnipotent(n)
    coords = tuple(coords) if coords is not None else default_coords(n)
    universe = (TIME,) + coords
    xs = [MPoly.var(universe, c) for c in coords]
    entries = [MPoly.zero(universe) for _ in range(n)]
    power = mat_identity(n)
    for j in range(index):
        cnj = binomial_poly(universe, TIME, j)
        for i in range(n):
            acc = MPoly.zero(universe)
            for l in range(n):
                if power[i][l]:
                    acc = acc + xs[l] * power[i][l]
            if not acc.is_zero():
                entries[i] = entries[i] + cnj * acc
        power = mat_mul(power, nil)
    return Walk(entries, coords)
