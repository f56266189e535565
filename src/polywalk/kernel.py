"""Orbit and phase streams for integer-valued polynomial orbits.

Every per-n loop of the package walks an integer-valued polynomial vector
p(n) = (p_1(n), ..., p_m(n)) of degree at most D over consecutive n, and
the torus loops also read the phase frac(<row, p(n)>) of rows of exact
reals.  Evaluating each p(n) from scratch costs a polynomial evaluation
per point.  The streams here work like the difference engine (Knuth,
TAOCP vol. 2, 4.6.4): after a start-up, every point costs D additions
per coordinate, since nabla^(D+1) p = 0 and

    nabla^i p(n + 1) = nabla^i p(n) + nabla^(i+1) p(n + 1).

The start-up, the head of a stream, is in integers only.  The first D + 1
points come from `PolyVector.eval_int`, which reads each entry on its
integer numerators over the lcm of its denominators, computed once per
vector; the Fraction route `MPoly.eval` is never called.  The backward
differences at the last of them are taken column by column, one
`map(operator.sub, ...)` per level and coordinate.  So a stream starts
with D + 1 integer evaluations and D (D + 1) / 2 subtractions per
coordinate, and the subtractions run in C.  A phase stream also reads
2 (D + 1) integer vectors through `reals.FixedRow`.

Points are stepped in blocks: over a block, the order-i differences are
the running sums (`itertools.accumulate`) of the order-(i+1) ones, started
from the table entry, so the additions run in C and not in a per-point
Python loop.  Blocks start small and double, so a search that stops early
computes few points it does not use.

Four streams share this table:

* `orbit_points` yields the exact integer points p(n).
* `fixed_phases` carries each row's phase <row, p(n)> in fixed point, as
  one integer per difference order modulo the row's `reals.FixedRow`
  modulus: M = 2^W for a row with an irrational entry, and the lcm q of
  the denominators for a row of rationals, whose phases are exact.  The
  table is read once, at the start, through `reals.FixedRow`.  It yields
  integers a, not yet reduced mod M, with a / M the phase mod 1; the arc
  test of `lab` reduces them once, after its own shift, and compares them
  with integer thresholds.
* `phases` turns them into the floats nearest (a mod M) / M, each times
  a scale, in the same blocks (`_floats`).
* `residues` is the rational case: exact residues mod q.

Error bound.  Write s(n) = <row, p(n)>, a real polynomial in n of degree
at most D; the streams start at n = 1.  `reals.FixedRow` turns an
integer vector v into an integer fix(v) with |fix(v) - M <row, v>| < 1.
Its docstring proves this bound; `Real.approx` and the Bohr-set single
queries rest on the same proof.

* The first D + 1 phases are fix(p(n)) mod M, so their error is below
  1/M.
* From m0 = 1 + D on, the stream starts from T_i = fix(nabla^i p(m0)),
  whose errors e_i = T_i - M nabla^i s(m0) satisfy |e_i| < 1, because
  nabla^i s(m0) = <row, nabla^i p(m0)>.  Integer additions are exact.
  One step replaces the order-k entry by the sum of the entries of orders
  k..D.  By induction on j, after j steps the order-k entry is
  sum_{i >= k} C(j - 1 + i - k, i - k) T_i, with C(-1, 0) = 1 and
  C(r - 1, r) = 0 for r >= 1; the step from j to j + 1 is the
  hockey-stick identity sum_{r=0}^{t} C(j - 1 + r, r) = C(j + t, t).
  The same recursion run on the exact table gives M s(m0 + j).  So the
  computed value at n = m0 + j is off by
      |sum_{i=0}^{D} C(j - 1 + i, i) e_i| < sum_{i=0}^{D} C(j - 1 + i, i)
                                          = C(j + D, D) = C(n - 1, D),
  and reducing the table mod M between blocks does not change a value
  mod M, nor a distance on the circle.

Hence the phase of the point n is within max(1, C(n - 1, D)) / M of
frac(<row, p(n)>) on the circle, and so within
max(1, C(n - 1, D)) * 2^-W <= sum_{k <= D} C(n - 1, k) * 2^-W.  The
bound grows with n, so `_width` takes the smallest W that keeps it at
most 2^-precision at the last of `count` points.  Rows with only
rational entries have no error and use M = q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import comb, lcm, ldexp
from operator import and_, mod, mul, sub, truediv
from typing import Iterable, Iterator, Sequence

from .poly import PolyVector
from .reals import FixedRow, Real

# Points per block: the first block has 16, each next one twice as many,
# up to this many.  The bound caps the memory a stream holds.
_MAX_BLOCK = 256


def _backward_table(head: list[tuple[int, ...]]) -> list[list[int]]:
    """The differences [nabla^D, ..., nabla^1, nabla^0] of D + 1 consecutive
    points, taken at the last one: one list per coordinate."""
    table = []
    for column in zip(*head):
        ends = [column[-1]]
        while len(column) > 1:
            column = list(map(sub, column[1:], column))
            ends.append(column[-1])
        ends.reverse()
        table.append(ends)
    return table


def _blocks(columns: list[list[int]], count: int, moduli=None) -> Iterator[list[list[int]]]:
    """The next `count` order-0 values of every difference column, in
    blocks, one list per column.  Each column is a table
    [nabla^D, ..., nabla^0] and is advanced in place; with `moduli` the
    tables are reduced mod their modulus after every block."""
    size = 8
    while count > 0:
        size = min(2 * size, _MAX_BLOCK, count)
        count -= size
        block = []
        for j, column in enumerate(columns):
            run = repeat(column[0], size)
            ends = [column[0]]
            for start in column[1:]:
                sums = accumulate(run, initial=start)
                next(sums)
                run = list(sums)
                ends.append(run[-1])
            columns[j] = ends if moduli is None else [e % moduli[j] for e in ends]
            block.append(run)
        yield block


def orbit_var(polys: PolyVector) -> str:
    """The variable an orbit runs in: its first, or "n" if it has none."""
    return polys.vars[0] if polys.vars else "n"


def orbit_points(polys: PolyVector, count: int) -> Iterator[tuple[int, ...]]:
    """The exact integer points p(1), ..., p(count).

    The first D + 1 points are evaluated (and raise the `eval_int`
    ValueError if p is not integer-valued: a polynomial of degree D that
    is integral at D + 1 consecutive integers is integral everywhere).
    Later points cost D big-integer additions per coordinate."""
    var = orbit_var(polys)
    head = []
    for n in range(1, 1 + min(count, polys.max_degree() + 1)):
        head.append(polys.eval_int({var: n}))
        yield head[-1]
    if count > len(head):
        for block in _blocks(_backward_table(head), count - len(head)):
            yield from zip(*block)


def check_orbit(polys: PolyVector, rows: Sequence[Sequence]) -> None:
    """Raise ValueError unless every row has one frequency per polynomial
    and every polynomial is integer-valued (`MPoly.integer_valued`)."""
    for row in rows:
        if len(row) != len(polys):
            raise ValueError(f"orbit of {len(polys)} polynomials has wrong dimension "
                             f"for a row of {len(row)} frequencies")
    for entry in polys:
        cert = entry.integer_valued()
        if not cert:
            raise ValueError(f"orbit entry {entry} is not integer-valued at {cert.witness}")


def _width(count: int, degree: int, precision: int) -> int:
    """Smallest W >= 0 with max(1, C(count - 1, degree)) * 2^-W <= 2^-precision."""
    bound = comb(count - 1, degree) if count > 0 else 1
    return max(0, precision + (max(bound, 1) - 1).bit_length())


def fixed_phases(
    polys: PolyVector, rows: Sequence[Sequence], count: int, precision: int
) -> tuple[tuple[int, ...], Iterator[list]]:
    """The moduli M_j, and blocks of the phases as integers a, congruent
    mod M_j but not reduced: one sequence per row in every block, after
    `check_orbit`.  a / M_j is within 2^-precision of <row_j, p(n)> mod 1
    on the circle for n = 1, ..., count (module docstring), and equal to it
    for a row of rationals (M_j = q_j)."""
    check_orbit(polys, rows)
    degree = polys.max_degree()
    width = _width(count, degree, precision)
    fixed = [FixedRow(row, width) for row in rows]
    moduli = tuple(f.modulus for f in fixed)
    head = list(orbit_points(polys, min(count, degree + 1)))

    def stream():
        yield [[f(point) for point in head] for f in fixed]
        if count > len(head):
            table = list(zip(*_backward_table(head)))
            columns = [[f(diff) % m for diff in table] for f, m in zip(fixed, moduli)]
            yield from _blocks(columns, count - len(head), moduli)

    return moduli, stream()


def reduction(m: int) -> tuple:
    """(op, b) with op(a, b) = a mod m: a mask for a power of two M = 2^W."""
    return (and_, m - 1) if m & (m - 1) == 0 else (mod, m)


def _floats(run: Iterable[int], m: int, scale: float) -> list[float]:
    """x * scale for the float x nearest (a mod m) / m, one float product.
    For m = 2^W, W <= 1022, scale >= 1, x = float(a mod m) 2^-W and
    step = scale 2^-W are exact (0 or normal floats), so float(a mod m) *
    step is the same product; otherwise x is the correctly rounded int / int."""
    op, b = reduction(m)
    if op is and_ and m.bit_length() <= 1023 and scale >= 1:
        step = ldexp(scale, 1 - m.bit_length())
        return list(map(mul, map(float, map(and_, run, repeat(b))), repeat(step)))
    return list(map(mul, map(truediv, map(op, run, repeat(b)), repeat(m)), repeat(scale)))


def phases(
    polys: PolyVector,
    rows: Sequence[Sequence[Real | Fraction | int | str]],
    count: int,
    precision: int,
    scale: float = 1.0,
) -> Iterator[list[list[float]]]:
    """frac(<row_j, p(n)>) for n = 1, ..., count as floats times `scale`
    (`_floats`), in the blocks of `fixed_phases`; before rounding, each phase
    is within 2^-precision of the true one on the circle (module docstring)."""
    moduli, blocks = fixed_phases(polys, rows, count, precision)
    for block in blocks:
        yield [_floats(run, m, scale) for run, m in zip(block, moduli)]


def residues(
    polys: PolyVector, row: Sequence[Real | Fraction | int | str], count: int | None = None
) -> tuple[int, Iterator[int]]:
    """q and the exact residues q <row, p(n)> mod q over one full period
    n = 1, ..., L, or over the first min(count, L) points, for a row of
    rationals with lcm denominator q.
    L = q d, where d is the lcm of the coefficient denominators of p: d p
    has integer coefficients, so p(n + q d) = p(n) mod q.  For integer
    coefficients L = q; an integer-valued p such as n (n + 1) / 2 can need
    more (its period mod 2 is 4)."""
    row = [Real.of(x) for x in row]
    if not all(x.is_rational() for x in row):
        raise ValueError("residues need a row of rationals")
    q = lcm(*(x.as_fraction().denominator for x in row))
    d = lcm(*(p.denominator for p in polys))
    period = q * d if count is None else min(count, q * d)
    (modulus,), blocks = fixed_phases(polys, [row], period, 0)
    return modulus, chain.from_iterable(map(mod, run, repeat(q)) for (run,) in blocks)
