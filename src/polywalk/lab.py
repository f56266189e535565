"""Desk-scale search experiments: set models with difference-set oracles,
orbit searches along walks, and Weyl-sum diagnostics.

One `Torus`, the map v -> A v mod 1 for rows of exact reals, checks the
rows and finds the integer m with A^T m rational (`Torus.relations`); a
BohrSet adds radii to it, and `ergodic.TorusSystem` a base point.

Two set models are supported, and each is an oracle for its difference
set B - B, the one question the experiments ask of a set.  A WindowSet is
an explicit finite subset of a box [0, side)^d, and answers a query by
scanning its points.  A BohrSet is the preimage of a box on a torus under
v -> A v mod 1, given by rows and radii alone; every query of it is
decided exactly by one block-wise integer arc test (`_arc_verdicts`),
from fixed-point phases and, within their error of an arc end, from the
exact value at the point.  The box averages of `ergodic` are counted by
the same test (`orbit_arc_verdicts`).  Both models answer
difference queries along a whole polynomial orbit through
`difference_verdicts`, which the orbit search reads.

The experiments are the paper's Bogolubov-type corollaries, one row each
of the `Corollary` table (`MAGYAR` for x*y - P(z), `BOGOLUBOV` for
x - P(y)).  One driver, `corollary_experiment`, runs either: per target it
builds a fleeing walk from a start vector in k Z^d, searches its orbit for
a point of B - B, and re-validates each hit independently.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from enum import Enum
from fractions import Fraction
from itertools import chain, compress, product, repeat
from operator import add, floordiv, mul, ne, truediv
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .fleeing import construct_fleeing_walk
from .generators import bogolubov_walk, kernel_basis, xy_minus_P_walks
from .kernel import fixed_phases, orbit_points, orbit_var, phases, reduction, residues
from .poly import MPoly, PolyVector, poly_parse
from .reals import BITS, FixedRow, Real, RootOfUnityMean
from .walks import Walk


class _Arc(NamedTuple):
    """One row's arc test dist(x + s) < t on integers a, a / M within
    2^-BITS of x mod 1: y = (g a + lift) mod g M, that is
    reduce(g a + lift, by), is in `near` unless surely outside, and in
    `inner` iff surely inside (BohrSet docstring)."""

    scale: int
    reduce: Callable[[int, int], int]
    by: int
    lift: int
    near: range
    inner: range
    t: Fraction
    row: tuple[Real, ...]
    shift: Real

    @classmethod
    def of(cls, m: int, t: Fraction, row, shift: Real = Real(0)) -> _Arc:
        g, c, error = 1, 0, Fraction(0)
        if shift != 0:
            exact = shift.is_rational()
            if all(x.is_rational() for x in row):   # read the shift at lcm(M, v)
                g = math.lcm(m, shift.as_fraction().denominator if exact else 1 << BITS) // m
                m *= g
            read = shift.approx(m.bit_length() + 3)   # within 1 / (8 M), exact if rational
            c = round(read * m)
            error = abs(c - read * m) if exact else Fraction(1)
        e = Fraction(1, 1 << BITS) + error / m
        out = math.floor((t + e) * m)
        k = math.ceil((t - e) * m) - 1
        if 2 * out < m:
            return cls(g, *reduction(m), c + out, range(2 * out + 1),
                       range(out - k, out + k + 1), t, row, shift)
        inner = range(m) if 2 * k >= m else range(2 * k + 1)
        return cls(g, *reduction(m), c + k, range(m), inner, t, row, shift)


def _every(flags: list[Iterator[bool]]) -> Iterator[bool]:
    """Per point, whether every row's flag holds: one iterator per row."""
    return flags[0] if len(flags) == 1 else map(all, zip(*flags))


def _arc_verdicts(blocks: Iterable[Sequence[Iterable[int]]], arcs,
                  point: Callable[[int], Sequence[int]]) -> Iterator[list[bool]]:
    """Per block of phases (one run of integers a per row, congruent mod
    M), the verdicts of every row's arc test, one per point; point(i) is
    the i-th point, read only to settle a point in the band (BohrSet
    docstring)."""
    start = 0
    for block in blocks:
        ys = []
        for run, arc in zip(block, arcs):
            if arc.scale != 1:
                run = map(mul, run, repeat(arc.scale))
            ys.append(list(map(arc.reduce, map(add, run, repeat(arc.lift)), repeat(arc.by))))
        verdicts = list(_every([map(arc.inner.__contains__, y) for y, arc in zip(ys, arcs)]))

        def near():
            return _every([map(arc.near.__contains__, y) for y, arc in zip(ys, arcs)])

        if sum(near()) != sum(verdicts):
            for i in compress(range(len(verdicts)), map(ne, near(), verdicts)):
                w = point(start + i)
                verdicts[i] = all(
                    sum(map(Real.scale, arc.row, w), arc.shift).circle_distance_below(arc.t)
                    for y, arc in zip(ys, arcs) if y[i] not in arc.inner)
        start += len(verdicts)
        yield verdicts


def orbit_arc_verdicts(polys: PolyVector, rows, thresholds, count: int,
                       shifts=None) -> Iterator[list[bool]]:
    """Per block, whether dist(<row_j, p(n)> + shift_j) < t_j on every row j,
    for n = 1, ..., count: the arc test on one kernel stream, each shift
    (default 0) read at the row's modulus (BohrSet docstring)."""
    moduli, blocks = fixed_phases(polys, rows, count, BITS)
    arcs = list(map(_Arc.of, moduli, thresholds, rows, shifts or repeat(Real(0))))
    var = orbit_var(polys)
    return _arc_verdicts(blocks, arcs, lambda i: polys.eval_int({var: i + 1}))


class WindowSet:
    """Finite subset of [0, side)^d, as an oracle for B - B.

    A difference query w is answered by one rule: False when some
    |w_j| >= side (differences of points in [0, side) lie strictly inside
    (-side, side)), else True iff b + w is a point for some point b, a
    scan of the points with early exit.  Queries change no state."""

    def __init__(self, dim: int, side: int, points: Iterable[Sequence[int]]):
        if side < 1:
            raise ValueError(f"window side must be >= 1, got {side}")
        self.dim = dim
        self.side = side
        self.points = frozenset(tuple(int(x) for x in p) for p in points)
        for p in self.points:
            if len(p) != dim or any(not (0 <= x < side) for x in p):
                raise ValueError(f"point {p} outside the window [0,{side})^{dim}")

    @classmethod
    def random(cls, dim: int, side: int, density: float, seed: int) -> WindowSet:
        if not 0 <= density <= 1:
            raise ValueError(f"window density must be in [0, 1], got {density}")
        rng = random.Random(seed)
        points = [
            p for p in product(range(side), repeat=dim) if rng.random() < density
        ]
        return cls(dim, side, points)

    @property
    def density(self) -> float:
        return len(self.points) / self.side ** self.dim

    def contains_difference(self, w: Sequence[int]) -> bool:
        """True iff w = b1 - b2 for some b1, b2 in the set."""
        w = tuple(int(x) for x in w)
        if len(w) != self.dim:
            raise ValueError(f"difference {w} has wrong dimension")
        if any(abs(x) >= self.side for x in w):
            return False
        points = self.points
        return any(tuple(map(add, b, w)) in points for b in points)

    def difference_verdicts(self, polys: PolyVector, count: int) -> Iterator[bool]:
        """contains_difference at the orbit points p(1), ..., p(count)."""
        return map(self.contains_difference, orbit_points(polys, count))

    def describe(self) -> str:
        return f"window dim={self.dim} side={self.side} points={len(self.points)}"


def check_radii(radii: Iterable[Fraction]) -> None:
    """Raise ValueError unless every arc radius r has 0 < r < 1/2."""
    for r in radii:
        if not (0 < r < Fraction(1, 2)):
            raise ValueError(f"radius {r} outside (0, 1/2)")


class Torus:
    """The map v -> A v mod 1 from Z^dim to T^torus_dim: `rows` holds the
    torus_dim >= 1 rows of A, each of dim exact reals (dim defaults to the
    length of the first row)."""

    def __init__(self, rows: Sequence[Sequence[Real | Fraction | int | str]], dim=None):
        self.rows = tuple(tuple(Real.of(x) for x in row) for row in rows)
        self.torus_dim = len(self.rows)
        if self.torus_dim == 0:
            raise ValueError("need at least one torus coordinate")
        self.dim = len(self.rows[0]) if dim is None else dim
        for row in self.rows:
            if len(row) != self.dim:
                raise ValueError(f"frequency row {row} does not have {self.dim} entries")

    def transposed_row(self, freq: Sequence[int]) -> tuple[Real, ...]:
        """A^T m: the frequency vector of the character v -> e(<m, A v>) of Z^dim."""
        if len(freq) != self.torus_dim:
            raise ValueError(f"frequency {freq} has wrong dimension")
        return tuple(sum((row[i].scale(m) for row, m in zip(self.rows, freq) if m), Real(0))
                     for i in range(self.dim))

    def relations(self) -> list[tuple[int, ...]]:
        """A basis of the integer m with A^T m rational (empty iff the image
        of Z^dim is dense, torus_dim vectors iff A is rational): the kernel
        of one equation per named constant c and column i, that the
        c-coordinate of sum_j m_j A_ji is 0, from one `kernel_basis` call."""
        names = sorted({name for row in self.rows for x in row for name in x.basis()[1]})
        equations = [[row[i].basis()[1].get(name, Fraction(0)) for row in self.rows]
                     for name in names for i in range(self.dim)]
        return [tuple(map(int, m)) for m in kernel_basis(equations, self.torus_dim)]


class BohrSet(Torus):
    """Preimage of a torus box under v -> A v mod 1, as an oracle for B - B.

    A `Torus` (the rows of A) plus one radius per row: the box is the
    open B = {v : dist(<row_j, v>) < r_j for every j}, with dist
    the distance to the nearest integer.  Aperiodicity (dense image of the
    torus map, that is no `relations()`) is not verified; the
    difference oracle relies on it.  The box is centred at 0: other arc
    centres only translate the box on the torus, which leaves box - box
    and so every answer unchanged.

    w is in B - B when dist(<row_j, w>) is below t_j = 2 r_j for every j,
    and every verdict is decided exactly, by the arc test below.

    The arc test.  `_arc_verdicts` decides dist(x_j + s_j) < t_j on every
    row j at each point w of a block, x_j = <row_j, w>, s_j a constant
    shift: 0 with t = 2r for this set, x0_j - c_j (base point minus arc
    centre) with t = r for the box counts of `ergodic.empirical_average`.
    Each phase is an integer a with a / M within 2^-BITS of x mod 1: a
    `reals.FixedRow` per row built at width BITS for a single query, the
    kernel's `fixed_phases` at precision BITS for a scan; M = 2^W on a row
    with an irrational entry, M = q on a row of rationals.  The shift is
    read once, as the integer c nearest M s (`_Arc.of`); a row of
    rationals, whose M = q is small, first scales a and M by
    g = lcm(M, v) / M, v the denominator of a rational s and 2^BITS
    otherwise.  |c - M s| is exact for a rational s and below 1/2 + 1/8
    otherwise, so (a + c) / M is within e = 2^-BITS + |c - M s| / M,
    or 2^-BITS + 1/M, of x + s mod 1.  With d the distance of a + c to
    the nearest multiple of M, O = floor((t + e) M) and
    K = ceil((t - e) M) - 1, d > O is surely outside, d <= K surely
    inside, and the rest is the band.  Per block and row one shifted
    residue y = (a + c + O) mod M, a mask by M - 1 when M is a power of
    two, and one range test per point run in C
    (`map`): d <= O iff y <= 2 O, and d <= K iff |y - O| <= K.  If
    2 O >= M every d is at most O, and y = (a + c + K) mod M gives d <= K
    iff y <= 2 K (always, if 2 K >= M).  Only a point near on every row
    but not inside on all reaches Python.  It is settled at w itself:
    x + s as an exact Real on each row not surely inside, and
    `Real.circle_distance_below(t)` compares its distance with t, exactly
    for a rational value and at doubling precision otherwise.

    Proofs.  (1) The fast path is certain.  Circle distance is
    1-Lipschitz, so d / M is within e of the true distance, and d > O iff
    d / M > t + e, d <= K iff d / M < t - e.  For 2 O < M, y runs over
    [O, 2 O] as a + c runs over [0, O] mod M, over [0, O) for [M - O, M),
    and over (2 O, M) otherwise; and K <= O, so |y - O| <= K picks exactly
    the residues within K of 0.  Without the shift's read error e would be
    too small, and a verdict could fall on the wrong side of t.  (2) A tie
    is never in B - B.  For w = b1 - b2 with b1, b2 in B,
    dist(<row, w>) <= dist(<row, b1>) + dist(<row, b2>) < 2r = t, with or
    without density, so a distance of exactly t is False.  A box is open,
    so a distance of exactly r is outside it too.  (3) Settling ends.  A
    rational x + s is compared exactly.  An irrational one has an
    irrational distance, which never equals the rational t, and a read
    within 2^-p of it stops as soon as 2^(1-p) is below their gap.
    """

    def __init__(self, dim: int, rows: Sequence[Sequence[Real | Fraction | int | str]],
                 radii: Sequence[Fraction | str]):
        super().__init__(rows, dim)
        self.radii = tuple(Fraction(r) for r in radii)
        if len(self.radii) != self.torus_dim:
            raise ValueError("one radius per torus coordinate required")
        check_radii(self.radii)
        self._fixed = [FixedRow(row, BITS) for row in self.rows]
        self._arcs = [_Arc.of(f.modulus, 2 * r, row)
                      for f, r, row in zip(self._fixed, self.radii, self.rows)]

    def contains_difference(self, w: Sequence[int]) -> bool:
        """True iff the box and its translate by frac(A w) overlap in every
        coordinate (which yields an actual pair b, b + w in the set when
        the torus image is dense)."""
        w = [int(x) for x in w]
        if len(w) != self.dim:
            raise ValueError(f"vector {w} has wrong dimension")
        ((verdict,),) = _arc_verdicts([[[f(w)] for f in self._fixed]], self._arcs,
                                      lambda i: w)
        return verdict

    def difference_verdicts(self, polys: PolyVector, count: int) -> Iterator[bool]:
        """`contains_difference` at the orbit points p(1), ..., p(count),
        from one kernel phase stream."""
        return chain.from_iterable(
            orbit_arc_verdicts(polys, self.rows, [2 * r for r in self.radii], count))

    def describe(self) -> str:
        rows = "; ".join(
            "(" + ", ".join(repr(x) for x in row) + ")" for row in self.rows
        )
        radii = ", ".join(str(r) for r in self.radii)
        return f"bohr dim={self.dim} torus_dim={self.torus_dim} freq=[{rows}] radii=[{radii}]"


SetModel = WindowSet | BohrSet


# -- orbit search -------------------------------------------------------------

class Status(Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"

    def __str__(self) -> str:
        return self.value


class SearchResult(NamedTuple):
    """Outcome of `twisted_search`.  `n` and `point` are set when FOUND."""

    status: Status
    n: int | None
    point: tuple[int, ...] | None

    def found(self) -> bool:
        return self.status is Status.FOUND


def check_n_max(n_max: int) -> None:
    """Raise ValueError unless the search range [1, n_max] is not empty."""
    if n_max < 1:
        raise ValueError(f"N_max must be >= 1, got {n_max}")


def twisted_search(
    polys: PolyVector,
    oracle: SetModel,
    n_max: int,
) -> SearchResult:
    """The least n in [1, n_max] whose orbit point polys(n) lands in B - B.

    The scan reads the oracle's `difference_verdicts` along the symbolic
    orbit polynomials in `n` (the search path), and evaluates the point
    once, at the hit.  Experiment validation re-applies the walk directly
    and asks the per-query oracle, keeping the two routes independent.
    """
    check_n_max(n_max)
    n = next(compress(range(1, n_max + 1), oracle.difference_verdicts(polys, n_max)), None)
    if n is None:
        return SearchResult(Status.EXHAUSTED, None, None)
    return SearchResult(Status.FOUND, n, polys.eval_int({orbit_var(polys): n}))


# -- experiments ---------------------------------------------------------------

class TargetRecord(NamedTuple):
    target: int
    status: Status
    n: int | None
    witness: tuple[int, ...] | None
    f_value: int | None
    millis: float


class ExperimentReport(NamedTuple):
    kind: str
    records: tuple[TargetRecord, ...]
    config: dict
    seed: int

    def all_found(self) -> bool:
        return all(r.status is Status.FOUND for r in self.records)

    def exit_status(self) -> int:
        return 0 if self.all_found() else 2

    def to_text(self) -> str:
        lines = [f"experiment {self.kind}", f"seed {self.seed}"]
        for key in sorted(self.config):
            lines.append(f"config {key} = {self.config[key]}")
        for r in self.records:
            if r.status is Status.FOUND:
                witness = " ".join(str(x) for x in r.witness)
                lines.append(
                    f"target {r.target}: found n={r.n} witness=({witness}) F={r.f_value}"
                )
            else:
                lines.append(f"target {r.target}: {r.status}")
        # timing is isolated below this marker so the body stays reproducible
        lines.append("# timing (millis per target)")
        for r in self.records:
            lines.append(f"# {r.target}: {r.millis:.1f}")
        return "\n".join(lines) + "\n"

    def csv_rows(self) -> list[list[str]]:
        width = max((len(r.witness) for r in self.records if r.witness), default=0)
        header = ["target", "status", "n"]
        header += [f"w{i + 1}" for i in range(width)]
        header += ["f_value", "millis"]
        rows = [header]
        for r in self.records:
            witness = list(r.witness) if r.witness else []
            witness += [""] * (width - len(witness))
            rows.append(
                [str(r.target), str(r.status), "" if r.n is None else str(r.n)]
                + [str(x) for x in witness]
                + ["" if r.f_value is None else str(r.f_value), f"{r.millis:.1f}"]
            )
        return rows

    def to_csv(self) -> str:
        return "\n".join(",".join(row) for row in self.csv_rows()) + "\n"


def _single_var_name(p: MPoly) -> str:
    support = p.support()
    if len(support) != 1:
        raise ValueError(f"expected a univariate polynomial, got support {support}")
    return support[0]


class Corollary(NamedTuple):
    """One Bogolubov-type corollary of the twisted recurrence, as a search.

    Each row fixes a form F = `form_part` - P(last coordinate) on
    `coords`, the walks preserving F (`walks(P)`), the targets F may take
    (non-zero if `nonzero`, multiples of k^`power`), and a start vector
    `start(k, target)` in k Z^d with F = target, since P(0) = 0:

        MAGYAR     x*y - P(z), v = (k, target/k, 0), target non-zero in k^2 Z
        BOGOLUBOV  x - P(y),   v = (target, 0),      target in k Z

    The fleeing walk over the generators preserves F, and time-scaling it
    by k keeps the orbit in k Z^d, so each hit is a point of k Z^d in
    B - B on which F takes the target value."""

    name: str
    help: str
    coords: tuple[str, ...]
    form_part: str
    walks: Callable[[MPoly], Sequence[Walk]]
    power: int
    nonzero: bool
    start: Callable[[int, int], tuple[int, ...]]

    def check(self, p: MPoly, oracle: SetModel, k: int, targets: Sequence[int]) -> None:
        """Raise ValueError unless the set model has one coordinate per
        coordinate of the form, k >= 1, every target lies in the target
        lattice and P is univariate."""
        if oracle.dim != len(self.coords):
            raise ValueError(f"{self.name} needs a set model of dimension "
                             f"{len(self.coords)}, got dimension {oracle.dim}")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        step = k ** self.power
        for target in targets:
            if (self.nonzero and target == 0) or target % step != 0:
                lattice = "k" if self.power == 1 else f"k^{self.power}"
                raise ValueError(f"target {target} is not a "
                                 f"{'non-zero ' if self.nonzero else ''}"
                                 f"multiple of {lattice}={step}")
        _single_var_name(p)


# the walk builders are looked up by name at each call, as a direct
# caller's would be, so a patched module binding reaches the rows too
MAGYAR = Corollary("magyar", "difference-set search for x*y - P(z) targets",
                   ("x", "y", "z"), "x*y", lambda p: list(xy_minus_P_walks(p)), 2, True,
                   lambda k, target: (k, target // k, 0))
BOGOLUBOV = Corollary("bogolubov", "difference-set search for x - P(y) targets",
                      ("x", "y"), "x", lambda p: [bogolubov_walk(p)], 1, False,
                      lambda k, target: (target, 0))
COROLLARIES = {c.name: c for c in (MAGYAR, BOGOLUBOV)}


def corollary_experiment(
    corollary: Corollary,
    p: MPoly,
    oracle: SetModel,
    k: int,
    targets: Sequence[int],
    n_max: int,
    seed: int = 0,
) -> ExperimentReport:
    """Search for differences realizing each target value of the
    corollary's form, one fleeing walk per target (`Corollary`)."""
    corollary.check(p, oracle, k, targets)
    var = _single_var_name(p)
    walks = corollary.walks(p)
    coords = corollary.coords
    form = (poly_parse(corollary.form_part, coords)
            - p.substitute({var: MPoly.var(coords, coords[-1])}).extend(coords))
    records = []
    for target in targets:
        start = time.perf_counter()
        v = corollary.start(k, target)
        cert = construct_fleeing_walk(walks, v)
        # the certificate's orbit at time k*n is the orbit of the walk
        # time-scaled by k
        orbit = cert.orbit_poly
        if k != 1:
            orbit = orbit.substitute({"n": MPoly.var(("n",), "n") * k})
        result = twisted_search(orbit, oracle, n_max)
        millis = (time.perf_counter() - start) * 1000.0
        if result.found():
            # independent re-validation: direct walk application, a fresh
            # difference query, and the exact form value
            scaled = cert.final_walk.time_scale(k)
            witness = scaled.apply(result.n, v)
            if witness != result.point:
                raise AssertionError("orbit-poly point disagrees with walk application")
            if not oracle.contains_difference(witness):
                raise AssertionError("witness fails difference re-validation")
            f_value = form.eval(dict(zip(scaled.coords, witness)))
            if f_value != target:
                raise AssertionError(
                    f"form value {f_value} does not match target {target}"
                )
            records.append(TargetRecord(target, Status.FOUND, result.n,
                                        witness, f_value.numerator, millis))
        else:
            records.append(TargetRecord(target, result.status, None, None, None, millis))
    config = {
        "experiment": corollary.name, "P": str(p), "k": str(k),
        "targets": " ".join(str(t) for t in targets),
        "N_max": str(n_max), "oracle": oracle.describe(),
    }
    return ExperimentReport(corollary.name, tuple(records), config, seed)


# -- Weyl sums ------------------------------------------------------------------

def check_sample_count(n_count: int) -> None:
    """Raise ValueError unless an average over n = 1, ..., N has N >= 1."""
    if n_count < 1:
        raise ValueError("N must be >= 1")


def residue_counts(
    polys: PolyVector, row: Sequence[Real | Fraction | int | str], n_count: int | None = None
) -> tuple[int, int, dict[int, int]]:
    """q, N and, for each residue j that occurs, the number of
    n = 1, ..., N with q <row, p(n)> = j mod q, for a row of rationals;
    N = n_count, or one full period L of `residues`.  Only the first
    min(N, L) residues are streamed: they repeat with period L."""
    q, stream = residues(polys, row, n_count)
    head = list(stream)
    n_count = len(head) if n_count is None else n_count
    cycles, rest = divmod(n_count, len(head))
    counts = Counter(head[:rest])
    counts.update({j: c * cycles for j, c in Counter(head).items()})
    return q, n_count, counts


def _weighted_fsum(terms: Iterable[float], weights: Sequence[int]) -> float:
    """The float nearest sum w_i t_i, exactly: each t_i is an integer over a
    power of two, so the sum is one integer over the largest of them, and
    int / int is correctly rounded."""
    nums, dens = zip(*map(float.as_integer_ratio, terms))
    top = max(dens)
    return sum(map(mul, map(mul, nums, weights), map(floordiv, repeat(top), dens))) / top


def weyl_sums(
    polys: PolyVector,
    rows: Sequence[Sequence[Real | Fraction | int | str]],
    n_count: int,
) -> list[complex]:
    """(1/N) sum_{n=1}^{N} e(<row, p(n)>) for every row, in double precision.

    The terms are t_n = cos, then sin, of x_n * 2 pi, x_n the float phase
    of the point n.  Rows with an irrational entry are read from one
    `kernel.phases` stream, whose scale 2 pi gives the products x_n * 2 pi,
    each phase within 2^-BITS of the true one before rounding to a float;
    per row the terms of a block are summed by `math.fsum`, and the block
    totals by one more, so one block is held.
    A row of rationals is not streamed: x_n = j / q for its residue j
    (`residue_counts`), so the same terms are sum_j c_j t_j over the counts
    c_j of each residue, summed exactly and rounded once (`_weighted_fsum`).

    Error bound.  Let u = 2^-53, S = sum t_n and S_k the sum over block k.
    `math.fsum` returns the float nearest the exact sum of its inputs, so
    b_k = S_k (1 + d_k) and T = (sum b_k)(1 + d) with |d_k|, |d| <= u:
        |T - S| <= u |sum b_k| + u sum |S_k| <= u |S| + (u + u^2) sum |S_k|
                <= (2u + u^2) sum |t_n| <= (2u + u^2) N.
    A row of rationals has |T - S| <= u |S|, within the same bound.  Kahan
    summation is within (2u + O(N u^2)) sum |t_n| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 4.3); this bound is no
    worse and does not grow with N.  All then divide by N, one rounding."""
    check_sample_count(n_count)
    rows = [[Real.of(x) for x in row] for row in rows]
    exact = [all(x.is_rational() for x in row) for row in rows]
    streamed = [row for row, rational in zip(rows, exact) if not rational]
    totals = [([], []) for _ in streamed]
    for block in phases(polys, streamed, n_count, BITS, 2.0 * math.pi) if streamed else ():
        for (re, im), angles in zip(totals, block):
            re.append(math.fsum(map(math.cos, angles)))
            im.append(math.fsum(map(math.sin, angles)))
    sums = iter([complex(math.fsum(re) / n_count, math.fsum(im) / n_count)
                 for re, im in totals])
    return [_rational_weyl_sum(polys, row, n_count) if rational else next(sums)
            for row, rational in zip(rows, exact)]


def _rational_weyl_sum(polys: PolyVector, row: Sequence[Real], n_count: int) -> complex:
    """The `weyl_sums` value of a row of rationals, from its residue counts."""
    q, _, counts = residue_counts(polys, row, n_count)
    angles = list(map(mul, map(truediv, counts, repeat(q)), repeat(2.0 * math.pi)))
    weights = list(counts.values())
    return complex(_weighted_fsum(map(math.cos, angles), weights) / n_count,
                   _weighted_fsum(map(math.sin, angles), weights) / n_count)


def weyl_sum_rational(
    polys: PolyVector,
    thetas: Sequence[Real | Fraction | int | str],
    n_count: int | None = None,
    phase=0,
) -> RootOfUnityMean:
    """Exact root-of-unity evaluation of the Weyl average for rational
    frequencies, over n = 1, ..., n_count or one full period, times
    e(phase), from the counts of `residue_counts`."""
    q, n_count, counts = residue_counts(polys, thetas, n_count)
    dense = [0] * q
    for j, c in counts.items():
        dense[j] = c
    return RootOfUnityMean(q, tuple(dense), n_count, phase)
