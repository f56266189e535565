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
decided exactly, from fixed-point phases and, within their error of an
arc end, from the exact value at the point.  Both models answer
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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, product, repeat
from operator import add, mul
from typing import Callable, Iterable, Iterator, Sequence

from .fleeing import construct_fleeing_walk
from .generators import bogolubov_walk, kernel_basis, xy_minus_P_walks
from .kernel import fixed_phases, orbit_points, orbit_var, phases, residues
from .poly import MPoly, PolyVector, poly_parse
from .reals import DIGITS, FixedRow, Real, RootOfUnityMean
from .walks import Walk


def _bounds(moduli: Iterable[int], rows, radii) -> list[tuple]:
    """(M, floor((t + e) M), ceil((t - e) M), t, row) per row, with t = 2r
    and e = 10^-DIGITS (BohrSet docstring)."""
    e = Fraction(1, 10 ** DIGITS)
    return [(m, math.floor((2 * r + e) * m), math.ceil((2 * r - e) * m), 2 * r, row)
            for m, row, r in zip(moduli, rows, radii)]


def _verdicts(phases: Iterable[Sequence[int]], bounds,
              point: Callable[[int], Sequence[int]]) -> Iterator[bool]:
    """Membership in B - B per phase tuple, one a mod M per row; point(i)
    is the i-th point, read only to settle a row in the band (BohrSet
    docstring)."""
    for i, phase in enumerate(phases):
        verdict = True
        band = []
        for a, (m, outside, inside, t, row) in zip(phase, bounds):
            d = min(a, m - a)
            if d > outside:
                verdict = False
                break
            if d >= inside:
                band.append((t, row))
        if verdict and band:
            w = point(i)
            verdict = all(sum(map(Real.scale, row, w), Real(0)).circle_distance_below(t)
                          for t, row in band)
        yield verdict


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
    and every verdict is decided exactly.  Each row's phase is an integer
    a mod M with a / M within e = 10^-DIGITS of the true value: a single
    query reads one `reals.FixedRow` per row built at width DIGITS, and
    `difference_verdicts` reads the kernel's `fixed_phases` at precision
    DIGITS.  One loop, `_verdicts`, compares d = min(a, M - a) with the
    integers floor((t + e) M) and ceil((t - e) M) of `_bounds`: above the
    first on some row is False, below the second on every row True.  A
    row in between, in the band [t - e, t + e], is settled at the point w
    itself: x = <row, w> as an exact Real, and
    `Real.circle_distance_below(t)` compares its distance with t, exactly
    for a rational x and at doubling precision otherwise.

    Proofs.  (1) The fast path is certain.  Circle distance is
    1-Lipschitz, so d / M is within e of the true distance; and
    d > floor((t + e) M) iff d / M > t + e, d < ceil((t - e) M) iff
    d / M < t - e.  So False means a true distance above t, and True one
    below t.  (2) A tie is never in B - B.  If w = b1 - b2 with b1, b2 in
    B, the triangle inequality gives
    dist(<row, w>) <= dist(<row, b1>) + dist(<row, b2>) < 2r = t, with or
    without density; so a distance of exactly t is False.  (3) Settling
    ends.  A rational x is compared exactly.  An irrational x has an
    irrational distance, which never equals the rational t, and a read
    within 10^-p of it stops as soon as 2 10^-p is below their gap.
    """

    def __init__(self, dim: int, rows: Sequence[Sequence[Real | Fraction | int | str]],
                 radii: Sequence[Fraction | str]):
        super().__init__(rows, dim)
        self.radii = tuple(Fraction(r) for r in radii)
        if len(self.radii) != self.torus_dim:
            raise ValueError("one radius per torus coordinate required")
        check_radii(self.radii)
        self._fixed = [FixedRow(row, DIGITS) for row in self.rows]
        self._bounds = _bounds((f.modulus for f in self._fixed), self.rows, self.radii)

    def contains_difference(self, w: Sequence[int]) -> bool:
        """True iff the box and its translate by frac(A w) overlap in every
        coordinate (which yields an actual pair b, b + w in the set when
        the torus image is dense)."""
        w = [int(x) for x in w]
        if len(w) != self.dim:
            raise ValueError(f"vector {w} has wrong dimension")
        (verdict,) = _verdicts([[f(w) % f.modulus for f in self._fixed]], self._bounds,
                               lambda i: w)
        return verdict

    def difference_verdicts(self, polys: PolyVector, count: int) -> Iterator[bool]:
        """`contains_difference` at the orbit points p(1), ..., p(count),
        from one kernel phase stream."""
        moduli, blocks = fixed_phases(polys, self.rows, count, DIGITS)
        phases = chain.from_iterable(zip(*block) for block in blocks)
        return _verdicts(phases, _bounds(moduli, self.rows, self.radii),
                         lambda i: polys.eval_int({orbit_var(polys): i + 1}))

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


@dataclass(frozen=True)
class SearchResult:
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
    for n, verdict in enumerate(oracle.difference_verdicts(polys, n_max), start=1):
        if verdict:
            return SearchResult(Status.FOUND, n, polys.eval_int({orbit_var(polys): n}))
    return SearchResult(Status.EXHAUSTED, None, None)


# -- experiments ---------------------------------------------------------------

@dataclass(frozen=True)
class TargetRecord:
    target: int
    status: Status
    n: int | None
    witness: tuple[int, ...] | None
    f_value: int | None
    millis: float


@dataclass(frozen=True)
class ExperimentReport:
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


@dataclass(frozen=True)
class Corollary:
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


def weyl_sums(
    polys: PolyVector,
    rows: Sequence[Sequence[Real | Fraction | int | str]],
    n_count: int,
) -> list[complex]:
    """(1/N) sum_{n=1}^{N} e(<row, p(n)>) for every row, in double precision.

    All rows are read from one `kernel.phases` stream, each phase within
    10^-DIGITS of the true one before rounding to a float.  Per row the
    terms t_n (cos, then sin, of 2 pi x_n) of a block are summed by
    `math.fsum`, and the block totals by one more, so one block is held.

    Error bound.  Let u = 2^-53, S = sum t_n and S_k the sum over block k.
    `math.fsum` returns the float nearest the exact sum of its inputs, so
    b_k = S_k (1 + d_k) and T = (sum b_k)(1 + d) with |d_k|, |d| <= u:
        |T - S| <= u |sum b_k| + u sum |S_k| <= u |S| + (u + u^2) sum |S_k|
                <= (2u + u^2) sum |t_n| <= (2u + u^2) N.
    Kahan summation is within (2u + O(N u^2)) sum |t_n| (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 4.3); this bound is no
    worse and does not grow with N.  Both then divide by N, one rounding."""
    check_sample_count(n_count)
    totals = [([], []) for _ in rows]
    for block in phases(polys, rows, n_count, DIGITS):
        for (re, im), run in zip(totals, block):
            angles = list(map(mul, run, repeat(2.0 * math.pi)))
            re.append(math.fsum(map(math.cos, angles)))
            im.append(math.fsum(map(math.sin, angles)))
    return [complex(math.fsum(re) / n_count, math.fsum(im) / n_count) for re, im in totals]


def weyl_sum_rational(
    polys: PolyVector,
    thetas: Sequence[Real | Fraction | int | str],
    n_count: int | None = None,
    phase=0,
) -> RootOfUnityMean:
    """Exact root-of-unity evaluation of the Weyl average for rational
    frequencies, over n = 1, ..., n_count or one full period, times
    e(phase): phases lie in (1/q) Z / Z and repeat with a period that
    `residues` works out from q and the coefficient denominators."""
    q, stream = residues(polys, thetas)
    period = list(stream)
    n_count = len(period) if n_count is None else n_count
    cycles, remainder = divmod(n_count, len(period))
    counts = [0] * q
    for i, j in enumerate(period):
        counts[j] += cycles + (i < remainder)
    return RootOfUnityMean(q, tuple(counts), n_count, phase)
