"""Desk-scale search experiments: set models with difference-set oracles,
orbit searches along walks, and Weyl-sum diagnostics.

Two set models are supported.  A WindowSet is an explicit finite subset of
a box [0, side)^d with an exact difference-set index.  A BohrSet is the
preimage of a box on a torus under v -> A v mod 1; its membership and
difference queries are decided at high decimal precision with a guard band,
and a query too close to an arc boundary raises IndeterminateError rather
than guessing.  Both models answer difference queries along a whole
polynomial orbit through `difference_verdicts`, which the orbit search
reads; the Bohr set decides those from the kernel's fixed-point phases.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .fleeing import construct_fleeing_walk
from .generators import bogolubov_walk, xy_minus_P_walks
from .kernel import fixed_phases, orbit_points, phases, residues
from .poly import MPoly, PolyVector
from .reals import (
    DEFAULT_PRECISION,
    GUARD_BAND,
    KahanSum,
    Real,
    RootOfUnityMean,
    circle_distance,
    dot_frac,
)
from .walks import Walk

# Windows with more points than this never materialize a difference index;
# neither do point sets whose pair count would exceed the pair bound.
INDEX_POINT_LIMIT = 10 ** 6
INDEX_PAIR_LIMIT = 4 * 10 ** 6

# Decimal digits of the Bohr scan's phases at the least: 10^-19 is a tenth
# of the guard band, whatever precision the set was given.
_SCAN_DIGITS = len(str(GUARD_BAND.denominator))


class IndeterminateError(RuntimeError):
    """A membership decision fell inside the precision guard band."""


class WindowSet:
    """Finite subset of [0, side)^d with cached difference-set membership.

    Difference queries scan the points until answering them has cost about
    as much as building the index of all pairs would (one scan per point),
    and use the index from then on."""

    def __init__(self, dim: int, side: int, points: Iterable[Sequence[int]]):
        self.dim = dim
        self.side = side
        self.points = frozenset(tuple(int(x) for x in p) for p in points)
        for p in self.points:
            if len(p) != dim or any(not (0 <= x < side) for x in p):
                raise ValueError(f"point {p} outside the window [0,{side})^{dim}")
        self._diff_index: frozenset | None = None
        self._scans = 0

    @classmethod
    def random(cls, dim: int, side: int, density: float, seed: int) -> WindowSet:
        rng = random.Random(seed)
        points = [
            p for p in _box_points(dim, side) if rng.random() < density
        ]
        return cls(dim, side, points)

    @property
    def density(self) -> float:
        return len(self.points) / self.side ** self.dim

    def contains(self, v: Sequence[int]) -> bool:
        return tuple(v) in self.points

    def _use_index(self) -> bool:
        if self.side ** self.dim > INDEX_POINT_LIMIT:
            return False
        return len(self.points) ** 2 <= INDEX_PAIR_LIMIT

    def contains_difference(self, w: Sequence[int]) -> bool:
        """True iff w = b1 - b2 for some b1, b2 in the set."""
        w = tuple(int(x) for x in w)
        if len(w) != self.dim:
            raise ValueError(f"difference {w} has wrong dimension")
        if any(abs(x) >= self.side for x in w):
            return False
        if self._diff_index is not None:
            return w in self._diff_index
        if self._scans >= len(self.points) and self._use_index():
            self._diff_index = frozenset(
                tuple(a - b for a, b in zip(p1, p2))
                for p1 in self.points
                for p2 in self.points
            )
            return w in self._diff_index
        # per-query scan with early exit
        self._scans += 1
        for b in self.points:
            if tuple(a + c for a, c in zip(b, w)) in self.points:
                return True
        return False

    def difference_verdicts(self, polys: PolyVector, count: int) -> Iterator[bool]:
        """contains_difference at the orbit points p(1), ..., p(count)."""
        return map(self.contains_difference, orbit_points(polys, count))

    def describe(self) -> str:
        return f"window dim={self.dim} side={self.side} points={len(self.points)}"


def _box_points(dim: int, side: int):
    if dim == 0:
        yield ()
        return
    for head in range(side):
        for rest in _box_points(dim - 1, side):
            yield (head, *rest)


class BohrSet:
    """Preimage of a torus box under v -> A v mod 1.

    `freq` holds the rows of A (torus_dim rows of dim exact reals); the box
    is given by arc centers and radii.  Aperiodicity (dense image of the
    torus map) is declared by the configuration, not verified; the
    difference oracle relies on it.

    A difference w is in B - B when the circle distance of frac(<row_j, w>)
    to 0 is below 2 r_j on every coordinate j.  With G = GUARD_BAND, a
    computed distance above 2 r_j + G is outside (False), one below
    2 r_j - G on every coordinate is inside (True), and anything else is
    in the guard band: indeterminate, never guessed.

    `contains_difference(w)` computes the distance from `dot_frac` at
    `precision` digits.  `difference_verdicts(p, N)` gives the same three
    verdicts (None for indeterminate) along an orbit, n = 1, ..., N, from
    the kernel's `fixed_phases` at P = max(precision, 19) digits.  Each
    row's phase is an integer a mod M, and a / M is within 10^-P of
    frac(<row_j, p(n)>) on the circle.  Circle distance is 1-Lipschitz, so
    d = min(a, M - a) gives d / M within 10^-P <= G / 10 of the true
    distance, and the scan compares d with the integer thresholds
    floor((2 r_j + G) M) and ceil((2 r_j - G) M).  A False verdict thus
    means a true distance above 2 r_j + G - 10^-P > 2 r_j, and a True one a
    true distance below 2 r_j - G + 10^-P < 2 r_j: both are certified, as
    the `dot_frac` ones are.  The two routes can differ only where the true
    distance lies within 10^-P of 2 r_j +- G, and there one of them says
    indeterminate.  A row of rationals has W = 0 and M = q, so d / M is the
    exact distance, and an exact tie at 2 r_j is indeterminate on both.
    """

    def __init__(
        self,
        dim: int,
        freq: Sequence[Sequence[Real | Fraction | int | str]],
        radii: Sequence[Fraction | str],
        centers: Sequence[Real | Fraction | int | str] | None = None,
        precision: int = DEFAULT_PRECISION,
    ):
        self.dim = dim
        self.freq = tuple(tuple(Real.of(x) for x in row) for row in freq)
        self.torus_dim = len(self.freq)
        if self.torus_dim == 0:
            raise ValueError("need at least one torus coordinate")
        for row in self.freq:
            if len(row) != dim:
                raise ValueError(f"frequency row {row} does not have {dim} entries")
        self.radii = tuple(Fraction(r) for r in radii)
        if len(self.radii) != self.torus_dim:
            raise ValueError("one radius per torus coordinate required")
        for r in self.radii:
            if not (0 < r < Fraction(1, 2)):
                raise ValueError(f"radius {r} outside (0, 1/2)")
        if centers is None:
            centers = [0] * self.torus_dim
        self.centers = tuple(Real.of(c) for c in centers)
        if len(self.centers) != self.torus_dim:
            raise ValueError("one center per torus coordinate required")
        self.precision = precision

    def torus_point(self, v: Sequence[int]) -> list[Fraction]:
        """frac(A v), coordinate by coordinate."""
        v = [int(x) for x in v]
        if len(v) != self.dim:
            raise ValueError(f"vector {v} has wrong dimension")
        return [dot_frac(row, v, self.precision) for row in self.freq]

    def contains(self, v: Sequence[int]) -> bool:
        point = self.torus_point(v)
        verdict = True
        for j, x in enumerate(point):
            dist = circle_distance(x, self.centers[j].frac(self.precision))
            if dist > self.radii[j] + GUARD_BAND:
                return False
            if dist >= self.radii[j] - GUARD_BAND:
                verdict = None
        if verdict is None:
            raise IndeterminateError(
                f"membership of {tuple(v)} is within the guard band"
            )
        return True

    def contains_difference(self, w: Sequence[int]) -> bool:
        """True iff the box and its translate by frac(A w) overlap in every
        coordinate (which yields an actual pair b, b + w in the set when
        the torus image is dense)."""
        point = self.torus_point(w)
        verdict = True
        for j, x in enumerate(point):
            dist = circle_distance(x)
            threshold = 2 * self.radii[j]
            if dist > threshold + GUARD_BAND:
                return False
            if dist >= threshold - GUARD_BAND:
                verdict = None
        if verdict is None:
            raise IndeterminateError(
                f"difference membership of {tuple(w)} is within the guard band"
            )
        return True

    def difference_verdicts(self, polys: PolyVector, count: int) -> Iterator[bool | None]:
        """Difference membership of p(1), ..., p(count): True, False, or None
        where `contains_difference` would raise IndeterminateError.  The
        phases come from the kernel, not from `dot_frac`; the class
        docstring proves the verdicts certified."""
        if len(polys) != self.dim:
            raise ValueError(
                f"orbit of {len(polys)} coordinates has wrong dimension "
                f"for a set of dim={self.dim}"
            )
        moduli, blocks = fixed_phases(
            polys, self.freq, count, max(self.precision, _SCAN_DIGITS))
        # d > outside: beyond 2r + G; d >= edge: not below 2r - G
        bounds = [
            (m, math.floor((2 * r + GUARD_BAND) * m), math.ceil((2 * r - GUARD_BAND) * m))
            for r, m in zip(self.radii, moduli)
        ]

        def verdicts():
            for block in blocks:
                for phase in zip(*block):
                    verdict = True
                    for a, (m, outside, edge) in zip(phase, bounds):
                        d = min(a, m - a)
                        if d > outside:
                            verdict = False
                            break
                        if d >= edge:
                            verdict = None
                    yield verdict

        return verdicts()

    def describe(self) -> str:
        rows = "; ".join(
            "(" + ", ".join(repr(x) for x in row) + ")" for row in self.freq
        )
        radii = ", ".join(str(r) for r in self.radii)
        return f"bohr dim={self.dim} torus_dim={self.torus_dim} freq=[{rows}] radii=[{radii}]"


SetModel = WindowSet | BohrSet


# -- orbit search -------------------------------------------------------------

class Status(Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"
    INDETERMINATE = "indeterminate"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SearchResult:
    """Outcome of `twisted_search`.  `n` and `point` are set when FOUND.
    `indeterminate` counts the candidates before `n` (or in the whole range)
    whose verdict fell in the guard band.  FOUND with `indeterminate > 0` is
    the first certified hit, which may not be the smallest n: one of the
    indeterminate candidates before it may lie in B - B."""

    status: Status
    n: int | None
    point: tuple[int, ...] | None
    indeterminate: int = 0

    def found(self) -> bool:
        return self.status is Status.FOUND


def twisted_search(
    walk: Walk,
    v: Sequence[int],
    oracle: SetModel,
    n_max: int,
) -> SearchResult:
    """First n in [1, n_max] whose orbit point is certified to land in B - B.

    The scan reads the oracle's `difference_verdicts` along the symbolic
    orbit polynomials (the search path), and evaluates the point once, at
    the hit.  Experiment validation re-applies the walk directly and asks
    the per-query oracle, keeping the two routes independent.  The scan
    stops at the first hit.  When candidates before it were indeterminate
    (`indeterminate > 0`), the hit is the first certified one and may not
    be the smallest n.  Indeterminate is reported only when every
    candidate was indeterminate.
    """
    if n_max < 1:
        raise ValueError(f"N_max must be >= 1, got {n_max}")
    polys = walk.orbit_poly(v)
    indeterminate = 0
    for n, verdict in enumerate(oracle.difference_verdicts(polys, n_max), start=1):
        if verdict:
            return SearchResult(Status.FOUND, n, polys.eval_int({"n": n}), indeterminate)
        if verdict is None:
            indeterminate += 1
    status = Status.INDETERMINATE if indeterminate == n_max else Status.EXHAUSTED
    return SearchResult(status, None, None, indeterminate)


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


def _run_targets(kind, oracle, k, targets, n_max, seed, make_instance, config):
    records = []
    for target in targets:
        start = time.perf_counter()
        v, walk, form = make_instance(target)
        scaled = walk.time_scale(k)
        result = twisted_search(scaled, v, oracle, n_max)
        millis = (time.perf_counter() - start) * 1000.0
        if result.found():
            # independent re-validation: direct walk application, a fresh
            # difference query, and the exact form value
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
    return ExperimentReport(kind, tuple(records), config, seed)


def magyar_experiment(
    p: MPoly,
    oracle: SetModel,
    k: int,
    targets: Sequence[int],
    n_max: int,
    seed: int = 0,
) -> ExperimentReport:
    """Search for differences realizing each target value of x*y - P(z).

    Targets must lie in k^2 * Z (excluding 0): starting from v = (k, k*a, 0)
    the form value is k*k*a - P(0) = k^2*a, the fleeing walk over the two
    shear generators preserves it, and time-scaling by k keeps the orbit in
    k * Z^3."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    for target in targets:
        if target == 0 or target % (k * k) != 0:
            raise ValueError(f"target {target} is not a non-zero multiple of k^2={k * k}")
    var = _single_var_name(p)
    s1, s2 = xy_minus_P_walks(p)
    gens = [s1, s2]
    form = (MPoly.var(("x", "y", "z"), "x") * MPoly.var(("x", "y", "z"), "y")
            - p.substitute({var: MPoly.var(("x", "y", "z"), "z")}).extend(("x", "y", "z")))

    def make_instance(target: int):
        a = target // (k * k)
        v = (k, k * a, 0)
        cert = construct_fleeing_walk(gens, v)
        return v, cert.final_walk, form

    config = {
        "experiment": "magyar", "P": str(p), "k": str(k),
        "targets": " ".join(str(t) for t in targets),
        "N_max": str(n_max), "oracle": oracle.describe(),
    }
    return _run_targets("magyar", oracle, k, targets, n_max, seed,
                        make_instance, config)


def bogolubov_experiment(
    p: MPoly,
    oracle: SetModel,
    k: int,
    targets: Sequence[int],
    n_max: int,
    seed: int = 0,
) -> ExperimentReport:
    """Search for differences realizing each target value of x - P(y).

    Targets must lie in k * Z: from v = (c, 0) the form value is c - P(0) = c,
    preserved along the single-generator fleeing walk."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    for target in targets:
        if target % k != 0:
            raise ValueError(f"target {target} is not a multiple of k={k}")
    var = _single_var_name(p)
    gen = bogolubov_walk(p)
    form = (MPoly.var(("x", "y"), "x")
            - p.substitute({var: MPoly.var(("x", "y"), "y")}).extend(("x", "y")))

    def make_instance(target: int):
        v = (target, 0)
        cert = construct_fleeing_walk([gen], v)
        return v, cert.final_walk, form

    config = {
        "experiment": "bogolubov", "P": str(p), "k": str(k),
        "targets": " ".join(str(t) for t in targets),
        "N_max": str(n_max), "oracle": oracle.describe(),
    }
    return _run_targets("bogolubov", oracle, k, targets, n_max, seed,
                        make_instance, config)


# -- Weyl sums ------------------------------------------------------------------

def weyl_sum(
    polys: PolyVector,
    thetas: Sequence[Real | Fraction | int | str],
    n_count: int,
    precision: int = 40,
) -> complex:
    """(1/N) sum_{n=1}^{N} e(<p(n), theta>), double precision, Kahan summed.

    Phases come from the fixed-point kernel stream, within 10^-precision
    of the true phase before rounding to a float, so large orbit values do
    not lose the fractional part."""
    if n_count < 1:
        raise ValueError("N must be >= 1")
    re, im = KahanSum(), KahanSum()
    for (x,) in phases(polys, [thetas], n_count, precision):
        phase = 2.0 * math.pi * x
        re.add(math.cos(phase))
        im.add(math.sin(phase))
    return complex(re.total / n_count, im.total / n_count)


def weyl_sum_rational(
    polys: PolyVector,
    thetas: Sequence[Fraction],
    n_count: int,
) -> RootOfUnityMean:
    """Exact root-of-unity evaluation of the Weyl average for rational
    frequencies: phases lie in (1/q) Z / Z and repeat with a period that
    `residues` works out from q and the coefficient denominators."""
    q, stream = residues(polys, [Fraction(t) for t in thetas])
    period_residues = list(stream)
    counts = [0] * q
    cycles, remainder = divmod(n_count, len(period_residues))
    for j in period_residues:
        counts[j] += cycles
    for j in period_residues[:remainder]:
        counts[j] += 1
    return RootOfUnityMean(q, tuple(counts), n_count)
