"""Torus translation systems with explicit character spectrum.

A TorusSystem is the action of Z^d on T^D by v -> x + A v mod 1: a
`lab.Torus` (A, of exact reals) plus the base point x.  The spectrum of a
trigonometric-polynomial observable is the finite set of induced
characters v -> e(<A^T m, v>), whose rationality is decided
symbolically from the matrix entries, never numerically.

This gives exact closed forms for polynomial-orbit averages next to the
empirical double-precision route, so the two can be compared at any
sample size.  Along an orbit p(n) a component's limit is decided on its
phase polynomial <A^T m, p(n)>, by Weyl: zero when a non-constant
coefficient is irrational, and otherwise the constant irrational phase
times a root-of-unity mean over one period (`q_p_multipliers`).
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .kernel import check_orbit, phases
from .lab import (Torus, check_radii, check_sample_count, orbit_arc_verdicts,
                  weyl_sum_rational, weyl_sums)
from .poly import PolyVector
from .reals import BITS, Real, RootOfUnityMean

_QMC_ALPHAS = (
    0.41421356237309515,   # frac(sqrt 2)
    0.7320508075688772,    # frac(sqrt 3)
    0.23606797749978967,   # frac(sqrt 5)
    0.6457513110645907,    # frac(sqrt 7)
    0.3166247903553998,    # frac(sqrt 11)
    0.60555127546399,      # frac(sqrt 13)
)


class TorusSystem(Torus):
    """Translation action of Z^d on T^D: T^v x = x + A v mod 1, a `Torus`
    plus the base point x (default 0)."""

    def __init__(self, rows: Sequence[Sequence[Real | Fraction | int | str]],
                 base_point: Sequence[Real | Fraction | int | str] | None = None):
        super().__init__(rows)
        if base_point is None:
            base_point = [0] * self.torus_dim
        self.base_point = tuple(Real.of(x) for x in base_point)
        if len(self.base_point) != self.torus_dim:
            raise ValueError("base point dimension mismatch")


@dataclass(frozen=True)
class TrigPoly:
    """Finite trigonometric polynomial sum(c_m * e(<m, x>)) on T^D."""

    components: tuple[tuple[tuple[int, ...], complex], ...]

    @classmethod
    def of(cls, items) -> TrigPoly:
        merged: dict[tuple[int, ...], complex] = {}
        for freq, coeff in items:
            freq = tuple(int(x) for x in freq)
            merged[freq] = merged.get(freq, 0j) + complex(coeff)
        clean = tuple(
            (freq, coeff) for freq, coeff in sorted(merged.items()) if coeff != 0
        )
        return cls(clean)

    def value_at(self, point: Sequence[float]) -> complex:
        total = 0j
        for freq, coeff in self.components:
            phase = 2.0 * math.pi * sum(m * x for m, x in zip(freq, point))
            total += coeff * complex(math.cos(phase), math.sin(phase))
        return total

    def l2_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for _, c in self.components))

    def __sub__(self, other: TrigPoly) -> TrigPoly:
        return TrigPoly.of(
            list(self.components) + [(f, -c) for f, c in other.components]
        )


@dataclass(frozen=True)
class BoxIndicator:
    """Indicator of a product of arcs; measure is the product of lengths.

    `contains_float` is the rule for the float sample points of
    `correlation_average`; `empirical_average` counts orbit visits exactly
    (`lab.orbit_arc_verdicts`).  It reads the centers as floats and each
    radius r as the least float at or above r, both worked out once: for
    a float distance x, x >= r exactly when x >= that float."""

    centers: tuple[Real, ...]
    radii: tuple[Fraction, ...]
    float_centers: tuple[float, ...] = field(init=False, repr=False, compare=False)
    radius_ceilings: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "float_centers", tuple(float(c.frac()) for c in self.centers))
        ceilings = []
        for r in self.radii:
            x = float(r)
            ceilings.append(x if x >= r else math.nextafter(x, math.inf))
        object.__setattr__(self, "radius_ceilings", tuple(ceilings))

    @classmethod
    def of(cls, centers, radii) -> BoxIndicator:
        centers = tuple(Real.of(c) for c in centers)
        radii = tuple(Fraction(r) for r in radii)
        if len(centers) != len(radii):
            raise ValueError("need one radius per center")
        check_radii(radii)
        return cls(centers, radii)

    @property
    def measure(self) -> Fraction:
        out = Fraction(1)
        for r in self.radii:
            out *= 2 * r
        return out

    def contains_float(self, point: Sequence[float]) -> bool:
        for x, center, radius in zip(point, self.float_centers, self.radius_ceilings):
            delta = (x - center) % 1.0
            if min(delta, 1.0 - delta) >= radius:
                return False
        return True


Observable = TrigPoly | BoxIndicator


@dataclass(frozen=True)
class CharacterInfo:
    """The character of Z^d induced by a torus frequency."""

    freq: tuple[int, ...]
    row: tuple[Real, ...]


def classify_characters(sys: TorusSystem, f: TrigPoly) -> list[CharacterInfo]:
    """Induced character data for every frequency of the observable."""
    return [CharacterInfo(freq, sys.transposed_row(freq)) for freq, _ in f.components]


def q_p_multipliers(
    sys: TorusSystem, f: TrigPoly, polys: PolyVector,
    infos: Sequence[CharacterInfo] | None = None,
) -> list[tuple[CharacterInfo, RootOfUnityMean | None]]:
    """Limit multiplier of each component along the orbit p(n), the limit of
    (1/N) sum e(s(n)) for its phase polynomial s(n) = <A^T m, p(n)>.

    Write A^T m = r + u, with r the rational and u the irrational parts of
    its entries.  Then s(n) = <r, p(n)> + <u, p(n)>, and every coefficient
    of <u, p(n)> is irrational or 0.  If one of degree >= 1 is not 0, s has
    an irrational non-constant coefficient, and by Weyl's theorem the
    limit is 0: the component gets None.  Otherwise <u, p(n)> is the
    constant c = <u, p(0)>, and the limit is e(c) times the exact
    root-of-unity mean of e(<r, p(n)>) over one period
    (`weyl_sum_rational`).  The mean carries c as its phase, so exact-one
    / exact-zero answers still come from the counts (and c = 0).  `infos`,
    when given, is `classify_characters(sys, f)`."""
    check_orbit(polys, sys.rows)
    out = []
    for info in classify_characters(sys, f) if infos is None else infos:
        rational = [x.basis()[0] for x in info.row]
        drift: dict[int, Real] = {}   # coefficients of <u, p(n)> by degree
        for x, r, p in zip(info.row, rational, polys):
            for exps, c in p.terms.items():
                drift[sum(exps)] = drift.get(sum(exps), Real(0)) + (x - r).scale(c)
        if any(c != 0 for e, c in drift.items() if e):
            out.append((info, None))
            continue
        out.append((info, weyl_sum_rational(polys, rational, phase=drift.get(0, 0))))
    return out


def q_p_closed_form(sys: TorusSystem, f: TrigPoly, polys: PolyVector,
                    infos: Sequence[CharacterInfo] | None = None) -> TrigPoly:
    """The limit of (1/N) sum T^{p(n)} f: each component scaled by its
    `q_p_multipliers` limit, and those with limit 0 dropped."""
    coeffs = dict(f.components)
    items = []
    for info, mean in q_p_multipliers(sys, f, polys, infos):
        if mean is None or mean.is_exactly_zero:
            continue
        multiplier = 1 if mean.is_exactly_one else mean.value()
        items.append((info.freq, coeffs[info.freq] * multiplier))
    return TrigPoly.of(items)


def choose_k(torus: Torus) -> int:
    """The modulus k of the box rule, read off `Torus.relations`: 1 when no
    non-zero m makes A^T m rational, the lcm of the entry denominators when
    every m does (A rational).  A mixed action has an infinite rational
    spectrum, and no k is chosen for it."""
    relations = torus.relations()
    if not relations:
        return 1
    if len(relations) == torus.torus_dim:
        return math.lcm(*(x.as_fraction().denominator for row in torus.rows for x in row))
    raise ValueError(
        "box indicator on a mixed rational/irrational action: the rational "
        "spectrum is infinite")


def check_average(sys: TorusSystem, f: Observable, polys: PolyVector, n_count: int) -> None:
    """Raise ValueError unless f fits the torus (a box has at most one arc
    per coordinate, a TrigPoly frequency one entry per coordinate), p
    passes `check_orbit` with the rows of A, and `check_sample_count` holds."""
    check_sample_count(n_count)
    if isinstance(f, TrigPoly):
        for freq, _ in f.components:
            sys.transposed_row(freq)
    elif len(f.radii) > sys.torus_dim:
        raise ValueError(
            f"box has {len(f.radii)} arcs for a torus of dimension {sys.torus_dim}")
    check_orbit(polys, sys.rows)


@dataclass(frozen=True)
class EmpiricalAverage:
    value: complex
    l2_to_prediction: float | None
    predicted: complex | None


def empirical_average(
    sys: TorusSystem,
    f: Observable,
    polys: PolyVector,
    n_count: int,
) -> EmpiricalAverage:
    """(1/N) sum f(x0 + A p(n)), after `check_average`.

    A box is counted exactly: the number of n with
    dist(<row_j, p(n)> + x0_j - c_j) < r_j on each of its arcs j is
    `lab.orbit_arc_verdicts`, the integer arc test of the Bohr scan with
    t = r and the shift x0_j - c_j read at the phase modulus, its read
    error added to the band (`lab.BohrSet`).  A point at distance exactly
    r is outside the open box.

    For a TrigPoly the closed-form prediction is also evaluated at the
    base point (`predicted`).  As a
    function of the base point the empirical average is the trigonometric
    polynomial sum c_m W_m e(<m, x>), W_m the Weyl sums of the induced
    characters (`weyl_sums`: one stream for the irrational rows, residue
    counts for the rows of rationals, whose exact sum of the same float
    terms is rounded once, within the same error bound), and the
    prediction is sum c_m M_m e(<m, x>), M_m their limit multipliers;
    `l2_to_prediction` is their L2 distance, by Parseval
    sqrt(sum |c_m|^2 |W_m - M_m|^2)."""
    check_average(sys, f, polys, n_count)
    if isinstance(f, BoxIndicator):
        shifts = [x - c for x, c in zip(sys.base_point, f.centers)]
        hits = sum(map(sum, orbit_arc_verdicts(polys, sys.rows[:len(f.radii)], f.radii,
                                               n_count, shifts)))
        return EmpiricalAverage(complex(hits / n_count, 0.0), None, None)

    base = [float(x.frac()) for x in sys.base_point]
    infos = classify_characters(sys, f)
    sums = weyl_sums(polys, [info.row for info in infos], n_count)
    empirical_fn = TrigPoly.of(
        (freq, coeff * w) for (freq, coeff), w in zip(f.components, sums))
    prediction = q_p_closed_form(sys, f, polys, infos)
    return EmpiricalAverage(empirical_fn.value_at(base),
                            (empirical_fn - prediction).l2_norm(), prediction.value_at(base))


EPS = 2.0 ** -30
_OFFSET_BOUND = 2.0 ** 10


def _frac(v: float) -> float:
    # v % 1.0 is 1.0 when v is a tiny negative number; the second % makes it 0.0
    return v % 1.0 % 1.0


class _StripIndex:
    """How many offsets `off` of one orbit put x + off in a box, for any x:
    the count of those that `BoxIndicator.contains_float` accepts at the
    float sums x_j + off_j, bit for bit, over all offsets and over the
    first `cut` of them.  The layout, the query and the proof that the
    counts are exact are in `correlation_average`."""

    def __init__(self, box: BoxIndicator, offsets: Sequence[Sequence[float]], cut: int):
        self.centers, self.ceilings = box.float_centers, box.radius_ceilings
        d = len(self.centers)
        for off in offsets:
            if not all(abs(off[j]) <= _OFFSET_BOUND for j in range(d)):
                raise ValueError(f"offset {off} outside [-{_OFFSET_BOUND}, {_OFFSET_BOUND}]")
        self.key = key = min(1, d - 1)
        self.arc_starts = tuple(c - (r + EPS) for c, r in zip(self.centers, self.ceilings))
        self.use_bisect = self.ceilings[key] + 2 * EPS < 0.5
        n_strips = math.isqrt(len(offsets)) if d > 1 else 1
        buckets = [[] for _ in range(n_strips)]
        for i, off in enumerate(offsets):
            buckets[min(int(_frac(off[0]) * n_strips), n_strips - 1)].append(i)
        self.strips = []
        for bucket in buckets:
            if not bucket:
                continue
            lows = [_frac(offsets[i][0]) for i in bucket]
            bucket.sort(key=lambda i: _frac(offsets[i][key]))
            members = [offsets[i] for i in bucket]
            keys = array("d", (_frac(off[key]) for off in members))
            keys.extend([u + 1.0 for u in keys])
            tags = bytes(i < cut for i in bucket) * 2
            self.strips.append((min(lows), max(lows) - min(lows), keys, members * 2, tags,
                                list(accumulate(tags, initial=0))))

    def count(self, x: Sequence[float]) -> tuple[int, int]:
        centers, ceilings, key = self.centers, self.ceilings, self.key
        dims = range(len(centers))
        rest = range(2, len(centers))
        crossing = (0, *rest)

        def inside(off, coords) -> bool:
            # the rule of BoxIndicator.contains_float at the point x + off
            for j in coords:
                delta = (x[j] + off[j] - centers[j]) % 1.0
                if min(delta, 1.0 - delta) >= ceilings[j]:
                    return False
            return True

        start0 = (self.arc_starts[0] - x[0]) % 1.0
        core0, wide0 = 2.0 * ceilings[0], 2.0 * ceilings[0] + 2 * EPS
        start = (self.arc_starts[key] - x[key]) % 1.0
        core_lo = start + 2 * EPS
        core_hi = start + 2.0 * ceilings[key]
        wide_hi = start + (2.0 * ceilings[key] + 2 * EPS)
        total = half = 0
        for lo, span, keys, members, tags, prefix in self.strips:
            inner = rest
            if key:
                p = (lo - start0) % 1.0
                if p > wide0 and p + span < 1.0:
                    continue
                if not (2 * EPS <= p and p + span <= core0):
                    inner = crossing   # the strip crosses a coordinate-0 arc end
            if self.use_bisect:
                i = bisect_left(keys, core_lo)
                j = bisect_right(keys, core_hi, i)
                runs = [(range(bisect_left(keys, start, 0, i), i), dims),
                        (range(j, bisect_right(keys, wide_hi, j)), dims)]
            else:   # a full-turn key arc: every member runs the exact test
                i = j = 0
                runs = [(range(len(members) // 2), dims)]
            if inner:
                runs.append((range(i, j), inner))
            else:
                total += j - i
                half += prefix[j] - prefix[i]
            for run, coords in runs:
                for k in run:
                    if inside(members[k], coords):
                        total += 1
                        half += tags[k]
        return total, half


def check_correlation(
    sys: TorusSystem,
    box: BoxIndicator,
    orbits: Sequence[PolyVector],
    n_counts: Sequence[int],
    samples: int,
    replicates: int,
) -> None:
    """Raise ValueError unless there is at least one orbit, each with a
    count N_i >= 1 and passing `check_average` with the box, and samples
    and replicates are >= 1."""
    if len(orbits) != len(n_counts):
        raise ValueError("need one sample count per orbit")
    if not orbits:
        raise ValueError("need at least one orbit")
    if min(n_counts) < 1:
        raise ValueError("every N_i must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    for polys, n_count in zip(orbits, n_counts):
        check_average(sys, box, polys, n_count)


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    std_error: float
    half_value: float   # the same estimate with every N_i replaced by max(1, N_i // 2)


def correlation_average(
    sys: TorusSystem,
    box: BoxIndicator,
    orbits: Sequence[PolyVector],
    n_counts: Sequence[int],
    samples: int = 512,
    replicates: int = 8,
    seed: int = 0,
) -> CorrelationEstimate:
    """Quasi-Monte Carlo estimate of the averaged multiple correlation

        (1/(N_1...N_m)) sum mu(B  cap  T^{-P_1(n_1)} B  cap ... )

    computed as the integral of 1_B(x) * prod_i g_i(x) with g_i the visit
    frequency of the i-th orbit to B - x.  Each replicate uses a randomly
    shifted Kronecker sequence; the standard error is across replicates.
    `half_value` is the estimate at the halved counts max(1, N_i // 2),
    a convergence check, from the same samples and the same pass.

    Each visit count is the number of offsets `off` of an orbit that
    `BoxIndicator.contains_float` accepts at the float sums x_j + off_j,
    that is, whose `(x_j + off_j - c_j) % 1.0` lies within the radius
    ceiling R_j of 0 on every coordinate j.  A strip index, built once per
    distinct pair (orbit, N_i), gives the same counts bit for bit as a
    scan of all N offsets per sample, testing a few offsets near the arc
    ends instead.  Each member of the index carries a tag, 1 when its n is
    at most the cut max(1, N // 2), so one query gives the count over all
    N offsets and the count over the first cut of them.

    Layout.  With d box coordinates, the key coordinate is K = 1 (K = 0
    when d = 1).  The fractional parts of coordinate 0 are cut into
    isqrt(N) strips (a single strip when d = 1), each with the least
    fractional part `lo` and the width `span` of its members.  Inside a
    strip the members are sorted by the fractional part u of coordinate K,
    and the keys are doubled (all u, then all u + 1), so any arc of the
    circle shorter than a full turn is one run of keys.  The strip keeps
    the running sums of its doubled tags.

    Query.  On coordinate j the offset's fractional part u lies in the box
    when it is within R_j of c_j - x_j on the circle.  Positions are taken
    from the start of the widened arc, c_j - x_j - R_j - EPS: the widened
    arc is [0, 2R_j + 2EPS] and the shrunk arc [2EPS, 2R_j].  A strip
    wholly outside the widened coordinate-0 arc is skipped; one wholly
    inside the shrunk arc needs no coordinate-0 test, and one that crosses
    an edge of it tests coordinate 0 on every member it reaches.  In every
    strip not skipped (and in the single strip when d = 1) bisection on
    coordinate K splits the keys into the shrunk arc, whose members are
    tested on coordinates 0 (in a crossing strip) and 2, ..., d-1, and
    counted without a test when there are none, the halved count then
    being a difference of two running sums of tags; the two thin bands
    between the shrunk and the widened arc, which run the exact test; and
    the rest, skipped.  A tested member that passes adds 1 and its tag.

    Why it is exact.  Take |x_j| <= 1, centres in [0, 1] (both hold here)
    and |off_j| <= 2^10 (checked when the index is built; kernel phases
    lie in [0, 1]).  Let dist_j be the true circle distance of
    x_j + off_j - c_j from 0.
    (1) The exact test reads dist_j to within 2^-40.  Its two sums are
    below 2^11 in size, so each rounds by at most 2^-42; float % is exact
    but for a final + 1.0, which rounds by at most 2^-53; and
    min(delta, 1 - delta) adds no error, since 1 - delta is exact for
    delta >= 1/2 and the min is delta below that.
    (2) The index's positions, fractional parts, strip bounds and band
    thresholds are sums of floats below 2 in size, a few roundings of at
    most 2^-53 each, so each is within 2^-48 of its true value.
    (3) A position p in [2EPS, 2R_j] is within R_j - EPS of the arc's
    centre R_j + EPS, so an offset the index puts there has
    dist_j <= R_j - EPS + 2^-48, and the exact test reads less than
    R_j - EPS + 2^-39 < R_j: it accepts.  A position in
    (2R_j + 2EPS, 1) is more than R_j + EPS from the centre, so an offset
    the index puts there has dist_j >= R_j + EPS - 2^-48, and the exact
    test reads more than R_j: it rejects.  Every other offset runs the
    exact test.  The exact test is a conjunction over coordinates, so
    testing only the coordinates not yet proved inside gives its answer.
    This holds in a strip that crosses a coordinate-0 arc end as in one
    inside: there only coordinate K is proved inside, so the shrunk key
    arc tests coordinate 0 as well, and a member outside the widened key
    arc is rejected on K whatever its coordinate 0.
    (4) The run [start, start + 2R_K + 2EPS] of doubled keys holds at
    most one copy of each member while the widened arc falls short of a
    full turn by more than the rounding, in every strip, crossing ones
    included, since the run depends on x and not on the strip.  When
    R_K + 2EPS >= 1/2 (a radius ceiling of 0.5, or within 2EPS of it),
    every strip runs the exact test on each member once instead, so
    nothing is counted twice.  On coordinate 0 each strip is placed once,
    so a ceiling of 0.5 there needs nothing more: no strip is then outside
    the widened arc.  The tag does not enter any test, so the halved count
    is the count over the members with n <= cut.
    With EPS = 2^-30 every margin above holds many times over.

    The halved estimate reads the first cut phases of the N stream.  Each
    is within 2^-BITS of the true phase, as in a fresh stream of cut
    points, so `half_value` equals the estimate of a separate call at the
    halved counts unless a true phase lies within 2^-BITS of a point
    where its float rounding changes.
    """
    check_correlation(sys, box, orbits, n_counts, samples, replicates)
    d_torus = sys.torus_dim
    built: dict[tuple[PolyVector, int], _StripIndex] = {}
    factors = []   # per orbit: its index, N_i and the halved count
    for polys, n_count in zip(orbits, n_counts):
        half_count = max(1, n_count // 2)
        if (polys, n_count) not in built:
            built[polys, n_count] = _StripIndex(
                box, [point for block in phases(polys, sys.rows, n_count, BITS)
                      for point in zip(*block)], half_count)
        factors.append((built[polys, n_count], n_count, half_count))

    rng = random.Random(seed)
    replicate_values, half_values = [], []
    for _ in range(replicates):
        shifts = [rng.random() for _ in range(d_torus)]
        products, half_products = [], []
        for s in range(samples):
            x = [
                (shifts[j] + (s + 1) * _QMC_ALPHAS[j % len(_QMC_ALPHAS)]) % 1.0
                for j in range(d_torus)
            ]
            if not box.contains_float(x):
                continue
            counts = {}
            product = half_product = 1.0
            for index, n_count, half_count in factors:
                if index not in counts:
                    counts[index] = index.count(x)
                hits, half_hits = counts[index]
                product *= hits / n_count
                half_product *= half_hits / half_count
                if product == 0.0 and half_product == 0.0:
                    break
            products.append(product)
            half_products.append(half_product)
        replicate_values.append(math.fsum(products) / samples)
        half_values.append(math.fsum(half_products) / samples)

    mean = math.fsum(replicate_values) / replicates
    if replicates > 1:
        variance = sum((v - mean) ** 2 for v in replicate_values) / (replicates - 1)
        std_error = math.sqrt(variance / replicates)
    else:
        std_error = float("nan")
    return CorrelationEstimate(mean, std_error, math.fsum(half_values) / replicates)
