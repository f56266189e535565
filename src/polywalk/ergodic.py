"""Torus translation systems with explicit character spectrum.

A TorusSystem is the action of Z^d on T^D by v -> x + A v mod 1: a
`lab.Torus` (A, of exact reals) plus the base point x.  The spectrum of a
trigonometric-polynomial observable is the finite set of induced
characters v -> e(<A^T m, v>), whose rationality is decided
symbolically from the matrix entries, never numerically.

This gives exact closed forms for polynomial-orbit averages next to the
empirical ones, whose box counts are exact (the arc test of `lab`) and
whose Weyl sums are in double precision, so the two can be compared at
any sample size.  Along an orbit p(n) a component's limit is decided on its
phase polynomial <A^T m, p(n)>, by Weyl: zero when a non-constant
coefficient is irrational, and otherwise the constant irrational phase
times a root-of-unity mean over one period (`q_p_multipliers`).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from operator import mod, ne, sub
from typing import Sequence

from .kernel import check_orbit, fixed_phases, orbit_var
from .lab import (Torus, _Arc, _arc_verdicts, _every, check_radii, check_sample_count,
                  orbit_arc_verdicts, weyl_sum_rational, weyl_sums)
from .poly import MPoly, PolyVector
from .reals import BITS, Real, RootOfUnityMean

# the Kronecker steps of correlate's samples, each above 1/8, so that every
# sample is a multiple of 2^-_GRID (correlation_average)
_QMC_ALPHAS = (
    0.41421356237309515,   # frac(sqrt 2)
    0.7320508075688772,    # frac(sqrt 3)
    0.23606797749978967,   # frac(sqrt 5)
    0.6457513110645907,    # frac(sqrt 7)
    0.3166247903553998,    # frac(sqrt 11)
    0.60555127546399,      # frac(sqrt 13)
)
_GRID = 55


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
    """Indicator of the open product of arcs dist(x_j - c_j) < r_j; the
    measure is the product of the lengths 2 r_j.  Both of its averages
    count true points exactly, through the arc test of `lab`
    (`empirical_average`, `correlation_average`)."""

    centers: tuple[Real, ...]
    radii: tuple[Fraction, ...]

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
            numerators: dict[int, int] = {}   # of p's coefficients by degree
            for exps, c in p.numerators.items():
                numerators[sum(exps)] = numerators.get(sum(exps), 0) + c
            for e, c in numerators.items():
                drift[e] = drift.get(e, Real(0)) + (x - r).scale(Fraction(c, p.denominator))
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


class _BoxIndex:
    """How many n <= N, and n <= cut, put the true point x + A p(n) in the
    box for a sample x on the grid 2^-_GRID (`correlation_average`)."""

    def __init__(self, box: BoxIndicator, rows, polys: PolyVector, n_count: int, cut: int):
        self.box, self.rows, self.polys, self.cut = box, rows, polys, cut
        self.moduli, blocks = fixed_phases(polys, rows, n_count, BITS)
        self.phases = [list(chain.from_iterable(runs)) for runs in zip(*blocks)]
        grids = [math.lcm(m, 1 << _GRID) for m in self.moduli]
        self.arcs = list(map(_Arc.of, grids, box.radii, rows, [-c for c in box.centers]))
        self.full = [g * arc.scale for g, arc in zip(grids, self.arcs)]
        self.keys = [[a * (full // m) % full for a in run]
                     for run, m, full in zip(self.phases, self.moduli, self.full)]
        self.reads = [(full >> _GRID, arc.lift, full) for arc, full in zip(self.arcs, self.full)]
        self.key = key = min(1, len(rows) - 1)
        rest = range(2, len(rows))
        self.windows = (self.arcs[0].near, self.arcs[0].inner, self.full[0], rest, (0, *rest),
                        self.arcs[key].near, self.arcs[key].inner)
        keys0, keys, turn = self.keys[0], self.keys[key], self.full[key]
        n_strips = math.isqrt(n_count) if key else 1
        buckets = [[] for _ in range(n_strips)]
        for i, k in enumerate(keys0):
            buckets[k * n_strips // self.full[0]].append(i)
        self.strips = []
        for bucket in filter(None, buckets):
            lows = [keys0[i] for i in bucket]
            bucket.sort(key=keys.__getitem__)
            sorted_keys = [keys[i] for i in bucket]
            tags = bytes(i < cut for i in bucket) * 2
            self.strips.append((min(lows), max(lows) - min(lows),
                                sorted_keys + [k + turn for k in sorted_keys], bucket * 2,
                                list(accumulate(tags, initial=0))))

    def _starts(self, x: Sequence[float]) -> list[int]:
        # per row, (-X - lift) mod M' for the exact read X = x M' of the sample
        return [-(int(v * 2.0 ** _GRID) * step + lift) % full
                for v, (step, lift, full) in zip(x, self.reads)]

    def _test(self, run, coords, starts) -> tuple[list[bool], list[bool]]:
        # the window test of the members `run` on the rows coords: per
        # member, surely inside on every row, and near on every row
        ys = [(list(map(mod, map(sub, map(self.keys[j].__getitem__, run), repeat(starts[j])),
                        repeat(self.full[j]))), self.arcs[j]) for j in coords]
        return (list(_every([map(arc.inner.__contains__, y) for y, arc in ys])),
                list(_every([map(arc.near.__contains__, y) for y, arc in ys])))

    def _settle(self, x, runs, point) -> list[bool]:
        # the exact verdicts of `lab._arc_verdicts` on the phases `runs`,
        # with the shift x - c
        arcs = [_Arc.of(m, r, row, Real(Fraction(v)) - c) for m, r, row, v, c
                in zip(self.moduli, self.box.radii, self.rows, x, self.box.centers)]
        (verdicts,) = _arc_verdicts([runs], arcs, point)
        return verdicts

    def count(self, x: Sequence[float]) -> tuple[int, int]:
        starts, key, cut = self._starts(x), self.key, self.cut
        near0, inner0, full0, rest, crossing, near, inner = self.windows
        start0, lo = starts[0], starts[key]
        lo_in, hi_in, hi = lo + inner.start, lo + inner.stop, lo + near.stop
        total = half = 0
        pending = []
        for low, span, keys, members, prefix in self.strips:
            coords = rest
            if key:
                p = (low - start0) % full0
                if p >= near0.stop and p + span < full0:
                    continue   # wholly outside the row-0 near window
                if not (p in inner0 and p + span in inner0):
                    coords = crossing
            i = bisect_left(keys, lo_in)
            j = bisect_left(keys, hi_in, i)
            if (i and keys[i - 1] >= lo) or (j < len(keys) and keys[j] < hi):
                band = members[bisect_left(keys, lo, 0, i):i] + members[j:bisect_left(keys, hi, j)]
                pending += compress(band, self._test(band, coords, starts)[1]) if coords else band
            if not coords:
                total += j - i
                half += prefix[j] - prefix[i]
                continue
            run = members[i:j]
            inside, near_all = self._test(run, coords, starts)
            total += sum(inside)
            half += sum(map(cut.__gt__, compress(run, inside)))
            pending += compress(run, map(ne, near_all, inside))
        if pending:
            var = orbit_var(self.polys)
            verdicts = self._settle(x, [[phases[k] for k in pending] for phases in self.phases],
                                    lambda i: self.polys.eval_int({var: pending[i] + 1}))
            for k, inside in zip(pending, verdicts):
                total += inside
                half += inside and k < cut
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
    count N_i >= 1 and passing `check_average` with the box, samples and
    replicates are >= 1, and the box has at most one arc per Kronecker
    step of `_QMC_ALPHAS`."""
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
    if len(box.radii) > len(_QMC_ALPHAS):
        raise ValueError(f"box has {len(box.radii)} arcs; correlate samples at most "
                         f"{len(_QMC_ALPHAS)} coordinates")


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    std_error: float
    half_value: float   # equals .value of a call with every N_i replaced by max(1, N_i // 2)


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

    Every count is of true points, the n <= N_i with
    dist(x_j + <row_j, p(n)> - c_j) < r_j on every arc j, from one index per
    distinct (orbit, N_i), whose tags (1 for n <= max(1, N // 2)) count the
    first half too.  1_B(x) is the count of the zero orbit at N = 1.

    Layout.  A sample x_j = (shift + (s + 1) alpha_j) % 1.0, alpha_j > 1/8,
    is a multiple of 2^-55: the sum is a float of at least 1/8, and % 1.0
    is exact.  Row j's phases are the integers a of `kernel.fixed_phases` at
    precision BITS, modulo M_j.  `lab._Arc.of` at lcm(M_j, 2^55) with the
    shift -c_j reads the centre once and scales that modulus by g to M'_j.
    The key of n is a M'_j / M_j mod M'_j; as 2^55 divides M'_j, a sample
    reads exactly as the integer X_j = x_j M'_j.  The key row is K = 1
    (K = 0 for one arc).  The keys of row 0 are cut into isqrt(N) strips
    (one for one arc), each with its least key and the span of its keys.
    In a strip the members are sorted by key K, the keys are doubled (all
    k, then all k + M'_K), and the tags are kept as running sums.

    Query.  On row j, (key + X_j + lift) mod M'_j is the residue of the
    arc test with the shift x_j - c_j: near if in `near`, surely inside if
    in `inner`.  Each range is a window of keys from (-X_j - lift) mod
    M'_j, at most a full turn, so one run of doubled keys holds each
    member at most once.  Strips wholly outside the row-0 near window are
    skipped, and strips wholly inside its inner window skip row 0.
    Bisection on row K splits the near window into the inner one and the
    band around it.  Inner members are counted by the running sums when no
    row is left to test (row 0 in a strip crossing a row-0 window end,
    rows 2, ..., d-1), and otherwise tested on those rows in integers, as
    are band members.  Members outside a near window are skipped, those in
    every inner window counted, and the rest settled by `lab._arc_verdicts`
    at p(n) with the exact shift x - c.

    Why it is exact.  key / M'_j is a / M_j, within 2^-BITS of
    <row_j, p(n)> mod 1, and X_j + c is the read of M'_j (x_j - c_j) with
    the centre's read error alone.  So the `BohrSet` arc-test proofs hold
    with s = x - c and t = r: (1) `near` and `inner` are certain, (2) a
    distance of exactly r is outside, and (3) settling is exact.  The tag
    enters no test, so the halved counts are of true points too, and
    `half_value` equals the estimate of a separate call at those counts.
    """
    check_correlation(sys, box, orbits, n_counts, samples, replicates)
    rows = sys.rows[:len(box.radii)]
    in_box = _BoxIndex(box, rows, PolyVector([MPoly.zero(("n",))] * sys.dim), 1, 1)
    built: dict[tuple[PolyVector, int], _BoxIndex] = {}
    factors = []   # per orbit: its index, N_i and the halved count
    for polys, n_count in zip(orbits, n_counts):
        half_count = max(1, n_count // 2)
        if (polys, n_count) not in built:
            built[polys, n_count] = _BoxIndex(box, rows, polys, n_count, half_count)
        factors.append((built[polys, n_count], n_count, half_count))

    rng = random.Random(seed)
    replicate_values, half_values = [], []
    for _ in range(replicates):
        shifts = [rng.random() for _ in range(sys.torus_dim)]
        products, half_products = [], []
        for s in range(samples):
            x = [(shift + (s + 1) * alpha) % 1.0
                 for shift, alpha in zip(shifts[:len(rows)], _QMC_ALPHAS)]
            if not in_box.count(x)[0]:
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
