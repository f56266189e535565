"""Torus translation systems with explicit character spectrum.

A TorusSystem is the action of Z^d on T^D by v -> x + A v mod 1, with A a
matrix of exact reals (rationals plus named irrational constants).  The
spectrum of a trigonometric-polynomial observable is the finite set of
induced characters v -> e(<A^T m, v>), whose rationality is decided
symbolically from the matrix entries, never numerically.

This gives exact closed forms for polynomial-orbit averages (each rational
component picks up a root-of-unity mean over one period, irrational
components average to zero) next to the empirical double-precision route,
so the two can be compared at any sample size.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .generators import kernel_basis
from .kernel import phases, residues
from .lab import weyl_sum
from .poly import PolyVector
from .reals import KahanSum, Real, RootOfUnityMean

_QMC_ALPHAS = (
    0.41421356237309515,   # frac(sqrt 2)
    0.7320508075688772,    # frac(sqrt 3)
    0.23606797749978967,   # frac(sqrt 5)
    0.6457513110645907,    # frac(sqrt 7)
    0.3166247903553998,    # frac(sqrt 11)
    0.60555127546399,      # frac(sqrt 13)
)


class TorusSystem:
    """Translation action of Z^d on T^D: T^v x = x + A v mod 1."""

    def __init__(
        self,
        rows: Sequence[Sequence[Real | Fraction | int | str]],
        base_point: Sequence[Real | Fraction | int | str] | None = None,
        precision: int = 40,
    ):
        self.rows = tuple(tuple(Real.of(x) for x in row) for row in rows)
        self.torus_dim = len(self.rows)
        if self.torus_dim == 0:
            raise ValueError("need at least one torus coordinate")
        self.dim = len(self.rows[0])
        for row in self.rows:
            if len(row) != self.dim:
                raise ValueError("ragged action matrix")
        if base_point is None:
            base_point = [0] * self.torus_dim
        self.base_point = tuple(Real.of(x) for x in base_point)
        if len(self.base_point) != self.torus_dim:
            raise ValueError("base point dimension mismatch")
        self.precision = precision

    def image(self, v: Sequence[int]) -> tuple[Real, ...]:
        """A v as exact reals (no mod), for symbolic identities."""
        v = [int(x) for x in v]
        out = []
        for row in self.rows:
            acc = Real(0)
            for entry, value in zip(row, v):
                acc = acc + entry.scale(value)
            out.append(acc)
        return tuple(out)

    def transposed_row(self, freq: Sequence[int]) -> tuple[Real, ...]:
        """A^T m: the frequency vector of the induced character on Z^d."""
        if len(freq) != self.torus_dim:
            raise ValueError(f"frequency {freq} has wrong dimension")
        out = []
        for i in range(self.dim):
            acc = Real(0)
            for j, m in enumerate(freq):
                if m:
                    acc = acc + self.rows[j][i].scale(m)
            out.append(acc)
        return tuple(out)


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

    @property
    def torus_dim(self) -> int:
        return len(self.components[0][0]) if self.components else 0

    def value_at(self, point: Sequence[float]) -> complex:
        total = 0j
        for freq, coeff in self.components:
            phase = 2.0 * math.pi * sum(m * x for m, x in zip(freq, point))
            total += coeff * complex(math.cos(phase), math.sin(phase))
        return total

    def integral(self) -> complex:
        for freq, coeff in self.components:
            if all(m == 0 for m in freq):
                return coeff
        return 0j

    def inner(self, other: TrigPoly) -> complex:
        other_map = dict(other.components)
        return sum(
            coeff * other_map[freq].conjugate()
            for freq, coeff in self.components
            if freq in other_map
        )

    def l2_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for _, c in self.components))

    def __mul__(self, other: TrigPoly) -> TrigPoly:
        items = []
        for fa, ca in self.components:
            for fb, cb in other.components:
                items.append((tuple(a + b for a, b in zip(fa, fb)), ca * cb))
        return TrigPoly.of(items)

    def __sub__(self, other: TrigPoly) -> TrigPoly:
        return TrigPoly.of(
            list(self.components) + [(f, -c) for f, c in other.components]
        )


@dataclass(frozen=True)
class BoxIndicator:
    """Indicator of a product of arcs; measure is the product of lengths.

    `contains_float` reads the centers as floats and each radius r as the
    least float at or above r, both worked out once: for a float distance
    x, x >= r exactly when x >= that float."""

    centers: tuple[Real, ...]
    radii: tuple[Fraction, ...]
    float_centers: tuple[float, ...] = field(init=False, repr=False, compare=False)
    radius_ceilings: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "float_centers", tuple(float(c.frac(30)) for c in self.centers))
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
        for r in radii:
            if not (0 < r < Fraction(1, 2)):
                raise ValueError(f"radius {r} outside (0, 1/2)")
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
    rational: bool
    period: int | None


def classify_characters(sys: TorusSystem, f: TrigPoly) -> list[CharacterInfo]:
    """Induced character data for every frequency of the observable."""
    out = []
    for freq, _ in f.components:
        row = sys.transposed_row(freq)
        rational = all(entry.is_rational() for entry in row)
        period = None
        if rational:
            period = math.lcm(*(entry.as_fraction().denominator for entry in row))
        out.append(CharacterInfo(freq, row, rational, period))
    return out


def rational_projection(sys: TorusSystem, f: TrigPoly) -> TrigPoly:
    """Keep exactly the components with rational induced character."""
    infos = {info.freq: info for info in classify_characters(sys, f)}
    return TrigPoly.of(
        (freq, coeff) for freq, coeff in f.components if infos[freq].rational
    )


def q_p_multipliers(
    sys: TorusSystem, f: TrigPoly, polys: PolyVector
) -> list[tuple[CharacterInfo, RootOfUnityMean | None]]:
    """Limit multiplier of each component along the orbit p(n).

    Irrational characters get None (their multiplier is exactly zero);
    rational ones get the exact root-of-unity mean of chi(p(n)) over one
    period of n -> chi(p(n)), which exposes exact-one / exact-zero answers
    via the counts."""
    for entry in polys:
        cert = entry.integer_valued()
        if not cert:
            raise ValueError(f"orbit entry {entry} is not integer-valued")
    out = []
    for info in classify_characters(sys, f):
        if not info.rational:
            out.append((info, None))
            continue
        k, stream = residues(polys, info.row)
        counts = [0] * k
        for residue in stream:
            counts[residue] += 1
        out.append((info, RootOfUnityMean(k, tuple(counts), sum(counts))))
    return out


def q_p_closed_form(sys: TorusSystem, f: TrigPoly, polys: PolyVector) -> TrigPoly:
    """The limit of (1/N) sum T^{p(n)} f: rational components scaled by
    their periodic character mean, irrational components killed."""
    coeffs = dict(f.components)
    items = []
    for info, mean in q_p_multipliers(sys, f, polys):
        if mean is None or mean.is_exactly_zero:
            continue
        multiplier = 1 if mean.is_exactly_one else mean.value()
        items.append((info.freq, coeffs[info.freq] * multiplier))
    return TrigPoly.of(items)


def choose_k(sys: TorusSystem, f: Observable, eps: float) -> int:
    """Smallest-effort modulus k making polynomial averages eps-close to the
    rational projection: include rational characters by decreasing weight
    until the excluded tail satisfies 2*sqrt(sum |c|^2) < eps.

    For a BoxIndicator the Fourier spectrum is infinite, so only the two
    decidable cases are handled: a fully rational action matrix (k is the
    lcm of all entry denominators) and an action with no non-trivial
    rational character at all (k = 1)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if isinstance(f, BoxIndicator):
        return _choose_k_box(sys)
    rational = [
        (abs(coeff), info.freq, info.period)
        for (freq, coeff), info in zip(f.components, classify_characters(sys, f))
        if info.rational
    ]
    rational.sort(key=lambda item: (-item[0], item[1]))
    k = 1
    excluded = [w for w, _, _ in rational]
    while excluded and 2.0 * math.sqrt(sum(w * w for w in excluded)) >= eps:
        weight, freq, period = rational[len(rational) - len(excluded)]
        excluded.pop(0)
        k = math.lcm(k, period)
    return k


def _choose_k_box(sys: TorusSystem) -> int:
    entries = [entry for row in sys.rows for entry in row]
    if all(entry.is_rational() for entry in entries):
        return math.lcm(*(entry.as_fraction().denominator for entry in entries))
    # Is there a non-zero integer frequency m with A^T m rational?  That
    # happens iff the irrational coefficient matrix has non-trivial kernel.
    names = sorted({name for entry in entries for name in entry.basis()[1]})
    rows = []
    for name in names:
        for i in range(sys.dim):
            rows.append([
                sys.rows[j][i].basis()[1].get(name, Fraction(0))
                for j in range(sys.torus_dim)
            ])
    if not kernel_basis(rows, sys.torus_dim):
        return 1
    raise ValueError(
        "box indicator on a mixed rational/irrational action: the rational "
        "spectrum is infinite, choose k from a trigonometric approximation"
    )


@dataclass(frozen=True)
class EmpiricalAverage:
    value: complex
    l2_to_prediction: float | None
    prediction: TrigPoly | None


def empirical_average(
    sys: TorusSystem,
    f: Observable,
    polys: PolyVector,
    n_count: int,
    sample_grid: int = 128,
) -> EmpiricalAverage:
    """(1/N) sum f(x0 + A p(n)) with compensated summation.

    For a TrigPoly the closed-form prediction is also evaluated and the L2
    distance between the empirical average (as a function of the base
    point) and the prediction is estimated over a low-discrepancy grid."""
    if n_count < 1:
        raise ValueError("N must be >= 1")
    base = [float(x.frac(sys.precision)) for x in sys.base_point]
    if isinstance(f, BoxIndicator):
        hits = 0
        for shift in phases(polys, sys.rows, n_count, sys.precision):
            hits += f.contains_float([(x + b) % 1.0 for x, b in zip(shift, base)])
        return EmpiricalAverage(complex(hits / n_count, 0.0), None, None)

    multipliers = {
        info.freq: weyl_sum(polys, info.row, n_count, sys.precision)
        for info in classify_characters(sys, f)
    }
    empirical_fn = TrigPoly.of(
        (freq, coeff * multipliers[freq]) for freq, coeff in f.components
    )
    value = empirical_fn.value_at(base)

    prediction = q_p_closed_form(sys, f, polys)
    difference = empirical_fn - prediction
    grid_err = KahanSum()
    for s in range(sample_grid):
        point = [(_QMC_ALPHAS[j % len(_QMC_ALPHAS)] * (s + 1)) % 1.0
                 for j in range(f.torus_dim)]
        grid_err.add(abs(difference.value_at(point)) ** 2)
    l2 = math.sqrt(grid_err.total / sample_grid) if sample_grid else difference.l2_norm()
    return EmpiricalAverage(value, l2, prediction)


def _shifted_box_hits(box: BoxIndicator, x: Sequence[float], offsets) -> int:
    """How many offsets put x + off in the box, by the rule of
    `BoxIndicator.contains_float`: the same float sums, compared with
    `radius_ceilings`."""
    centers, ceilings = box.float_centers, box.radius_ceilings
    dims = range(len(centers))
    count = 0
    for off in offsets:
        for j in dims:
            delta = (x[j] + off[j] - centers[j]) % 1.0
            if min(delta, 1.0 - delta) >= ceilings[j]:
                break
        else:
            count += 1
    return count


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    std_error: float
    replicate_values: tuple[float, ...]
    measure: float
    samples: int
    replicates: int


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
    shifted Kronecker sequence; the standard error is across replicates."""
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
    d_torus = sys.torus_dim

    # orbit torus offsets, computed once
    offsets = [
        list(phases(polys, sys.rows, n_count, sys.precision))
        for polys, n_count in zip(orbits, n_counts)
    ]

    centers = box.float_centers
    radii = [float(r) for r in box.radii]

    sorted_fracs = None
    if d_torus == 1:
        # 1-d fast path: per orbit, sorted frac(offset - center) for bisection
        sorted_fracs = [
            sorted((off[0] - centers[0]) % 1.0 for off in orbit_offsets)
            for orbit_offsets in offsets
        ]

    def visit_frequency(x: Sequence[float], i: int) -> float:
        n_i = n_counts[i]
        if sorted_fracs is not None:
            # s + x in (-r, r) mod 1  <=>  s in (-r - x, r - x) mod 1
            lo = (-radii[0] - x[0]) % 1.0
            hi = (radii[0] - x[0]) % 1.0
            data = sorted_fracs[i]
            if lo <= hi:
                count = bisect_left(data, hi) - bisect_right(data, lo)
            else:
                count = bisect_left(data, hi) + (len(data) - bisect_right(data, lo))
            return count / n_i
        return _shifted_box_hits(box, x, offsets[i]) / n_i

    rng = random.Random(seed)
    replicate_values = []
    for _ in range(replicates):
        shifts = [rng.random() for _ in range(d_torus)]
        acc = KahanSum()
        for s in range(samples):
            x = [
                (shifts[j] + (s + 1) * _QMC_ALPHAS[j % len(_QMC_ALPHAS)]) % 1.0
                for j in range(d_torus)
            ]
            if not box.contains_float(x):
                continue
            product = 1.0
            for i in range(len(orbits)):
                product *= visit_frequency(x, i)
                if product == 0.0:
                    break
            acc.add(product)
        replicate_values.append(acc.total / samples)

    mean = sum(replicate_values) / replicates
    if replicates > 1:
        variance = sum((v - mean) ** 2 for v in replicate_values) / (replicates - 1)
        std_error = math.sqrt(variance / replicates)
    else:
        std_error = float("nan")
    return CorrelationEstimate(
        mean, std_error, tuple(replicate_values), float(box.measure),
        samples, replicates,
    )
