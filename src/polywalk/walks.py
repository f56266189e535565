"""Polynomial walks on Z^d as first-class immutable values.

A walk stores one polynomial per coordinate over the universe
(t, coord_1, ..., coord_d): the image of the point x at time n is obtained
by evaluating every entry at (t=n, coords=x).  Construction certifies the
two defining properties, time zero acts as the identity and every entry is
integer on integer inputs, so downstream code never re-checks them.

Walks compose and reparametrize but are not required to be invertible (the
underlying objects are semigroups of maps, not groups).
"""

from __future__ import annotations

from functools import partial
from math import prod
from typing import Iterable, Sequence

from .poly import MPoly, PolyVector, is_reserved_time_name, poly_parse

TIME = "t"


def default_coords(dim: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dim))


class Walk:
    """A map n -> (Z^d -> Z^d) with polynomial entries and identity at n=0.

    `check=False` skips both construction checks.  `compose`, `reparam` and
    `time_scale` pass it: composing integer-valued walks, or substituting
    t^power or k*t for t, keeps both properties.
    """

    __slots__ = ("dim", "coords", "entries")

    def __init__(
        self,
        entries: Iterable[MPoly],
        coords: Sequence[str] | None = None,
        *,
        check: bool = True,
    ):
        entries = tuple(entries)
        dim = len(entries)
        if dim == 0:
            raise ValueError("walk needs at least one coordinate")
        coords = tuple(coords) if coords is not None else default_coords(dim)
        if len(coords) != dim:
            raise ValueError(f"{dim} entries but {len(coords)} coordinate names")
        for c in coords:
            if is_reserved_time_name(c):
                raise ValueError(
                    f"coordinate name '{c}' is reserved for time variables"
                )
        universe = (TIME,) + coords
        entries = tuple(p.extend(universe) if p.vars != universe else p for p in entries)

        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "entries", PolyVector(entries))
        if check:
            self._check_identity_at_zero()
            self._certify_integrality()

    def __setattr__(self, name, value):
        raise AttributeError("Walk is immutable")

    def __reduce__(self):
        # every Walk passed its checks when it was built
        return partial(Walk, check=False), (tuple(self.entries), self.coords)

    def _check_identity_at_zero(self):
        # an entry at t = 0 is its terms free of t, over the coordinates
        for name, entry in zip(self.coords, self.entries):
            at0 = entry.map_monomials(self.coords, lambda e: e[1:], lambda e: not e[0])
            expected = MPoly.var(self.coords, name)
            if at0 != expected:
                raise ValueError(
                    f"entry for '{name}' is {at0} at t=0, not the identity"
                )

    def _certify_integrality(self):
        for name, entry in zip(self.coords, self.entries):
            cert = entry.integer_valued()
            if not cert:
                raise ValueError(
                    f"entry for '{name}' is not integer-valued "
                    f"(witness {cert.witness})"
                )

    # -- core operations ------------------------------------------------

    def check_vector(self, v: Sequence[int]) -> None:
        """Raise ValueError unless v has the walk's dimension."""
        if len(v) != self.dim:
            raise ValueError(f"vector has length {len(v)}, walk dimension is {self.dim}")

    def apply(self, n: int, v: Sequence[int]) -> tuple[int, ...]:
        """Exact image of the integer vector v at time n >= 0."""
        if n < 0:
            raise ValueError(f"time must be non-negative, got {n}")
        self.check_vector(v)
        point = {TIME: n}
        point.update(zip(self.coords, v))
        return self.entries.eval_int(point)

    def compose(self, other: Walk) -> Walk:
        """The walk n -> self(n) o other(n)."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.coords != other.coords:
            raise ValueError(f"coordinate names differ: {self.coords} vs {other.coords}")
        universe = (TIME,) + self.coords
        bindings = {TIME: MPoly.var(universe, TIME)}
        bindings.update(zip(self.coords, other.entries))
        composed = [p.substitute(bindings) for p in self.entries]
        return Walk(composed, self.coords, check=False)

    def reparam(self, power: int) -> Walk:
        """The walk n -> self(n^power), power >= 1."""
        if power < 1:
            raise ValueError(f"reparametrization power must be >= 1, got {power}")
        if power == 1:
            return self
        return Walk([p.map_monomials(p.vars, lambda e: (e[0] * power, *e[1:]))
                     for p in self.entries], self.coords, check=False)

    def time_scale(self, k: int) -> Walk:
        """The walk n -> self(k*n), k >= 1 (keeps orbits of k*Z^d inside k*Z^d)."""
        if k < 1:
            raise ValueError(f"time scale must be >= 1, got {k}")
        if k == 1:
            return self
        return Walk([p.map_monomials(p.vars, lambda e: e, lambda e: k ** e[0])
                     for p in self.entries], self.coords, check=False)

    def orbit_poly(self, v: Sequence[int], var: str = "n") -> PolyVector:
        """Symbolic orbit n -> self(n) v as univariate polynomials.

        Binding t -> n and x -> v is the monomial map t^a x^e -> n^a with
        weight v^e (`MPoly.map_monomials`)."""
        self.check_vector(v)
        return PolyVector([p.map_monomials((var,), lambda e: e[:1],
                                           lambda e: prod(map(pow, v, e[1:])))
                           for p in self.entries])

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"dim {self.dim}", "vars " + " ".join((TIME,) + self.coords)]
        lines += [f"entry {p}" for p in self.entries]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> Walk:
        dim = None
        universe: tuple[str, ...] | None = None
        entries: list[MPoly] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(" ")
            if key == "dim":
                dim = int(rest)
            elif key == "vars":
                universe = tuple(rest.split())
            elif key == "entry":
                if universe is None:
                    raise ValueError("walk record lists entries before vars")
                entries.append(poly_parse(rest, universe))
            else:
                raise ValueError(f"unknown walk record line: {line!r}")
        if dim is None or universe is None:
            raise ValueError("walk record missing dim or vars")
        if universe[0] != TIME:
            raise ValueError(f"first variable must be '{TIME}', got {universe[0]!r}")
        if len(entries) != dim:
            raise ValueError(f"expected {dim} entries, found {len(entries)}")
        return cls(entries, universe[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Walk):
            return NotImplemented
        return self.coords == other.coords and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.coords, self.entries))

    def __repr__(self) -> str:
        body = ", ".join(f"{c}->{p}" for c, p in zip(self.coords, self.entries))
        return f"Walk[{body}]"


def identity_walk(dim: int, coords: Sequence[str] | None = None) -> Walk:
    coords = tuple(coords) if coords is not None else default_coords(dim)
    universe = (TIME,) + coords
    return Walk([MPoly.var(universe, c) for c in coords], coords, check=False)


class ScalingCertificate:
    """Outcome of `walk_scaling_certificate`.  When `ok` is False,
    `witness` is (k, n, v) with v in k*Z^d and k >= 1, n >= 0, such that
    some entry of S(k*n) v is not divisible by k."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness: tuple[int, int, tuple[int, ...]] | None):
        self.ok = ok
        self.witness = witness

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return "ScalingCertificate(ok)" if self.ok else f"ScalingCertificate(witness {self.witness})"


# The scale variable; a reserved time name, so no coordinate can take it.
SCALE = "t0"


def walk_scaling_certificate(walk: Walk) -> ScalingCertificate:
    """Decide whether S(k*n) maps k*Z^d into k*Z^d for every k >= 1, n >= 0.

    With v = k*x, an entry p(t, x) = sum c * t^a * x^b gives
    p(k*n, k*x) = k * R(k, n, x), where R(k, t, x) = sum c * k^(a+|b|-1) *
    t^a * x^b is a polynomial when p has no constant term.  The walk keeps
    k*Z^d exactly when R is an integer at every k >= 1, t >= 0 and integer
    x, and that holds exactly when R(k'+1, t, x) is integer-valued.

    Proof.  Integer-valued gives the claim at k' = k - 1 >= 0.  Conversely,
    a polynomial that is an integer on its degree grid is integer-valued
    (`MPoly.integer_valued`), and the grid's points have k' >= 0, t >= 0
    and x >= 0, all inside the claim's range; so the claim makes
    R(k'+1, t, x) an integer on the grid, hence integer-valued.  The
    first non-integral grid point (k', t, x), the witness that
    `MPoly.integer_valued` returns, gives the witness
    (k'+1, t, (k'+1)*x).  A constant term c != 0 (only a walk built with
    check=False has one) is that entry of S(0) 0, as every other term
    vanishes there, and c is no integer multiple of |numerator(c)| + 1:
    the witness is (|numerator(c)| + 1, 0, 0).
    """
    universe = (SCALE, TIME) + walk.coords
    shift = {SCALE: MPoly.var(universe, SCALE) + 1}
    for entry in walk.entries:
        c = entry.constant_term()
        if c:
            return ScalingCertificate(False, (abs(c.numerator) + 1, 0, (0,) * walk.dim))
        scaled = entry.map_monomials(universe, lambda e: (sum(e) - 1, *e))
        cert = scaled.substitute(shift).integer_valued()
        if not cert:
            point = cert.witness
            k = point[SCALE] + 1
            return ScalingCertificate(
                False, (k, point[TIME], tuple(k * point[x] for x in walk.coords)))
    return ScalingCertificate(True, None)


def preserves(form: MPoly, walk: Walk) -> bool:
    """True iff form(S(t)x) - form(x) is the zero polynomial."""
    for name in form.support():
        if name not in walk.coords:
            raise ValueError(
                f"form variable '{name}' is not a coordinate of the walk {walk.coords}"
            )
    extras = tuple(v for v in form.vars if v not in walk.coords and v != TIME)
    universe = (TIME,) + walk.coords + extras
    bindings = {name: walk.entries[walk.coords.index(name)]
                for name in form.vars if name in walk.coords}
    transported = form.substitute(bindings)
    return (transported.extend(universe) - form.extend(universe)).is_zero()
