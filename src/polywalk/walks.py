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

import random
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

    def _check_identity_at_zero(self):
        zero = MPoly.zero(())
        for name, entry in zip(self.coords, self.entries):
            at0 = entry.substitute({TIME: zero})
            expected = MPoly.var((TIME,) + self.coords, name)
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
        universe = (TIME,) + self.coords
        t = MPoly.var(universe, TIME)
        bindings = {TIME: t ** power}
        return Walk([p.substitute(bindings) for p in self.entries], self.coords,
                    check=False)

    def time_scale(self, k: int) -> Walk:
        """The walk n -> self(k*n), k >= 1 (keeps orbits of k*Z^d inside k*Z^d)."""
        if k < 1:
            raise ValueError(f"time scale must be >= 1, got {k}")
        if k == 1:
            return self
        universe = (TIME,) + self.coords
        bindings = {TIME: MPoly.var(universe, TIME) * k}
        return Walk([p.substitute(bindings) for p in self.entries], self.coords,
                    check=False)

    def orbit_poly(self, v: Sequence[int], var: str = "n") -> PolyVector:
        """Symbolic orbit n -> self(n) v as univariate polynomials."""
        self.check_vector(v)
        universe = (var,)
        bindings = {TIME: MPoly.var(universe, var)}
        for name, value in zip(self.coords, v):
            bindings[name] = MPoly.const(universe, value)
        return self.entries.substitute(bindings)

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
    """Symbolic evidence that S(k*n) maps k*Z^d into k*Z^d for every k.

    The universal statement follows from every entry having zero constant
    term; `samples` records the randomized concrete divisibility checks run
    alongside.  `failures` lists (coordinate, constant term) pairs when the
    symbolic check does not hold.
    """

    __slots__ = ("ok", "failures", "samples")

    def __init__(self, ok: bool, failures, samples: int):
        self.ok = ok
        self.failures = failures
        self.samples = samples

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        if self.ok:
            return f"ScalingCertificate(ok, {self.samples} concrete checks)"
        return f"ScalingCertificate(failed: {self.failures})"


def walk_scaling_certificate(walk: Walk, samples: int = 25, seed: int = 0) -> ScalingCertificate:
    """Check the zero-constant-term property and sample concrete divisibility."""
    failures = [
        (name, entry.constant_term())
        for name, entry in zip(walk.coords, walk.entries)
        if entry.constant_term() != 0
    ]
    if failures:
        return ScalingCertificate(False, failures, 0)
    rng = random.Random(seed)
    done = 0
    for _ in range(samples):
        k = rng.randint(1, 20)
        n = rng.randint(0, 50)
        v = [k * rng.randint(-10, 10) for _ in range(walk.dim)]
        image = walk.apply(k * n, v)
        for value in image:
            if value % k != 0:
                return ScalingCertificate(
                    False, [("concrete", (k, n, tuple(v), image))], done
                )
        done += 1
    return ScalingCertificate(True, [], done)


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
