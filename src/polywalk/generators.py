"""The concrete walk families: unipotent matrix powers, adjoint actions,
the xy - P(z) symmetries, the x - P(y) walk, and signature (p,q) form
generators.

Integer matrices are plain tuples of tuples; everything stays in exact
arithmetic.  Every constructor certifies its defining identity on the spot
(form preservation, unipotency, identity at time zero) so the returned
walks are trustworthy values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import attrgetter
from typing import Sequence

from .poly import MPoly, binomial_poly
from .walks import TIME, Walk, default_coords, preserves

IntMatrix = tuple[tuple[int, ...], ...]


class NotUnipotent(ValueError):
    def __init__(self, size: int):
        super().__init__(f"(g - I)^{size} != 0 for the {size}x{size} matrix")
        self.size = size


def mat(rows: Sequence[Sequence[int]]) -> IntMatrix:
    out = tuple(tuple(int(x) for x in row) for row in rows)
    n = len(out)
    if any(len(row) != n for row in out):
        raise ValueError("matrix must be square")
    return out


def mat_identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_is_zero(a: IntMatrix) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def _bareiss(rows: Sequence[Sequence[int]], width: int):
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss 1968).

    Each step replaces every other row by (p * row - row[c] * pivot_row)
    // previous_pivot, which is exact: entries stay minors of the input.
    When it ends every pivot equals the last pivot d, and the reduced rows
    are d times the reduced row echelon form.  Returns the rows, their
    pivot columns in order, the sign of the row swaps, and d (1 if no
    pivot was found)."""
    m = [list(row) for row in rows]
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(width):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = p
    return m, pivots, sign, prev


def mat_det(a: IntMatrix) -> int:
    _, pivots, sign, last = _bareiss(a, len(a))
    return sign * last if len(pivots) == len(a) else 0


def mat_inverse_sl(a: IntMatrix) -> IntMatrix:
    """Inverse of a determinant-one integer matrix (integral by Cramer)."""
    n = len(a)
    augmented = [tuple(row) + unit for row, unit in zip(a, mat_identity(n))]
    rows, pivots, _, last = _bareiss(augmented, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    if last not in (1, -1):
        raise ValueError("inverse is not integral (determinant is not +-1)")
    return tuple(tuple(x // last for x in row[n:]) for row in rows)


def kernel_basis(rows: Sequence[Sequence[Fraction | int]], width: int) -> list[list[Fraction]]:
    """Basis of {x : M x = 0} for rational M, one vector per free column;
    each vector is a primitive integer vector with positive first non-zero
    entry.

    Each row is scaled by the lcm of its entries' denominators, so a row
    of integers is taken as it is, and reduced one at a time against at
    most `width` kept rows: each kept row has a pivot, its first non-zero
    column, and is zero at the pivots of the rows kept before it.  A new
    row r becomes p * r - r[c] * k, fraction-free, for each kept row k
    with pivot c and p = k[c], in the order they were kept, then is divided
    by the gcd of its entries.  A row that reduces to zero is dropped,
    otherwise it is kept; once `width` rows are kept the kernel is {0}.
    `_bareiss` then runs on the kept rows alone.

    Proof.  Each step multiplies r by a non-zero integer and adds a
    multiple of a kept row, so the kept rows together with r span the
    same space before and after it: the kept rows always span the row
    space of the rows read so far.  After the step for the kept row with
    pivot c, r is zero at c, and later steps keep it zero there, since
    every later kept row is zero at c.  So a reduced non-zero r has its
    first non-zero entry at a column that is no pivot yet, and it is zero
    at every earlier pivot.  Kept rows with distinct pivots, each zero at
    the earlier pivots, are linearly independent; so `width` of them span
    Q^width, and M has the kernel {0}.  Otherwise the kept rows span the
    row space of M, whose reduced row echelon form R is unique.  `_bareiss`
    returns d * R with d != 0, and the vector built for a free column is
    d times the kernel vector read off R, made primitive with a positive
    leading entry, which does not depend on d.  So the basis is the one
    that elimination of all the rows of M gives.  It depends only on the
    row space, so scaling a row by a non-zero rational does not change it.
    """
    kept: list[list[int]] = []
    leads: list[int] = []
    for row in rows:
        den = lcm(*map(attrgetter("denominator"), row))
        r = (list(map(attrgetter("numerator"), row)) if den == 1 else
             [x.numerator * (den // x.denominator) for x in row])
        for k, c in zip(kept, leads):
            f = r[c]
            if f:
                p = k[c]
                r = [p * x - f * y for x, y in zip(r, k)]
        g = gcd(*r)
        if not g:
            continue
        kept.append([x // g for x in r])
        leads.append(next(c for c, x in enumerate(r) if x))
        if len(kept) == width:
            return []
    reduced, pivots, _, last = _bareiss(kept, width)
    basis = []
    for fc in range(width):
        if fc in pivots:
            continue
        vec = [0] * width
        vec[fc] = last
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        g = gcd(*vec)
        if next(x for x in vec if x) < 0:
            g = -g
        basis.append([Fraction(x // g) for x in vec])
    return basis


def nilpotency_index(a: IntMatrix) -> int | None:
    """Least j with a^j = 0, or None if a is not nilpotent (j <= size suffices)."""
    n = len(a)
    power = mat_identity(n)
    for j in range(n + 1):
        if mat_is_zero(power):
            return j
        power = mat_mul(power, a)
    return None


def unipotent_walk(gamma: Sequence[Sequence[int]], coords: Sequence[str] | None = None) -> Walk:
    """The walk n -> gamma^n, written through the binomial expansion
    gamma^n = sum_j C(n, j) (gamma - I)^j (finite because gamma - I is
    nilpotent).  Entries have rational coefficients but certify integral."""
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


# -- adjoint representation -------------------------------------------------

def sl_basis(n: int) -> list[IntMatrix]:
    """Fixed basis of the trace-zero n x n matrices.

    n=2 uses (e, h, f) = (E12, E11-E22, E21); larger n lists the
    off-diagonal elementary matrices row-major, then the consecutive
    diagonal differences.  Fixed so adjoint matrices are reproducible."""
    def unit(i, j):
        return tuple(
            tuple(1 if (r, c) == (i, j) else 0 for c in range(n)) for r in range(n)
        )

    def diag_diff(i):
        return tuple(
            tuple((1 if r == c == i else -1 if r == c == i + 1 else 0)
                  for c in range(n))
            for r in range(n)
        )

    if n == 2:
        return [unit(0, 1), diag_diff(0), unit(1, 0)]
    basis = [unit(i, j) for i in range(n) for j in range(n) if i != j]
    basis += [diag_diff(i) for i in range(n - 1)]
    return basis


def sl_coordinates(a: IntMatrix) -> tuple[int, ...]:
    """Coordinates of a trace-zero matrix in the sl_basis order."""
    n = len(a)
    if sum(a[i][i] for i in range(n)) != 0:
        raise ValueError("matrix must be trace-zero")
    if n == 2:
        return (a[0][1], a[0][0], a[1][0])
    off = [a[i][j] for i in range(n) for j in range(n) if i != j]
    partial = []
    running = 0
    for i in range(n - 1):
        running += a[i][i]
        partial.append(running)
    return tuple(off + partial)


def adjoint_action_matrix(g: Sequence[Sequence[int]]) -> IntMatrix:
    """Matrix of A -> g A g^(-1) on the trace-zero matrices, in sl_basis."""
    g = mat(g)
    if mat_det(g) != 1:
        raise ValueError(f"determinant must be 1, got {mat_det(g)}")
    g_inv = mat_inverse_sl(g)
    columns = [
        sl_coordinates(mat_mul(mat_mul(g, b), g_inv)) for b in sl_basis(len(g))
    ]
    d = len(columns)
    return tuple(tuple(columns[j][i] for j in range(d)) for i in range(d))


# -- form-preserving families ------------------------------------------------

def _require_admissible(p: MPoly) -> str:
    """The variable of P; ValueError unless P is admissible for a walk."""
    support = p.support()
    if len(support) > 1:
        raise ValueError(f"polynomial must involve only '{support[0]}', got {support}")
    if not p.has_integer_coefficients():
        raise ValueError("polynomial must have integer coefficients")
    if p.constant_term() != 0:
        raise ValueError(f"P(0) must be 0, got {p.constant_term()}")
    degree = p.degree_in(support[0]) if support else 0
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    return support[0]


def secant_quotient(p: MPoly, var: str, shift: MPoly, denominator: str) -> MPoly:
    """(P(var + shift) - P(var)) / denominator, exact by construction:
    the numerator vanishes when the denominator variable does, so every
    surviving monomial carries it."""
    subs = {v: MPoly.var(shift.vars, v) for v in p.vars if v != var}
    subs[var] = MPoly.var(shift.vars, var) + shift
    numerator = p.substitute(subs) - p.extend(shift.vars)
    idx = numerator.vars.index(denominator)

    def divided(exps):
        if exps[idx] == 0:
            raise ArithmeticError(f"monomial {exps} lacks '{denominator}'; "
                                  "division is not exact")
        return exps[:idx] + (exps[idx] - 1,) + exps[idx + 1:]

    return numerator.map_monomials(numerator.vars, divided)


@cache
def xy_minus_P_walks(p: MPoly) -> tuple[Walk, Walk]:
    """The two shear walks preserving x*y - P(z):

        S1(n)(x, y, z) = (x, y + H(n, x, z), z + n*x)
        S2(n)(x, y, z) = (x + H(n, y, z), y, z + n*y)

    with H(n, x, z) = (P(z + n*x) - P(z)) / x.  Built once per P and
    process, as `signature_form_walks` is."""
    i = p.vars.index(_require_admissible(p))

    coords = ("x", "y", "z")
    universe = (TIME,) + coords
    x = MPoly.var(universe, "x")
    y = MPoly.var(universe, "y")
    z = MPoly.var(universe, "z")
    t = MPoly.var(universe, TIME)

    p_of_z = p.map_monomials(universe, lambda e: (0, 0, 0, e[i]))   # var^a -> z^a
    h_x = secant_quotient(p_of_z, "z", t * x, "x")
    h_y = secant_quotient(p_of_z, "z", t * y, "y")

    s1 = Walk([x, y + h_x, z + t * x], coords)
    s2 = Walk([x + h_y, y, z + t * y], coords)

    form = (MPoly.var(coords, "x") * MPoly.var(coords, "y")
            - p.map_monomials(coords, lambda e: (0, 0, e[i])))
    for walk in (s1, s2):
        if not preserves(form, walk):
            raise AssertionError("constructed walk fails to preserve x*y - P(z)")
    return s1, s2


@cache
def bogolubov_walk(p: MPoly) -> Walk:
    """The walk (x, y) -> (x + P(y + n) - P(y), y + n), preserving x - P(y).
    Built once per P and process."""
    i = p.vars.index(_require_admissible(p))
    p = p.map_monomials(("y",), lambda e: (e[i],))   # P(var) -> P(y), over y alone

    coords = ("x", "y")
    universe = (TIME,) + coords
    x = MPoly.var(universe, "x")
    y = MPoly.var(universe, "y")
    t = MPoly.var(universe, TIME)

    p_of_y = p.substitute({"y": y})
    p_shifted = p.substitute({"y": y + t})
    walk = Walk([x + p_shifted - p_of_y, y + t], coords)

    form = MPoly.var(coords, "x") - p.extend(coords)
    if not preserves(form, walk):
        raise AssertionError("constructed walk fails to preserve x - P(y)")
    return walk


# -- signature (p, q) quadratic forms ----------------------------------------

# Block generators on coordinates (x, y1, y2) preserving x^2 - y1^2 - y2^2,
# obtained by conjugating the even-entry shear generators through the
# determinant identity x^2 - y1^2 - y2^2 = det [[y2, -(x+y1)], [x-y1, -y2]].
_LAMBDA_GENERATORS = (((1, 2), (0, 1)), ((1, 0), (2, 1)))


def _block_generator(gamma0: IntMatrix) -> IntMatrix:
    """Push A -> gamma0 A gamma0^(-1) through the (x, y1, y2) coordinates of
    the even-off-diagonal trace-zero matrices."""
    g_inv = mat_inverse_sl(gamma0)
    columns = []
    for basis_vec in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        bx, by1, by2 = basis_vec
        a = ((by2, -(bx + by1)), (bx - by1, -by2))
        conj = mat_mul(mat_mul(gamma0, a), g_inv)
        a11, a12 = conj[0]
        a21, _ = conj[1]
        if (a21 - a12) % 2 or (-a12 - a21) % 2:
            raise AssertionError("conjugation left the even-entry sublattice")
        columns.append(((a21 - a12) // 2, (-a12 - a21) // 2, a11))
    return tuple(tuple(columns[j][i] for j in range(3)) for i in range(3))


def _embed_block(block: IntMatrix, dim: int, positions: tuple[int, int, int]) -> IntMatrix:
    rows = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for bi, gi in enumerate(positions):
        for bj, gj in enumerate(positions):
            rows[gi][gj] = block[bi][bj]
    for gi in positions:
        for j in range(dim):
            if j not in positions:
                rows[gi][j] = 0
    return tuple(tuple(row) for row in rows)


def signature_form(p: int, q: int) -> MPoly:
    coords = tuple(f"x{i + 1}" for i in range(p)) + tuple(f"y{j + 1}" for j in range(q))
    form = MPoly.zero(coords)
    for i in range(p):
        form = form + MPoly.var(coords, f"x{i + 1}") ** 2
    for j in range(q):
        form = form - MPoly.var(coords, f"y{j + 1}") ** 2
    return form


@dataclass(frozen=True)
class SignatureGenerators:
    """Generator matrices and walks for x_1^2+..+x_p^2 - y_1^2-..-y_q^2."""

    p: int
    q: int
    blocks: tuple[tuple[int, int, int], ...]
    matrices: tuple[IntMatrix, ...]
    walks: tuple[Walk, ...]
    form: MPoly


@cache
def signature_form_walks(p: int, q: int) -> SignatureGenerators:
    """Unipotent generators acting on overlapping 3-dimensional blocks
    (one plus-coordinate, two minus-coordinates), each preserving the form.

    The block chain (a, 1, 2) for every a plus (1, b, b+1) for every b makes
    consecutive blocks overlap, which is what lets the blockwise actions
    combine into one irreducibly-acting family.  Each family is built once
    per process and shared, so its value is frozen."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if q < 2:
        raise ValueError(f"need q >= 2 (no 3-dimensional block exists), got {q}")
    dim = p + q
    form = signature_form(p, q)
    coords = form.vars

    blocks: list[tuple[int, int, int]] = []
    for a in range(1, p + 1):
        blocks.append((a, 1, 2))
    for b in range(1, q):
        candidate = (1, b, b + 1)
        if candidate not in blocks:
            blocks.append(candidate)

    base_blocks = [_block_generator(mat(g)) for g in _LAMBDA_GENERATORS]
    matrices: list[IntMatrix] = []
    for (a, b, c) in blocks:
        positions = (a - 1, p + b - 1, p + c - 1)
        for base in base_blocks:
            matrices.append(_embed_block(base, dim, positions))

    walks = [unipotent_walk(m, coords) for m in matrices]
    for walk in walks:
        if not preserves(form, walk):
            raise AssertionError("signature generator fails to preserve the form")
    return SignatureGenerators(p, q, tuple(blocks), tuple(matrices), tuple(walks), form)
