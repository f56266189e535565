"""The three workloads, generated from the benchmark seed.

Each operation is one CLI subcommand: an argv list for `polywalk.cli.main`,
plus what its checker needs.  Config files go to a scratch directory
inside the checkout.  The search workload picks its targets here: for each
candidate target the certificate orbit comes from `construct-walk`, and
the benchmark's own fixed-point scan finds its first hit.  A target is
kept only when that hit lies in a fixed band, so every seed asks the
program for about the same amount of scanning.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from pathlib import Path

from checks import PhaseScanner, eval_int_poly, parse_certificate, parse_univariate

WORKLOADS = ("construct", "search", "averages")
BATCH = 16


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _vec(values) -> str:
    return ",".join(str(v) for v in values)


def _construct_argv(gens, v) -> list[str]:
    argv = ["construct-walk"]
    for g in gens:
        argv += ["--gen", g]
    return argv + [f"--v={_vec(v)}"]


def _write_config(workdir: Path, name: str, lines: list[str]) -> str:
    path = workdir / (re.sub(r"[^A-Za-z0-9_.-]", "_", name) + ".cfg")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# -- construct -----------------------------------------------------------------

SIGNATURES = ((1, 3), (2, 3), (1, 4), (3, 3), (2, 4))
# generator counts of signature_form_walks(p, q): two walks per block
SIGNATURE_WALKS = {(p, q): 2 * (p + q - 2) for p, q in SIGNATURES}
SL2_PAIR = ("adjoint:1,1,0,1", "adjoint:1,0,1,1")
SL3_PAIR = ("adjoint:1,1,0,0,1,1,0,0,1", "adjoint:1,0,0,1,1,0,0,1,1")


def construct_ops(seed: int, workdir: Path, run_cli) -> list[dict]:
    rng = _rng(seed, "construct")
    ops = []

    def add(name, gens, v, form=None):
        samples = sorted(rng.sample(range(2, 40), 3))
        ops.append({
            "name": name, "kind": "construct", "argv": _construct_argv(gens, v),
            "check": {"v": list(v), "form": form, "sample_points": samples},
        })

    for power in (2, 3, 5, 7):
        P = f"z^{power}"
        add(f"xyP-{P}", [f"xyP:{P}:1", f"xyP:{P}:2"], (1, 0, 0),
            {"kind": "xyP", "P": parse_univariate(P, "z")})
    c = rng.choice([x for x in range(-9, 10) if x])
    add("bogolubov-y^3", ["bogolubov:y^3"], (c, 0),
        {"kind": "bogolubov", "P": parse_univariate("y^3", "y")})
    for i in range(2):
        v = (0, 0, 0)
        while v == (0, 0, 0):
            v = tuple(rng.randint(-3, 3) for _ in range(3))
        add(f"sl2-adjoint-{i + 1}", SL2_PAIR, v)
    add("sl3-adjoint", SL3_PAIR, (1,) + (0,) * 7)
    for p, q in SIGNATURES:
        gens = [f"signature:{p},{q}:{i}" for i in range(1, SIGNATURE_WALKS[p, q] + 1)]
        add(f"signature-{p},{q}", gens, (1,) + (0,) * (p + q - 1),
            {"kind": "signature", "p": p})
    return ops


# -- search --------------------------------------------------------------------

BOHR_FAMILIES = (
    # name, subcommand, P, generator specs (format with P), frequencies,
    # arc radius, first-hit band, targets kept
    ("magyar-z^2", "magyar", "z^2", ("xyP:{P}:1", "xyP:{P}:2"),
     ("sqrt2", "sqrt3", "sqrt5"), "1/20000", (4000, 5000), 5),
    ("magyar-z^3", "magyar", "z^3", ("xyP:{P}:1", "xyP:{P}:2"),
     ("sqrt2", "sqrt3", "sqrt5"), "1/5000", (1000, 1300), 2),
    ("bogolubov-y^2", "bogolubov", "y^2", ("bogolubov:{P}",),
     ("sqrt2", "sqrt3"), "1/20000", (4000, 5000), 2),
)
WINDOW_SIDE = 60
WINDOW_POINTS = 1200
WINDOW_TARGETS = 6
WINDOW_N_MAX = 50
THREADED_REPEATS = 2


def _start_vector(sub: str, target: int) -> tuple[int, ...]:
    return (1, target, 0) if sub == "magyar" else (target, 0)


def _form(sub: str, P: str) -> dict:
    if sub == "magyar":
        return {"kind": "xyP", "P": parse_univariate(P, "z")}
    return {"kind": "bogolubov", "P": parse_univariate(P, "y")}


def _pick_targets(rng, sub, gens, run_cli, count, accept) -> list[tuple[int, int]]:
    """Seeded candidate targets, kept while accept(orbit) gives a hit."""
    pool = [t for t in range(-300, 301) if t]
    rng.shuffle(pool)
    kept = []
    while len(kept) < count:
        if not pool:
            raise RuntimeError("no candidate target met the first-hit band")
        batch, pool = pool[:BATCH], pool[BATCH:]
        outs = run_cli([_construct_argv(gens, _start_vector(sub, t)) for t in batch])
        for target, (rc, out) in zip(batch, outs):
            if rc != 0:
                continue
            n = accept(parse_certificate(out)["orbit"])
            if n is not None:
                kept.append((target, n))
                if len(kept) == count:
                    break
    return kept


def search_ops(seed: int, workdir: Path, run_cli) -> list[dict]:
    ops = []
    deep = []
    for name, sub, P, gen_fmt, thetas, radius, (lo, hi), count in BOHR_FAMILIES:
        rng = _rng(seed, name)
        gens = [g.format(P=P) for g in gen_fmt]
        thetas_real = [{t: Fraction(1)} for t in thetas]

        def in_band(orbit, thetas_real=thetas_real, radius=radius, lo=lo, hi=hi):
            scanner = PhaseScanner(orbit, thetas_real, 2 * Fraction(radius), hi)
            n, ambiguous = scanner.first_hit()
            return n if n is not None and lo <= n and not ambiguous else None

        dim = 3 if sub == "magyar" else 2
        for target, n in _pick_targets(rng, sub, gens, run_cli, count, in_band):
            cfg = _write_config(workdir, f"{name}-{target}", [
                "model = bohr", f"dim = {dim}", f"freq_1 = {', '.join(thetas)}",
                f"radius_1 = {radius}", f"P = {P}", "k = 1",
                f"targets = {target}", f"N_max = {hi}",
            ])
            op = {
                "name": f"{name}-{target}", "kind": "search",
                "argv": [sub, "--config", cfg],
                "check": {"targets": [target], "expected_n": [n], "n_max": hi,
                          "form": _form(sub, P), "thetas": list(thetas),
                          "radius": radius},
            }
            ops.append(op)
            if name == "magyar-z^2":
                deep.append((n, op))
    ops.append(_window_op(seed, workdir, run_cli))
    deep.sort(key=lambda item: item[0], reverse=True)
    for _, op in deep[:THREADED_REPEATS]:
        ops.append(dict(op, name=op["name"] + "-jobs2", argv=op["argv"] + ["--jobs", "2"]))
    return ops


def _window_op(seed: int, workdir: Path, run_cli) -> dict:
    rng = _rng(seed, "window")
    cells = rng.sample(range(WINDOW_SIDE * WINDOW_SIDE), WINDOW_POINTS)
    points = [(c // WINDOW_SIDE, c % WINDOW_SIDE) for c in cells]
    point_set = set(points)

    def first_difference_hit(orbit):
        for n in range(1, WINDOW_N_MAX + 1):
            w = [eval_int_poly(p, n) for p in orbit]
            if any(abs(x) >= WINDOW_SIDE for x in w):
                continue
            if any((b[0] + w[0], b[1] + w[1]) in point_set for b in points):
                return n
        return None

    picked = _pick_targets(rng, "bogolubov", ["bogolubov:y^2"], run_cli,
                           WINDOW_TARGETS, first_difference_hit)
    targets = [t for t, _ in picked]
    cfg = _write_config(workdir, "window", [
        "model = window", "dim = 2", f"side = {WINDOW_SIDE}",
        "points = " + "; ".join(_vec(p) for p in points),
        "P = y^2", "k = 1", f"targets = {_vec(targets)}",
        f"N_max = {WINDOW_N_MAX}",
    ])
    return {
        "name": "window-y^2", "kind": "search", "argv": ["bogolubov", "--config", cfg],
        "check": {"targets": targets, "expected_n": [n for _, n in picked],
                  "n_max": WINDOW_N_MAX, "form": _form("bogolubov", "y^2"),
                  "points": points},
    }


# -- averages ------------------------------------------------------------------

WEYL_N = 30000
RATIONAL_N = 20000
MIXED_N = 10000
BOX_N = 10000
GOLDEN_N = 5000
CORRELATE_N = 2000


def _coefficient(rng) -> float:
    return rng.choice([0.25, 0.5, -0.5, 0.75, -0.25])


def averages_ops(seed: int, workdir: Path, run_cli) -> list[dict]:
    rng = _rng(seed, "averages")
    ops = []

    def weyl(name, polys, thetas, n_count, exact=False):
        argv = ["weyl", "--p", ", ".join(polys), "--theta", ", ".join(thetas),
                "--N", str(n_count)] + (["--exact"] if exact else [])
        ops.append({"name": name, "kind": "weyl", "argv": argv, "points": n_count,
                    "check": {"polys": polys, "thetas": thetas, "N": n_count,
                              "exact": exact}})

    def ergodic(name, rows, x0, p, n_count, components=None, box=None, fault=None):
        lines = [f"row_{i + 1} = {', '.join(r)}" for i, r in enumerate(rows)]
        lines += [f"x0 = {', '.join(x0)}", f"p = {', '.join(p)}", f"N = {n_count}"]
        check = {"rows": rows, "x0": x0, "p": p, "N": n_count}
        if box:
            center, radius = box
            lines += ["observable = box", f"center_1 = {center}", f"radius_1 = {radius}"]
            check.update(observable="box", radius=radius)
        else:
            lines.append("observable = trig")
            for i, (m, c) in enumerate(components):
                lines.append(f"comp_{i + 1} = {' '.join(map(str, m))} : {c} : 0")
            check.update(observable="trig", components=components)
        cfg = _write_config(workdir, name, lines)
        ops.append({"name": name, "kind": "ergodic", "argv": ["ergodic-avg", "--config", cfg],
                    "points": n_count, "check": check, "known_fault": fault})

    weyl("weyl-n^2", ["n^2"], ["sqrt2"], WEYL_N)
    weyl("weyl-n^2,n^3", ["n^2", "n^3"], ["sqrt2", "sqrt3"], WEYL_N)
    weyl("weyl-exact", ["n"], ["1/3"], WEYL_N + rng.randrange(3), exact=True)
    # n^2 + n^3 has residues 2, 0, 0, 2, 0, 0 mod 6, so the characters m = 1, 2
    # have non-trivial root-of-unity means (6*n + 6*n^3 would make all trivial)
    ergodic("rational-1/6", [["1/6"]], [f"{rng.randrange(12)}/12"], ["n^2 + n^3"],
            RATIONAL_N, components=[((m,), _coefficient(rng)) for m in (1, 2, 3)])
    ergodic("mixed-1/2-sqrt3", [["1/2", "0"], ["0", "sqrt3"]],
            [f"{rng.randrange(8)}/8", f"{rng.randrange(8)}/8"], ["n", "n^2"], MIXED_N,
            components=[((m1, m2), _coefficient(rng))
                        for m1, m2 in ((1, 0), (2, 0), (0, 1), (1, 1))])
    ergodic("box-sqrt2", [["sqrt2"]], ["0"], ["n^2"], BOX_N,
            box=(f"{rng.randrange(10)}/10", "1/5"))

    centers = [f"{rng.randrange(10)}/10" for _ in range(2)]
    cfg = _write_config(workdir, "correlate", [
        "row_1 = sqrt2, sqrt3", "row_2 = sqrt5, sqrt2",
        f"center_1 = {centers[0]}", f"center_2 = {centers[1]}",
        "radius_1 = 3/10", "radius_2 = 3/10",
        "orbit_1 = n^6, n^3", "orbit_2 = n^6, n^3",
        f"N_1 = {CORRELATE_N}", f"N_2 = {CORRELATE_N}",
        "samples = 128", "replicates = 4", f"seed = {rng.randrange(10 ** 6)}", "k = 1",
    ])
    ops.append({"name": "correlate-2-torus", "kind": "correlate",
                "argv": ["correlate", "--config", cfg],
                # both orbits at N, then again at N/2 for the convergence line
                "points": 2 * CORRELATE_N + 2 * (CORRELATE_N // 2),
                "check": {"radii": ["3/10", "3/10"], "orbits": 2}})

    # 2*golden - sqrt5 = 1: the induced character is trivial and the limit
    # is 1.  Inputs do not depend on the seed.
    ergodic("golden", [["golden"], ["sqrt5"]], ["0", "0"], ["n"], GOLDEN_N,
            components=[((2, -1), 1.0)], fault="golden")
    return ops


BUILDERS = {"construct": construct_ops, "search": search_ops, "averages": averages_ops}


def build(workload: str, seed: int, workdir: Path, run_cli) -> list[dict]:
    return BUILDERS[workload](seed, workdir, run_cli)
