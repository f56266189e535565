"""Command-line front end.

Subcommands map one-to-one onto the library: construct-walk, check-fleeing,
preserves, walk-apply, magyar, bogolubov, weyl, ergodic-avg, correlate, gen.
Exit codes: 0 on success (all targets found), 2 when a search exhausted its
range or hit an indeterminate decision, 1 for usage or validation errors.

Walks are named by compact specs:

    xyP:<P expr>:<1|2>        shear walk for x*y - P(z)
    bogolubov:<P expr>        the x - P(y) walk
    unipotent:<ints>          gamma^n for a row-major unipotent matrix
    adjoint:<ints>            unipotent walk of Ad(g) for row-major g
    signature:<p>,<q>:<i>     i-th generator walk of the (p, q) form family
    identity:<d>              identity walk on Z^d
    file:<path>               walk record in the text serialization
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from math import isqrt
from pathlib import Path
from typing import NamedTuple

from .config import Config, ConfigError
from .ergodic import (
    BoxIndicator,
    TorusSystem,
    TrigPoly,
    check_average,
    check_correlation,
    choose_k,
    correlation_average,
    empirical_average,
)
from .fleeing import DepthExhausted, check_start, construct_fleeing_walk, is_fleeing
from .generators import (
    IntMatrix,
    adjoint_action_matrix,
    bogolubov_walk,
    mat,
    signature_form_walks,
    unipotent_walk,
    xy_minus_P_walks,
)
from .kernel import check_orbit
from .lab import (
    COROLLARIES,
    BohrSet,
    WindowSet,
    check_n_max,
    check_sample_count,
    corollary_experiment,
    weyl_sum_rational,
    weyl_sums,
)
from .poly import MPoly, PolySyntaxError, PolyVector, poly_parse, poly_parse_auto
from .reals import DEFAULT_PRECISION, Real, check_precision, parse_real
from .walks import Walk, identity_walk, preserves


class UsageError(ValueError):
    pass


def parse_walk_spec(spec: str) -> Walk:
    kind, _, rest = spec.partition(":")
    if kind == "xyP":
        expr, _, index = rest.rpartition(":")
        if index not in ("1", "2"):
            raise UsageError(f"xyP walk index must be 1 or 2, got {index!r}")
        pair = xy_minus_P_walks(poly_parse_auto(expr))
        return pair[int(index) - 1]
    if kind == "bogolubov":
        return bogolubov_walk(poly_parse_auto(rest))
    if kind in ("unipotent", "adjoint"):
        rows = parse_square_matrix(rest)
        if kind == "adjoint":
            return unipotent_walk(adjoint_action_matrix(rows))
        return unipotent_walk(rows)
    if kind == "signature":
        params, _, index = rest.rpartition(":")
        try:
            p, q = (int(x) for x in params.split(","))
            i = int(index)
        except ValueError:
            raise UsageError(
                f"signature walk spec must be signature:<p>,<q>:<i>, got {spec!r}"
            )
        walks = signature_form_walks(p, q).walks
        if not (1 <= i <= len(walks)):
            raise UsageError(f"signature family ({p},{q}) has {len(walks)} walks")
        return walks[i - 1]
    if kind == "identity":
        return identity_walk(int(rest))
    if kind == "file":
        return Walk.from_text(Path(rest).read_text(encoding="utf-8"))
    raise UsageError(f"unknown walk spec kind {kind!r}")


def parse_int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"bad integer vector {text!r}")


def parse_square_matrix(text: str) -> IntMatrix:
    numbers = parse_int_vector(text)
    n = isqrt(len(numbers))
    if n * n != len(numbers):
        raise UsageError(f"{len(numbers)} entries do not form a square matrix")
    return mat([numbers[i * n:(i + 1) * n] for i in range(n)])


# -- oracle / system construction from config ---------------------------------

_ORACLE_KEYS = {"model", "dim", "side", "density", "points", "precision"}
_ORACLE_PREFIXES = ("freq_", "radius_")


def build_oracle(cfg: Config, seed: int):
    model = cfg.get_str("model")
    dim = cfg.get_int("dim")
    if model == "window":
        side = cfg.get_int("side")
        if cfg.has("points"):
            points = [parse_int_vector(p) for p in cfg.get_str("points").split(";")]
            return WindowSet(dim, side, points)
        density = cfg.get_float("density")
        return WindowSet.random(dim, side, density, seed)
    if model == "bohr":
        freq_rows = [
            [parse_real(x) for x in row.split(",")] for row in cfg.indexed("freq_")
        ]
        radii = [Fraction(r) for r in cfg.indexed("radius_")]
        precision = cfg.get_int("precision", DEFAULT_PRECISION)
        return BohrSet(dim, freq_rows, radii, precision)
    raise ConfigError(f"unknown set model {model!r} (expected window or bohr)")


def build_system(cfg: Config) -> TorusSystem:
    rows = [[parse_real(x) for x in row.split(",")] for row in cfg.indexed("row_")]
    if not rows:
        raise ConfigError("no action matrix rows (row_1 = ... missing)")
    base = [parse_real(x) for x in cfg.get_str("x0", "0").split(",")]
    if len(base) == 1 and len(rows) > 1:
        base = base * len(rows)
    precision = cfg.get_int("precision", 40)
    return TorusSystem(rows, base, precision)


def build_trig(cfg: Config) -> TrigPoly:
    comps = []
    for raw in cfg.indexed("comp_"):
        try:
            freq_part, re_part, im_part = (x.strip() for x in raw.split(":"))
            freq = parse_int_vector(freq_part)
            comps.append((freq, complex(float(re_part), float(im_part))))
        except ValueError:
            raise ConfigError(
                f"bad component {raw!r} (expected 'm1 m2 : re : im')"
            )
    if not comps:
        raise ConfigError("no observable components (comp_1 = ... missing)")
    return TrigPoly.of(comps)


def build_box(cfg: Config) -> BoxIndicator:
    centers = [parse_real(c) for c in cfg.indexed("center_")]
    radii = [Fraction(r) for r in cfg.indexed("radius_")]
    if not radii:
        raise ConfigError("no box arcs (radius_1 = ... missing)")
    if not centers:
        centers = [Real(0)] * len(radii)
    return BoxIndicator.of(centers, radii)


def parse_poly_vector(text: str, var: str = "n") -> PolyVector:
    return PolyVector([poly_parse(piece.strip(), (var,))
                       for piece in text.split(",")])


def _load_config(args, allowed: set[str], prefixes=()) -> Config:
    cfg = Config.from_path(args.config) if args.config else Config({})
    for key in ("N_max", "seed", "precision", "P", "k", "targets"):
        cfg.override(key, getattr(args, key, None))
    cfg.require_known(allowed, prefixes)
    if cfg.has("precision"):
        check_precision(cfg.get_int("precision"))
    return cfg


# -- subcommand handlers --------------------------------------------------------
#
# Each handler parses and checks its inputs without computing anything, then
# returns the run: a zero-argument callable giving an Outcome.  `main` does
# the rest once: --validate-only, stdout, --out and --csv.

class Outcome(NamedTuple):
    """A run's report, its exit code and, where the subcommand has one, its CSV."""

    text: str
    code: int = 0
    csv: str | None = None


def cmd_check_fleeing(args):
    polys = parse_poly_vector(args.poly, args.var)
    return lambda: Outcome(f"fleeing: {'true' if is_fleeing(polys) else 'false'}")


def cmd_preserves(args):
    walk = parse_walk_spec(args.walk_from)
    form = poly_parse(args.form, walk.coords)
    return lambda: Outcome(f"preserved: {'true' if preserves(form, walk) else 'false'}")


def cmd_walk_apply(args):
    walk = parse_walk_spec(args.walk_from)
    v = parse_int_vector(args.v)
    if args.n < 0:
        raise UsageError("n must be non-negative")
    walk.check_vector(v)
    return lambda: Outcome(" ".join(str(x) for x in walk.apply(args.n, v)))


def cmd_construct_walk(args):
    gens = [parse_walk_spec(spec) for spec in args.gen]
    v = parse_int_vector(args.v)
    check_start(gens, v, args.N_max)

    def run():
        try:
            cert = construct_fleeing_walk(gens, v, args.N_max)
        except DepthExhausted as exc:
            return Outcome(f"construction failed: {exc}", 2)
        return Outcome(cert.to_text())
    return run


_GEN_FLAG_FAMILIES = {"P": ("xyP", "bogolubov"), "p": ("signature",),
                      "q": ("signature",), "matrix": ("adjoint",)}


def cmd_gen(args):
    for flag, families in _GEN_FLAG_FAMILIES.items():
        if getattr(args, flag) is not None and args.family not in families:
            raise UsageError(f"--{flag} is not read by the {args.family} family")
    # the walks are built here, as a walk spec builds them, since building
    # is what checks P, the matrix or (p, q); the run only prints them
    if args.family in ("xyP", "bogolubov"):
        if not args.P:
            raise UsageError(f"--P is required for the {args.family} family")
        p = poly_parse_auto(args.P)
        walks = xy_minus_P_walks(p) if args.family == "xyP" else [bogolubov_walk(p)]
        return lambda: Outcome("\n".join(w.to_text() for w in walks))
    if args.family == "signature":
        if args.p is None or args.q is None:
            raise UsageError("--p and --q are required for the signature family")
        family = signature_form_walks(args.p, args.q)
        header = [f"form {family.form}"]
        pairs = list(zip(family.matrices, family.walks))
    else:
        if not args.matrix:
            raise UsageError("--matrix is required for the adjoint family")
        ad = adjoint_action_matrix(parse_square_matrix(args.matrix))
        header = []
        pairs = [(ad, unipotent_walk(ad))]

    def run():
        lines = list(header)
        for m, walk in pairs:
            lines.append("matrix " + ",".join(str(x) for row in m for x in row))
            lines.append(walk.to_text().rstrip("\n"))
        return Outcome("\n".join(lines))
    return run


_EXPERIMENT_KEYS = _ORACLE_KEYS | {"P", "k", "targets", "N_max", "seed"}


def cmd_experiment(args):
    corollary = COROLLARIES[args.command]
    cfg = _load_config(args, _EXPERIMENT_KEYS, _ORACLE_PREFIXES)
    seed = cfg.get_int("seed", 0)
    p = poly_parse_auto(cfg.get_str("P"))
    k = cfg.get_int("k", 1)
    targets = cfg.get_int_list("targets")
    n_max = cfg.get_int("N_max", 100000)
    oracle = build_oracle(cfg, seed)
    corollary.check(p, oracle, k, targets)
    check_n_max(n_max)
    # building the walks is what checks P, as in `gen`; the run reads them
    # back from the builder's cache
    corollary.walks(p)

    def run():
        report = corollary_experiment(corollary, p, oracle, k, targets, n_max, seed)
        return Outcome(report.to_text(), report.exit_status(), report.to_csv())
    return run


def cmd_weyl(args):
    polys = parse_poly_vector(args.p)
    thetas = [parse_real(x) for x in args.theta.split(",")]
    check_orbit(polys, [thetas])
    check_sample_count(args.N)
    precision = 40 if args.precision is None else args.precision
    check_precision(precision)
    if args.exact and not all(t.is_rational() for t in thetas):
        raise UsageError("--exact requires rational frequencies")

    def run():
        lines = []
        if args.exact:
            mean = weyl_sum_rational(polys, thetas, args.N)
            value = mean.value()
            lines.append(f"exactly_zero = {'true' if mean.is_exactly_zero else 'false'}")
        else:
            (value,) = weyl_sums(polys, [thetas], args.N, precision)
        return Outcome("\n".join([f"value = {value.real:.12g} + {value.imag:.12g}i",
                                  f"modulus = {abs(value):.12g}"] + lines))
    return run


_ERGODIC_KEYS = {"x0", "observable", "p", "N", "precision"}
_ERGODIC_PREFIXES = ("row_", "comp_", "center_", "radius_")


def cmd_ergodic_avg(args):
    cfg = _load_config(args, _ERGODIC_KEYS, _ERGODIC_PREFIXES)
    system = build_system(cfg)
    kind = cfg.get_str("observable", "trig")
    if kind not in ("trig", "box"):
        raise ConfigError(f"unknown observable {kind!r} (expected trig or box)")
    observable = build_trig(cfg) if kind == "trig" else build_box(cfg)
    polys = parse_poly_vector(cfg.get_str("p"))
    n_count = cfg.get_int("N")
    check_average(system, observable, polys, n_count)

    def run():
        result = empirical_average(system, observable, polys, n_count)
        estimate = result.value
        lines = [f"N = {n_count}",
                 f"estimate = {estimate.real:.12g} + {estimate.imag:.12g}i"]
        row = ["ergodic-avg", str(n_count), f"{estimate.real:.12g}",
               f"{estimate.imag:.12g}"]
        if result.prediction is not None:
            base = [float(x.frac(system.precision)) for x in system.base_point]
            predicted = result.prediction.value_at(base)
            error = abs(estimate - predicted)
            lines += [f"predicted = {predicted.real:.12g} + {predicted.imag:.12g}i",
                      f"abs_error = {error:.12g}",
                      f"l2_to_prediction = {result.l2_to_prediction:.12g}"]
            row += [f"{predicted.real:.12g}", f"{predicted.imag:.12g}", f"{error:.12g}"]
        else:
            row += ["", "", ""]
        return Outcome("\n".join(lines), 0,
                       "experiment,N,estimate_re,estimate_im,predicted_re,predicted_im,"
                       "abs_error,std_error\n" + ",".join(row) + ",\n")
    return run


_CORRELATE_KEYS = {"samples", "replicates", "seed", "eps", "k", "precision"}
_CORRELATE_PREFIXES = ("row_", "center_", "radius_", "orbit_", "N_")


def cmd_correlate(args):
    cfg = _load_config(args, _CORRELATE_KEYS, _CORRELATE_PREFIXES)
    system = build_system(cfg)
    box = build_box(cfg)
    orbits = [parse_poly_vector(o) for o in cfg.indexed("orbit_")]
    n_counts = [cfg.get_int(key) for key in cfg.indexed_keys("N_")]
    seed = cfg.get_int("seed", 0)
    samples = cfg.get_int("samples", 512)
    replicates = cfg.get_int("replicates", 8)
    if cfg.has("k"):
        k = cfg.get_int("k")
        if k < 1:
            raise ConfigError(f"k must be positive, got {k}")
    elif cfg.has("eps"):
        k = choose_k(system, box, cfg.get_float("eps"))
    else:
        k = 1
    check_correlation(system, box, orbits, n_counts, samples, replicates)

    def run():
        scaled = orbits
        if k != 1:
            scaled = []
            for orbit in orbits:
                var = orbit.vars[0] if orbit.vars else "n"
                scaled.append(orbit.substitute({var: MPoly.var((var,), var) * k}))

        def estimate(counts):
            return correlation_average(system, box, scaled, counts, samples=samples,
                                       replicates=replicates, seed=seed)
        est = estimate(n_counts)
        # convergence diagnostic: the same estimate at halved orbit lengths
        halved = estimate([max(1, n // 2) for n in n_counts])
        bound = float(box.measure) ** (len(orbits) + 1)
        lines = [
            f"k = {k}",
            f"measure = {float(box.measure):.12g}",
            f"estimate = {est.value:.12g}",
            f"std_error = {est.std_error:.12g}",
            f"half_N_estimate = {halved.value:.12g}",
            f"power_bound = {bound:.12g}",
            f"seed = {seed}",
        ]
        return Outcome("\n".join(lines), 0,
                       "experiment,N,estimate,predicted,abs_error,std_error\n"
                       f"correlate,{' '.join(str(n) for n in n_counts)},{est.value:.12g},"
                       f"{bound:.12g},{abs(est.value - bound):.12g},{est.std_error:.12g}\n")
    return run


# -- parser wiring ----------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polywalk",
        description="Exact polynomial-walk engine: construction, preservation "
                    "checks, difference-set searches, torus averages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # --out and --validate-only are read by every subcommand; each other
    # shared flag is declared only by the subcommands that read it, except
    # --jobs, which the benchmark's search workload still passes
    shared = {
        "--config": dict(help="key = value experiment file"),
        "--csv": dict(help="write CSV output to this path"),
        "--jobs": dict(type=int, help="accepted and ignored: searches run sequentially "
                                      "and stop at the first hit"),
        "--seed": dict(type=int, help="seed for randomized pieces"),
        "--precision": dict(type=int, help="decimal digits for torus arithmetic"),
        "--N-max": dict(type=int, help="search range bound (construct-walk: depth cap)"),
    }

    def common(p, *flags):
        p.add_argument("--out", help="also write the report to this path")
        p.add_argument("--validate-only", action="store_true",
                       help="parse and validate inputs, skip computation")
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("check-fleeing", help="decide hyperplane-fleeing for orbit polynomials")
    p.add_argument("--poly", required=True, help="comma-separated expressions, e.g. 'n, n^2'")
    p.add_argument("--var", default="n", help="orbit variable name")
    common(p)
    p.set_defaults(func=cmd_check_fleeing)

    p = sub.add_parser("preserves", help="check a form is preserved by a walk")
    p.add_argument("--form", required=True)
    p.add_argument("--walk-from", dest="walk_from", required=True)
    common(p)
    p.set_defaults(func=cmd_preserves)

    p = sub.add_parser("walk-apply", help="apply a walk at time n to a vector")
    p.add_argument("--walk-from", dest="walk_from", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", required=True)
    common(p)
    p.set_defaults(func=cmd_walk_apply)

    p = sub.add_parser("construct-walk", help="build a hyperplane-fleeing walk certificate")
    p.add_argument("--gen", action="append", required=True,
                   help="generator walk spec (repeatable)")
    p.add_argument("--v", required=True)
    common(p, "--N-max")
    p.set_defaults(func=cmd_construct_walk)

    p = sub.add_parser("gen", help="emit generator walks and matrices")
    p.add_argument("--family", required=True,
                   choices=["xyP", "bogolubov", "signature", "adjoint"])
    p.add_argument("--P", help="polynomial for xyP / bogolubov families")
    p.add_argument("--p", type=int, help="plus coordinates for signature")
    p.add_argument("--q", type=int, help="minus coordinates for signature")
    p.add_argument("--matrix", help="row-major integer matrix for adjoint")
    common(p)
    p.set_defaults(func=cmd_gen)

    for corollary in COROLLARIES.values():
        p = sub.add_parser(corollary.name, help=corollary.help)
        p.add_argument("--P")
        p.add_argument("--k", type=int)
        p.add_argument("--targets", help="comma-separated integers")
        common(p, "--config", "--csv", "--jobs", "--seed", "--precision", "--N-max")
        p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("weyl", help="Weyl exponential-sum average")
    p.add_argument("--p", required=True, help="comma-separated polynomials in n")
    p.add_argument("--theta", required=True, help="comma-separated frequencies")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--exact", action="store_true",
                   help="exact root-of-unity path (rational frequencies)")
    common(p, "--precision")
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("ergodic-avg", help="polynomial orbit average on a torus system")
    common(p, "--config", "--csv", "--precision")
    p.set_defaults(func=cmd_ergodic_avg)

    p = sub.add_parser("correlate", help="multiple correlation average estimate")
    common(p, "--config", "--csv", "--seed", "--precision")
    p.set_defaults(func=cmd_correlate)

    return parser


_GRAMMAR = """expression grammar:
  expr   := term (("+"|"-") term)*
  term   := factor ("*" factor)*
  factor := base ("^" nonneg-int)?
  base   := number | identifier | "(" expr ")" | "-" base
  number := nonneg-int ("/" nonneg-int)?"""


# Flags whose value is a comma-separated list; a value with a leading minus
# ("--v -3,0") would otherwise be read by argparse as an option.
_VECTOR_FLAGS = {"--v", "--targets", "--matrix", "--theta", "--p", "--poly"}


def _attach_vector_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        if (out and out[-1] in _VECTOR_FLAGS and token.startswith("-")
                and not token.startswith("--") and token != "-h"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_vector_values(argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        run = args.func(args)
        if args.validate_only:
            print("ok")
            return 0
        text, code, csv = run()
        if not text.endswith("\n"):
            text += "\n"
        sys.stdout.write(text)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        if csv is not None and args.csv:
            Path(args.csv).write_text(csv, encoding="utf-8")
        return code
    except PolySyntaxError as exc:
        print(f"error: {exc}\n{_GRAMMAR}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
