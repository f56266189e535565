"""Command-line surface: subcommands, config files, exit codes, determinism."""

import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from polywalk import fleeing, generators
from polywalk.cli import (
    _CORRELATE_KEYS,
    _CORRELATE_PREFIXES,
    _ERGODIC_KEYS,
    _ERGODIC_PREFIXES,
    _EXPERIMENT_KEYS,
    _ORACLE_PREFIXES,
    build_parser,
    main,
    parse_walk_spec,
)
from polywalk.lab import weyl_sums
from polywalk.poly import MPoly, PolyVector, poly_parse, poly_parse_auto
from polywalk.reals import Real
from polywalk.walks import Walk


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_fleeing_true(capsys):
    code, out, _ = run(capsys, "check-fleeing", "--poly", "n, n^2")
    assert code == 0
    assert out.strip() == "fleeing: true"


def test_check_fleeing_false(capsys):
    code, out, _ = run(capsys, "check-fleeing", "--poly", "n, 2*n + 3")
    assert code == 0
    assert out.strip() == "fleeing: false"


def test_preserves_example(capsys):
    code, out, _ = run(capsys, "preserves", "--form", "x*y - z^2",
                       "--walk-from", "xyP:z^2:1")
    assert code == 0
    assert out.strip() == "preserved: true"


def test_preserves_negative(capsys):
    code, out, _ = run(capsys, "preserves", "--form", "x + y",
                       "--walk-from", "bogolubov:y^2")
    assert code == 0
    assert out.strip() == "preserved: false"


def test_walk_apply(capsys):
    code, out, _ = run(capsys, "walk-apply", "--walk-from", "bogolubov:y^2",
                       "--n", "3", "--v", "3,3")
    assert code == 0
    assert out.strip() == "30 6"


def test_walk_apply_validate_only(capsys):
    code, out, _ = run(capsys, "walk-apply", "--walk-from", "bogolubov:y^2",
                       "--n", "3", "--v", "3,3", "--validate-only")
    assert code == 0
    assert out.strip() == "ok"


def test_bad_expression_is_usage_error(capsys):
    code, _, err = run(capsys, "check-fleeing", "--poly", "n ^ n")
    assert code == 1
    assert "error" in err


def test_construct_walk_certificate(capsys):
    code, out, _ = run(capsys, "construct-walk", "--gen", "xyP:z^2:1",
                       "--gen", "xyP:z^2:2", "--v", "1,0,0")
    assert code == 0
    assert "depth 2" in out
    assert "exponents 3 9" in out


def test_vector_with_leading_minus(capsys):
    for flag_value in (["--v", "-3,0"], ["--v=-3,0"]):
        code, out, _ = run(capsys, "construct-walk", "--gen", "bogolubov:y^2",
                           *flag_value)
        assert code == 0
        assert "orbit n^6 - 3; n^3" in out
    code, out, _ = run(capsys, "walk-apply", "--walk-from", "bogolubov:y^2",
                       "--n", "2", "--v", "-3,1")
    assert code == 0
    assert out.strip() == "5 3"   # x - y^2 = -4 is preserved
    code, out, _ = run(capsys, "weyl", "--p", "n", "--theta", "-1/3",
                       "--N", "30", "--exact")
    assert code == 0
    assert "exactly_zero = true" in out


# sha256 of the whole construct-walk stdout, taken before composition was
# summed in one pass and the orbit carried across depths
CONSTRUCT_GOLDEN = [
    (["xyP:z^5:1", "xyP:z^5:2"], "1,0,0",
     "5c9e419c656fcbc7b402615b573a478023ef3f487a4d59f4f187ea0c723b0b92"),
    (["bogolubov:y^3"], "3,0",
     "61239b71a2c74ff8d4043498436b9d5564008f1488b9a089e07acff6ad537e2f"),
    (["adjoint:1,1,0,0,1,1,0,0,1", "adjoint:1,0,0,1,1,0,0,1,1"], "1,0,0,0,0,0,0,0",
     "713885602d53bc7e10fa5641220af84c48d148976f7962eafcb20454dc0ae226"),
    ([f"signature:2,3:{i}" for i in range(1, 7)], "1,0,0,0,0",
     "5241795450de84372ebf777566cce81ee80fcb7b80d8dbd86a9b0b3baa6ff715"),
    ([f"signature:3,3:{i}" for i in range(1, 9)], "1,0,0,0,0,0",
     "1e8863eedbd11af70376ed6b1c2ffaf62c76e10e5ddcfeb2434ac524d728fc2f"),
    ([f"signature:2,4:{i}" for i in range(1, 9)], "1,0,0,0,0,0",
     "651aa36cd6063edafe137474c733d0eeda7f19be255aab2d48118ea7dd182817"),
    ([f"signature:1,4:{i}" for i in range(1, 7)], "1,0,0,0,0",
     "e689d59f53b6cca179ff88a5edc9dbb1d85dbac8846545c88d69ccd0e46ba592"),
    (["xyP:z^7:1", "xyP:z^7:2"], "1,0,0",
     "e164f17d3f0f1803ccbb7b592d8cea4dd4b1cba334e846a51c2a92616531dfa0"),
    (["adjoint:1,1,0,1", "adjoint:1,0,1,1"], "1,2,-1",
     "f69ed45f559c4b63ba562e5f97157869f3b32de8905a33194112fb914d532683"),
]


@pytest.mark.parametrize("gens,v,digest", CONSTRUCT_GOLDEN,
                         ids=["xyP-z^5", "bogolubov-y^3", "sl3-adjoint", "signature-2,3",
                              "signature-3,3", "signature-2,4", "signature-1,4", "xyP-z^7",
                              "sl2-adjoint"])
def test_construct_walk_stdout_golden(capsys, gens, v, digest):
    argv = ["construct-walk"] + [a for g in gens for a in ("--gen", g)] + [f"--v={v}"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the report outside '#' lines of every BENCHMARK_SHAPED command
# but construct-walk, and float.hex of Weyl sums, both taken while every
# torus phase was still read in decimal fixed point
NUMERIC_GOLDEN = {
    "bogolubov-bohr-jobs2": "73ceed7d9953a69865d36129ec87ace1a00e8c6f9e18feb88edd172aadf4c379",
    "bogolubov-window": "72e3791ea1fa09a9604604956e828f3f1b7d0291faf2534f36ecb86aa8f7bada",
    "correlate": "c81d407ffd2bd080a1da0994b1f1a0c449add329883ca5ad3bf297c66fb4b4f0",
    "ergodic-box": "5a09b8b9efa55163ba954c63fccc51a1333842b775cfaa52f067bb9ae67c701a",
    "ergodic-trig": "a7e0fb488f021f043e98825a71727efc411ca029c72093e89f610b871715f8ac",
    "magyar-bohr": "fac4d2e46429d8275e3a5601081f1598ba3bb56640fd0cbf3b994e346215af65",
    "weyl": "273c30f8a21eed40ff641d91d48aeb2d99b6c0e5ba42b8b9e15c1fa6b826716b",
    "weyl-exact": "477c4a23c377be3b2a5e081fe8e8235455f43c890b1221fabcf5847288046855",
}
WEYL_GOLDEN = [
    (["n^2", "n^3"], ["sqrt2", "sqrt3"], 30000, ("0x1.c96698b774a04p-8", "0x1.5c095dd30bb74p-15")),
    (["n"], ["golden"], 5000, ("-0x1.681d3a944867dp-14", "0x1.1b040a741cb5ep-14")),
    (["n"], ["sqrt5"], 5000, ("-0x1.012bcc8880152p-14", "0x1.084d14e1b507cp-12")),
]


@pytest.mark.parametrize("name", sorted(NUMERIC_GOLDEN))
def test_benchmark_shaped_reports_golden(tmp_path, capsys, name):
    assert set(NUMERIC_GOLDEN) == {n for n in BENCHMARK_SHAPED if not n.startswith("construct")}
    code, out, err = run(capsys, *_argv(tmp_path, BENCHMARK_SHAPED[name]))
    assert (code, err) == (2 if name == "bogolubov-window" else 0, "")
    body = _strip_timing(out)
    assert hashlib.sha256(body.encode()).hexdigest() == NUMERIC_GOLDEN[name]


@pytest.mark.parametrize("exprs, thetas, n_count, pinned", WEYL_GOLDEN)
def test_weyl_sums_golden(exprs, thetas, n_count, pinned):
    polys = PolyVector([poly_parse(e, ["n"]) for e in exprs])
    (value,) = weyl_sums(polys, [[Real.of(t) for t in thetas]], n_count)
    assert (value.real.hex(), value.imag.hex()) == pinned


def test_construct_walk_never_reads_the_fraction_view(capsys, monkeypatch):
    # signature (2,3) and the sl3 adjoint pair, generator walks included,
    # run on the stored integer pairs: reading MPoly.terms fails the run,
    # and the certificates are the golden ones
    def refuse(p):
        raise AssertionError(f"MPoly.terms read on {p}")

    generators.signature_form_walks.cache_clear()
    monkeypatch.setattr(MPoly, "terms", property(refuse))
    for gens, v, digest in (CONSTRUCT_GOLDEN[3], CONSTRUCT_GOLDEN[2]):
        code, out, err = _construct(capsys, gens, v)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of construct-walk stdout for affine generators outside
# CONSTRUCT_GOLDEN, taken while every certificate came from the orbit tower
AFFINE_GOLDEN = [
    (["xyP:z^2:1", "xyP:z^2:2"], "1,0,0",
     "505b2e8b519f93b8edfabc5c5a7481a62f4792cb5a426c750d557caa42d89887"),
    (["bogolubov:y^2"], "-3,0",
     "18151e8d376860ec54ea73ac4d8795d05ebbd61922d74b0046e6da38b2aeb126"),
]
# an affine walk with det A(t) = 1 + t and a translation over 2, and a
# walk of degree 2 in the coordinates
AFFINE_FILE_WALK = "dim 2\nvars t x1 x2\nentry x1 + t*x2 + t*x1\nentry x2 + 1/2*t^2 - 1/2*t\n"
AFFINE_FILE_DIGEST = "2c7495cee7036d0c1e4835b3e4241f4d09ddad8dd7aa1df9886df0b7fd49acab"
QUADRATIC_FILE_WALK = "dim 2\nvars t x y\nentry x + t*y^2\nentry y + t\n"


class TowerBuilt(Exception):
    """Raised by the patched `fleeing._orbit_stream`; escapes `main`."""


@pytest.fixture
def no_tower(monkeypatch):
    def refuse(gens, v):
        raise TowerBuilt

    monkeypatch.setattr(fleeing, "_orbit_stream", refuse)


def _construct(capsys, gens, v):
    return run(capsys, "construct-walk", *(a for g in gens for a in ("--gen", g)), f"--v={v}")


@pytest.mark.parametrize("gens,v,digest", [CONSTRUCT_GOLDEN[i] for i in (2, 3, 4, 5, 6, 8)]
                         + AFFINE_GOLDEN,
                         ids=["sl3-adjoint", "signature-2,3", "signature-3,3", "signature-2,4",
                              "signature-1,4", "sl2-adjoint", "xyP-z^2", "bogolubov-y^2"])
def test_affine_generators_build_no_orbit_tower(capsys, no_tower, gens, v, digest):
    code, out, err = _construct(capsys, gens, v)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_an_affine_file_walk_builds_no_orbit_tower(capsys, no_tower, tmp_path):
    path = tmp_path / "affine.walk"
    path.write_text(AFFINE_FILE_WALK)
    code, out, err = _construct(capsys, [f"file:{path}"], "0,0")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == AFFINE_FILE_DIGEST


@pytest.mark.parametrize("gens,v", [(["xyP:z^3:1", "xyP:z^3:2"], "1,0,0"),
                                    (["bogolubov:y^3"], "3,0"),
                                    (["file:{tmp}/quadratic.walk"], "1,0")],
                         ids=["xyP-z^3", "bogolubov-y^3", "file-degree-2"])
def test_non_affine_generators_take_the_orbit_tower(capsys, no_tower, tmp_path, gens, v):
    (tmp_path / "quadratic.walk").write_text(QUADRATIC_FILE_WALK)
    with pytest.raises(TowerBuilt):
        _construct(capsys, [g.format(tmp=tmp_path) for g in gens], v)


def test_reducible_pair_exhausts_its_depth_without_an_orbit_tower(capsys, no_tower):
    # R^4 is the sum of two invariant planes: the annihilator keeps
    # dimension 2 from depth 3 to the default cap 8 * 2 * 4 = 64
    code, out, err = _construct(capsys, ["unipotent:1,1,0,0,0,1,0,0,0,0,1,1,0,0,0,1",
                                         "unipotent:1,0,0,0,1,1,0,0,0,0,1,0,0,0,1,1"],
                                "1,0,1,0")
    assert (code, err) == (2, "")
    trace = re.fullmatch(r"construction failed: annihilator still non-trivial at depth 64 "
                         r"\(dimension trace \[(.*)\]\)\n", out).group(1)
    assert [int(x) for x in trace.split(", ")] == [4, 3] + [2] * 62


def test_signature_family_built_once_per_process(monkeypatch):
    generators.signature_form_walks.cache_clear()
    built = []
    unipotent_walk = generators.unipotent_walk
    monkeypatch.setattr(generators, "unipotent_walk",
                        lambda *args: built.append(args) or unipotent_walk(*args))
    first = parse_walk_spec("signature:1,3:1")
    second = parse_walk_spec("signature:1,3:4")
    family = generators.signature_form_walks(1, 3)
    assert len(built) == len(family.walks) == 4
    assert (first, second) == (family.walks[0], family.walks[3])
    with pytest.raises(AttributeError):
        family.walks = ()


@pytest.mark.parametrize("gen, v", [("xyP:0:1", "1,0,0"), ("bogolubov:0", "1,0")])
def test_construct_walk_rejects_a_zero_P(capsys, gen, v):
    assert run(capsys, "construct-walk", "--gen", gen, f"--v={v}") == (
        1, "", "error: degree must be >= 2, got 0\n")


def test_construct_walk_exhausted(capsys):
    code, out, _ = run(capsys, "construct-walk", "--gen", "identity:2",
                       "--v", "1,1", "--N-max", "3")
    assert code == 2
    assert "construction failed" in out


def test_weyl_numeric(capsys):
    code, out, _ = run(capsys, "weyl", "--p", "n^2", "--theta", "sqrt2",
                       "--N", "20000")
    assert code == 0
    modulus = float(out.splitlines()[1].split("=")[1])
    assert modulus < 0.05


def test_weyl_exact(capsys):
    code, out, _ = run(capsys, "weyl", "--p", "n", "--theta", "1/3",
                       "--N", "30000", "--exact")
    assert code == 0
    assert "exactly_zero = true" in out


def test_weyl_dimension_mismatch(capsys):
    code, _, err = run(capsys, "weyl", "--p", "n, n^2", "--theta", "sqrt2",
                       "--N", "10")
    assert code == 1
    assert "frequencies" in err


def test_gen_walk_record_parses_back(capsys):
    code, out, _ = run(capsys, "gen", "--family", "bogolubov", "--P", "y^3")
    assert code == 0
    walk = Walk.from_text(out)
    assert walk.dim == 2


@pytest.mark.parametrize("P, shift", [("-y^2", "-1*t^2 - 2*t*y"), ("0 - y^2", "-1*t^2 - 2*t*y"),
                                      ("(-y)^2", "t^2 + 2*t*y")])
def test_gen_reads_unary_minus_outside_the_power(capsys, P, shift):
    # -y^2 is -(y^2): the walk preserves x + y^2, not x - y^2
    assert run(capsys, "gen", "--family", "bogolubov", f"--P={P}") == (
        0, f"dim 2\nvars t x y\nentry {shift} + x\nentry t + y\n", "")


def test_gen_signature_lists_matrices(capsys):
    code, out, _ = run(capsys, "gen", "--family", "signature", "--p", "1", "--q", "2")
    assert code == 0
    assert "matrix 3,-2,2,2,-1,2,2,-2,1" in out


def test_parse_walk_spec_kinds():
    assert parse_walk_spec("identity:3").dim == 3
    assert parse_walk_spec("unipotent:1,1,0,1").dim == 2
    assert parse_walk_spec("adjoint:1,1,0,1").dim == 3
    assert parse_walk_spec("signature:1,2:1").dim == 3
    with pytest.raises(Exception):
        parse_walk_spec("mystery:1")


def test_signature_spec_without_index_is_usage_error(capsys):
    code, _, err = run(capsys, "construct-walk", "--gen", "signature:2,3",
                       "--v", "1,0,0,0,0")
    assert code == 1
    assert "signature:<p>,<q>:<i>" in err
    assert "invalid literal" not in err


def test_square_matrix_parse_shared_by_spec_and_gen(capsys):
    code, _, spec_err = run(capsys, "walk-apply", "--walk-from", "unipotent:1,1,0",
                            "--n", "1", "--v", "1,1")
    assert code == 1
    code, _, gen_err = run(capsys, "gen", "--family", "adjoint", "--matrix", "1,1,0")
    assert code == 1
    assert spec_err == gen_err == "error: 3 entries do not form a square matrix\n"
    code, _, err = run(capsys, "walk-apply", "--walk-from", "adjoint:1,x,0,1",
                       "--n", "1", "--v", "1,1,1")
    assert code == 1
    assert "bad integer vector" in err


MAGYAR_CONFIG = """

# desk-scale difference search
model = bohr
dim = 3
freq_1 = sqrt2, sqrt3, sqrt5
radius_1 = 1/5
P = z^2
k = 1
targets = 1, -1, 2
N_max = 100000
seed = 11
"""


def _strip_timing(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))


def test_magyar_from_config(tmp_path, capsys):
    cfg = tmp_path / "magyar.cfg"
    cfg.write_text(MAGYAR_CONFIG, encoding="utf-8")
    csv_path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "magyar", "--config", str(cfg), "--csv", str(csv_path))
    assert code == 0
    assert "target 1: found" in out
    header = csv_path.read_text().splitlines()[0]
    assert header == "target,status,n,w1,w2,w3,f_value,millis"


def test_magyar_output_deterministic(tmp_path, capsys):
    cfg = tmp_path / "magyar.cfg"
    cfg.write_text(MAGYAR_CONFIG, encoding="utf-8")
    _, first, _ = run(capsys, "magyar", "--config", str(cfg))
    _, second, _ = run(capsys, "magyar", "--config", str(cfg))
    assert _strip_timing(first) == _strip_timing(second)


def test_magyar_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "magyar.cfg"
    cfg.write_text(MAGYAR_CONFIG, encoding="utf-8")
    code, out, _ = run(capsys, "magyar", "--config", str(cfg), "--targets", "4",
                       "--seed", "5", "--N-max", "500")
    assert code == 0
    assert "target 4: found" in out
    assert "target 1:" not in out
    assert {"seed 5", "config N_max = 500"} <= set(out.splitlines())


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MAGYAR_CONFIG + "mystery = 1\n", encoding="utf-8")
    code, _, err = run(capsys, "magyar", "--config", str(cfg))
    assert code == 1
    assert "mystery" in err


@pytest.mark.parametrize("line", ["center_1 = 0", "torus_dim = 1", "experiment = magyar",
                                  "jobs = 2"])
def test_bohr_experiment_rejects_keys_no_output_reads(tmp_path, capsys, line):
    # a Bohr set is given by rows and radii alone, and --jobs is read by
    # nothing: these keys are unknown like any other
    key = line.split(" =")[0]
    paths = _configs(tmp_path)
    for command, name in (("magyar", "magyar"), ("bogolubov", "bohr")):
        cfg = tmp_path / f"{name}-{key}.cfg"
        cfg.write_text(paths[name].read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        for extra in ([], ["--validate-only"]):
            assert run(capsys, command, "--config", str(cfg), *extra) == (
                1, "", f"error: unknown config key '{key}'\n")


def test_corollary_walks_built_once_per_P(tmp_path, capsys, monkeypatch):
    generators.xy_minus_P_walks.cache_clear()
    generators.bogolubov_walk.cache_clear()
    built = []
    require = generators._require_admissible
    monkeypatch.setattr(generators, "_require_admissible",
                        lambda p: built.append(str(p)) or require(p))
    paths = _configs(tmp_path)
    for argv in (["magyar", "--config", str(paths["magyar"]), "--validate-only"],
                 ["magyar", "--config", str(paths["magyar"])],
                 ["bogolubov", "--config", str(paths["window"])],
                 ["bogolubov", "--config", str(paths["points"]), "--validate-only"]):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
    walk = parse_walk_spec("xyP:z^2:2")
    assert walk is generators.xy_minus_P_walks(poly_parse_auto("z^2"))[1]
    assert parse_walk_spec("bogolubov:y^2") is generators.bogolubov_walk(poly_parse_auto("y^2"))
    assert built == ["z^2", "y^2"]


def test_bogolubov_cli_window_model(tmp_path, capsys):
    cfg = tmp_path / "bog.cfg"
    cfg.write_text(
        "model = window\ndim = 2\nside = 30\ndensity = 1.0\n"
        "P = y^2\ntargets = 4\nN_max = 10\nseed = 3\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "bogolubov", "--config", str(cfg))
    assert code == 0
    assert "target 4: found" in out


def test_bogolubov_exhausted_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bog.cfg"
    cfg.write_text(
        "model = window\ndim = 2\nside = 3\ndensity = 0.0\n"
        "P = y^2\ntargets = 2\nN_max = 4\nseed = 3\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "bogolubov", "--config", str(cfg))
    assert code == 2
    assert "exhausted" in out


def test_ergodic_avg_cli(tmp_path, capsys):
    cfg = tmp_path / "avg.cfg"
    cfg.write_text(
        "row_1 = 1/3\nobservable = trig\ncomp_1 = 1 : 1.0 : 0.0\n"
        "p = 3*n\nN = 300\n",
        encoding="utf-8",
    )
    csv_path = tmp_path / "avg.csv"
    code, out, _ = run(capsys, "ergodic-avg", "--config", str(cfg),
                       "--csv", str(csv_path))
    assert code == 0
    assert "abs_error = 0" in out
    assert csv_path.read_text().startswith("experiment,N,")


def test_ergodic_avg_csv_with_and_without_prediction(tmp_path, capsys):
    header = ("experiment,N,estimate_re,estimate_im,predicted_re,predicted_im,"
              "abs_error,std_error\n")
    trig = tmp_path / "trig.cfg"
    trig.write_text("row_1 = 1/3\nobservable = trig\ncomp_1 = 1 : 1.0 : 0.0\n"
                    "p = 3*n\nN = 300\n", encoding="utf-8")
    box = tmp_path / "box.cfg"
    box.write_text("row_1 = sqrt2\nobservable = box\ncenter_1 = 0\n"
                   "radius_1 = 1/10\np = n^2\nN = 500\n", encoding="utf-8")
    csv_path = tmp_path / "avg.csv"
    assert run(capsys, "ergodic-avg", "--config", str(trig), "--csv", str(csv_path))[0] == 0
    assert csv_path.read_text() == header + "ergodic-avg,300,1,0,1,0,0,\n"
    code, out, _ = run(capsys, "ergodic-avg", "--config", str(box), "--csv", str(csv_path))
    assert code == 0 and "predicted" not in out
    assert csv_path.read_text() == header + "ergodic-avg,500,0.232,0,,,,\n"


def test_correlate_cli(tmp_path, capsys):
    cfg = tmp_path / "corr.cfg"
    cfg.write_text(
        "row_1 = sqrt2, sqrt3\ncenter_1 = 0\nradius_1 = 3/20\n"
        "orbit_1 = n^6, n^3\nN_1 = 150\norbit_2 = n^6, n^3\nN_2 = 150\n"
        "samples = 128\nreplicates = 3\nseed = 2\nk = auto\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "correlate", "--config", str(cfg))
    assert code == 0
    assert "k = 1" in out
    estimate = float(next(l for l in out.splitlines() if l.startswith("estimate")).split("=")[1])
    assert estimate > 0.027 - 0.02


_CORRELATE_AUTO = ("center_1 = 0\nradius_1 = 3/20\norbit_1 = n^6, n^3\nN_1 = 60\n"
                   "samples = 16\nreplicates = 2\nseed = 2\nk = auto\n")


def test_correlate_k_auto_is_the_lcm_on_rational_rows(tmp_path, capsys):
    cfg = tmp_path / "corr.cfg"
    cfg.write_text("row_1 = 1/2, 1/3\n" + _CORRELATE_AUTO, encoding="utf-8")
    assert run(capsys, "correlate", "--config", str(cfg), "--validate-only") == (0, "ok\n", "")
    code, out, _ = run(capsys, "correlate", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "k = 6"


def test_correlate_rejects_more_arcs_than_kronecker_steps(tmp_path, capsys):
    # a seventh arc would step like the first, so its samples would lie
    # on a 6-torus
    cfg = tmp_path / "corr.cfg"
    cfg.write_text("".join(f"row_{j} = {j}/11\nradius_{j} = 1/4\n" for j in range(1, 8))
                   + "orbit_1 = n\nN_1 = 10\nsamples = 16\nreplicates = 2\n",
                   encoding="utf-8")
    message = "error: box has 7 arcs; correlate samples at most 6 coordinates\n"
    for extra in ([], ["--validate-only"]):
        assert run(capsys, "correlate", "--config", str(cfg), *extra) == (1, "", message)


def test_correlate_k_auto_rejects_mixed_rows(tmp_path, capsys):
    # m = (1, -1) makes A^T m = (1/3) rational, m = (1, 0) does not
    cfg = tmp_path / "corr.cfg"
    cfg.write_text("row_1 = sqrt2, 0\nrow_2 = sqrt2 + 1/3, 0\n" + _CORRELATE_AUTO
                   + "center_2 = 0\nradius_2 = 3/20\n", encoding="utf-8")
    message = ("error: box indicator on a mixed rational/irrational action: "
               "the rational spectrum is infinite\n")
    for extra in ([], ["--validate-only"]):
        assert run(capsys, "correlate", "--config", str(cfg), *extra) == (1, "", message)


@pytest.mark.parametrize("row, p, predicted", [
    ("sqrt2, 0", "0, n", "1 + 0i"),
    ("sqrt2, -sqrt2", "n, n", "1 + 0i"),
    ("sqrt2, 1/3", "1, 3*n", "-0.858216185669 + 0.513288397157i"),
], ids=["irrational-row-on-zero", "cancelling-row", "constant-irrational-phase"])
def test_ergodic_avg_predicts_from_the_phase_polynomial(tmp_path, capsys, row, p, predicted):
    # <A^T m, p(n)> has rational non-constant coefficients although A^T m
    # is irrational: the limit is e(constant phase), not 0
    cfg = tmp_path / "trig.cfg"
    cfg.write_text(f"row_1 = {row}\nobservable = trig\ncomp_1 = 1 : 1.0 : 0.0\n"
                   f"p = {p}\nN = 1000\n", encoding="utf-8")
    code, out, _ = run(capsys, "ergodic-avg", "--config", str(cfg))
    assert code == 0
    assert out == (f"N = 1000\nestimate = {predicted}\npredicted = {predicted}\n"
                   "abs_error = 0\nl2_to_prediction = 0\n")


def test_ergodic_avg_box_output_pinned(tmp_path, capsys):
    # 569 hits of 4000 on a 2-d box with irrational rows, center and base point
    cfg = tmp_path / "box.cfg"
    cfg.write_text(
        "row_1 = sqrt2, 1/3\nrow_2 = golden, sqrt3\nx0 = 1/7, sqrt5\n"
        "observable = box\ncenter_1 = 1/3*sqrt2\ncenter_2 = 2/5\n"
        "radius_1 = 1/10\nradius_2 = 1/3\np = n^2, n^3 + n\nN = 4000\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "ergodic-avg", "--config", str(cfg))
    assert code == 0
    assert out == "N = 4000\nestimate = 0.14225 + 0i\n"


@pytest.mark.parametrize("radius, estimate", [("3/10", "0.5"), ("1/10", "0.1"), ("1/5", "0.3")])
def test_ergodic_avg_box_counts_ties_exactly(tmp_path, capsys, radius, estimate):
    # n/10 for n = 1..10: the points at distance exactly r from 0 are
    # outside the open box, so 5, 1 and 3 of 10 are inside
    cfg = tmp_path / "box.cfg"
    cfg.write_text(f"row_1 = 1/10\nobservable = box\ncenter_1 = 0\nradius_1 = {radius}\n"
                   "p = n\nN = 10\n", encoding="utf-8")
    code, out, _ = run(capsys, "ergodic-avg", "--config", str(cfg))
    assert code == 0
    assert out == f"N = 10\nestimate = {estimate} + 0i\n"


def test_average_subcommands_reject_jobs_and_N_max(tmp_path, capsys):
    avg = tmp_path / "avg.cfg"
    avg.write_text("row_1 = 1/3\nobservable = trig\ncomp_1 = 1 : 1.0 : 0.0\n"
                   "p = 3*n\nN = 300\n", encoding="utf-8")
    corr = tmp_path / "corr.cfg"
    corr.write_text("row_1 = sqrt2\ncenter_1 = 0\nradius_1 = 3/20\n"
                    "orbit_1 = n^2\nN_1 = 200\nsamples = 64\nreplicates = 2\n",
                    encoding="utf-8")
    for argv in (["ergodic-avg", "--config", str(avg)],
                 ["correlate", "--config", str(corr)]):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        for flag in (["--jobs", "2"], ["--N-max", "5"]):
            code, out, err = run(capsys, *argv, *flag)
            assert (code, out) == (1, "")
            assert f"unrecognized arguments: {' '.join(flag)}" in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-m", "polywalk", "check-fleeing", "--poly", "n, n^2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "fleeing: true"


def test_out_file_written(tmp_path, capsys):
    out_path = tmp_path / "walk.txt"
    code, out, _ = run(capsys, "gen", "--family", "xyP", "--P", "z^2",
                       "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == out


def test_usage_error_exit_code(capsys):
    assert main(["walk-apply", "--n", "1"]) == 1
    capsys.readouterr()


def test_successive_main_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; every later call must still
    # give what a fresh process gives, files included
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    apply = ["walk-apply", "--walk-from", "bogolubov:y^2", "--n", "3", "--v", "3,3"]
    calls = [apply + ["--validate-only"], apply, apply + ["--out", "{out}"],
             ["walk-apply", "--n", "1"], ["check-fleeing", "--poly", "n, n^2"]]
    assert build_parser() is build_parser()
    for i, template in enumerate(calls):
        argv = [a.format(out=tmp_path / f"in-{i}.txt") for a in template]
        got = run(capsys, *argv)
        fresh_argv = [a.format(out=tmp_path / f"fresh-{i}.txt") for a in template]
        done = subprocess.run([sys.executable, "-m", "polywalk", *fresh_argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert got == (done.returncode, done.stdout, done.stderr)
        if "--out" in template:
            assert (tmp_path / f"in-{i}.txt").read_text() == \
                (tmp_path / f"fresh-{i}.txt").read_text() == done.stdout


# -- one pipeline: --out, --csv and --validate-only are handled in main --------

def _configs(tmp_path):
    files = {
        "magyar": MAGYAR_CONFIG.replace("targets = 1, -1, 2", "targets = 1"),
        "bohr": "model = bohr\ndim = 2\nfreq_1 = sqrt2, sqrt3\nradius_1 = 1/5\n"
                "P = y^2\nk = 1\ntargets = 3\nN_max = 1000\n",
        "window": "model = window\ndim = 2\nside = 30\ndensity = 1.0\nseed = 3\n"
                  "P = y^2\nk = 1\ntargets = 4, -5\nN_max = 50\n",
        "points": "model = window\ndim = 2\nside = 30\npoints = 0,0; 4,2; 9,3\n"
                  "P = y^2\nk = 1\ntargets = 4, -5\nN_max = 50\n",
        "trig": "row_1 = 1/2, 0\nrow_2 = 0, sqrt3\nx0 = 1/8, 3/8\np = n, n^2\nN = 300\n"
                "observable = trig\ncomp_1 = 1 0 : 0.5 : 0\ncomp_2 = 1 1 : -0.25 : 0\n",
        "box": "row_1 = sqrt2\nx0 = 0\np = n^2\nN = 300\nobservable = box\n"
               "center_1 = 3/10\nradius_1 = 1/5\n",
        "correlate": "row_1 = sqrt2, sqrt3\nrow_2 = sqrt5, sqrt2\ncenter_1 = 1/10\n"
                     "center_2 = 7/10\nradius_1 = 3/10\nradius_2 = 3/10\n"
                     "orbit_1 = n^6, n^3\norbit_2 = n^6, n^3\nN_1 = 100\nN_2 = 100\n"
                     "samples = 32\nreplicates = 2\nseed = 7\nk = 1\n",
    }
    files["empty_average"] = files["trig"].replace("N = 300", "N = 0")
    files["points_dim_3"] = files["points"].replace("dim = 2", "dim = 3").replace(
        "points = 0,0; 4,2; 9,3", "points = 0,0,0; 4,2,1")
    files["density_above_1"] = files["window"].replace("density = 1.0", "density = 1.7")
    files["density_negative"] = files["window"].replace("density = 1.0", "density = -0.5")
    files["side_0"] = files["window"].replace("side = 30", "side = 0")
    files["sample_grid"] = files["trig"] + "grid = 64\n"
    files["trig_seed"] = files["trig"] + "seed = 5\n"
    files["magyar_precision"] = files["magyar"] + "precision = 60\n"
    files["box_precision_0"] = files["box"] + "precision = 0\n"
    files["box_precision_negative"] = files["box"] + "precision = -3\n"
    files["trig_comp_01"] = files["trig"] + "comp_01 = 1 0 : 0.5 : 0\n"
    files["bohr_radius_gap"] = files["bohr"] + "freq_2 = sqrt5, sqrt2\nradius_7 = 1/7\n"
    files["correlate_k_and_eps"] = files["correlate"] + "eps = -5\n"
    files["extra_arc"] = files["correlate"] + "center_3 = 0\nradius_3 = 1/10\n"
    files["box_extra_arc"] = (files["box"].replace("N = 300", "N = 2000")
                              .replace("center_1 = 3/10\n", "") + "radius_2 = 1/8\n")
    files["trig_zero_mean"] = ("row_1 = 1/4\nx0 = 0\np = 2*n\nN = 8\n"
                               "observable = trig\ncomp_1 = 1 : 1 : 0\n")
    files["trig_half"] = ("row_1 = sqrt2\nx0 = 0\np = 1/2*n\nN = 300\n"
                          "observable = trig\ncomp_1 = 1 : 1 : 0\n")
    files["trig_row_length"] = files["trig_half"].replace("sqrt2", "sqrt2, sqrt3").replace(
        "1/2*n", "n")
    files["trig_frequency"] = files["trig_half"].replace("1/2*n", "n").replace(
        "comp_1 = 1 :", "comp_1 = 1 2 :")
    files["correlate_half"] = files["correlate"].replace("orbit_1 = n^6, n^3",
                                                         "orbit_1 = 1/2*n, n")
    files["correlate_orbit_length"] = files["correlate"].replace("orbit_1 = n^6, n^3",
                                                                 "orbit_1 = n^6")
    files["box_capital"] = files["box"].replace("observable = box", "observable = Box")
    files["trigg"] = files["trig"].replace("observable = trig", "observable = trigg")
    files["correlate_k_0"] = files["correlate"].replace("k = 1", "k = 0")
    files["correlate_k_negative"] = files["correlate"].replace("k = 1", "k = -2")
    files["correlate_N_float"] = files["correlate"].replace("N_1 = 100", "N_1 = 2e2")
    files["no_orbit"] = "".join(line + "\n" for line in files["correlate"].splitlines()
                                if not line.startswith(("orbit_", "N_")))
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text, encoding="utf-8")
    return paths


# one small run of every subcommand; {name} is a config from _configs
EVERY_SUBCOMMAND = {
    "check-fleeing": ["check-fleeing", "--poly", "n, n^2"],
    "preserves": ["preserves", "--form", "x*y - z^2", "--walk-from", "xyP:z^2:1"],
    "walk-apply": ["walk-apply", "--walk-from", "bogolubov:y^2", "--n", "3", "--v", "3,3"],
    "construct-walk": ["construct-walk", "--gen", "bogolubov:y^2", "--v", "-3,0"],
    "construct-walk-failed": ["construct-walk", "--gen", "identity:2", "--v", "1,1",
                              "--N-max", "3"],
    "gen": ["gen", "--family", "adjoint", "--matrix", "1,1,0,1"],
    "magyar": ["magyar", "--config", "{magyar}"],
    "bogolubov": ["bogolubov", "--config", "{window}"],
    "weyl": ["weyl", "--p", "n^2", "--theta", "sqrt2", "--N", "500"],
    "weyl-exact": ["weyl", "--p", "n", "--theta", "1/3", "--N", "300", "--exact"],
    "ergodic-avg": ["ergodic-avg", "--config", "{trig}"],
    "correlate": ["correlate", "--config", "{correlate}"],
}
WRITES_CSV = {"magyar", "bogolubov", "ergodic-avg", "correlate"}


def _argv(tmp_path, template):
    paths = _configs(tmp_path)
    return [arg.format(**paths) for arg in template]


@pytest.mark.parametrize("name", sorted(EVERY_SUBCOMMAND))
def test_out_file_equals_stdout(tmp_path, capsys, name):
    out_path, csv_path = tmp_path / "report.txt", tmp_path / "report.csv"
    argv = _argv(tmp_path, EVERY_SUBCOMMAND[name])
    csv = ["--csv", str(csv_path)] if name in WRITES_CSV else []
    code, out, err = run(capsys, *argv, "--out", str(out_path), *csv)
    assert code == (2 if name == "construct-walk-failed" else 0), err
    assert out and out_path.read_text(encoding="utf-8") == out
    assert ("construction failed" in out) == (name == "construct-walk-failed")
    # the four experiment subcommands write their CSV; the others reject --csv
    assert csv_path.exists() == (name in WRITES_CSV)


# inputs that a run rejects; --validate-only must reject them with the same line
VALIDATE_GAPS = {
    "walk-apply-v-length": ["walk-apply", "--walk-from", "bogolubov:y^2", "--n", "3",
                            "--v", "3,3,3"],
    "construct-walk-v-length": ["construct-walk", "--gen", "xyP:z^2:1",
                                "--gen", "xyP:z^2:2", "--v", "1,0"],
    "construct-walk-mixed-dims": ["construct-walk", "--gen", "xyP:z^2:1",
                                  "--gen", "bogolubov:y^2", "--v", "1,0,0"],
    "weyl-exact-irrational": ["weyl", "--p", "n", "--theta", "sqrt2", "--N", "300",
                              "--exact"],
    "gen-P-syntax": ["gen", "--family", "xyP", "--P", "z^"],
    "gen-P-degree": ["gen", "--family", "bogolubov", "--P", "y"],
    "gen-matrix-not-square": ["gen", "--family", "adjoint", "--matrix", "1,1,0"],
    "gen-matrix-entry": ["gen", "--family", "adjoint", "--matrix", "1,x,0,1"],
    "gen-matrix-determinant": ["gen", "--family", "adjoint", "--matrix", "2,0,0,1"],
    "gen-signature-p": ["gen", "--family", "signature", "--p", "0", "--q", "3"],
    "gen-signature-q": ["gen", "--family", "signature", "--p", "1", "--q", "1"],
    "magyar-k": ["magyar", "--config", "{magyar}", "--k", "0"],
    "magyar-target": ["magyar", "--config", "{magyar}", "--targets", "0"],
    "magyar-P-bivariate": ["magyar", "--config", "{magyar}", "--P", "y*z"],
    "magyar-P-constant-term": ["magyar", "--config", "{magyar}", "--P", "z^2 + 1"],
    "magyar-P-degree": ["magyar", "--config", "{magyar}", "--P", "z"],
    "magyar-N-max": ["magyar", "--config", "{magyar}", "--N-max", "0"],
    "bogolubov-k": ["bogolubov", "--config", "{window}", "--k", "0"],
    "bogolubov-target": ["bogolubov", "--config", "{window}", "--k", "2", "--targets", "3"],
    "bogolubov-N-max": ["bogolubov", "--config", "{bohr}", "--N-max", "0"],
    "bogolubov-P-constant-term": ["bogolubov", "--config", "{window}", "--P", "y^2 + 1"],
    "magyar-dim-2": ["magyar", "--config", "{bohr}", "--P", "z^2"],
    "bogolubov-window-dim-3": ["bogolubov", "--config", "{points_dim_3}"],
    "bogolubov-density-above-1": ["bogolubov", "--config", "{density_above_1}"],
    "bogolubov-density-negative": ["bogolubov", "--config", "{density_negative}"],
    "bogolubov-side-0": ["bogolubov", "--config", "{side_0}"],
    "ergodic-avg-N": ["ergodic-avg", "--config", "{empty_average}"],
    "ergodic-avg-grid": ["ergodic-avg", "--config", "{sample_grid}"],
    "ergodic-avg-seed": ["ergodic-avg", "--config", "{trig_seed}"],
    "magyar-precision-key": ["magyar", "--config", "{magyar_precision}"],
    "ergodic-avg-precision-0": ["ergodic-avg", "--config", "{box_precision_0}"],
    "ergodic-avg-precision-negative": ["ergodic-avg", "--config",
                                       "{box_precision_negative}"],
    "ergodic-avg-comp-leading-zero": ["ergodic-avg", "--config", "{trig_comp_01}"],
    "bogolubov-radius-gap": ["bogolubov", "--config", "{bohr_radius_gap}"],
    "correlate-k-and-eps": ["correlate", "--config", "{correlate_k_and_eps}"],
    "weyl-N": ["weyl", "--p", "n^2", "--theta", "sqrt2", "--N", "0"],
    "correlate-no-orbit": ["correlate", "--config", "{no_orbit}"],
    "correlate-extra-arc": ["correlate", "--config", "{extra_arc}"],
    "ergodic-avg-extra-arc": ["ergodic-avg", "--config", "{box_extra_arc}"],
    "weyl-non-integer": ["weyl", "--p", "1/2*n", "--theta", "sqrt2", "--N", "4"],
    "ergodic-avg-non-integer": ["ergodic-avg", "--config", "{trig_half}"],
    "ergodic-avg-row-length": ["ergodic-avg", "--config", "{trig_row_length}"],
    "ergodic-avg-frequency-dimension": ["ergodic-avg", "--config", "{trig_frequency}"],
    "correlate-non-integer": ["correlate", "--config", "{correlate_half}"],
    "correlate-orbit-length": ["correlate", "--config", "{correlate_orbit_length}"],
    "construct-walk-N-max-0": ["construct-walk", "--gen", "bogolubov:y^2", "--v", "-3,0",
                               "--N-max", "0"],
    "construct-walk-N-max-negative": ["construct-walk", "--gen", "bogolubov:y^2",
                                      "--v", "-3,0", "--N-max", "-3"],
    "ergodic-avg-observable-Box": ["ergodic-avg", "--config", "{box_capital}"],
    "ergodic-avg-observable-trigg": ["ergodic-avg", "--config", "{trigg}"],
    "correlate-k-0": ["correlate", "--config", "{correlate_k_0}"],
    "correlate-k-negative": ["correlate", "--config", "{correlate_k_negative}"],
    "correlate-N-not-integer": ["correlate", "--config", "{correlate_N_float}"],
}


@pytest.mark.parametrize("name", sorted(VALIDATE_GAPS))
def test_validate_only_rejects_what_the_run_rejects(tmp_path, capsys, name):
    argv = _argv(tmp_path, VALIDATE_GAPS[name])
    code, out, run_err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert run_err.startswith("error: ")
    code, out, err = run(capsys, *argv, "--validate-only")
    assert (code, out, err) == (1, "", run_err)


GAP_MESSAGES = {
    "ergodic-avg-observable-Box": "unknown observable 'Box' (expected trig or box)",
    "ergodic-avg-observable-trigg": "unknown observable 'trigg' (expected trig or box)",
    "correlate-k-0": "k must be positive, got 0",
    "correlate-k-negative": "k must be positive, got -2",
    "correlate-N-not-integer": "key 'N_1' is not an integer: '2e2'",
    "magyar-precision-key": "unknown config key 'precision'",
    "ergodic-avg-comp-leading-zero":
        "config key 'comp_01' should be 'comp_1': indexed keys are numbered 1, 2, 3, ...",
    "bogolubov-radius-gap":
        "config key 'radius_7' should be 'radius_2': indexed keys are numbered 1, 2, 3, ...",
    "correlate-k-and-eps": "unknown config key 'eps'",
}


@pytest.mark.parametrize("name", sorted(GAP_MESSAGES))
def test_config_value_errors_name_the_value(tmp_path, capsys, name):
    assert run(capsys, *_argv(tmp_path, VALIDATE_GAPS[name])) == (
        1, "", f"error: {GAP_MESSAGES[name]}\n")


# -- each subcommand declares only the flags it reads ---------------------------

SHARED_FLAG_VALUES = {"--csv": "{out}", "--jobs": "2", "--seed": "4", "--precision": "20",
                      "--N-max": "9"}
SEARCH_FLAGS = {"--csv", "--jobs", "--seed", "--N-max"}
READS_SHARED = {"construct-walk": {"--N-max"}, "magyar": SEARCH_FLAGS,
                "bogolubov": SEARCH_FLAGS, "ergodic-avg": {"--csv"},
                "correlate": {"--csv", "--seed"}}
SUBCOMMANDS = ["check-fleeing", "preserves", "walk-apply", "construct-walk", "gen",
               "magyar", "bogolubov", "weyl", "ergodic-avg", "correlate"]
UNREAD_FLAGS = [(name, flag) for name in SUBCOMMANDS for flag in SHARED_FLAG_VALUES
                if flag not in READS_SHARED.get(name, ())]


@pytest.mark.parametrize("name, flag", UNREAD_FLAGS, ids=[f"{n}{f}" for n, f in UNREAD_FLAGS])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, name, flag):
    argv = _argv(tmp_path, EVERY_SUBCOMMAND[name])
    assert run(capsys, *argv, "--validate-only") == (0, "ok\n", "")
    value = SHARED_FLAG_VALUES[flag].format(out=tmp_path / "unread.csv")
    for extra in ([], ["--validate-only"]):
        code, out, err = run(capsys, *argv, flag, value, *extra)
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {flag} {value}" in err
    assert not (tmp_path / "unread.csv").exists()


@pytest.mark.parametrize("value", ["0", "-5"], ids=["precision-0", "precision-negative"])
def test_weyl_rejects_precision_whatever_its_value(capsys, value):
    argv = ["weyl", "--p", "n^2", "--theta", "sqrt2", "--N", "5", "--precision", value]
    for extra in ([], ["--validate-only"]):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: --precision {value}" in err


@pytest.mark.parametrize("argv, flag, family", [
    (["--family", "signature", "--p", "1", "--q", "2", "--P", "z^2"], "--P", "signature"),
    (["--family", "adjoint", "--matrix", "1,1,0,1", "--P", "z^2"], "--P", "adjoint"),
    (["--family", "xyP", "--P", "z^2", "--p", "4"], "--p", "xyP"),
    (["--family", "bogolubov", "--P", "y^2", "--q", "1"], "--q", "bogolubov"),
    (["--family", "adjoint", "--matrix", "1,1,0,1", "--q", "2"], "--q", "adjoint"),
    (["--family", "xyP", "--P", "z^2", "--matrix", "1"], "--matrix", "xyP"),
    (["--family", "signature", "--p", "1", "--q", "2", "--matrix", "1,1,0,1"], "--matrix",
     "signature"),
], ids=["signature-P", "adjoint-P", "xyP-p", "bogolubov-q", "adjoint-q", "xyP-matrix",
        "signature-matrix"])
def test_gen_rejects_the_flags_of_another_family(capsys, argv, flag, family):
    for extra in ([], ["--validate-only"]):
        assert run(capsys, "gen", *argv, *extra) == (
            1, "", f"error: {flag} is not read by the {family} family\n")


def _readme_flag_table() -> dict[str, set[str]]:
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index("| Subcommand | Own flags | Shared flags |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = line.strip("|").split("|")
        flags = re.findall(r"`(--[\w-]+)`", "|".join(cells[1:]))
        table[cells[0].strip().strip("`")] = set(flags)
    return table


def _parser_flag_table() -> dict[str, set[str]]:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {o for a in p._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
            for name, p in sub.choices.items()}


def test_readme_flag_table_matches_the_parser():
    assert _readme_flag_table() == _parser_flag_table()
    assert sum(map(len, _parser_flag_table().values())) == 60


def test_readme_config_key_table_matches_the_subcommands():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index("| Subcommand | Keys | Indexed keys |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, keys, indexed = (cell.strip() for cell in line.strip("|").split("|"))
        table[name.strip("`")] = (set(re.findall(r"`(\w+)`", keys)),
                                  set(re.findall(r"`(\w+_)[ij]`", indexed)))
    search = (_EXPERIMENT_KEYS, set(_ORACLE_PREFIXES))
    assert table == {"magyar": search, "bogolubov": search,
                     "ergodic-avg": (_ERGODIC_KEYS, set(_ERGODIC_PREFIXES)),
                     "correlate": (_CORRELATE_KEYS, set(_CORRELATE_PREFIXES))}


# the shapes of the benchmark's operations
BENCHMARK_SHAPED = {
    "construct-signature": ["construct-walk"]
    + [a for i in range(1, 7) for a in ("--gen", f"signature:2,3:{i}")] + ["--v=1,0,0,0,0"],
    "construct-sl3": ["construct-walk", "--gen", "adjoint:1,1,0,0,1,1,0,0,1",
                      "--gen", "adjoint:1,0,0,1,1,0,0,1,1", "--v=1,0,0,0,0,0,0,0"],
    "magyar-bohr": ["magyar", "--config", "{magyar}"],
    "bogolubov-bohr-jobs2": ["bogolubov", "--config", "{bohr}", "--jobs", "2"],
    "bogolubov-window": ["bogolubov", "--config", "{points}"],
    "weyl": ["weyl", "--p", "n^2, n^3", "--theta", "sqrt2, sqrt3", "--N", "30000"],
    "weyl-exact": ["weyl", "--p", "n", "--theta", "1/3", "--N", "30001", "--exact"],
    "ergodic-trig": ["ergodic-avg", "--config", "{trig}"],
    "ergodic-box": ["ergodic-avg", "--config", "{box}"],
    "correlate": ["correlate", "--config", "{correlate}"],
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_SHAPED))
def test_validate_only_prints_ok_and_computes_nothing(tmp_path, capsys, monkeypatch, name):
    import polywalk.cli as cli

    def computed(*args, **kwargs):
        raise AssertionError("--validate-only ran a computation")

    for fn in ("construct_fleeing_walk", "corollary_experiment", "weyl_sums", "weyl_sum_rational", "empirical_average",
               "correlation_average"):
        monkeypatch.setattr(cli, fn, computed)
    out_path = tmp_path / "report.txt"
    code, out, err = run(capsys, *_argv(tmp_path, BENCHMARK_SHAPED[name]),
                         "--validate-only", "--out", str(out_path))
    assert (code, out, err) == (0, "ok\n", "")
    assert not out_path.exists()


def test_benchmark_shaped_correlate_report_and_csv_are_pinned(tmp_path, capsys):
    # estimate, std_error and half_N_estimate byte for byte, with the CSV row
    csv_path = tmp_path / "report.csv"
    code, out, err = run(capsys, *_argv(tmp_path, BENCHMARK_SHAPED["correlate"]),
                         "--csv", str(csv_path))
    assert (code, err) == (0, "")
    assert out == ("k = 1\nmeasure = 0.36\nestimate = 0.0525125\nstd_error = 0.00433125\n"
                   "half_N_estimate = 0.0574125\npower_bound = 0.046656\nseed = 7\n")
    assert csv_path.read_bytes() == (
        b"experiment,N,estimate,predicted,abs_error,std_error\n"
        b"correlate,100 100,0.0525125,0.046656,0.0058565,0.00433125\n")


@pytest.mark.parametrize("key", ["N_1", "samples", "replicates"])
def test_correlate_rejects_zero_counts(tmp_path, capsys, key):
    cfg = _configs(tmp_path)["correlate"]
    text = cfg.read_text(encoding="utf-8")
    cfg.write_text("\n".join(f"{key} = 0" if line.startswith(f"{key} =") else line
                             for line in text.splitlines()) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "correlate", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "must be >= 1" in err
    assert run(capsys, "correlate", "--config", str(cfg), "--validate-only") == (1, "", err)


@pytest.mark.parametrize("n_max", ["0", "-4"])
def test_magyar_rejects_empty_search_range(tmp_path, capsys, n_max):
    cfg = _configs(tmp_path)["magyar"]
    code, out, err = run(capsys, "magyar", "--config", str(cfg), "--N-max", n_max)
    assert (code, out, err) == (1, "", f"error: N_max must be >= 1, got {n_max}\n")


def test_ergodic_avg_rejects_the_seed_flag(tmp_path, capsys):
    argv = _argv(tmp_path, ["ergodic-avg", "--config", "{trig}"])
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    code, out, err = run(capsys, *argv, "--seed", "99")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --seed 99" in err


def test_ergodic_avg_box_with_more_arcs_than_torus_coordinates(tmp_path, capsys):
    # one torus coordinate: the second arc used to be dropped, not rejected
    argv = _argv(tmp_path, ["ergodic-avg", "--config", "{box_extra_arc}"])
    assert run(capsys, *argv) == (
        1, "", "error: box has 2 arcs for a torus of dimension 1\n")


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_construct_walk_rejects_an_empty_depth_range(capsys, n_max):
    # no depth is examined, so it is a usage error, not a failed construction
    code, out, err = run(capsys, "construct-walk", "--gen", "bogolubov:y^2",
                         "--v", "-3,0", "--N-max", n_max)
    assert (code, out, err) == (1, "", f"error: depth cap must be >= 1, got {n_max}\n")


@pytest.mark.parametrize("p, theta, n_count", [("n^2", "1/6", 600), ("2*n", "1/4", 40),
                                               ("n", "1/5040", 5040)])
def test_weyl_exact_zero_beyond_uniform_counts(capsys, p, theta, n_count):
    # n^2 mod 6 runs 1, 4, 3, 4, 1, 0: 1 + 2z + z^3 + 2z^4 = 0 at z = e(1/6);
    # q = 5040 has a cyclotomic polynomial of degree 1152
    code, out, _ = run(capsys, "weyl", "--p", p, "--theta", theta, "--N", str(n_count),
                       "--exact")
    assert (code, out) == (0, "value = 0 + 0i\nmodulus = 0\nexactly_zero = true\n")


def test_ergodic_avg_drops_an_exactly_zero_component(tmp_path, capsys):
    # e(2n/4) = (-1)^n has mean exactly 0 over a period
    code, out, _ = run(capsys, *_argv(tmp_path, ["ergodic-avg", "--config",
                                                 "{trig_zero_mean}"]))
    assert code == 0
    assert "predicted = 0 + 0i" in out.splitlines()
