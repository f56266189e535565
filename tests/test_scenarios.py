"""End-to-end scenarios that chain several modules together."""

from fractions import Fraction

from polywalk.cli import main
from polywalk.ergodic import TorusSystem, TrigPoly, empirical_average, q_p_closed_form
from polywalk.fleeing import construct_fleeing_walk
from polywalk.generators import bogolubov_walk, unipotent_walk, xy_minus_P_walks
from polywalk.lab import MAGYAR, BohrSet, corollary_experiment, twisted_search
from polywalk.poly import PolyVector, poly_parse
from polywalk.reals import Real
from polywalk.walks import preserves, walk_scaling_certificate
from test_fleeing import orbit_polynomials

F = Fraction


def test_three_generator_cyclic_schedule():
    s1, s2 = xy_minus_P_walks(poly_parse("z^2", ["z"]))
    bog3 = unipotent_walk([[1, 0, 0], [0, 1, 0], [1, 0, 1]], ("x", "y", "z"))
    gens = [s1, s2, bog3]
    orbit4 = orbit_polynomials(gens, (1, 0, 0), 4)
    assert orbit4.vars == ("t1", "t2", "t3", "t4")
    # step 4 wraps back to the first generator: S1 moves z by t4 * x
    assert "t4" in orbit4[2].support()
    cert = construct_fleeing_walk(gens, (1, 0, 0))
    assert cert.depth <= 4
    assert cert.final_walk.orbit_poly((1, 0, 0)) == cert.orbit_poly


def test_cubic_form_full_pipeline():
    p = poly_parse("z^3", ["z"])
    s1, s2 = xy_minus_P_walks(p)
    form = poly_parse("x*y - z^3", ["x", "y", "z"])
    assert preserves(form, s1) and preserves(form, s2)
    for walk in (s1, s2):
        assert walk_scaling_certificate(walk).ok
    oracle = BohrSet(
        3,
        [[Real.named("sqrt2"), Real.named("sqrt3"), Real.named("sqrt5")]],
        [F(1, 5)],
    )
    report = corollary_experiment(MAGYAR, p, oracle, 1, [1, -2], 10 ** 5)
    assert report.all_found()
    for record in report.records:
        x, y, z = record.witness
        assert x * y - z ** 3 == record.target


def test_quintic_fleeing_certificate():
    s1, s2 = xy_minus_P_walks(poly_parse("z^5", ["z"]))
    cert = construct_fleeing_walk([s1, s2], (1, 0, 0))
    # H has degree 5 in the time variable, so the base reflects it
    assert cert.base >= 6
    assert cert.final_walk.apply(1, (1, 0, 0)) == tuple(
        int(p.eval({"n": 1})) for p in cert.orbit_poly
    )


def test_mixed_spectrum_two_dimensional_system():
    system = TorusSystem([[F(1, 2), F(0)], [F(0), Real.named("sqrt3")]])
    f = TrigPoly.of([((1, 0), 0.6), ((0, 1), 0.4)])
    orbit = PolyVector([poly_parse("2*n", ["n"]), poly_parse("n^2", ["n"])])
    prediction = q_p_closed_form(system, f, orbit)
    # rational component survives with multiplier exactly 1, irrational dies
    assert dict(prediction.components) == {(1, 0): 0.6 + 0j}
    result = empirical_average(system, f, orbit, 20000)
    predicted_value = prediction.value_at([0.0, 0.0])
    assert abs(result.value - predicted_value) < 0.02
    assert result.l2_to_prediction < 0.02


def test_search_jobs_flag_deterministic(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        "model = bohr\ndim = 2\nfreq_1 = sqrt2, sqrt3\nradius_1 = 1/50\n"
        "P = y^2\ntargets = 3\nN_max = 5000\nseed = 1\n",
        encoding="utf-8",
    )
    assert main(["bogolubov", "--config", str(cfg)]) == 0
    single = capsys.readouterr().out
    assert main(["bogolubov", "--config", str(cfg), "--jobs", "4"]) == 0
    multi = capsys.readouterr().out

    def strip(text):
        return [l for l in text.splitlines() if not l.startswith("#")]

    assert strip(single) == strip(multi)


def test_twisted_search_narrow_arc_needs_larger_n():
    # a narrow Bohr arc forces the search deeper but stays deterministic
    walk = bogolubov_walk(poly_parse("y^2", ["y"]))
    narrow = BohrSet(2, [[Real.named("sqrt2"), Real.named("sqrt3")]], [F(1, 200)])
    wide = BohrSet(2, [[Real.named("sqrt2"), Real.named("sqrt3")]], [F(1, 5)])
    r_narrow = twisted_search(walk.orbit_poly((0, 1)), narrow, 4000)
    r_wide = twisted_search(walk.orbit_poly((0, 1)), wide, 4000)
    assert r_wide.found() and r_narrow.found()
    assert r_wide.n <= r_narrow.n
