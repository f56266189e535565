"""Self-tests of the output checkers: each accepts a correct output and
rejects a corrupted one.  Outputs are built here from the checkers' own
arithmetic, never from a stored run of the program.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import cmath
import math
import unittest
from fractions import Fraction

import checks

XYP_Z2 = {"kind": "xyP", "P": checks.parse_univariate("z^2", "z")}


def certificate(orbit_text: str) -> str:
    return f"depth 2\nbase 3\nexponents 3 9\norbit {orbit_text}\nwalk:\n  dim 3\n"


def search_report(target, n, witness) -> str:
    w = " ".join(str(x) for x in witness)
    return f"experiment magyar\ntarget {target}: found n={n} witness=({w}) F={target}\n"


def complex_text(z: complex) -> str:
    return f"{z.real:.12g} + {z.imag:.12g}i"


class ArithmeticTests(unittest.TestCase):
    def test_golden_is_rewritten_in_the_basis(self):
        combo = checks.real_combination(
            [checks.parse_real("golden"), checks.parse_real("sqrt5")], [2, -1])
        self.assertEqual(combo, {"1": Fraction(1)})

    def test_bareiss_matches_cofactor_expansion(self):
        m = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        self.assertEqual(checks.bareiss_determinant(m), 4)
        self.assertEqual(checks.bareiss_determinant([[1, 2], [2, 4]]), 0)
        self.assertEqual(checks.bareiss_determinant([[0, 1], [1, 0]]), -1)

    def test_printed_polynomial_round_trip(self):
        poly = checks.parse_univariate("-3*n^18 + 1/2*n^2 + n - 7")
        self.assertEqual(checks.eval_poly(poly, 2), Fraction(-3 * 2 ** 18 + 2 + 2 - 7))

    def test_circle_distance_decides_both_ways(self):
        sqrt2 = [checks.parse_real("sqrt2")]
        # ||5 * sqrt2|| = 0.0710678...
        self.assertTrue(checks.circle_distance_below(sqrt2, [5], Fraction(8, 100)))
        self.assertFalse(checks.circle_distance_below(sqrt2, [5], Fraction(7, 100)))


class ConstructCheckTests(unittest.TestCase):
    check = {"v": [1, 0, 0], "form": XYP_Z2, "sample_points": [2, 5, 11]}
    orbit = "n^24 + 2*n^12 + 1; n^6; n^15 + n^3"

    def test_accepts_a_fleeing_form_preserving_orbit(self):
        self.assertEqual(checks.check_construct(self.check, certificate(self.orbit)), [])

    def test_rejects_a_dropped_orbit_entry(self):
        self.assertTrue(checks.check_construct(self.check, certificate("n^24 + 2*n^12 + 1; n^6")))

    def test_rejects_an_orbit_in_a_hyperplane(self):
        check = dict(self.check, form=None)
        self.assertTrue(checks.check_construct(check, certificate("n^2 + 1; n; 2*n")))

    def test_rejects_an_orbit_that_breaks_the_form(self):
        broken = certificate("n^24 + 3*n^12 + 1; n^6; n^15 + n^3")
        self.assertTrue(checks.check_construct(self.check, broken))


class SearchCheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.orbit = [checks.parse_univariate(p) for p in
                     "n^24 + n^18 + 2*n^12 + 1; n^6 + 1; n^15 + n^9 + n^3".split(";")]
        thetas = [{"sqrt2": Fraction(1)}, {"sqrt3": Fraction(1)}, {"sqrt5": Fraction(1)}]
        scanner = checks.PhaseScanner(cls.orbit, thetas, Fraction(1, 1000), 3000)
        cls.n, ambiguous = scanner.first_hit()
        assert cls.n is not None and not ambiguous
        cls.witness = [checks.eval_int_poly(p, cls.n) for p in cls.orbit]
        cls.check = {"targets": [1], "expected_n": [cls.n], "n_max": 3000, "form": XYP_Z2,
                     "thetas": ["sqrt2", "sqrt3", "sqrt5"], "radius": "1/2000"}

    def test_accepts_the_first_hit(self):
        report = search_report(1, self.n, self.witness)
        self.assertEqual(checks.check_search(self.check, report), [])

    def test_rejects_a_flipped_witness_coordinate(self):
        flipped = [self.witness[0], -self.witness[1], self.witness[2]]
        errors = checks.check_search(self.check, search_report(1, self.n, flipped))
        self.assertTrue(any("form value" in e for e in errors))

    def test_rejects_a_witness_outside_the_difference_set(self):
        # same form value x*y - z^2 = 1, but not on the orbit's hit
        errors = checks.check_search(self.check, search_report(1, self.n, [1, 1, 0]))
        self.assertTrue(any("B - B" in e for e in errors))

    def test_rejects_a_later_n_and_a_missing_target(self):
        self.assertTrue(checks.check_search(self.check, search_report(1, self.n + 1, self.witness)))
        self.assertTrue(checks.check_search(self.check, "target 1: exhausted\n"))

    def test_window_pair_is_found_or_refused(self):
        check = {"targets": [3], "expected_n": [1], "n_max": 5,
                 "form": {"kind": "bogolubov", "P": checks.parse_univariate("y^2", "y")},
                 "points": [[0, 0], [4, 1], [9, 9]]}
        self.assertEqual(checks.check_search(check, search_report(3, 1, [4, 1])), [])
        check["points"] = [[0, 0], [4, 2], [9, 9]]
        self.assertTrue(checks.check_search(check, search_report(3, 1, [4, 1])))


class AveragesCheckTests(unittest.TestCase):
    def test_exact_weyl_mean_and_its_perturbation(self):
        check = {"polys": ["n"], "thetas": ["1/3"], "N": 4, "exact": True}
        # residues of n/3 for n = 1..4: 1, 2, 0, 1
        mean = (2 * cmath.exp(2j * math.pi / 3) + cmath.exp(4j * math.pi / 3) + 1) / 4
        good = f"value = {complex_text(mean)}\nmodulus = {abs(mean):.12g}\nexactly_zero = false\n"
        self.assertEqual(checks.check_weyl(check, good), [])
        bad = mean + 0.001
        self.assertTrue(checks.check_weyl(check, f"value = {complex_text(bad)}\nmodulus = "
                                                 f"{abs(bad):.12g}\nexactly_zero = false\n"))

    def test_irrational_weyl_modulus_bound(self):
        check = {"polys": ["n^2"], "thetas": ["sqrt2"], "N": 100, "exact": False}
        self.assertEqual(checks.check_weyl(check, "value = 0.01 + 0i\nmodulus = 0.01\n"), [])
        self.assertTrue(checks.check_weyl(check, "value = 0.2 + 0i\nmodulus = 0.2\n"))

    def test_rational_ergodic_average(self):
        check = {"rows": [["1/2"]], "x0": ["0"], "p": ["n"], "N": 1001, "observable": "trig",
                 "components": [((1,), 1.0)]}
        # e(n/2) = (-1)^n sums to -1 over n = 1..1001; the limit is 0
        good = f"estimate = {complex_text(-1 / 1001)}\npredicted = 0 + 0i\n"
        self.assertEqual(checks.check_ergodic(check, good), [])
        bad = f"estimate = {complex_text(-1 / 1001 + 0.001)}\npredicted = 0 + 0i\n"
        self.assertTrue(checks.check_ergodic(check, bad))

    def test_golden_closed_form_is_one(self):
        check = {"rows": [["golden"], ["sqrt5"]], "x0": ["0", "0"], "p": ["n"], "N": 100,
                 "observable": "trig", "components": [((2, -1), 1.0)]}
        self.assertEqual(checks.check_ergodic(check, "estimate = 1 + 0i\npredicted = 1 + 0i\n"), [])
        self.assertTrue(checks.check_ergodic(check, "estimate = 1 + 0i\npredicted = 0 + 0i\n"))

    def test_box_estimate_near_the_measure(self):
        check = {"observable": "box", "radius": "1/5"}
        self.assertEqual(checks.check_ergodic(check, "estimate = 0.405 + 0i\n"), [])
        self.assertTrue(checks.check_ergodic(check, "estimate = 0.45 + 0i\n"))

    def test_correlation_lower_bound(self):
        check = {"radii": ["3/10", "3/10"], "orbits": 2}
        self.assertEqual(checks.check_correlate(check, "measure = 0.36\nestimate = 0.05\n"), [])
        self.assertTrue(checks.check_correlate(check, "measure = 0.36\nestimate = 0.02\n"))
        self.assertTrue(checks.check_correlate(check, "measure = 0.25\nestimate = 0.05\n"))


if __name__ == "__main__":
    unittest.main()
