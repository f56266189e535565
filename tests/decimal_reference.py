"""Decimal digits of the named constants, floor(c * 10^p): `isqrt` for the
square roots and golden, Machin's formula for pi.  The package reads its
constants in binary (`reals.constant_digits`); the tests keep this decimal
route as an oracle that shares no code with it."""

from math import isqrt


def _pi_digits(prec: int) -> int:
    # pi = 16 atan(1/5) - 4 atan(1/239), each term truncated at prec + 12
    # digits: the truncation errors sum far below the 12 guard digits
    work = prec + 12

    def atan_inv(x: int) -> int:
        total, term, k, sign = 0, 10 ** work // x, 1, 1
        while term:
            total += sign * term // k
            term //= x * x
            k += 2
            sign = -sign
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) // 10 ** (work - prec)


def decimal_digits(name: str, prec: int) -> int:
    """floor(c * 10^prec) for the named constant c."""
    if name.startswith("sqrt"):
        return isqrt(int(name[4:]) * 10 ** (2 * prec))
    if name == "golden":
        return (10 ** prec + isqrt(5 * 10 ** (2 * prec))) // 2
    if name == "pifrac":
        return _pi_digits(prec) - 3 * 10 ** prec
    raise ValueError(f"unknown constant '{name}'")
