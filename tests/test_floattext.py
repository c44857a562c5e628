"""floattext.format_rows against Python's own '%.17g' % v, value by value."""
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from lppm.floattext import BLOCK, VECTOR_MIN, _scaled, format_rows


def oracle(values, sep):
    return [sep.join("%.17g" % v for v in row) for row in np.asarray(values).tolist()]


def assert_same_text(values, sep=","):
    values = np.asarray(values, dtype=float)
    got, want = list(format_rows(values, sep)), oracle(values, sep)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            bad = next((v, a, b) for v, a, b in zip(values[i].tolist(), g.split(sep),
                                                     w.split(sep)) if a != b)
            pytest.fail(f"row {i}: {bad[0]!r} written as {bad[1]!r}, Python writes {bad[2]!r}")


def largest_double_below(exact: Fraction) -> float:
    x = float(exact)
    while Fraction(x) >= exact:
        x = math.nextafter(x, 0.0)
    return x


def test_bit_patterns_over_the_whole_double_range(rng):
    """Every exponent and both signs, subnormals, nan and inf among them."""
    values = rng.integers(0, 2 ** 64, size=500_000, dtype=np.uint64).view(np.float64)
    assert np.isnan(values).any() and (np.abs(values) < 2.2250738585072014e-308).any()
    values[:12] = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                   2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308]
    assert_same_text(values.reshape(-1, 100))


def test_decimal_magnitudes_around_the_vectorized_range(rng):
    """Mantissas in [1, 10) at every decade from 1e-9 to 1e19: fixed and
    e-notation, inside and outside [1e-6, 1e16)."""
    n = 120 * 3_400
    values = (1.0 + 9.0 * rng.random(n)) * 10.0 ** rng.integers(-9, 20, n)
    values[rng.random(n) < 0.5] *= -1.0
    values[::7] = np.round(values[::7])  # integers, with zeros before the point
    values[1::7] = np.round(values[1::7], 3)  # short fractions
    assert_same_text(values.reshape(-1, 120), ", ")


def test_ties_round_half_even(rng):
    """m * 2**-k whose exact decimal has 18 significant digits ending in 5,
    so the 17th digit is a tie; and integers below 2**53 scaled by 2**-k."""
    ties = []
    for k in range(2, 40):
        lo, hi = -(-10 ** 17 // 5 ** k), min(10 ** 18 // 5 ** k, 2 ** 53)
        if lo < hi:
            m = rng.integers(lo // 2, hi // 2, size=2_000) * 2 + 1
            ties.append(np.ldexp(m.astype(np.float64), -k))
    ties = np.concatenate(ties)
    digits = [Decimal(x).normalize().as_tuple().digits for x in ties[::50].tolist()]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)
    m = rng.integers(1, 2 ** 53, size=100_000)
    scaled = np.ldexp(m.astype(np.float64), rng.integers(0, 90, m.size))
    values = np.concatenate([ties, -ties, scaled, np.ldexp(scaled, -40)])
    assert_same_text(values.reshape(1, -1))


def test_neighbours_of_powers_of_ten():
    values = []
    for k in range(-7, 18):
        x = below = above = float(f"1e{k}")
        values.append(x)
        for _ in range(8):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            values += [below, above]
    values = np.array(values)
    assert_same_text(np.concatenate([values, -values]).reshape(-1, 17))


def test_rounding_up_to_a_power_of_ten():
    """The largest double below 10**b rounds up to 10**b at 17 digits for a
    few b, none of them in [-5, 16], where a carry from the exponents the
    vector path writes (-6..15) would land. Those doubles, and the ones below
    1e-5, 1e-4, 1e16 and 1e17, are written as Python writes them."""
    below = {b: largest_double_below(Fraction(10) ** b) for b in range(-323, 309)}
    carry = [b for b, x in below.items() if Fraction("%.17g" % x) == Fraction(10) ** b]
    assert carry and not [b for b in carry if -5 <= b <= 16]
    values = np.array(list(below.values()))
    assert_same_text(np.concatenate([values, -values]).reshape(2, -1), ", ")


def test_scale_flags_hold_for_an_exponent_off_by_one():
    """log10 may miss the decimal exponent by one (on another libm, also
    above the power of ten): the flags that move it compare the exact product
    with 1e16 and 1e17, and N is the exact product rounded half-even."""
    for b in range(-6, 16):
        x = below = above = float(f"1e{b}")
        values = [x]
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            values += [below, above]
        for x in values:
            for q in range(15 - b, min(18 - b, 23)):
                n, low, high = (a[0] for a in _scaled(np.array([x]), np.array([q])))
                exact = Fraction(x) * 10 ** q
                assert (low, high) == (exact < 10 ** 16, exact >= 10 ** 17), (x, q)
                if not (low or high):
                    assert n == round(exact), (x, q)


@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0), (1, 1), (4, 1), (1, 7),
                                   (1, VECTOR_MIN - 1), (1, VECTOR_MIN), (3, BLOCK + 5),
                                   (BLOCK + 3, 1), (2, BLOCK)])
def test_shapes_and_block_boundaries(rng, shape):
    values = rng.random(shape) * 10.0 ** rng.integers(-8, 18, shape)
    values[values < 1e-7] = 0.0
    assert_same_text(values, ", ")
    assert len(list(format_rows(values))) == shape[0]


def test_single_values():
    for v in [0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, 123.0, 1e-5, 1e16, 9007199254740993.0]:
        assert list(format_rows([[v]])) == ["%.17g" % v]
