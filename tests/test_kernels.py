"""Kernel closed forms against brute-force spectral sums.

The expected values below were frozen from literal python-loop sums of
(1/N) sum_k k^2 e^{i 2 pi k d / N} and (i/N) sum_k k e^{i 2 pi k d / N},
written out here so the oracle stays independent of the library.
"""

import cmath

import numpy as np
import pytest

from ringfield import kernel_f, kernel_g, make_lattice
from ringfield.lattice import make_even_lattice


def brute_f(d, n):
    half = (n - 1) // 2
    total = sum(
        k * k * cmath.exp(2j * cmath.pi * k * d / n) for k in range(-half, half + 1)
    ) / n
    assert abs(total.imag) < 1e-9
    return total.real


def brute_g(d, n):
    half = (n - 1) // 2
    total = 1j * sum(
        k * cmath.exp(2j * cmath.pi * k * d / n) for k in range(-half, half + 1)
    ) / n
    assert abs(total.imag) < 1e-9
    return total.real


class TestClosedForms:
    def test_f_zero_headline(self):
        lat = make_lattice(801)
        assert kernel_f(0, lat) == pytest.approx(641600 / 12, rel=0, abs=0)

    def test_f_small_lattice(self):
        lat = make_lattice(3)
        assert kernel_f(1, lat) == pytest.approx(-1 / 3, abs=1e-14)
        assert kernel_f(0, lat) == pytest.approx(2 / 3, abs=1e-14)
        assert kernel_f(1, lat) == pytest.approx(brute_f(1, 3), abs=1e-12)

    def test_g_small_lattice(self):
        lat = make_lattice(3)
        assert kernel_g(1, lat) == pytest.approx(-1 / np.sqrt(3), abs=1e-14)
        assert kernel_g(0, lat) == 0.0
        assert kernel_g(-1, lat) == pytest.approx(+0.5773502691896258, abs=1e-14)
        assert kernel_g(1, lat) == pytest.approx(brute_g(1, 3), abs=1e-12)

    def test_g_n5(self):
        lat = make_lattice(5)
        assert kernel_g(2, lat) == pytest.approx(1 / (2 * np.sin(2 * np.pi / 5)), abs=1e-14)
        assert kernel_g(2, lat) == pytest.approx(0.5257311121191336, abs=1e-12)

    def test_f_even_and_g_odd(self):
        for n in (3, 5, 21, 101):
            lat = make_lattice(n)
            d = np.arange(1, 2 * lat.half_width + 1)
            np.testing.assert_allclose(kernel_f(d, lat), kernel_f(-d, lat), rtol=0, atol=0)
            np.testing.assert_allclose(kernel_g(d, lat), -kernel_g(-d, lat), rtol=0, atol=0)

    def test_periodicity_odd_n(self):
        for n in (3, 5, 21, 801):
            lat = make_lattice(n)
            d = np.arange(-n, n + 1)
            f0 = kernel_f(0, lat)
            np.testing.assert_allclose(
                kernel_f(d + n, lat), kernel_f(d, lat), rtol=0, atol=1e-12 * f0
            )
            np.testing.assert_allclose(
                kernel_g(d + n, lat), kernel_g(d, lat), rtol=0, atol=1e-12 * n
            )

    def test_vectorised_matches_scalar(self):
        lat = make_lattice(21)
        d = np.arange(-40, 41)
        vec_f = kernel_f(d, lat)
        vec_g = kernel_g(d, lat)
        for i, dd in enumerate(d):
            assert vec_f[i] == kernel_f(int(dd), lat)
            assert vec_g[i] == kernel_g(int(dd), lat)


class TestSpectralOracle:
    """The closed forms against values of the spectral sums, frozen here
    or summed in the test."""

    def test_f_n3_frozen_sum(self):
        lat = make_lattice(3)
        assert kernel_f(1, lat) == pytest.approx(-1 / 3, abs=1e-12)

    def test_f_n5_frozen_sum(self):
        lat = make_lattice(5)
        expected = -np.cos(np.pi / 5) / (2 * np.sin(np.pi / 5) ** 2)
        assert kernel_f(1, lat) == pytest.approx(-1.1708203932499369, abs=1e-12)
        assert kernel_f(1, lat) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 21, 101])
    def test_f_zero_is_sum_of_squares(self, n):
        lat = make_lattice(n)
        assert kernel_f(0, lat) == pytest.approx((n * n - 1) / 12, rel=1e-12)

    def test_g_frozen_sums(self):
        lat3 = make_lattice(3)
        assert kernel_g(1, lat3) == pytest.approx(-0.5773502691896258, abs=1e-12)
        assert kernel_g(0, lat3) == pytest.approx(0.0, abs=1e-15)
        lat5 = make_lattice(5)
        assert kernel_g(2, lat5) == pytest.approx(0.5257311121191336, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 7, 21, 101, 801])
    def test_closed_forms_match_spectral_sums(self, n):
        # acceptance-grade equivalence over the full unwrapped range
        lat = make_lattice(n)
        half = lat.half_width
        f0 = kernel_f(0, lat)
        k = np.arange(-half, half + 1).astype(float)
        d = np.arange(-2 * half, 2 * half + 1)
        phases = np.exp(2j * np.pi * np.multiply.outer(k, d) / n)
        f_spec = ((k**2) @ phases / n).real
        g_spec = (1j * (k @ phases) / n).real
        assert np.max(np.abs(kernel_f(d, lat) - f_spec)) < 1e-9 * f0
        assert np.max(np.abs(kernel_g(d, lat) - g_spec)) < 1e-9 * n


class TestKernelTable:
    """The closed forms tabulated on the displacement ranges that sums
    over site pairs reach: F on [-L, L], G on [-2L, 2L]."""

    def test_n3_tables(self):
        lat = make_lattice(3)
        np.testing.assert_allclose(kernel_f(np.arange(-1, 2), lat), [-1 / 3, 2 / 3, -1 / 3],
                                   atol=1e-14)
        np.testing.assert_allclose(
            kernel_g(np.arange(-2, 3), lat),
            [-0.5773502691896258, 0.5773502691896258, 0.0,
             -0.5773502691896258, 0.5773502691896258],
            atol=1e-14,
        )

    def test_headline_f_zero(self):
        assert kernel_f(0, make_lattice(801)) == 641600 / 12

    @pytest.mark.parametrize("n", [3, 21, 801])
    def test_g_zero_and_symmetries(self, n):
        lat = make_lattice(n)
        assert kernel_g(0, lat) == 0.0
        half = (n - 1) // 2
        d = np.arange(1, half + 1)
        np.testing.assert_allclose(kernel_f(d, lat), kernel_f(-d, lat), atol=0)
        np.testing.assert_allclose(kernel_g(d, lat), -kernel_g(-d, lat), atol=0)


class TestEvenParityClosedForms:
    def test_f_vanishes_at_antipode(self):
        lat = make_even_lattice(800)
        assert kernel_f(400, lat) == 0.0
        assert kernel_f(-400, lat) == 0.0

    def test_f_antiperiodic(self):
        lat = make_even_lattice(8)
        d = np.arange(1, 8)
        np.testing.assert_allclose(kernel_f(d + 8, lat), -kernel_f(d, lat), atol=1e-12)

    def test_f_matches_half_integer_sum(self):
        # the even closed form equals the half-integer momentum sum,
        # computed here by a literal loop
        n = 8
        lat = make_even_lattice(n)
        for d in range(-7, 8):
            total = sum(
                (j + 0.5) ** 2 * cmath.exp(2j * cmath.pi * (j + 0.5) * d / n)
                for j in range(-4, 4)
            ) / n
            assert abs(total.imag) < 1e-12
            assert kernel_f(d, lat) == pytest.approx(total.real, abs=1e-12)

    def test_f_zero_matches_formula(self):
        lat = make_even_lattice(4)
        assert kernel_f(0, lat) == pytest.approx(15 / 12, abs=1e-14)
