import math

import numpy as np
import pytest

from ringfield import make_lattice, wrap_index
from ringfield.lattice import _build, make_even_lattice


class TestMakeLattice:
    def test_headline_lattice(self):
        lat = make_lattice(801, 1.0)
        assert lat.half_width == 400
        assert lat.reciprocal_constant == pytest.approx(0.0078441, abs=1e-7)
        assert lat.reciprocal_constant == 2 * np.pi / 801
        assert lat.parity == "odd"

    def test_smallest_lattice(self):
        lat = make_lattice(3, 1.0)
        assert lat.half_width == 1
        assert lat.reciprocal_constant == pytest.approx(2 * np.pi / 3, rel=1e-15)

    def test_reciprocal_is_exact(self):
        lat = make_lattice(21, 0.5)
        assert lat.reciprocal_constant == 2 * np.pi / (21 * 0.5)

    @pytest.mark.parametrize("n", [802, 0, -5, 1, 2, 4])
    def test_even_or_small_rejected(self, n):
        with pytest.raises(ValueError, match="odd"):
            make_lattice(n, 1.0)

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ValueError):
            make_lattice(3, 0.0)
        with pytest.raises(ValueError):
            make_lattice(3, -1.0)

    def test_site_range(self):
        lat = make_lattice(5)
        assert list(lat.sites()) == [-2, -1, 0, 1, 2]
        assert lat.site_min == -2 and lat.site_max == 2


class TestEvenLattice:
    def test_construction(self):
        lat = make_even_lattice(8)
        assert lat.parity == "even"
        assert list(lat.sites()) == [-4, -3, -2, -1, 0, 1, 2, 3]
        assert list(lat.momentum_values()) == [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5]

    @pytest.mark.parametrize("n", [3, 7, 2, 0])
    def test_odd_or_small_rejected(self, n):
        with pytest.raises(ValueError):
            make_even_lattice(n)


@pytest.mark.parametrize("maker, n", [(make_lattice, 3), (make_even_lattice, 4)],
                         ids=["odd", "even"])
@pytest.mark.parametrize("spacing", [math.inf, -math.inf, math.nan, 0.0])
def test_spacing_must_be_positive_and_finite(maker, n, spacing):
    # an infinite spacing would build a lattice with g = 0
    with pytest.raises(ValueError, match="lattice_constant must be positive and finite"):
        maker(n, spacing)


@pytest.mark.parametrize("maker, n", [
    (make_lattice, 801.9), (make_lattice, 801.5), (make_even_lattice, 800.5),
    (make_lattice, math.inf), (make_even_lattice, math.nan), (make_lattice, "801"),
], ids=["odd 801.9", "odd 801.5", "even 800.5", "odd inf", "even nan", "odd str"])
def test_size_is_never_truncated(maker, n):
    # int() would have built N = 801 (or 800) from the fractional sizes
    with pytest.raises(ValueError, match=r"n_sites must be a whole number \(got "):
        maker(n)


def test_unknown_parity_is_rejected():
    with pytest.raises(ValueError, match=r"parity must be odd\|even \(got 'bogus'\)"):
        _build(3, 1.0, "bogus")


@pytest.mark.parametrize("maker, n", [(make_lattice, 801.0), (make_even_lattice, np.int64(800))],
                         ids=["odd", "even"])
def test_whole_size_of_another_type_is_accepted(maker, n):
    lattice = maker(n)
    assert lattice.n_sites == n and type(lattice.n_sites) is int


class TestWrapIndex:
    def test_one_past_edge(self):
        lat = make_lattice(801)
        assert wrap_index(401, lat) == -400

    def test_identity_and_full_cycle(self):
        lat = make_lattice(801)
        assert wrap_index(0, lat) == 0
        assert wrap_index(-801, lat) == 0

    def test_array_input(self):
        lat = make_lattice(5)
        out = wrap_index(np.array([-3, 3, 7, -7]), lat)
        assert list(out) == [2, -2, 2, -2]

    def test_always_in_range(self):
        lat = make_lattice(11)
        for s in range(-40, 40):
            w = wrap_index(s, lat)
            assert -5 <= w <= 5
            assert (w - s) % 11 == 0

    def test_even_parity_range(self):
        lat = make_even_lattice(8)
        assert wrap_index(4, lat) == -4
        assert wrap_index(-5, lat) == 3
        for s in range(-20, 20):
            assert -4 <= wrap_index(s, lat) <= 3
