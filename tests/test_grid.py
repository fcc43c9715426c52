"""Transform conventions: the whole package leans on these identities."""
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mfkg import make_grid


def random_field(grid, rng):
    return rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)


@pytest.mark.parametrize(
    "dim,n,length",
    [(0, 256, 64.0), (4, 256, 64.0), (1, 100, 64.0), (1, 4, 64.0), (1, 256, 0.0), (1, 256, -1.0),
     (1, 8, float("inf"))],
)
def test_constructor_rejects_bad_parameters(dim, n, length):
    with pytest.raises(ValueError):
        make_grid(dim, n, length)


def test_geometry(grid):
    assert grid.spacing == 64.0 / 256
    assert grid.shape == (256,)
    assert grid.num_points == 256
    x = grid.axis_coords[0]
    assert x[0] == -32.0
    assert_allclose(x[-1], 32.0 - grid.spacing)
    # center of the box is a lattice point
    assert grid.radius.min() == 0.0
    assert_allclose(grid.nyquist, np.pi * 256 / 64.0)
    assert_allclose(grid.mode_spacing, 2.0 * np.pi / 64.0)
    assert_allclose(grid.k_squared.max(), grid.nyquist**2)


def test_roundtrip(grid, rng):
    f = random_field(grid, rng)
    assert_allclose(grid.inverse(grid.forward(f)), f, atol=1e-12)


def test_forward_matches_continuum_gaussian(grid):
    """e^{-x^2/2} transforms to sqrt(2 pi) e^{-xi^2/2} with this convention."""
    x = grid.axis_coords[0]
    f_hat = grid.forward(np.exp(-0.5 * x**2))
    expected = np.sqrt(2.0 * np.pi) * np.exp(-0.5 * grid.wavenumbers[0] ** 2)
    assert np.max(np.abs(f_hat.imag)) < 1e-12
    assert_allclose(f_hat.real, expected, atol=1e-12)


def test_plane_wave_maps_to_single_bin(grid):
    # int e^{i(xi_j - xi) x} dx over the box is L at xi = xi_j, 0 on the others
    xi = grid.wavenumbers[0]
    j = 17
    f_hat = grid.forward(np.exp(1j * xi[j] * grid.axis_coords[0]))
    expected = np.zeros(grid.shape, dtype=complex)
    expected[j] = grid.box_length
    assert_allclose(f_hat, expected, atol=1e-9)


def test_parseval(grid, rng):
    f = random_field(grid, rng)
    assert_allclose(grid.spectral_l2sq(grid.forward(f)), grid.l2sq(f), rtol=1e-12)


def test_two_dimensional_transforms(rng):
    grid = make_grid(2, 32, 16.0)
    f = random_field(grid, rng)
    assert_allclose(grid.inverse(grid.forward(f)), f, atol=1e-12)
    assert_allclose(grid.spectral_l2sq(grid.forward(f)), grid.l2sq(f), rtol=1e-12)
    # radius is symmetric under axis swap
    assert_allclose(grid.radius, grid.radius.T)


@pytest.mark.parametrize("dim,n,length", [(1, 256, 64.0), (2, 32, 16.0)])
def test_stacked_transforms_match_per_slice(dim, n, length, rng):
    grid = make_grid(dim, n, length)
    stack = np.stack([random_field(grid, rng) for _ in range(3)])
    fwd, inv = grid.forward(stack), grid.inverse(stack)
    assert fwd.shape == inv.shape == (3, *grid.shape)
    for k in range(3):
        for got, want in [(fwd[k], grid.forward(stack[k])), (inv[k], grid.inverse(stack[k]))]:
            assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


@pytest.mark.parametrize("dim,n,length", [(1, 256, 64.0), (2, 32, 16.0), (3, 16, 16.0)])
def test_shells_group_the_lattice_by_k_squared(dim, n, length):
    grid = make_grid(dim, n, length)
    k2, index = grid.shells
    assert np.all(np.diff(k2) > 0)
    assert k2[index].tobytes() == grid.k_squared.ravel().tobytes()
    if dim == 1:
        assert k2.size == n // 2 + 1
    else:
        assert k2.size < grid.num_points


@pytest.mark.parametrize("dim,n,length", [(1, 256, 64.0), (2, 32, 16.0), (3, 16, 16.0)])
def test_half_spectra_of_real_fields(dim, n, length, rng):
    """half_forward keeps forward's bins 0..N/2 of the last axis; half_inverse undoes it."""
    grid = make_grid(dim, n, length)
    stack = rng.standard_normal((3, *grid.shape))
    half = grid.half_forward(stack)
    assert half.shape == (3, *grid.half_shape)
    full = grid.forward(stack)
    assert_allclose(half, full[..., : n // 2 + 1], rtol=0, atol=1e-14 * np.max(np.abs(full)))
    assert_allclose(grid.half_inverse(half), stack, rtol=0, atol=1e-14 * np.max(np.abs(stack)))


def same_bits(a, b):
    """Equal to the last bit, the sign of zero included."""
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_half_transforms_reproduce_rfftn_bit_for_bit(dim, n, rng):
    """The per-axis half transforms give numpy.fft.rfftn / irfftn's bits, stacked too.

    So do they into caller buffers, where half_inverse consumes its input.
    """
    grid = make_grid(dim, n, 8.0)
    axes = tuple(range(-dim, 0))
    # the real factors: the complex ones that the half transforms keep give their bits
    fwd, inv = (f[..., : n // 2 + 1] for f in grid._transform_factors)
    for lead in [(), (3,)]:
        x = rng.standard_normal(lead + grid.shape)
        half = grid.half_forward(x)
        assert same_bits(half, np.fft.rfftn(x, axes=axes) * fwd)
        field = np.fft.irfftn(half * inv, s=grid.shape, axes=axes)
        assert same_bits(grid.half_inverse(half), field)
        into, back = np.empty_like(half), np.empty_like(x)
        assert grid.half_forward(x, out=into) is into and same_bits(into, half)
        assert grid.half_inverse(into, out=back) is back and same_bits(back, field)


def test_half_transforms_into_caller_buffers_allocate_no_array(rng):
    """With caller buffers, a half transform allocates no array of the chunk's size.

    A (16, 1025) half spectrum is 262 KiB; what numpy.fft itself allocates
    per call is ~1.4 KiB.
    """
    grid = make_grid(1, 2048, 64.0)
    field = rng.standard_normal((16, *grid.shape))
    half = np.empty((16, *grid.half_shape), dtype=complex)
    grid.half_forward(field, out=half)
    grid.half_inverse(half, out=field)  # the factors are built outside the trace
    tracemalloc.start()
    try:
        grid.half_forward(field, out=half)
        grid.half_inverse(half, out=field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024


@pytest.mark.parametrize("kind", ["complex"])
@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transforms_reproduce_scipy_fft_bit_for_bit(dim, n, kind, rng):
    """numpy.fft arranged as scipy.fft.fftn / ifftn: the same bits on complex input, stacked too."""
    grid = make_grid(dim, n, 8.0)
    axes = range(-dim, 0)
    fwd, inv = grid._transform_factors
    for lead in [(), (3, 2)]:
        shape = lead + grid.shape
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for raw, ref in [(grid.raw_fft, scipy.fft.fftn), (grid.raw_ifft, scipy.fft.ifftn)]:
            want = ref(x, axes=axes)
            assert same_bits(raw(x), want)
            out = np.full(shape, np.nan, dtype=complex)
            assert raw(x, out=out) is out
            assert same_bits(out, want)
        assert same_bits(grid.forward(x), scipy.fft.fftn(x, axes=axes) * fwd)
        assert same_bits(grid.inverse(x), scipy.fft.ifftn(x * inv, axes=axes))


@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_real_input_takes_the_complex_route(dim, n, rng):
    """Real input: the bits of the input cast to complex; scipy's real-input fftn to roundoff."""
    grid = make_grid(dim, n, 8.0)
    axes = range(-dim, 0)
    eps = np.finfo(np.float64).eps
    for lead in [(), (3, 2)]:
        shape = lead + grid.shape
        x = rng.standard_normal(shape)
        for raw, ref in [(grid.raw_fft, scipy.fft.fftn), (grid.raw_ifft, scipy.fft.ifftn)]:
            got = raw(x)
            assert same_bits(got, raw(x + 0j))
            out = np.full(shape, np.nan, dtype=complex)
            assert raw(x, out=out) is out
            assert same_bits(out, got)
            want = ref(x, axes=axes)
            assert np.max(np.abs(got - want)) <= 4 * eps * np.max(np.abs(want))
        assert same_bits(grid.forward(x), grid.forward(x + 0j))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
             min_size=8, max_size=8),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)
def test_forward_is_linear(values, scale):
    grid = make_grid(1, 8, 4.0)
    f = np.asarray(values)
    lhs = grid.forward(scale * f)
    rhs = scale * grid.forward(f)
    assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10 * (1 + np.max(np.abs(rhs))))


@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_unscaled_inverse_folds_its_scaling_into_a_table(dim, n, rng):
    """The unscaled inverse (norm="forward") times d / N^n is raw_ifft times d, bit for bit.

    N^n is a power of two, so moving the 1/N^n of the inverse into a real
    table d changes no bit while no value is subnormal; the sponge step
    relies on it.
    """
    grid = make_grid(dim, n, 8.0)
    shape = (2,) + grid.shape
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    d = np.exp(-rng.uniform(0.0, 3.0, grid.shape))
    unscaled = np.full(shape, np.nan, dtype=complex)
    for apply in grid._bound_passes(np.fft.ifft, x, unscaled, norm="forward"):
        apply()
    assert same_bits(unscaled * (d / grid.num_points), grid.raw_ifft(x) * d)
    # the forward passes, bound the same way, are raw_fft's
    out = np.full(shape, np.nan, dtype=complex)
    for apply in grid._bound_passes(np.fft.fft, x, out):
        apply()
    assert same_bits(out, grid.raw_fft(x))
