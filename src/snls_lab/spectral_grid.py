"""Periodic spectral grid: transforms, operator symbols, and norms.

The spatial domain is the torus [-L, L)^d sampled on n points per axis in
row-major (C) order, standing in for free space; choose L comfortably larger
than the support of the data so wrap-around stays below diagnostic
tolerances.  Wavenumbers follow k_m = pi*m/L for m in [-n/2, n/2) in FFT
layout, so the Laplacian acts diagonally on a field's discrete Fourier
transform as -|k|^2 and the free Schrodinger group ``i dX = Delta X dt`` is
the multiplier exp(i*|k|^2*dt).

Norms use the left-endpoint quadrature h^d * sum, which is exact for
trigonometric polynomials below the Nyquist mode.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

#: Fraction of spectral mass allowed in the top-decile wavenumber shell
#: before :func:`warn_if_underresolved` fires.
SPECTRAL_TAIL_LIMIT = 1e-8

#: Most grid values a run may hold at once (n^d, or picard's nodes x n^d):
#: 512 times the largest grid the tests and the benchmark march.
MAX_GRID_VALUES = 1 << 24


class SpectralTailWarning(UserWarning):
    """The highest 10% of wavenumbers carry non-negligible spectral mass."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid on [-L, L)^d with n points per axis.

    Derived quantities (spacing, wavenumbers, Laplacian symbol input) are
    precomputed once; instances are immutable and safe to share.

    Every Fourier transform of the package goes through :meth:`forward` and
    :meth:`inverse`, which act on the spatial axes only: the last axis holds
    a field's n^d flat row-major values and any leading axes index fields.
    For d = 1 they call ``fft``/``ifft`` on the last axis, which is faster
    than ``fftn`` (16 us against 26 us on a 2 x 512 block, numpy 2.4.6);
    otherwise ``fftn``/``ifftn`` over axes 1..d of the block reshaped to
    (fields, n, ..., n), given ``s`` so numpy skips a per-call shape lookup
    (about 7 us a call).  A transformed block equals its rows transformed
    one by one, bit for bit.
    """

    dimension: int
    points: int
    half_length: float

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension: must be 1, 2 or 3, got {self.dimension}")
        if self.points < 4 or not _is_power_of_two(self.points):
            raise ValueError(f"points: must be a power of two >= 4, got {self.points}")
        if self.points ** self.dimension > MAX_GRID_VALUES:
            raise ValueError(f"points: {self.points}^{self.dimension} grid values exceed "
                             f"the ceiling of {MAX_GRID_VALUES}")
        L = float(self.half_length)
        if not (L > 0.0) or not np.isfinite(L):
            raise ValueError(f"half_length: must be positive, got {self.half_length}")
        object.__setattr__(self, "half_length", L)

        n = self.points
        d = self.dimension
        spacing = 2.0 * L / n
        object.__setattr__(self, "spacing", spacing)
        try:
            cell_volume = spacing**d
        except OverflowError:
            cell_volume = np.inf
        if np.isinf(cell_volume):  # also when the spacing 2L/n overflows
            raise ValueError(f"half_length: the cell volume (2L/n)^{d} overflows for "
                             f"L = {L:g}")
        if cell_volume == 0.0:
            raise ValueError(f"half_length: the cell volume (2L/n)^{d} underflows to 0 "
                             f"for L = {L:g}")
        object.__setattr__(self, "cell_volume", cell_volume)
        object.__setattr__(self, "shape", (n,) * d)
        object.__setattr__(self, "size", n**d)

        # FFT-ordered integer modes scaled to k_m = pi*m/L.
        k1 = np.fft.fftfreq(n, d=1.0 / n) * (np.pi / L)
        object.__setattr__(self, "axis_wavenumbers", k1)
        mesh = np.meshgrid(*([k1] * d), indexing="ij")
        ksq = np.zeros(self.shape)
        with np.errstate(over="ignore"):
            for comp in mesh:
                ksq += comp**2
        if not np.isfinite(ksq).all():
            raise ValueError(f"half_length: the wavenumbers' |k|^2 = (pi m/L)^2 "
                             f"overflows for L = {L:g}")
        object.__setattr__(self, "k_squared", ksq.ravel())
        object.__setattr__(self, "axis_coordinates", -L + spacing * np.arange(n))

    def forward(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Unnormalized DFT of each flat field along the last axis of a.

        ``out``, when given, receives the result: a C-contiguous complex128
        array of a's shape that does not overlap a.  Its values equal the
        allocating call's bit for bit.
        """
        if self.dimension == 1:
            return np.fft.fft(a, axis=-1, out=out)
        return self._nd(np.fft.fftn, a, out)

    def inverse(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse of :meth:`forward`, with the same ``out``."""
        if self.dimension == 1:
            return np.fft.ifft(a, axis=-1, out=out)
        return self._nd(np.fft.ifftn, a, out)

    def _nd(self, transform, a: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        fields = (-1, *self.shape)
        if out is not None:
            if not out.flags.c_contiguous:  # a reshaped copy would take the result
                raise ValueError("out: must be C-contiguous")
            out = out.reshape(fields)
        return transform(a.reshape(fields), s=self.shape, out=out,
                         axes=tuple(range(1, self.dimension + 1))).reshape(a.shape)

    def propagator(self, t, k_squared: np.ndarray | None = None) -> np.ndarray:
        """The free group's multiplier exp(i |k|^2 t); an array of times such
        as ``times[:, None]`` gives one row per time.

        ``k_squared`` replaces the grid's |k|^2 values, for instance by their
        distinct levels; each value maps to the same bits either way.
        """
        ksq = self.k_squared if k_squared is None else k_squared
        return np.exp(1j * ksq * t)

    def coordinates(self) -> np.ndarray:
        """Grid point coordinates, shape (dimension, n^d), row-major."""
        mesh = np.meshgrid(*([self.axis_coordinates] * self.dimension), indexing="ij")
        return np.stack([m.ravel() for m in mesh])

    def radii(self) -> np.ndarray:
        """Euclidean distance of each grid point from the origin, shape (n^d,)."""
        return np.sqrt((self.coordinates() ** 2).sum(axis=0))


def make_grid(dimension: int, points: int, half_length: float) -> GridSpec:
    """Build a validated periodic grid; rejects unsupported shapes."""
    return GridSpec(dimension, points, half_length)


def per_axis(value, grid: GridSpec, name: str, dtype=float) -> np.ndarray:
    """A scalar, or one entry per grid axis, as a (dimension,) array."""
    try:
        v = np.atleast_1d(np.asarray(value, dtype=dtype))
    except OverflowError as exc:
        raise ValueError(f"{name}: out of range: {exc}") from exc
    if v.ndim != 1 or v.size not in (1, grid.dimension):
        raise ValueError(f"{name}: {v.size} entries for a {grid.dimension}-D grid")
    return np.broadcast_to(v, (grid.dimension,))


@dataclass(eq=False)
class ComplexField:
    """Complex amplitudes on a grid, flat row-major storage.

    Entries are checked finite on construction; operations in this module
    return new fields and never mutate their inputs.
    """

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128).reshape(-1)
        if v.size != self.grid.size:
            raise ValueError(
                f"field has {v.size} values, grid expects {self.grid.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite entries")
        self.values = v

    @property
    def mass(self) -> float:
        """The discrete mass cv sum |v|^2."""
        return self.grid.cell_volume * float(_squared_norms(self.values))


def _trusted_field(values: np.ndarray, grid: GridSpec) -> ComplexField:
    """A field around ``values``, flat contiguous complex128 of the grid's
    size, built without the finiteness scan: for the march, which hands over
    only fields whose mass, a sum of their squares, it has checked finite."""
    field = object.__new__(ComplexField)
    field.values, field.grid = values, grid
    return field


# -- transforms ---------------------------------------------------------------

def forward_transform(field: ComplexField) -> np.ndarray:
    """Unnormalized DFT of the field, flat row-major spectral coefficients."""
    return field.grid.forward(field.values)


def inverse_transform(spectrum: np.ndarray, grid: GridSpec) -> ComplexField:
    """Inverse of :func:`forward_transform`."""
    return ComplexField(grid.inverse(np.asarray(spectrum, dtype=np.complex128)), grid)


def gradient_spectral(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral gradient of a flat field, shape (dimension, n^d), complex."""
    vh = grid.forward(np.asarray(values, dtype=np.complex128))
    mesh = np.meshgrid(*([grid.axis_wavenumbers] * grid.dimension), indexing="ij")
    return grid.inverse(np.stack([1j * k.ravel() * vh for k in mesh]))


def laplacian_spectral(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral Laplacian of a flat field, shape (n^d,), complex."""
    vh = grid.forward(np.asarray(values, dtype=np.complex128))
    return grid.inverse(-grid.k_squared * vh)


# -- norms --------------------------------------------------------------------

def _squared_norms(values: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """sum |v|^2 over the last axis of contiguous complex128 rows; the
    squares go into ``scratch``, a contiguous complex128 array of the same
    shape, when given.

    A numpy pairwise sum, not BLAS: its bits depend on neither the BLAS
    thread count (``np.vdot`` threads at 16,384 values and more) nor on how
    many rows share the call.
    """
    out = None if scratch is None else scratch.view(np.float64)
    return np.square(values.view(np.float64), out=out).sum(axis=-1)


def norm_L2(field: ComplexField) -> float:
    """Cell-volume weighted discrete L^2 norm."""
    return float(np.sqrt(field.mass))


# -- resolution diagnostics ---------------------------------------------------

def spectral_tail_fraction(field: ComplexField) -> float:
    """Fraction of spectral mass carried by the top 10% of |k| values."""
    # squared relative to the largest |vh|, so that no square overflows
    mag = np.abs(field.grid.forward(field.values))
    top = mag.max()
    if top == 0.0:
        return 0.0
    power = np.square(mag / top)
    total = power.sum()
    ksq = field.grid.k_squared
    shell = ksq >= (0.81 * ksq.max())  # |k| >= 0.9 * |k|_max
    return float(power[shell].sum() / total)


def warn_if_underresolved(field: ComplexField, context: str = "field") -> float:
    """Emit :class:`SpectralTailWarning` when the spectral tail is heavy."""
    frac = spectral_tail_fraction(field)
    if frac > SPECTRAL_TAIL_LIMIT:
        warnings.warn(
            f"{context}: top 10% of wavenumbers carry {frac:.3e} of spectral "
            f"mass (> {SPECTRAL_TAIL_LIMIT:.0e}); grid may be under-resolved",
            SpectralTailWarning,
            stacklevel=2,
        )
    return frac


# -- field factories ----------------------------------------------------------

def constant_field(grid: GridSpec, value: complex = 1.0) -> ComplexField:
    return ComplexField(np.full(grid.size, value, dtype=np.complex128), grid)


def plane_wave(grid: GridSpec, mode) -> ComplexField:
    """exp(i * sum_a k_a xi_a) with integer mode m_a per axis, k_a = pi*m_a/L."""
    modes = per_axis(mode, grid, "mode", np.int64)
    xi = grid.coordinates()
    phase = np.zeros(grid.size)
    for axis in range(grid.dimension):
        phase += (np.pi * modes[axis] / grid.half_length) * xi[axis]
    return ComplexField(np.exp(1j * phase), grid)


def gaussian_values(grid: GridSpec, width: float, center, amplitude) -> np.ndarray:
    """amplitude*exp(-|xi - c|^2 / (2 width^2)) at the grid points, flat
    row-major; a width whose square overflows, or underflows to 0, is a
    ``width`` error, and a squared distance from c that overflows a
    ``center`` error."""
    try:
        var2 = 2.0 * width**2
    except OverflowError:
        raise ValueError(f"width: {width:g} squared overflows") from None
    if var2 == 0.0:
        raise ValueError(f"width: {width:g} squared underflows to 0")
    c = per_axis(center, grid, "center")
    with np.errstate(over="ignore"):
        offsets = grid.coordinates() - c[:, None]
        r2 = (offsets**2).sum(axis=0)
    if not np.isfinite(r2).all():
        raise ValueError(f"center: the squared distance |xi - c|^2 overflows a double "
                         f"(largest |xi_i - c_i| {np.abs(offsets).max():g})")
    return amplitude * np.exp(-r2 / var2)


def gaussian_field(
    grid: GridSpec,
    width: float = 1.0,
    center=0.0,
    amplitude: complex = 1.0,
    l2_norm: float | None = None,
) -> ComplexField:
    """Isotropic Gaussian bump amplitude*exp(-|xi - c|^2 / (2 width^2)).

    When ``l2_norm`` is given the field is rescaled to that discrete L^2 norm.
    """
    if not width > 0:
        raise ValueError(f"width: must be positive, got {width}")
    if l2_norm is not None and not l2_norm > 0:
        raise ValueError(f"l2_norm: must be positive, got {l2_norm}")
    vals = gaussian_values(grid, width, center, amplitude)
    field = ComplexField(vals.astype(np.complex128), grid)
    if l2_norm is not None:
        with np.errstate(over="ignore"):
            current = norm_L2(field)
        if not vals.any():
            raise ValueError("l2_norm: cannot rescale a zero field")
        if not 0.0 < current < np.inf:
            raise ValueError(f"amplitude: {amplitude:g} takes the unscaled field's L2 norm "
                             f"out of double range ({current:g}); l2_norm cannot rescale it")
        field = ComplexField(field.values * (l2_norm / current), grid)
    return field
