"""Deterministic seed derivation and normal-variate generation.

Every random number in the package flows through one fixed-constant integer
pipeline, so a run is reproducible bit-for-bit from its master seed alone,
independent of thread scheduling, and reproducible by any implementation of
the same 64-bit arithmetic:

* Streams use the splitmix64 construction.  A stream with state ``s`` yields
  raw draws ``z_i = mix64(s + i * GAMMA)`` for i = 1, 2, ..., where ``mix64``
  is the xor-shift/multiply finalizer below and GAMMA is the 64-bit golden
  ratio increment.
* Sub-stream seeds (per path, per noise component) fold indices into the
  master seed with the same finalizer: each index ``m`` maps
  ``s -> mix64(s + (m + 1) * GAMMA)``.
* Uniform deviates take the top 53 bits of a raw draw,
  ``u = ((z >> 11) + 0.5) * 2**-53``, strictly inside (0, 1).
* Normal deviates apply the Acklam rational approximation of the inverse
  normal CDF to those uniforms (peak relative error about 1.15e-9).

Constants (hexadecimal):
    GAMMA = 9E3779B97F4A7C15
    MUL1  = BF58476D1CE4E5B9   (after ``z ^= z >> 30``)
    MUL2  = 94D049BB133111EB   (after ``z ^= z >> 27``)
    final xor shift 31
"""

from __future__ import annotations

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Fold integer indices into a master seed, one mix per index.

    ``derive_seed(seed, 0, component_index)`` gives the per-component stream
    used for martingale sampling from a path's seed; ``derive_seed(seed,
    path_index)`` gives the per-path seed used by ensemble runs.
    """
    s = master & _MASK
    for m in indices:
        if m < 0:
            raise ValueError(f"stream index must be nonnegative, got {m}")
        s = mix64((s + (m + 1) * GAMMA) & _MASK)
    return s


def raw_draws(stream_seed: int, count: int) -> np.ndarray:
    """The first ``count`` raw 64-bit outputs of a splitmix64 stream."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = idx * np.uint64(GAMMA) + np.uint64(stream_seed & _MASK)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
    return z ^ (z >> np.uint64(31))


def uniforms(stream_seed: int, count: int) -> np.ndarray:
    """Uniform deviates in the open interval (0, 1), 53-bit resolution."""
    z = raw_draws(stream_seed, count)
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


# Acklam's coefficients for the inverse normal CDF.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_icdf(p: np.ndarray) -> np.ndarray:
    """Inverse normal CDF by Acklam's rational approximation.

    Valid for p strictly inside (0, 1); the uniform generator above never
    produces the endpoints.
    """
    p = np.asarray(p, dtype=np.float64)
    x = np.empty_like(p)

    lower = p < _P_LOW
    upper = p > 1.0 - _P_LOW
    central = ~(lower | upper)

    if np.any(central):
        q = p[central] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        x[central] = num * q / den

    def _tail(q):
        num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        return num / den

    if np.any(lower):
        q = np.sqrt(-2.0 * np.log(p[lower]))
        x[lower] = _tail(q)
    if np.any(upper):
        q = np.sqrt(-2.0 * np.log(1.0 - p[upper]))
        x[upper] = -_tail(q)
    return x


def normals(stream_seed: int, count: int) -> np.ndarray:
    """Standard normal deviates from one splitmix64 stream."""
    return normal_icdf(uniforms(stream_seed, count))
