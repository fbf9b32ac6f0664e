"""Mild (Duhamel) formulation and the fixed-point iteration that builds it.

In the spatially homogeneous regime the linear evolution is the free group
U(t, s), so the mild form of the rescaled equation reads

    y(t) = U(t,0) x - int_0^t U(t,s) [ (1/2) sum_j (|mu_j|^2 + mu_j^2)
               V_j(s) y(s) + i lam e^{(alpha-1) Re M(s)} |y(s)|^{alpha-1} y(s) ] ds.

``picard_iterate`` runs successive substitutions y_{m+1} = F(y_m) starting
from the free trajectory y_1(t) = U(t,0) x, on uniform quadrature nodes with
trapezoidal time integration, and reports the iterate distances and their
ratios in the mixed norm

    ||y||_X = ||y||_{Linf(0,tau;L2)} + ||y||_{Lq(0,tau;L^{alpha+1})},

with q = 4(alpha+1) / (d(alpha-1)) the exponent pairing L^{alpha+1}.  On a
short enough horizon the ratios sit below a geometric constant; when they
exceed 1 for three consecutive iterations the report carries a
``no_contraction`` status instead of crashing, signalling that the horizon
left the contraction regime.

The horizon is a user input: the proof-level stopping time depends on
non-constructive constants, and the measurable quantity is the ratio
sequence itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionVeto
from .noise_process import MartingalePath, NoiseModel
from .spectral_grid import ComplexField, GridSpec, norm_L2


def strichartz_exponent(dimension: int, alpha: float) -> float:
    """q = 4(alpha+1) / (d(alpha-1)), defined for 1 < alpha < 1 + 4/d.

    The value always lies in (2 + 4/d, infinity) on that band.
    """
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension: must be 1, 2 or 3, got {dimension}")
    band = 1.0 + 4.0 / dimension
    if not (1.0 < alpha < band):
        raise ValueError(f"alpha: {alpha} outside the band (1, {band}) for d = {dimension}")
    return 4.0 * (alpha + 1.0) / (dimension * (alpha - 1.0))


def _sup_l2(diff: np.ndarray, grid: GridSpec) -> float:
    cv = grid.cell_volume
    return float(np.sqrt(cv * (np.abs(diff) ** 2).sum(axis=1).max()))


@dataclass(frozen=True)
class PicardConfig:
    """Iteration horizon, quadrature resolution, and stopping controls."""

    horizon: float
    nodes: int = 64
    max_iterations: int = 20
    tolerance: float = 1e-8

    def __post_init__(self):
        if not (self.horizon > 0):
            raise ValueError(f"horizon: must be positive, got {self.horizon}")
        if self.nodes < 8:
            raise ValueError(f"nodes: must be >= 8, got {self.nodes}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations: must be >= 1, got {self.max_iterations}")
        if not (self.tolerance > 0):
            raise ValueError(f"tolerance: must be positive, got {self.tolerance}")


@dataclass
class PicardReport:
    """Iterate distances d_m, their ratios r_m = d_m / d_{m-1}, and status.

    ``iterate`` is the last accepted iterate on the quadrature nodes, one
    physical field per row: shape (nodes, n^d).
    """

    distances: list
    ratios: list
    converged: bool
    no_contraction: bool
    iterations: int
    gamma_tau: float
    q: float
    iterate: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "ratios": [float(r) for r in self.ratios],
            "distances": [float(d) for d in self.distances],
            "converged": bool(self.converged),
            "no_contraction": bool(self.no_contraction),
            "iterations": int(self.iterations),
            "gamma_tau": float(self.gamma_tau),
            "q": float(self.q),
        }


class _MapKernel:
    """Spectral evaluation of the fixed-point map on fixed nodes."""

    def __init__(self, x: ComplexField, model: NoiseModel, path: MartingalePath,
                 tau: float, nodes: int, lam: int, alpha: float):
        grid = x.grid
        self.grid = grid
        self.shape = grid.shape
        self.lam = lam
        self.alpha = alpha
        self.nodes = nodes
        self.times = np.linspace(0.0, tau, nodes)
        self.ds = tau / (nodes - 1)

        ksq = grid.k_squared
        # U(t_i, 0) and U(0, t_i) as diagonal multipliers, one row per node.
        self.fwd = np.exp(1j * np.outer(self.times, ksq))
        self.bwd = self.fwd.conj()
        self.xh = np.fft.fftn(x.values.reshape(self.shape)).ravel()
        self.free_h = self.fwd * self.xh  # (nodes, size) spectral free trajectory

        v = np.array([dns.evaluate(self.times) for dns in model.densities])
        mu = model.mu
        self.damp_coef = (0.5 * (np.abs(mu) ** 2 + mu**2)) @ v.astype(np.complex128)

        # Step-start Re M at each node from the shared path (left endpoint).
        if tau > path.times[-1] * (1.0 + 1e-12):
            raise ValueError(
                f"horizon {tau:g} exceeds the sampled path horizon {path.times[-1]:g}"
            )
        idx = np.minimum((self.times / path.dt).astype(int), path.n_steps)
        re_m = path.real_part_series(mu)[idx]
        self.phase_coef = lam * np.exp((alpha - 1.0) * re_m)

    def _fft_rows(self, rows: np.ndarray) -> np.ndarray:
        out = np.empty_like(rows)
        for i in range(rows.shape[0]):
            out[i] = np.fft.fftn(rows[i].reshape(self.shape)).ravel()
        return out

    def _ifft_rows(self, rows: np.ndarray) -> np.ndarray:
        out = np.empty_like(rows)
        for i in range(rows.shape[0]):
            out[i] = np.fft.ifftn(rows[i].reshape(self.shape)).ravel()
        return out

    def free_trajectory(self) -> np.ndarray:
        return self._ifft_rows(self.free_h)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """F(y) on the nodes; y and the result are (nodes, size) physical arrays."""
        amp = np.abs(y) ** (self.alpha - 1.0)
        forcing = self.damp_coef[:, None] * y
        if self.lam != 0:
            forcing = forcing + (1j * self.phase_coef)[:, None] * (amp * y)
        # Back-transport to time 0, cumulative trapezoid, forward transport.
        b = self._fft_rows(forcing) * self.bwd
        acc = np.zeros_like(b)
        half = 0.5 * self.ds
        for i in range(1, self.nodes):
            acc[i] = acc[i - 1] + half * (b[i - 1] + b[i])
        return self._ifft_rows(self.fwd * (self.xh - acc))


def picard_iterate(x: ComplexField, model: NoiseModel, path: MartingalePath,
                   picard_config: PicardConfig, lam: int,
                   alpha: float) -> PicardReport:
    """Iterate y_{m+1} = F(y_m) from the free trajectory and report distances.

    Requires spatially homogeneous noise (the linear part must be the free
    group) and a nonzero initial state.
    """
    if not model.spatially_homogeneous:
        raise AssumptionVeto(
            "picard iteration requires constant-one noise profiles"
        )
    if norm_L2(x) == 0.0:
        raise ValueError("initial state must be nonzero")
    grid = x.grid
    q = strichartz_exponent(grid.dimension, alpha)
    cfg = picard_config
    kern = _MapKernel(x, model, path, cfg.horizon, cfg.nodes, lam, alpha)
    times = kern.times

    def x_norm(diff: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            sup = _sup_l2(diff, grid)
            phi = (grid.cell_volume * (np.abs(diff) ** (alpha + 1.0)).sum(axis=1)) \
                ** (1.0 / (alpha + 1.0))
            lq = float(np.trapezoid(phi**q, times) ** (1.0 / q))
        return sup + lq

    y = kern.free_trajectory()
    distances: list[float] = []
    ratios: list[float] = []
    converged = False
    no_contraction = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        with np.errstate(over="ignore", invalid="ignore"):
            y_next = kern.apply(y)
        iterations += 1
        d = x_norm(y_next - y)
        if not np.isfinite(d):
            # the iterate left double range: the horizon is far outside the
            # contraction regime
            distances.append(float("inf"))
            if distances[:-1]:
                ratios.append(float("inf"))
            no_contraction = True
            break
        if distances:
            prev = distances[-1]
            ratios.append(d / prev if prev > 0.0 else 0.0)
        distances.append(d)
        y = y_next
        if d <= cfg.tolerance:
            converged = True
            break
        if len(ratios) >= 3 and all(r > 1.0 for r in ratios[-3:]):
            no_contraction = True
            break

    # Spatially constant noise: the sup of |M| over path times up to tau.
    m_abs = np.abs(path.complex_series(model.mu))
    in_horizon = path.times <= cfg.horizon * (1.0 + 1e-12)
    gamma_tau = float(np.exp((alpha - 1.0) * m_abs[in_horizon].max()))

    return PicardReport(
        distances=distances,
        ratios=ratios,
        converged=converged,
        no_contraction=no_contraction,
        iterations=iterations,
        gamma_tau=gamma_tau,
        q=q,
        iterate=y,
    )
