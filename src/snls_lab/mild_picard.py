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

The map runs one node at a time, so an iteration holds three nodes x n^d
complex blocks: the U(t_i, 0) multipliers, the iterate and the next one.

The horizon is a user input: the proof-level stopping time depends on
non-constructive constants, and the measurable quantity is the ratio
sequence itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionVeto
from .noise_process import MartingalePath, NoiseModel
from .spectral_grid import ComplexField, norm_L2


def strichartz_exponent(dimension: int, alpha: float) -> float:
    """q = 4(alpha+1) / (d(alpha-1)), defined for 1 < alpha < 1 + 4/d.

    The value always lies in (2 + 4/d, infinity) on that band.  This is the
    package's one check of the mass-subcritical band:
    :meth:`SimParams.validate_alpha` calls it too.
    """
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension: must be 1, 2 or 3, got {dimension}")
    band = 1.0 + 4.0 / dimension
    if not (1.0 < alpha < band):
        raise ValueError(f"alpha: {alpha} outside the band (1, {band}) for d = {dimension}")
    return 4.0 * (alpha + 1.0) / (dimension * (alpha - 1.0))


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
        def number(v) -> float | None:  # strict JSON has no inf or nan
            return float(v) if np.isfinite(v) else None

        return {
            "ratios": [number(r) for r in self.ratios],
            "distances": [number(d) for d in self.distances],
            "converged": bool(self.converged),
            "no_contraction": bool(self.no_contraction),
            "iterations": int(self.iterations),
            "gamma_tau": number(self.gamma_tau),
            "q": float(self.q),
        }


class _MapKernel:
    """Spectral evaluation of the fixed-point map on fixed nodes, one node at
    a time on preallocated (n^d,) rows."""

    def __init__(self, x: ComplexField, model: NoiseModel, path: MartingalePath,
                 tau: float, nodes: int, lam: int, alpha: float):
        self.grid = grid = x.grid
        self.lam = lam
        self.alpha = alpha
        self.q = strichartz_exponent(grid.dimension, alpha)
        self.nodes = nodes
        self.times = np.linspace(0.0, tau, nodes)
        self.ds = tau / (nodes - 1)

        # U(t_i, 0) as a diagonal multiplier, one row per node (U(0, t_i) is
        # its conjugate), and the initial state's spectrum.
        self.fwd = grid.propagator(self.times[:, None])
        self.xh = grid.forward(x.values)

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
        with np.errstate(over="ignore", invalid="ignore"):  # reported as no_contraction
            self.phase_coef = 1j * (lam * np.exp((alpha - 1.0) * re_m))

    def free_trajectory(self) -> np.ndarray:
        """U(t_i, 0) x on the nodes: the first iterate."""
        out = np.empty_like(self.fwd)
        for i, row in enumerate(self.fwd):
            self.grid.inverse(row * self.xh, out=out[i])
        return out

    def apply(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """F(y) on the nodes, y and F(y) (nodes, size) physical arrays, with
        the per-node sums of |F(y) - y|^2 and |F(y) - y|^{alpha+1}.

        Each node's forcing goes back to time 0 and into the running
        trapezoid sum, which goes forward to the node.  The products keep
        the block form's operand order on large blocks, so the bits match
        it: complex products do not commute bit for bit.
        """
        grid, fwd, xh = self.grid, self.fwd, self.xh
        out, sq, lp = np.empty_like(y), np.empty(self.nodes), np.empty(self.nodes)
        f, g, acc = np.empty_like(xh), np.empty_like(xh), np.zeros_like(xh)
        b, b_prev = np.empty_like(xh), np.empty_like(xh)
        mod, pw = np.empty(xh.shape), np.empty(xh.shape)
        half = 0.5 * self.ds
        for i, yi in enumerate(y):
            np.multiply(self.damp_coef[i], yi, out=f)
            if self.lam != 0:
                np.abs(yi, out=mod)
                mod **= self.alpha - 1.0
                np.multiply(mod, yi, out=g)
                g *= self.phase_coef[i]
                f += g
            grid.forward(f, out=b)
            b *= np.conjugate(fwd[i], out=g)
            if i:
                np.add(b_prev, b, out=g)
                g *= half
                acc += g
            b, b_prev = b_prev, b
            np.subtract(xh, acc, out=g)
            g *= fwd[i]
            grid.inverse(g, out=out[i])
            np.subtract(out[i], yi, out=g)
            np.abs(g, out=mod)
            sq[i] = np.square(mod, out=pw).sum()
            mod **= self.alpha + 1.0
            lp[i] = mod.sum()
        return out, sq, lp

    def x_norm(self, sq: np.ndarray, lp: np.ndarray) -> float:
        """||F(y) - y||_X from :meth:`apply`'s per-node sums."""
        cv, q = self.grid.cell_volume, self.q
        sup = float(np.sqrt(cv * sq.max()))
        phi = (cv * lp) ** (1.0 / (self.alpha + 1.0))
        return sup + float(np.trapezoid(phi**q, self.times) ** (1.0 / q))


def picard_iterate(x: ComplexField, model: NoiseModel, path: MartingalePath,
                   picard_config: PicardConfig, lam: int,
                   alpha: float) -> PicardReport:
    """Iterate y_{m+1} = F(y_m) from the free trajectory and report distances.

    Requires spatially homogeneous noise (the linear part must be the free
    group) and a nonzero initial state.
    """
    if not model.spatially_homogeneous:
        raise AssumptionVeto("picard iteration requires constant-one noise profiles")
    if norm_L2(x) == 0.0:
        raise ValueError("initial state must be nonzero")
    cfg = picard_config
    kern = _MapKernel(x, model, path, cfg.horizon, cfg.nodes, lam, alpha)
    y = kern.free_trajectory()
    distances: list[float] = []
    ratios: list[float] = []
    converged = False
    no_contraction = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        with np.errstate(over="ignore", invalid="ignore"):
            y_next, sq, lp = kern.apply(y)
            d = kern.x_norm(sq, lp)
        iterations += 1
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
    with np.errstate(over="ignore"):  # written as null when infinite
        gamma_tau = float(np.exp((alpha - 1.0) * m_abs[in_horizon].max()))

    return PicardReport(
        distances=distances,
        ratios=ratios,
        converged=converged,
        no_contraction=no_contraction,
        iterations=iterations,
        gamma_tau=gamma_tau,
        q=kern.q,
        iterate=y,
    )
