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

The map runs each node in two stages and overwrites each node of the
iterate with its image, so an iteration holds one nodes x n^d complex
block, the iterate.  The head of node i reads only y_i: it builds the
forcing, transforms it and carries it back to time 0.  The tail adds it to
the running trapezoid sum, the only sequential part, carries the sum
forward to t_i, transforms back and writes the node.  The head of node
i + 1 runs before or beside the tail of node i: beside it on a helper
thread on grids of at least ``PIPELINE_MIN_SIZE`` values and more than one
core (numpy's transforms and array loops release the interpreter lock),
else first, in the caller.  Each node makes the same operations in the
same order either way, so the bits do not depend on the schedule.
U(t_i, 0) depends on k only through |k|^2, so each node gathers its
multiplier row from a (nodes, levels) table over the distinct |k|^2
values: about half a block in 1-D, an eighth of one on 128^2.

The horizon is a user input: the proof-level stopping time depends on
non-constructive constants, and the measurable quantity is the ratio
sequence itself.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionVeto
from .noise_process import MartingalePath, NoiseModel
from .spectral_grid import ComplexField, norm_L2

# Grid size from which the head of node i + 1 runs on a helper thread beside
# the tail of node i.  Below it the interpreter lock makes the second thread
# a loss: a node took 23 us inline against 52 us on two threads at 256
# values, 280 against 219 us at 8,192 and 510 against 353-374 us at 128^2
# (2 cores, numpy 2.4.6).
PIPELINE_MIN_SIZE = 8192


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

    ``iterate`` is the map's last output on the quadrature nodes, one
    physical field per row: shape (nodes, n^d).  After a non-finite
    distance that is F(y), whose values may be non-finite too, not the
    iterate it was mapped from.
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
    a time on (n^d,) rows allocated once per kernel.

    It keeps no (nodes, n^d) block: U(t_i, 0) is gathered per node from
    ``table``, its values at the distinct |k|^2 levels, which equal
    ``grid.propagator(times[:, None])`` bit for bit.
    """

    def __init__(self, x: ComplexField, model: NoiseModel, path: MartingalePath,
                 tau: float, nodes: int, lam: int, alpha: float):
        self.grid = grid = x.grid
        self.lam = lam
        self.alpha = alpha
        self.q = strichartz_exponent(grid.dimension, alpha)
        self.nodes = nodes
        self.times = np.linspace(0.0, tau, nodes)
        self.ds = tau / (nodes - 1)
        self.pipelined = grid.size >= PIPELINE_MIN_SIZE and (os.cpu_count() or 1) > 1

        # U(t_i, 0) at each |k|^2 level, one row per node (U(0, t_i) is its
        # conjugate), and the initial state's spectrum.
        levels, self.level_of = np.unique(grid.k_squared, return_inverse=True)
        self.table = grid.propagator(self.times[:, None], levels)
        self.xh = grid.forward(x.values)

        v = np.array([dns.evaluate(self.times) for dns in model.densities])
        self.damp_coef = model.ito_correction @ v.astype(np.complex128)

        # Step-start Re M at each node from the shared path (left endpoint).
        if tau > path.times[-1] * (1.0 + 1e-12):
            raise ValueError(
                f"horizon {tau:g} exceeds the sampled path horizon {path.times[-1]:g}"
            )
        idx = np.minimum((self.times / path.dt).astype(int), path.n_steps)
        re_m = path.real_part_series(model.mu)[idx]
        with np.errstate(over="ignore", invalid="ignore"):  # reported as no_contraction
            self.phase_coef = 1j * (lam * np.exp((alpha - 1.0) * re_m))

        # The map's rows.  U(t_i, 0) sits in a ring of two and node i's
        # back-transported forcing spectrum in a ring of three, so the head of
        # node i + 1 writes slots that the tail of node i does not read.  The
        # head and the tail each own their scratch rows.
        size = grid.size
        self.u_ring = np.empty((2, size), dtype=np.complex128)
        self.b_ring = np.empty((3, size), dtype=np.complex128)
        self.head_rows = np.empty(size, dtype=np.complex128), np.empty(size)
        self.tail_rows = np.empty((2, size), dtype=np.complex128)
        self.acc = np.empty(size, dtype=np.complex128)

    def multiplier(self, i: int, out: np.ndarray) -> np.ndarray:
        """U(t_i, 0) as a diagonal (n^d,) multiplier, written into out."""
        # the indices are in range; "clip" only spares take's buffered copy
        return np.take(self.table[i], self.level_of, out=out, mode="clip")

    def free_trajectory(self) -> np.ndarray:
        """U(t_i, 0) x on the nodes: the first iterate."""
        out = np.empty((self.nodes, self.grid.size), dtype=np.complex128)
        u = self.u_ring[0]
        for i in range(self.nodes):
            self.multiplier(i, u)
            u *= self.xh
            self.grid.inverse(u, out=out[i])
        return out

    def apply(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Overwrite the (nodes, size) physical array y with F(y); return the
        per-node sums of |F(y) - y|^2 and |F(y) - y|^{alpha+1}.

        Node i of F(y) reads only y[i], which its tail overwrites.  The head
        of node i + 1 runs beside the tail of node i on a helper thread,
        started and joined here, when ``pipelined``, else before it.
        """
        sq, lp = np.empty(self.nodes), np.empty(self.nodes)
        self.acc.fill(0.0)
        err = np.geterr()

        def head_on_helper(i: int) -> None:
            # a new thread starts at numpy's default error state, not the caller's
            with np.errstate(**err):
                self._head(y, i)

        with ThreadPoolExecutor(max_workers=1) as helper:  # joins on exit
            self._head(y, 0)
            for i in range(self.nodes):
                ahead = None
                if i + 1 < self.nodes and self.pipelined:
                    ahead = helper.submit(head_on_helper, i + 1)
                elif i + 1 < self.nodes:
                    self._head(y, i + 1)
                sq[i], lp[i] = self._tail(y, i)
                if ahead is not None:
                    ahead.result()
        return sq, lp

    def _head(self, y: np.ndarray, i: int) -> None:
        """U(t_i, 0) into its ring slot and U(0, t_i) times the spectrum of
        node i's forcing into its own.  Reads y[i] alone."""
        yi, u, b = y[i], self.u_ring[i % 2], self.b_ring[i % 3]
        f, mod = self.head_rows
        self.multiplier(i, u)
        np.multiply(self.damp_coef[i], yi, out=f)
        if self.lam != 0:
            np.abs(yi, out=mod)
            mod **= self.alpha - 1.0
            np.multiply(mod, yi, out=b)  # b is not yet written: scratch
            b *= self.phase_coef[i]
            f += b
        self.grid.forward(f, out=b)
        b *= np.conjugate(u, out=f)

    def _tail(self, y: np.ndarray, i: int) -> tuple[float, float]:
        """Add node i's spectrum to the trapezoid sum, carry the sum to t_i and
        overwrite y[i] with F(y)[i]; return the sums of |F(y)[i] - y[i]|^2
        and |F(y)[i] - y[i]|^{alpha+1}.

        The products keep the block form's operand order on large blocks, so
        the bits match it: complex products do not commute bit for bit.
        """
        yi, u, acc = y[i], self.u_ring[i % 2], self.acc
        f, g = self.tail_rows
        # once y[i] holds F(y)[i], f is spent: its two float64 halves are the
        # real scratch rows
        mod, pw = f.view(np.float64).reshape(2, -1)
        if i:
            np.add(self.b_ring[(i - 1) % 3], self.b_ring[i % 3], out=g)
            g *= 0.5 * self.ds
            acc += g
        np.subtract(self.xh, acc, out=g)
        g *= u
        self.grid.inverse(g, out=f)
        np.subtract(f, yi, out=g)
        np.copyto(yi, f)
        np.abs(g, out=mod)
        sq = np.square(mod, out=pw).sum()
        mod **= self.alpha + 1.0
        return sq, mod.sum()

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
    for _ in range(cfg.max_iterations):
        with np.errstate(over="ignore", invalid="ignore"):
            sq, lp = kern.apply(y)
            d = kern.x_norm(sq, lp)
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
        iterations=len(distances),
        gamma_tau=gamma_tau,
        q=kern.q,
        iterate=y,
    )
