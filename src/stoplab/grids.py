"""Space-time grids shared by the solver and the checkers, and the one time-node rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    pass


def time_nodes(t0: float, horizon: float, n: int, pole: bool = False) -> np.ndarray:
    """The n + 1 time nodes of every grid and simulation, from t0 toward the horizon T.

    Without a pole, ``np.linspace(t0, T, n + 1)``.  With a drift pole at T,
    t0 + (T - t0)(1 - (1 - k/(n+1))^2): graded toward the singularity (Stynes,
    O'Riordan & Gracia, SIAM J. Numer. Anal. 2017), the last node (T - t0)/(n+1)^2
    before T.
    """
    if not pole:
        return np.linspace(float(t0), float(horizon), n + 1)
    k = np.arange(n + 1)
    return t0 + (horizon - t0) * (1.0 - (1.0 - k / (n + 1)) ** 2)


def time_steps(nodes: np.ndarray, graded: bool) -> np.ndarray:
    """Per-step sizes of ``time_nodes``; a uniform mesh keeps its exact step
    (t_n - t_0)/n, from which ``np.diff`` of a linspace differs in the last bit."""
    n = len(nodes) - 1
    return np.diff(nodes) if graded else np.full(n, (nodes[-1] - nodes[0]) / n)


@dataclass(frozen=True)
class Grid:
    """Grid on [0, t_nodes[-1]] x [x_min, x_max]; uniform in x, and in t unless
    ``graded`` toward a drift pole by ``time_nodes``."""

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    graded: bool = False

    def __post_init__(self):
        if len(self.t_nodes) < 3 or len(self.x_nodes) < 3:
            raise GridError("grid needs at least 2 intervals in each direction")
        if not (self.x_nodes[0] < self.x_nodes[-1]):
            raise GridError("degenerate x-range")

    @property
    def nt(self) -> int:
        return len(self.t_nodes) - 1

    @property
    def nx(self) -> int:
        return len(self.x_nodes) - 1

    @property
    def dt(self) -> float:
        """The first time step, the largest one on a graded grid."""
        return float(self.t_nodes[1] - self.t_nodes[0])

    @property
    def steps(self) -> np.ndarray:
        """The size of each time step, t[k+1] - t[k]."""
        return time_steps(self.t_nodes, self.graded)

    @property
    def dx(self) -> float:
        return float(self.x_nodes[1] - self.x_nodes[0])


def make_grid(t_end: float, x_min: float, x_max: float, nt: int, nx: int) -> Grid:
    if nt < 2 or nx < 2:
        raise GridError(f"need nt, nx >= 2, got nt={nt}, nx={nx}")
    return Grid(
        t_nodes=time_nodes(0.0, t_end, nt),
        x_nodes=np.linspace(float(x_min), float(x_max), nx + 1),
    )
