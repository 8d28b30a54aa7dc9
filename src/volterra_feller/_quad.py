"""Internal quadrature helpers: panel grids, Gauss-Legendre rules in log
space, and a cumulative Simpson rule for nonuniform grids."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gl_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


@lru_cache(maxsize=None)
def gl_integration_matrix(order: int):
    """Partial integrals of the Gauss-Legendre interpolant on [-1, 1].

    S[j, k] = int_{-1}^{t_j} l_k(t) dt for the nodes t_j and their Lagrange
    basis l_k, so S @ f integrates the degree order-1 interpolant of the
    node values f from -1 to each node (spectral integration).
    """
    legendre = np.polynomial.legendre
    t, w = gl_rule(order)
    # l_k = sum_n (n + 1/2) w_k P_n(t_k) P_n: Gauss quadrature of l_k P_n is exact
    coef = (legendre.legvander(t, order - 1) * w[:, None]).T
    coef *= (np.arange(order) + 0.5)[:, None]
    return legendre.legval(t, legendre.legint(coef, lbnd=-1.0)).T


def outward_edges(anchor: float, target: float, n_panels: int, rel_first: float = 1e-7):
    """Panel edges from anchor to target, widths shrinking geometrically
    toward target (where the integrand may be steep or singular-adjacent).

    edges[0] == anchor, edges[-1] == target; constant width ratio rel_first**(1/n).
    """
    span = target - anchor
    if span == 0.0:
        raise ValueError("anchor and target coincide")
    frac = rel_first ** (np.arange(n_panels) / n_panels)
    dist = np.concatenate([frac, [0.0]])  # distance from target, in units of span
    edges = target - span * dist
    # target - span can round past the anchor, leaving a sliver panel across
    # it once the two sides of a leg are merged
    edges[0] = anchor
    return edges


def panel_nodes(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes mapped into each panel.

    Returns (points[n_panels, order], log_halfwidth[n_panels], log_w[order]).
    Open rule: no panel endpoint is ever evaluated.
    """
    x, w = gl_rule(order)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * x[None, :]
    return pts, np.log(np.abs(half)), np.log(w)


def cumulative_simpson(y: np.ndarray, x: np.ndarray):
    """Cumulative integral of samples (x, y) by composite quadratic panels.

    Needs an even number of panels (odd number of points, >= 3).  Exact for
    quadratics on arbitrary spacing; O(h^4) otherwise.
    """
    n = len(x) - 1
    if n < 2 or n % 2:
        raise ValueError("cumulative_simpson needs an even panel count >= 2")
    x0, x1, x2 = x[0:-1:2], x[1::2], x[2::2]
    y0, y1, y2 = y[0:-1:2], y[1::2], y[2::2]
    h0 = x1 - x0
    h1 = x2 - x1
    s = h0 + h1
    first = (
        y0 * h0 * (2.0 * h0 + 3.0 * h1) / (6.0 * s)
        + y1 * h0 * (h0 + 3.0 * h1) / (6.0 * h1)
        - y2 * h0 ** 3 / (6.0 * h1 * s)
    )
    second = (
        y2 * h1 * (2.0 * h1 + 3.0 * h0) / (6.0 * s)
        + y1 * h1 * (h1 + 3.0 * h0) / (6.0 * h0)
        - y0 * h1 ** 3 / (6.0 * h0 * s)
    )
    out = np.empty_like(x)
    out[0] = 0.0
    increments = np.empty(n)
    increments[0::2] = first
    increments[1::2] = second
    np.cumsum(increments, out=out[1:])
    return out
