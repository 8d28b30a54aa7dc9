"""Internal quadrature helpers: panel grids, Gauss-Legendre rules, the
interpolant's Legendre coefficients and the Gauss integration matrix."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gl_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


@lru_cache(maxsize=None)
def gl_legendre_coefficients(order: int):
    """C[n, k] = (n + 1/2) w_k P_n(t_k), so C @ f holds the Legendre
    coefficients of the degree order-1 interpolant of the node values f:
    l_k = sum_n C[n, k] P_n, since Gauss quadrature of l_k P_n is exact.
    """
    t, w = gl_rule(order)
    coef = (np.polynomial.legendre.legvander(t, order - 1) * w[:, None]).T
    coef *= (np.arange(order) + 0.5)[:, None]
    return coef


@lru_cache(maxsize=None)
def gl_integration_matrix(order: int):
    """Partial integrals of the Gauss-Legendre interpolant on [-1, 1].

    S[j, k] = int_{-1}^{t_j} l_k(t) dt for the nodes t_j and their Lagrange
    basis l_k, so S @ f integrates the degree order-1 interpolant of the
    node values f from -1 to each node (spectral integration).
    """
    legendre = np.polynomial.legendre
    t, _ = gl_rule(order)
    return legendre.legval(t, legendre.legint(gl_legendre_coefficients(order), lbnd=-1.0)).T


@lru_cache(maxsize=None)
def gl_partials(order: int):
    """The integration matrix transposed and the Gauss weights as a last
    column: f @ it gives partial integrals to each node, then the total."""
    return np.column_stack([gl_integration_matrix(order).T, gl_rule(order)[1]])


def outward_edges(anchor: float, target: float, n_panels: int):
    """Panel edges from anchor to target, widths shrinking geometrically
    toward target (where the integrand may be steep or singular-adjacent).

    edges[0] == anchor, edges[-1] == target; constant width ratio 1e-7**(1/n).
    """
    span = target - anchor
    if span == 0.0:
        raise ValueError("anchor and target coincide")
    frac = 1e-7 ** (np.arange(n_panels) / n_panels)
    dist = np.concatenate([frac, [0.0]])  # distance from target, in units of span
    edges = target - span * dist
    # target - span can round past the anchor, leaving a sliver panel across
    # it once the two sides of a leg are merged
    edges[0] = anchor
    return edges

