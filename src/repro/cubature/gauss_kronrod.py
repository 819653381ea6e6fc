"""Tensor-product Gauss–Kronrod cubature (the paper's §2.1 comparison).

The paper motivates Genz–Malik by evaluation-count growth: "For an
n-dimensional region, these rules require 2^n + Θ(n³) function evaluations
whereas the Gauss-Kronrod method requires 15^n evaluations."  This module
builds that comparator from scratch so the claim can be *measured*:

* the G7 Gauss–Legendre nodes/weights from the Legendre Jacobi matrix
  (Golub–Welsch);
* the K15 Kronrod extension computed — not hard-coded — by constructing
  the degree-8 Stieltjes polynomial ``E₈`` (orthogonal to all lower
  degrees against the signed weight ``P₇(x) dx``) and adding its roots to
  the Gauss nodes; weights then follow from polynomial exactness;
* an n-dimensional tensor rule: the K15 tensor estimate with the embedded
  G7 tensor difference as error estimate, over arbitrary boxes, with the
  same batch-evaluation interface as the Genz–Malik sweep.

Evaluation count is ``15^n`` per region — usable to n ≈ 5-6, which is
precisely the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from repro.cubature.evaluation import CHUNK_BUDGET, EvaluationResult
from repro.errors import DimensionError

GAUSS_N = 7  # G7/K15, the classic QUADPACK pair


def gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Golub–Welsch: nodes/weights of the n-point Gauss–Legendre rule."""
    k = np.arange(1, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    jacobi = np.diag(beta, 1) + np.diag(beta, -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = 2.0 * vecs[0, :] ** 2
    return nodes, weights


def _legendre_values(x: np.ndarray, degree: int) -> np.ndarray:
    """P_0..P_degree evaluated at x, shape (degree+1, len(x))."""
    out = np.empty((degree + 1, x.size))
    out[0] = 1.0
    if degree >= 1:
        out[1] = x
    for k in range(1, degree):
        out[k + 1] = ((2 * k + 1) * x * out[k] - k * out[k - 1]) / (k + 1)
    return out


@lru_cache(maxsize=1)
def stieltjes_polynomial_roots() -> np.ndarray:
    """Roots of the Stieltjes polynomial E₈ extending G7 to K15.

    ``E₈`` is the monic-degree-8 polynomial with
    ``∫_{-1}^{1} P₇(x) E₈(x) x^j dx = 0`` for j = 0..7.  We expand
    ``E₈ = P₈ + Σ_{j<8} c_j P_j``, evaluate all integrals exactly with a
    40-point Gauss rule (integrands have degree <= 23), solve the 8×8
    linear system for ``c``, and extract the roots from the companion
    matrix of the monomial form.
    """
    gx, gw = gauss_legendre(40)
    P = _legendre_values(gx, 8)  # P_0..P_8 at quadrature nodes
    p7 = P[7]
    # moments M[j, k] = ∫ P7 * P_k * x^j dx  (j, k = 0..8)
    xj = np.vander(gx, 8, increasing=True).T  # x^0..x^7 rows
    M = np.einsum("q,jq,kq->jk", gw * p7, xj, P)  # (8 j) x (9 k)
    # solve Σ_k<8 c_k M[j,k] = -M[j,8]
    c = np.linalg.solve(M[:, :8], -M[:, 8])
    coeffs_legendre = np.concatenate([c, [1.0]])  # E8 in Legendre basis
    # convert to monomial coefficients via numpy's Legendre module
    from numpy.polynomial import legendre as npleg

    mono = npleg.leg2poly(coeffs_legendre)
    roots = np.roots(mono[::-1])
    roots = np.sort(roots.real[np.abs(roots.imag) < 1e-12])
    if roots.size != 8:
        raise RuntimeError("Stieltjes polynomial must have 8 real roots")
    return roots


@lru_cache(maxsize=1)
def kronrod_15() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, kronrod_weights, embedded_gauss_weights) of G7/K15.

    The 15 nodes are the union of the G7 nodes and the 8 Stieltjes roots;
    Kronrod weights come from requiring exactness on P_0..P_14 (a
    well-conditioned Legendre-Vandermonde solve).  The returned Gauss
    weight vector is zero-padded on the Stieltjes nodes so both estimates
    read off one evaluation vector.
    """
    gx, gw = gauss_legendre(GAUSS_N)
    sx = stieltjes_polynomial_roots()
    nodes = np.sort(np.concatenate([gx, sx]))
    # exactness system in the Legendre basis: Σ w_i P_k(x_i) = 2δ_{k0}
    P = _legendre_values(nodes, 14)
    rhs = np.zeros(15)
    rhs[0] = 2.0
    kweights = np.linalg.solve(P, rhs)
    gweights = np.zeros(15)
    for x, w in zip(gx, gw):
        idx = int(np.argmin(np.abs(nodes - x)))
        gweights[idx] = w
    return nodes, kweights, gweights


def point_count(ndim: int) -> int:
    """Tensor K15 evaluations per region: 15^n (the paper's growth rate)."""
    return 15**ndim


@dataclass(frozen=True)
class TensorGKRule:
    """Precomputed tensor Gauss–Kronrod data for one dimensionality."""

    ndim: int
    points: np.ndarray  # (15^n, n) reference offsets in [-1, 1]^n
    w_kronrod: np.ndarray  # (15^n,) normalised to unit volume
    w_gauss: np.ndarray  # (15^n,)

    @property
    def npoints(self) -> int:
        return self.points.shape[0]


@lru_cache(maxsize=None)
def get_tensor_rule(ndim: int) -> TensorGKRule:
    """Build (and cache) the tensor G7/K15 rule for ``ndim`` dimensions."""
    if ndim < 1:
        raise DimensionError("ndim must be >= 1")
    if ndim > 6:
        raise DimensionError(
            f"tensor Gauss–Kronrod needs 15^{ndim} = {15**ndim} evaluations "
            "per region; refusing ndim > 6 (this growth is the paper's §2.1 "
            "argument for Genz–Malik)"
        )
    nodes, kw, gw = kronrod_15()
    grids = np.meshgrid(*[nodes] * ndim, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    wk = np.ones(points.shape[0])
    wg = np.ones(points.shape[0])
    for d in range(ndim):
        idx = np.meshgrid(*[np.arange(15)] * ndim, indexing="ij")[d].ravel()
        wk *= kw[idx]
        wg *= gw[idx]
    # normalise to unit volume (1-D weights sum to 2 per axis)
    return TensorGKRule(
        ndim=ndim,
        points=points,
        w_kronrod=wk / 2.0**ndim,
        w_gauss=wg / 2.0**ndim,
    )


def evaluate_regions_gk(
    rule: TensorGKRule,
    centers: np.ndarray,
    halfwidths: np.ndarray,
    integrand: Callable[[np.ndarray], np.ndarray],
    chunk_budget: int = CHUNK_BUDGET,
):
    """Batch-evaluate regions with the tensor G7/K15 pair.

    Returns an object with ``estimate`` (K15), ``error`` (|K15 − G7|, the
    QUADPACK-style signal without its magnification heuristics) and
    ``neval`` — interface-compatible with the Genz–Malik sweep for
    downstream comparisons.
    """
    centers = np.asarray(centers, dtype=np.float64)
    halfwidths = np.asarray(halfwidths, dtype=np.float64)
    m, n = centers.shape
    if n != rule.ndim:
        raise ValueError(f"rule is {rule.ndim}-D, regions are {n}-D")
    p = rule.npoints
    estimate = np.empty(m)
    error = np.empty(m)
    chunk = max(1, int(chunk_budget // (p * n)))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        c = centers[lo:hi]
        h = halfwidths[lo:hi]
        pts = c[:, None, :] + rule.points[None, :, :] * h[:, None, :]
        vals = integrand(pts.reshape(-1, n)).reshape(hi - lo, p)
        vol = np.prod(2.0 * h, axis=1)
        # fixed-order contraction: grain-invariant bits (see compute_chunk)
        ik = vol * np.einsum("ij,j->i", vals, rule.w_kronrod)
        ig = vol * np.einsum("ij,j->i", vals, rule.w_gauss)
        estimate[lo:hi] = ik
        error[lo:hi] = np.abs(ik - ig)
    return EvaluationResult(
        estimate=estimate,
        error=error,
        split_axis=np.zeros(m, dtype=np.int64),
        neval=m * p,
    )
