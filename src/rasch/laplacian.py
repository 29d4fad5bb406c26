"""Weighted graph Laplacians of the comparison graph.

The count Laplacian weights each edge by its number of comparisons; the
curvature-weighted variant multiplies in the logistic derivative
``z_ij = sigma'(theta_i - theta_j)`` and equals the negative log-likelihood
Hessian.  Both are built from the m x m count matrix of the comparisons, and
a Laplacian is only its matrix: connectivity is read from the off-diagonal
entries.  The trace of the pseudo-inverse of the curvature Laplacian is the
leading term of the l2 estimation error, which is why it gets first-class
treatment here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DisconnectedGraphError
from .model import ConditionNumbers, sigmoid_deriv
from .pairing import PairedComparisons

__all__ = [
    "WeightedLaplacian",
    "BtlWeights",
    "SpectralReport",
    "build_count_laplacian",
    "build_z_laplacian",
    "pseudo_inverse",
    "pseudo_inverse_trace",
    "spectral_diagnostics",
]


def _component_labels(adj: np.ndarray) -> np.ndarray:
    """Smallest vertex index in each vertex's component, for a stack of graphs.

    ``adj`` is a symmetric boolean adjacency array of shape ``(..., m, m)``;
    a graph is connected iff all of its labels are 0.  Min-label propagation
    takes as many rounds as the largest component diameter.
    """
    m = adj.shape[-1]
    labels = np.broadcast_to(np.arange(m), adj.shape[:-1]).copy()
    while True:
        nbr_min = np.where(adj, labels[..., None, :], m).min(axis=-1, initial=m)
        new = np.minimum(labels, nbr_min)
        if np.array_equal(new, labels):
            return labels
        labels = new


def _unentered_set(adj: np.ndarray) -> np.ndarray:
    """A nonempty proper vertex set that no edge enters from outside, for each
    directed graph of a stack, or the empty set when the graph is strongly
    connected.

    ``adj[..., i, j]`` is an edge ``i -> j``.  The vertices that reach vertex
    0 form such a set unless they are all of them; then the vertices that
    vertex 0 does not reach do.  Each reachability pass takes as many rounds
    as the longest shortest path to or from vertex 0.
    """
    def reach(edges):
        seen = np.zeros(edges.shape[:-1], bool)
        seen[..., 0] = True
        while True:
            new = seen | (seen[..., :, None] & edges).any(axis=-2)
            if np.array_equal(new, seen):
                return seen
            seen = new

    to_0 = reach(np.swapaxes(adj, -1, -2))
    return np.where(to_0.all(axis=-1, keepdims=True), ~reach(adj), to_0)


def _partition(labels: np.ndarray) -> list[list[int]]:
    """Components of one graph from its `_component_labels`: ascending vertex
    lists, ordered by their smallest vertex, the vertices labelled by their
    own index."""
    roots = np.flatnonzero(labels == np.arange(labels.size))
    return [np.flatnonzero(labels == root).tolist() for root in roots]


@dataclass(frozen=True)
class WeightedLaplacian:
    """Symmetric PSD matrix ``sum_e w_e (e_i - e_j)(e_i - e_j)^T``.

    ``connected`` refers to the graph of strictly positive weights, the
    negative off-diagonal entries of the matrix, and is False for an empty
    matrix; when it is False, ``components`` carries the partition so errors
    can report it.  Both are computed lazily: solvers rebuild the Hessian
    every iteration and must not pay for a connectivity check each time.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("Laplacian must be square")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def components(self) -> tuple:
        return tuple(tuple(c) for c in _partition(_component_labels(self.matrix < 0)))

    @cached_property
    def connected(self) -> bool:
        return self.m > 0 and not _component_labels(self.matrix < 0).any()

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues in non-increasing order (lambda_1 >= ... >= lambda_m)."""
        return np.linalg.eigvalsh(self.matrix)[::-1].copy()

    def weighted_degrees(self) -> np.ndarray:
        return np.diag(self.matrix).copy()


def _laplacian_matrix(weights: np.ndarray) -> np.ndarray:
    """Laplacian ``diag(W 1) - W`` of each symmetric, zero-diagonal weight
    matrix in a stack of shape ``(..., m, m)``."""
    m = weights.shape[-1]
    mat = -weights
    diag = np.arange(m)
    mat[..., diag, diag] = weights.sum(axis=-1)
    return mat


def _rank_completion_inverse(mat: np.ndarray) -> np.ndarray:
    """``(L + J/m)^{-1} - J/m`` with ``J = 11^T``: the pseudo-inverse of a
    symmetric matrix whose null space is exactly span(1)."""
    m = mat.shape[0]
    J = np.full((m, m), 1.0 / m)
    return np.linalg.inv(mat + J) - J


def _z_laplacian(counts: np.ndarray, theta) -> WeightedLaplacian:
    """Laplacian with weights ``counts * sigma'(theta_i - theta_j)`` for a
    symmetric m x m count matrix."""
    theta = np.asarray(theta, float)
    m = counts.shape[0]
    if theta.shape != (m,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({m},)")
    return WeightedLaplacian(_laplacian_matrix(counts * sigmoid_deriv(theta[:, None] - theta[None, :])))


def build_count_laplacian(pc: PairedComparisons) -> WeightedLaplacian:
    """Laplacian with edge weights equal to comparison counts."""
    return WeightedLaplacian(_laplacian_matrix(pc.counts))


def build_z_laplacian(pc: PairedComparisons, theta: np.ndarray) -> WeightedLaplacian:
    """Laplacian with weights ``count * sigma'(theta_i - theta_j)``.

    At the true parameters this is the population-curvature matrix; at the
    estimate it is the plug-in version.  Either way it coincides with the
    negative log-likelihood Hessian evaluated at ``theta``.
    """
    return _z_laplacian(pc.counts, theta)


@dataclass(frozen=True)
class BtlWeights:
    """Map from unordered item pair to ``z_ij = sigma'(theta_i - theta_j)``."""

    z: dict

    @classmethod
    def from_theta(cls, theta: np.ndarray, edges) -> "BtlWeights":
        theta = np.asarray(theta, float)
        table = {}
        for i, j in edges:
            hi, lo = max(i, j), min(i, j)
            table[(hi, lo)] = float(sigmoid_deriv(theta[hi] - theta[lo]))
        return cls(z=table)


def pseudo_inverse(lap: WeightedLaplacian) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the rank-completion identity.

    For a connected graph the null space is exactly span(1), so
    ``L^+ = (L + J/m)^{-1} - J/m`` with ``J = 11^T``.  Raises on disconnected
    input: the inverse would silently mix components.
    """
    if not lap.connected:
        raise DisconnectedGraphError(lap.components)
    return _rank_completion_inverse(lap.matrix)


def pseudo_inverse_trace(lap: WeightedLaplacian) -> float:
    """``Trace(L^+)``, the sum of ``1/lambda`` over the top ``m-1``
    eigenvalues; tests pin its agreement with the trace of `pseudo_inverse`.
    """
    if not lap.connected:
        raise DisconnectedGraphError(lap.components)
    lam = lap.spectrum[:-1]  # drop the structural zero
    return float(np.sum(1.0 / lam))


@dataclass(frozen=True)
class SpectralReport:
    """Diagnostic check results for a count Laplacian.

    ``max_eigen_ok`` restates a deterministic bound (lambda_1 <= twice the
    maximum weighted degree) and is also enforced with an exception;
    ``spectral_ok`` and ``degree_ok`` restate high-probability bounds and are
    reported only, since unlucky draws can legitimately violate them.
    """

    m: int
    lambda_1: float
    lambda_m_minus_1: float
    degree_min: float
    degree_max: float
    spectral_ok: bool
    degree_ok: bool
    max_eigen_ok: bool

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "lambda_1": self.lambda_1,
            "lambda_m_minus_1": self.lambda_m_minus_1,
            "degree_min": self.degree_min,
            "degree_max": self.degree_max,
            "spectral_ok": self.spectral_ok,
            "degree_ok": self.degree_ok,
            "max_eigen_ok": self.max_eigen_ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def spectral_diagnostics(L_count: WeightedLaplacian, n: int, p: float,
                         kappa: ConditionNumbers) -> SpectralReport:
    """Check the expected degree and spectrum ranges of a count Laplacian.

    High-probability claims under the sampling model (reported as booleans):
    ``np/(4 kappa2) <= lambda_{m-1} <= lambda_1 <= 3 np`` and per-item degrees
    in ``[np/(24 kappa2), 1.5 np]``.  Deterministic claim (enforced):
    ``lambda_1 <= 2 max_i sum_j w_ij``.
    """
    spectrum = L_count.spectrum
    lam1 = float(spectrum[0])
    lam_m1 = float(spectrum[-2]) if L_count.m >= 2 else 0.0
    degrees = L_count.weighted_degrees()
    np_ = n * p
    spectral_ok = bool(np_ / (4.0 * kappa.kappa2) <= lam_m1 and lam1 <= 3.0 * np_)
    degree_ok = bool(
        np.all(degrees >= np_ / (24.0 * kappa.kappa2)) and np.all(degrees <= 1.5 * np_)
    )
    bound = float(2.0 * degrees.max()) if degrees.size else 0.0
    max_eigen_ok = bool(lam1 <= bound * (1.0 + 1e-12) + 1e-12)
    if not max_eigen_ok:
        raise AssertionError(
            f"lambda_1 = {lam1} exceeds twice the max weighted degree {bound}"
        )
    return SpectralReport(
        m=L_count.m, lambda_1=lam1, lambda_m_minus_1=lam_m1,
        degree_min=float(degrees.min()) if degrees.size else 0.0,
        degree_max=float(degrees.max()) if degrees.size else 0.0,
        spectral_ok=spectral_ok, degree_ok=degree_ok, max_eigen_ok=max_eigen_ok,
    )
