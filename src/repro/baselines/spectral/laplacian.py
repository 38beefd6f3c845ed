"""Graph Laplacian construction and small-eigenpair solves.

Shared substrate of the spectral baselines (EIG1, MELO) and the
PARABOLI-style analytical placer.  Hypergraphs are clique-expanded with the
standard ``c/(q−1)`` weighting [Hagen & Kahng 1991], then assembled into a
sparse Laplacian ``L = D − A``.

scipy is imported inside the functions that call it, not at module level:
PROP and every move-based baseline run without it, so ``import repro``
does not pay for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from ...hypergraph import Hypergraph, clique_edges

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Below this size, dense LAPACK eigensolves are both faster and far more
#: robust than Lanczos iteration.
DENSE_THRESHOLD = 600


def load_scipy() -> None:
    """Import the scipy modules this module's functions call.

    EIG1, MELO and PARABOLI call it from ``__init__``, so that building one
    pays the import and its ``partition()`` runtime measures only compute.
    """
    import scipy.sparse.linalg  # noqa: F401 - imports scipy.sparse too


def laplacian_matrix(
    graph: Hypergraph, weight_model: str = "standard"
) -> sp.csr_matrix:
    """Sparse clique-model Laplacian of the netlist."""
    import scipy.sparse as sp

    n = graph.num_nodes
    edges = clique_edges(graph, weight_model=weight_model)
    if not edges:
        return sp.csr_matrix((n, n))
    rows = []
    cols = []
    vals = []
    degree = np.zeros(n)
    for (u, v), w in edges.items():
        rows.extend((u, v))
        cols.extend((v, u))
        vals.extend((-w, -w))
        degree[u] += w
        degree[v] += w
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(degree)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def smallest_eigenvectors(
    laplacian: sp.spmatrix, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` smallest eigenpairs of a (singular, PSD) Laplacian.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as columns.  Uses dense LAPACK below
    :data:`DENSE_THRESHOLD` nodes and shifted Lanczos (``eigsh``) above,
    falling back to dense if Lanczos fails to converge — Laplacians of
    near-disconnected circuits are numerically nasty and robustness beats
    speed in a reproduction harness.
    """
    import scipy.sparse.linalg as spla

    n = laplacian.shape[0]
    if count < 1:
        raise ValueError("count must be >= 1")
    if count >= n:
        raise ValueError(f"need count < n, got count={count} n={n}")
    if n <= DENSE_THRESHOLD:
        dense = laplacian.toarray()
        vals, vecs = np.linalg.eigh(dense)
        return vals[:count], vecs[:, :count]
    try:
        # Shift slightly to keep the singular matrix factorizable in
        # shift-invert mode; 'SA' on the unshifted operator is slower but
        # avoids factorization entirely.
        vals, vecs = spla.eigsh(
            laplacian.asfptype(), k=count, which="SA", tol=1e-7, maxiter=5000
        )
    except (spla.ArpackNoConvergence, RuntimeError):
        dense = laplacian.toarray()
        vals, vecs = np.linalg.eigh(dense)
        return vals[:count], vecs[:, :count]
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def fiedler_vector(graph: Hypergraph) -> np.ndarray:
    """Second-smallest eigenvector of the clique-model Laplacian.

    This is EIG1's ordering vector.  For disconnected netlists the
    eigenvalue 0 has multiplicity > 1 and *some* zero-eigenvalue vector is
    returned beyond the constant one — still a usable ordering (it
    separates components), matching spectral-partitioning practice.
    """
    laplacian = laplacian_matrix(graph)
    _, vecs = smallest_eigenvectors(laplacian, 2)
    return np.asarray(vecs[:, 1]).ravel()
