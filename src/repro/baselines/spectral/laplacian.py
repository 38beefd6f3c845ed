"""Graph Laplacian construction and the spectral baselines' eigenvectors.

Shared substrate of the spectral baselines (EIG1, MELO) and the
PARABOLI-style analytical placer.  Hypergraphs are clique-expanded with the
standard ``c/(q−1)`` weighting [Hagen & Kahng 1991], then assembled into a
sparse Laplacian ``L = D − A``.

EIG1's and MELO's vectors are a function of the netlist alone, not of the
basis an eigensolver happens to return for a repeated eigenvalue
(:func:`component_eigenvectors`): a disconnected netlist is split into its
components, each solved on its own Laplacian with the constant vector
removed by construction, and every eigenvalue cluster is resolved by
projecting fixed vectors onto it.

scipy is imported inside the functions that call it, not at module level:
PROP and every move-based baseline run without it, so ``import repro``
does not pay for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

import numpy as np

from ...hypergraph import Hypergraph, clique_edges

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Below this size, dense LAPACK eigensolves are both faster and far more
#: robust than Lanczos iteration.
DENSE_THRESHOLD = 600

#: Eigenvalues of one component closer than this, relative to the shift
#: that lifts its constant vector (at least twice its largest eigenvalue),
#: are one eigenvalue cluster: solver noise, not structure.
CLUSTER_RTOL = 1e-8

#: Entries of a unit eigenvector (or distances between embedded nodes)
#: closer than this are ties, broken by node id.
TIE_TOL = 1e-9


def load_scipy() -> None:
    """Import the scipy modules this module's functions call.

    EIG1, MELO and PARABOLI call it from ``__init__``, so that building one
    pays the import and its ``partition()`` runtime measures only compute.
    """
    import scipy.sparse.csgraph  # noqa: F401
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


def _fixed_vectors(n: int, count: int) -> np.ndarray:
    """``count`` fixed pseudo-random columns of length ``n`` (seed 0).

    Column ``j`` depends on ``n`` and ``j`` only, not on ``count``.
    """
    return np.random.default_rng(0).standard_normal((count, n)).T


def smallest_eigenvectors(
    laplacian: sp.spmatrix, count: int, shift: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` smallest eigenpairs of ``laplacian + shift·11ᵀ/n``.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as columns.  Uses dense LAPACK up to
    :data:`DENSE_THRESHOLD` nodes and Lanczos (``eigsh``, started from the
    first :func:`_fixed_vectors` column) above, falling back to dense if
    Lanczos fails to converge — Laplacians of near-disconnected circuits
    are numerically nasty and robustness beats speed in a reproduction
    harness.  Inside a repeated eigenvalue the columns are whatever basis
    the solver returns; EIG1 and MELO use :func:`component_eigenvectors`.
    """
    n = laplacian.shape[0]
    if count < 1:
        raise ValueError("count must be >= 1")
    if count >= n:
        raise ValueError(f"need count < n, got count={count} n={n}")
    if n > DENSE_THRESHOLD:
        import scipy.sparse.linalg as spla

        operator = spla.LinearOperator(
            (n, n),
            matvec=lambda x: laplacian @ x + shift * np.mean(x),
            dtype=float,
        )
        try:
            # tol=1e-10 leaves vector entries within ~1e-13 of a dense
            # solve on the Table-1 circuits, far inside TIE_TOL.
            vals, vecs = spla.eigsh(
                operator, k=count, which="SA", tol=1e-10, maxiter=5000,
                v0=_fixed_vectors(n, 1)[:, 0],
            )
        except spla.ArpackError:
            pass
        else:
            order = np.argsort(vals)
            return vals[order], vecs[:, order]
    vals, vecs = np.linalg.eigh(laplacian.toarray() + shift / n)
    return vals[:count], vecs[:, :count]


def laplacian_components(laplacian: sp.spmatrix) -> List[np.ndarray]:
    """Connected components of the graph of the Laplacian's nonzero edges.

    Two nodes are joined when their off-diagonal entry is negative (a
    zero-cost net joins nothing); a node without such an edge is a
    singleton.  Ordered as :func:`repro.hypergraph.validate.
    connected_components` orders them: largest first, ties by lowest node,
    nodes ascending within each.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    coo = laplacian.tocoo()
    edge = (coo.row != coo.col) & (coo.data < 0)
    adjacency = sp.csr_matrix(
        (np.ones(int(edge.sum())), (coo.row[edge], coo.col[edge])),
        shape=laplacian.shape,
    )
    _, labels = connected_components(adjacency, directed=False)
    by_label = np.argsort(labels, kind="stable")
    components = np.split(by_label, np.cumsum(np.bincount(labels))[:-1])
    components.sort(key=lambda nodes: (-len(nodes), nodes[0]))
    return components


def _component_vectors(block: sp.spmatrix, count: int) -> np.ndarray:
    """The ``count`` smallest non-trivial eigenvectors of one component.

    ``block`` is a connected component's Laplacian, so its null space is
    exactly the constant vector.  The rank-one shift ``c·11ᵀ/s`` with
    ``c`` = four times the largest degree (at least twice the largest
    eigenvalue, by Gershgorin) moves that vector to the top of the
    spectrum and leaves every other eigenpair as it is, so the solver
    never returns it.

    Eigenvalues within ``CLUSTER_RTOL · c`` of their neighbour form one
    cluster, whose eigenspace is well defined even where its basis is not.
    The columns of a cluster holding eigenvalue indices ``lo..hi`` are the
    Gram–Schmidt orthonormalization of :func:`_fixed_vectors` columns
    ``lo..`` projected onto its eigenspace, as many as ``count`` asks for
    there (for a simple eigenvalue: its eigenvector).  Each column's sign
    then makes its entry of largest magnitude positive; magnitudes within
    :data:`TIE_TOL` of that largest go to the lowest node.
    """
    size = block.shape[0]
    shift = 4.0 * block.diagonal().max()
    tol = CLUSTER_RTOL * shift
    want = min(count + 1, size - 1)
    while True:
        vals, vecs = smallest_eigenvectors(block, want, shift)
        starts = np.flatnonzero(np.diff(vals) > tol) + 1
        after = starts[starts >= count]
        if len(after) or want == size - 1:
            break
        want = min(2 * want, size - 1)
    bounds = [0, *starts[starts < count], after[0] if len(after) else want]
    fixed = _fixed_vectors(size, count)
    columns = []
    for lo, hi in zip(bounds, bounds[1:]):
        basis = vecs[:, lo:hi]
        columns.append(
            np.linalg.qr(basis @ (basis.T @ fixed[:, lo:min(hi, count)]))[0]
        )
    vectors = np.hstack(columns)
    magnitude = np.abs(vectors)
    pivot = np.argmax(magnitude >= magnitude.max(axis=0) - TIE_TOL, axis=0)
    return vectors * np.sign(vectors[pivot, np.arange(count)])


def component_eigenvectors(
    graph: Hypergraph, count: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(nodes, vectors)`` for each component of the clique graph.

    Components come in :func:`laplacian_components` order.  ``vectors``
    holds the ``min(count, len(nodes) - 1)`` smallest non-trivial
    eigenvectors of the component's own Laplacian as unit columns, one row
    per node of ``nodes`` (see :func:`_component_vectors` for how repeated
    eigenvalues and signs are settled); a singleton gets no columns.
    """
    laplacian = laplacian_matrix(graph).tocsr()
    result = []
    for nodes in laplacian_components(laplacian):
        k = min(count, len(nodes) - 1)
        if k == 0:
            result.append((nodes, np.zeros((len(nodes), 0))))
        else:
            block = laplacian[nodes][:, nodes]
            result.append((nodes, _component_vectors(block, k)))
    return result


def component_order(
    graph: Hypergraph,
    count: int,
    order_rows: Callable[[np.ndarray], Sequence[int]],
) -> List[int]:
    """A linear ordering of all nodes, one component after another.

    Each component of more than one node is ordered by ``order_rows``
    applied to its :func:`component_eigenvectors` (a permutation of its
    rows); the orderings are concatenated in component order.
    """
    order: List[int] = []
    for nodes, vectors in component_eigenvectors(graph, count):
        if len(nodes) > 1:
            nodes = nodes[order_rows(vectors)]
        order.extend(int(v) for v in nodes)
    return order


def fiedler_vector(graph: Hypergraph) -> np.ndarray:
    """Each component's own Fiedler vector, on that component's nodes.

    For a connected netlist this is the second-smallest eigenvector of the
    clique-model Laplacian, EIG1's ordering vector, with the sign and
    repeated-eigenvalue rules of :func:`component_eigenvectors`.  A
    disconnected netlist's eigenvalue 0 is repeated, and a vector of that
    null space only tells components apart; instead each component carries
    its own unit Fiedler vector, and a singleton reads 0.
    """
    vector = np.zeros(graph.num_nodes)
    for nodes, vectors in component_eigenvectors(graph, 1):
        if vectors.shape[1]:
            vector[nodes] = vectors[:, 0]
    return vector
