"""Tests for the spectral baselines: Laplacian, EIG1, MELO."""

import numpy as np
import pytest

from repro.baselines import Eig1Partitioner, MeloPartitioner
from repro.baselines.spectral import (
    DENSE_THRESHOLD,
    fiedler_vector,
    laplacian_matrix,
    smallest_eigenvectors,
)
from repro.hypergraph import (
    Hypergraph,
    hierarchical_circuit,
    make_benchmark,
    planted_bisection,
)
from repro.hypergraph.validate import connected_components
from repro.partition import balance_ratio, cut_cost


class TestLaplacian:
    def test_two_pin_net(self):
        lap = laplacian_matrix(Hypergraph([[0, 1]])).toarray()
        np.testing.assert_allclose(lap, [[1, -1], [-1, 1]])

    def test_three_pin_net_clique_weights(self):
        lap = laplacian_matrix(Hypergraph([[0, 1, 2]])).toarray()
        # each clique edge weighs 0.5; degree = 1.0 per node
        np.testing.assert_allclose(np.diag(lap), [1.0, 1.0, 1.0])
        assert lap[0, 1] == pytest.approx(-0.5)

    def test_rows_sum_to_zero(self, medium_circuit):
        lap = laplacian_matrix(medium_circuit)
        sums = np.asarray(lap.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 0.0, atol=1e-9)

    def test_psd(self):
        graph, _, _ = planted_bisection(15, 30, 3, seed=1)
        lap = laplacian_matrix(graph).toarray()
        eigenvalues = np.linalg.eigvalsh(lap)
        assert eigenvalues.min() > -1e-9

    def test_empty_graph(self):
        lap = laplacian_matrix(Hypergraph([], num_nodes=3))
        assert lap.shape == (3, 3)
        assert lap.nnz == 0


class TestEigensolve:
    def test_trivial_eigenpair(self, medium_circuit):
        lap = laplacian_matrix(medium_circuit)
        vals, vecs = smallest_eigenvectors(lap, 2)
        assert vals[0] == pytest.approx(0.0, abs=1e-6)
        # first eigenvector ~ constant on each connected component
        assert vals[0] <= vals[1] + 1e-12

    def test_count_validation(self, medium_circuit):
        lap = laplacian_matrix(medium_circuit)
        with pytest.raises(ValueError):
            smallest_eigenvectors(lap, 0)
        with pytest.raises(ValueError):
            smallest_eigenvectors(lap, medium_circuit.num_nodes)

    def test_fiedler_vector_per_component(self):
        graph = hierarchical_circuit(150, 160, 580, seed=13)
        vec = fiedler_vector(graph)
        big, *singletons = connected_components(graph)
        assert [len(c) for c in singletons] == [1, 1, 1, 1]
        assert np.linalg.norm(vec[big]) == pytest.approx(1.0)
        assert abs(vec[big].sum()) < 1e-9  # orthogonal to the constant
        assert all(vec[c[0]] == 0.0 for c in singletons)

    def test_fiedler_separates_planted_clusters(self):
        graph, sides, _ = planted_bisection(30, 90, 2, seed=3)
        vec = fiedler_vector(graph)
        side0 = [vec[v] for v in range(len(sides)) if sides[v] == 0]
        side1 = [vec[v] for v in range(len(sides)) if sides[v] == 1]
        # the two planted halves land on opposite ends of the vector
        assert (max(side0) < min(side1)) or (max(side1) < min(side0))


class TestEig1:
    def test_finds_planted_cut(self):
        graph, _, crossing = planted_bisection(40, 110, 3, seed=5)
        result = Eig1Partitioner().partition(graph)
        assert result.cut <= crossing + 3
        result.verify(graph)

    def test_default_balance_4555(self, medium_circuit):
        result = Eig1Partitioner().partition(medium_circuit)
        assert balance_ratio(medium_circuit, result.sides) <= 0.55 + 1e-9

    def test_deterministic(self, medium_circuit):
        a = Eig1Partitioner().partition(medium_circuit)
        b = Eig1Partitioner().partition(medium_circuit, seed=42)
        assert a.sides == b.sides  # seed is bookkeeping only

    def test_name(self):
        assert Eig1Partitioner().name == "EIG1"


class TestMelo:
    def test_finds_planted_cut(self):
        graph, _, crossing = planted_bisection(40, 110, 3, seed=5)
        result = MeloPartitioner().partition(graph)
        assert result.cut <= crossing * 4 + 6
        result.verify(graph)

    def test_balance(self, medium_circuit):
        result = MeloPartitioner().partition(medium_circuit)
        assert balance_ratio(medium_circuit, result.sides) <= 0.55 + 1e-9

    def test_eigenvector_count_validated(self):
        with pytest.raises(ValueError):
            MeloPartitioner(num_eigenvectors=0)

    def test_eigenvector_count_capped_for_small_graphs(self):
        graph = Hypergraph([[0, 1], [1, 2], [2, 3]], num_nodes=4)
        result = MeloPartitioner(num_eigenvectors=10).partition(graph)
        result.verify(graph)

    def test_records_dimension(self, medium_circuit):
        result = MeloPartitioner(num_eigenvectors=3).partition(medium_circuit)
        assert result.stats["eigenvectors"] == 3.0


def _rotating_eigh(seed):
    """``np.linalg.eigh`` returning another orthonormal basis of every
    eigenvalue cluster: a random rotation (or reflection) inside it, as a
    different LAPACK build may return."""
    eigh = np.linalg.eigh
    rng = np.random.default_rng(seed)

    def rotated(matrix):
        vals, vecs = eigh(matrix)
        vecs = vecs.copy()
        tol = 1e-10 * max(1.0, np.abs(vals).max())
        bounds = [0, *(np.flatnonzero(np.diff(vals) > tol) + 1), len(vals)]
        for lo, hi in zip(bounds, bounds[1:]):
            q, _ = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))
            vecs[:, lo:hi] = vecs[:, lo:hi] @ q
        return vals, vecs

    return rotated


#: Netlists with a repeated Laplacian eigenvalue among the ones EIG1 and
#: MELO use: eigenvalue 0 of a disconnected netlist (hier150 has four
#: isolated nodes, t6@0.05 one; the triangles' only link is a zero-cost
#: net), and the ring's double lambda_2.
DEGENERATE_NETLISTS = {
    "hier150": lambda: hierarchical_circuit(150, 160, 580, seed=13),
    "t6@0.05": lambda: make_benchmark("t6", scale=0.05),
    "ring40": lambda: Hypergraph([[i, (i + 1) % 40] for i in range(40)]),
    "bridged-triangles": lambda: Hypergraph(
        [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]],
        net_costs=[1, 1, 1, 1, 1, 1, 0],
    ),
}


class TestBasisIndependence:
    """EIG1's and MELO's orderings are a function of the netlist alone."""

    def test_sides_ignore_the_solver_basis(self):
        for name, build in DEGENERATE_NETLISTS.items():
            graph = build()
            expected = {
                partitioner: partitioner().partition(graph).sides
                for partitioner in (Eig1Partitioner, MeloPartitioner)
            }
            for seed in range(3):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(np.linalg, "eigh", _rotating_eigh(seed))
                    for partitioner, sides in expected.items():
                        assert partitioner().partition(graph).sides == sides, (
                            name, partitioner.name, seed,
                        )

    def test_lanczos_path_repeats_in_one_process(self):
        graph = make_benchmark("t5", scale=0.25)
        assert len(connected_components(graph)[0]) > DENSE_THRESHOLD
        # A randomly started solve flips the Fiedler vector's sign, and
        # with it the sides, on about every other run.
        runs = [Eig1Partitioner().partition(graph).sides for _ in range(8)]
        assert all(sides == runs[0] for sides in runs)
