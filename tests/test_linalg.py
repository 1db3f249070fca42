import gc
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence

from fedspectral import linalg
from fedspectral.errors import ContractError, ConvergenceError, RankError
from fedspectral.graph import (
    Graph,
    normalized_laplacian,
    normalized_laplacian_from_adjacency,
)
from fedspectral.linalg import (
    bottom_k_eigenvectors,
    global_spectral_clustering,
    kmeans,
    reduced_qr,
    symmetric_eig_reference,
)
from fedspectral.seeding import kmeans_seed

from conftest import (
    bottom_k_every_component,
    dense_adjacency,
    fix_column_signs_loop,
    gnp_graph,
    is_connected,
    kmeans_loop,
    planted_graph,
    principal_angles,
)


def interleaved_components(rng, sizes):
    """A weighted graph of len(sizes) connected components of those sizes,
    their nodes interleaved at random; returns (graph, node arrays)."""
    order = rng.permutation(int(sizes.sum()))
    components = np.split(order, np.cumsum(sizes)[:-1])
    edges = []
    for nodes in components:
        # a random spanning tree, then random extra edges
        edges += [(nodes[rng.integers(i)], nodes[i]) for i in range(1, len(nodes))]
        if len(nodes) > 1:
            edges += [tuple(rng.choice(nodes, 2, replace=False)) for _ in range(len(nodes))]
    base = Graph.from_edges(len(order), sorted({(min(e), max(e)) for e in edges}))
    graph = Graph(base.num_nodes, base.edges, rng.uniform(0.1, 3.0, base.num_edges))
    return graph, components


def two_triangles():
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def numpy_reduced_qr(a):
    """Oracle for reduced_qr: np.linalg.qr plus the same sign fix and checks."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ContractError("reduced_qr expects a 2-d matrix")
    n, k = a.shape
    if n < k:
        raise ContractError(f"reduced_qr needs N >= K, got {n} x {k}")
    q, r = np.linalg.qr(a, mode="reduced")
    flip = np.diagonal(r) < 0
    r[flip, :] *= -1.0
    q[:, flip] *= -1.0
    small = np.abs(np.diagonal(r)) < linalg.RANK_TOL
    if small.any():
        j = int(np.argmax(small))
        raise RankError(f"rank-deficient input at column {j} (|r[{j},{j}]| < {linalg.RANK_TOL})")
    return q, r


def column_flip_qr(a):
    """Oracle for reduced_qr's sign fix: the same LAPACK factors, with the
    columns of q and rows of r to flip gathered by a boolean index and
    negated; also returns that index."""
    k = a.shape[1]
    lwork = linalg._QR_WORK_PER_COLUMN * k
    packed, tau, _, _ = lapack.dgeqrf(a, lwork=lwork)
    r = np.triu(packed[:k])
    q = np.ascontiguousarray(lapack.dorgqr(packed, tau, lwork=lwork)[0])
    flip = np.diagonal(r) < 0
    q[:, flip] *= -1.0
    r[flip, :] *= -1.0
    return q, r, flip


class TestReducedQR:
    def test_identity(self):
        q, r = reduced_qr(np.eye(3))
        assert np.abs(q - np.eye(3)).max() < 1e-12
        assert np.abs(r - np.eye(3)).max() < 1e-12

    def test_diagonal_sign_convention(self):
        q, r = reduced_qr(np.diag([2.0, 3.0]))
        assert np.abs(q - np.eye(2)).max() < 1e-12
        assert np.abs(r - np.diag([2.0, 3.0])).max() < 1e-12

    def test_permutation_input(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        q, r = reduced_qr(a)
        assert np.abs(a - q @ r).max() < 1e-12
        assert np.abs(q.T @ q - np.eye(2)).max() < 1e-12
        assert np.abs(q - a).max() < 1e-12
        assert np.abs(r - np.eye(2)).max() < 1e-12

    def test_random_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, n + 1))
            a = rng.standard_normal((n, k)) * float(10.0 ** rng.integers(-3, 4))
            q, r = reduced_qr(a)
            assert np.abs(a - q @ r).max() <= 1e-8 * max(np.abs(a).max(), 1e-300)
            assert np.abs(q.T @ q - np.eye(k)).max() <= 1e-10
            assert (np.diagonal(r) >= 0).all()
            assert np.abs(np.tril(r, -1)).max() == 0.0

    def test_rank_deficiency_names_column(self):
        a = np.ones((4, 2))
        with pytest.raises(RankError, match="column 1"):
            reduced_qr(a)
        with pytest.raises(RankError):
            reduced_qr(np.zeros((3, 2)))

    def test_shape_contract(self):
        with pytest.raises(ContractError):
            reduced_qr(np.ones((2, 3)))

    # numpy and scipy may bundle different OpenBLAS builds, so the two agree
    # to rounding, not necessarily bit for bit
    @pytest.mark.parametrize("k", [1, 10, 20, 130])
    def test_agrees_with_numpy_and_q_is_c_contiguous(self, k):
        rng = np.random.default_rng(k)
        for scale in (1e-3, 1.0, 1e3):
            a = rng.standard_normal((2 * k + 7, k)) * scale
            q, r = reduced_qr(a)
            q_ref, r_ref = numpy_reduced_qr(a)
            assert q.flags.c_contiguous
            assert np.abs(q - q_ref).max() < 1e-13
            assert np.abs(r - r_ref).max() < 1e-13 * np.abs(r_ref).max()

    @pytest.mark.parametrize("n", [1005, 4039])
    def test_sign_fix_is_bitwise_the_column_flip_and_peak_is_bounded(self, n):
        a = np.random.default_rng(n).standard_normal((n, 10))
        q_ref, r_ref, flip = column_flip_qr(a)
        assert 0 < flip.sum() < 10  # the diagonal has mixed signs
        q, r = reduced_qr(a)
        assert q.tobytes() == q_ref.tobytes()
        assert r.tobytes() == r_ref.tobytes()
        # LAPACK's packed copy and the C-order q; 64 KiB for the buffer
        # numpy's broadcast multiply takes
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reduced_qr(a)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * a.nbytes + 64 * 1024

    @pytest.mark.parametrize("k", [1, 10, 20, 130])
    def test_same_errors_as_numpy(self, k):
        rng = np.random.default_rng(100 + k)
        a = rng.standard_normal((2 * k + 7, k))
        a[:, k // 2] = 0.0  # rank deficient at column k // 2
        cases = [a, np.zeros((k + 1, k)), np.ones((k, k + 1)), np.ones(k)]
        for case in cases:
            with pytest.raises((ContractError, RankError)) as expected:
                numpy_reduced_qr(case)
            with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
                reduced_qr(case)


class TestReferenceEig:
    def test_diagonal(self):
        vals, vecs = symmetric_eig_reference(np.diag([3.0, 1.0]))
        assert np.allclose(vals, [1.0, 3.0])
        assert np.allclose(vecs, [[0.0, 1.0], [1.0, 0.0]])

    def test_path_laplacian(self):
        vals, vecs = symmetric_eig_reference(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(vals, [0.0, 2.0])
        assert np.allclose(vecs[:, 0], np.ones(2) / np.sqrt(2))

    def test_residuals_random(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8))
        a = 0.5 * (a + a.T)
        vals, vecs = symmetric_eig_reference(a)
        scale = np.abs(vals).max()
        for j in range(8):
            resid = np.linalg.norm(a @ vecs[:, j] - vals[j] * vecs[:, j])
            assert resid <= 1e-8 * scale

    def test_matches_numpy_eigenvalues(self):
        rng = np.random.default_rng(2)
        for n in (5, 17, 30):
            a = rng.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            vals, _ = symmetric_eig_reference(a)
            assert np.allclose(vals, np.linalg.eigvalsh(a), atol=1e-10)

    def test_sorted_and_sign_convention(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12))
        a = 0.5 * (a + a.T)
        vals, vecs = symmetric_eig_reference(a)
        assert (np.diff(vals) >= 0).all()
        for j in range(12):
            col = vecs[:, j]
            first = np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())
            assert col[first] > 0

    def test_non_symmetric_rejected(self):
        with pytest.raises(ContractError):
            symmetric_eig_reference(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_finite_rejected(self):
        a = np.eye(3)
        a[1, 1] = np.nan
        with pytest.raises(ContractError, match="non-finite"):
            symmetric_eig_reference(a)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            symmetric_eig_reference(np.eye(2))


class TestBottomK:
    def test_triangle_kernel(self):
        lap = normalized_laplacian(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]))
        basis = bottom_k_eigenvectors(lap, 1, seed=0)
        assert np.abs(basis[:, 0] - np.ones(3) / np.sqrt(3)).max() < 1e-8

    def test_disjoint_triangles_kernel_span(self):
        g = two_triangles()
        lap = normalized_laplacian(g)
        basis = bottom_k_eigenvectors(lap, 2, seed=1)
        indicators = np.zeros((6, 2))
        indicators[:3, 0] = 1.0
        indicators[3:, 1] = 1.0
        assert principal_angles(basis, indicators).max() < 1e-6
        # both Ritz values are zero eigenvalues
        assert np.abs(lap @ basis).max() < 1e-6

    def test_matches_reference_on_random_graph(self):
        g = planted_graph([10, 10, 10, 10, 10], 0.8, 0.04, seed=5)
        lap = normalized_laplacian(g)
        _, vecs = symmetric_eig_reference(lap.toarray())
        basis = bottom_k_eigenvectors(lap, 5, seed=2)
        assert principal_angles(basis, vecs[:, :5]).max() < 1e-6

    def test_subspace_residual(self):
        g = planted_graph([20, 20], 0.7, 0.05, seed=6)
        lap = normalized_laplacian(g)
        basis = bottom_k_eigenvectors(lap, 2, seed=3)
        resid = lap @ basis - basis @ (basis.T @ lap @ basis)
        assert np.abs(resid).max() <= 1e-6

    def test_k_contract(self):
        lap = np.zeros((3, 3))
        with pytest.raises(ContractError):
            bottom_k_eigenvectors(lap, 4, seed=0)

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError, match="non-finite"):
            bottom_k_eigenvectors(np.array([[1.0, np.nan], [np.nan, 1.0]]), 1, seed=0)

    def test_agrees_with_dense_oracle_with_isolated_nodes(self):
        # isolated nodes and small components repeat the zero eigenvalue,
        # which a single Krylov start vector cannot resolve on its own
        rng = np.random.default_rng(13)
        compared = 0
        for trial in range(40):
            n = int(rng.integers(5, 60))
            base = gnp_graph(n - int(rng.integers(1, 5)), rng.uniform(0.03, 0.3), trial)
            g = Graph(n, base.edges, rng.uniform(0.1, 3.0, base.num_edges))
            k = int(rng.integers(1, n + 1))
            dense = normalized_laplacian_from_adjacency(dense_adjacency(g)).toarray()
            vals, vecs = symmetric_eig_reference(dense)
            basis = bottom_k_eigenvectors(normalized_laplacian(g), k, seed=trial)
            assert np.abs(basis.T @ basis - np.eye(k)).max() < 1e-12
            ritz = np.diagonal(basis.T @ dense @ basis)
            assert (np.diff(ritz) >= -1e-12).all()
            assert np.abs(ritz - vals[:k]).max() < 1e-12
            if k == n or vals[k] - vals[k - 1] > 1e-3:
                compared += 1
                sine = np.linalg.norm(basis - vecs[:, :k] @ (vecs[:, :k].T @ basis), 2)
                assert sine < 1e-8
        assert compared >= 20

    def test_agrees_with_dense_oracle_with_repeated_eigenvalues(self):
        # identical pendant motifs on one hub and twin nodes repeat nonzero
        # eigenvalues inside one component; a single Krylov run misses copies
        rng = np.random.default_rng(11)
        for trial in range(60):
            core = gnp_graph(int(rng.integers(8, 40)), rng.uniform(0.1, 0.5), trial)
            edges = [tuple(e) for e in core.edges]
            n = core.num_nodes
            for hub in rng.integers(0, core.num_nodes, 3):
                for _ in range(int(rng.integers(2, 5))):
                    edges += [(hub, n), (n, n + 1)] if trial % 2 else [(hub, n)]
                    n += 2 if trial % 2 else 1
            twin = int(rng.integers(core.num_nodes))
            edges += [(a + b - twin, n) for a, b in edges if twin in (a, b)]
            g = Graph.from_edges(n + 1, edges)
            dense = normalized_laplacian(g).toarray()
            vals, _ = symmetric_eig_reference(dense)
            for k in rng.integers(1, n + 1, 2):
                basis = bottom_k_eigenvectors(normalized_laplacian(g), int(k), seed=trial)
                ritz = np.diagonal(basis.T @ dense @ basis)
                assert np.abs(ritz - vals[:k]).max() < 1e-12

    def test_sparse_and_dense_input_give_equal_labels(self):
        g = planted_graph([100, 100, 100], 0.3, 0.005, seed=12)
        sparse_lap = normalized_laplacian(g)
        dense_lap = normalized_laplacian_from_adjacency(dense_adjacency(g)).toarray()
        assert np.array_equal(
            bottom_k_eigenvectors(sparse_lap, 3, seed=5),
            bottom_k_eigenvectors(dense_lap, 3, seed=5),
        )

    def test_same_seed_same_bits(self):
        # a star's Laplacian repeats the eigenvalue 1 exactly, so the Krylov
        # space can break down and ARPACK then draws a restart vector
        for n in range(4, 16):
            lap = normalized_laplacian(Graph.from_edges(n, [(0, i) for i in range(1, n)]))
            for k in range(1, n):
                first = bottom_k_eigenvectors(lap, k, seed=k)
                assert np.array_equal(first, bottom_k_eigenvectors(lap, k, seed=k))

    def test_dense_path_for_k_equal_n_and_edgeless(self, monkeypatch):
        def no_arpack(*args, **kwargs):
            raise AssertionError("ARPACK called")

        monkeypatch.setattr(linalg, "eigsh", no_arpack)
        g = planted_graph([5, 5], 0.8, 0.1, seed=3)
        assert is_connected(g)
        lap = normalized_laplacian(g)
        assert np.array_equal(
            bottom_k_eigenvectors(lap, 10, seed=0), symmetric_eig_reference(lap.toarray())[1]
        )
        # every node of an edgeless graph is a 1 x 1 component of its own
        edgeless = normalized_laplacian(Graph.from_edges(4, []))
        assert edgeless.nnz == 0
        expected = symmetric_eig_reference(np.zeros((4, 4)))[1][:, :2]
        assert np.array_equal(bottom_k_eigenvectors(edgeless, 2, seed=0), expected)

    def test_clique_blocks_fall_back_to_dense(self):
        # a graph of disjoint cliques (the N-node co-membership graph of
        # unanimous clients, which the baseline server no longer builds); a
        # clique's repeated eigenvalue straddles the K boundary, and from this
        # seed's start vector ARPACK stops with error 3 ("no shifts could be
        # applied")
        labels = np.repeat(np.arange(8), [100] * 5 + [1] * 3)
        similarity = (labels[:, None] == labels[None, :]).astype(np.float64)
        np.fill_diagonal(similarity, 0.0)
        lap = normalized_laplacian_from_adjacency(similarity).toarray()
        basis = bottom_k_eigenvectors(lap, 10, seed=1)
        vals, _ = symmetric_eig_reference(lap)
        assert np.abs(np.diagonal(basis.T @ lap @ basis) - vals[:10]).max() < 1e-12
        assert np.abs(basis.T @ basis - np.eye(10)).max() < 1e-12

    def test_zero_eigenvalue_ties_go_to_the_lowest_node(self):
        # more components than K: every component has one zero eigenvalue,
        # so the K columns are the null vectors sqrt(d)/|sqrt(d)| of the K
        # components with the lowest nodes, in that order
        rng = np.random.default_rng(17)
        for trial in range(200):
            sizes = rng.integers(3, 40, int(rng.integers(3, 8)))
            g, components = interleaved_components(rng, sizes)
            k = int(rng.integers(1, len(components)))
            basis = bottom_k_eigenvectors(normalized_laplacian(g), k, seed=trial)
            root = np.sqrt(g.degrees())
            expected = np.zeros_like(basis)
            for col, nodes in enumerate(sorted(components, key=min)[:k]):
                expected[nodes, col] = root[nodes] / np.linalg.norm(root[nodes])
            assert np.abs(basis - expected).max() < 1e-10, trial

    def test_scipy_numbers_components_by_lowest_node(self):
        # bottom_k_eigenvectors solves only components 0..K-1, which are the
        # K with the lowest nodes only under this numbering
        rng = np.random.default_rng(19)
        for _ in range(50):
            sizes = rng.integers(1, 30, int(rng.integers(2, 40)))
            g, components = interleaved_components(rng, sizes)
            count, label = connected_components(normalized_laplacian(g), directed=False)
            assert count == len(components)
            for c, nodes in enumerate(sorted(components, key=min)):
                assert (label[nodes] == c).all()

    def test_solves_at_most_k_components(self, monkeypatch):
        solved = []
        real = linalg._bottom_of_component

        def spy(block, k, rng):
            solved.append(block.shape[0])
            return real(block, k, rng)

        monkeypatch.setattr(linalg, "_bottom_of_component", spy)
        rng = np.random.default_rng(23)
        g, components = interleaved_components(rng, rng.integers(1, 20, 30))
        lap = normalized_laplacian(g)
        for k in (1, 4, 29):
            solved.clear()
            bottom_k_eigenvectors(lap, k, seed=k)
            assert solved == [len(c) for c in sorted(components, key=min)[:k]]

    @pytest.mark.parametrize("more", [-2, 0, 2], ids=["fewer", "exactly", "more"])
    def test_same_bits_as_solving_every_component(self, more):
        # components minus K; with K or more components the pairs of the
        # components past K never reach the bottom K
        rng = np.random.default_rng(29 + more)
        for trial in range(40):
            sizes = rng.integers(1, 40, int(rng.integers(3, 12)))
            g, components = interleaved_components(rng, sizes)
            k = len(components) - more
            lap = normalized_laplacian(g)
            basis = bottom_k_eigenvectors(lap, k, seed=trial)
            assert np.array_equal(basis, bottom_k_every_component(lap, k, trial)), trial

    def test_arpack_no_convergence_is_convergence_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

        monkeypatch.setattr(linalg, "eigsh", no_convergence)
        lap = normalized_laplacian(planted_graph([10, 10], 0.8, 0.1, seed=4))
        with pytest.raises(ConvergenceError, match="ARPACK"):
            bottom_k_eigenvectors(lap, 2, seed=0)


class TestKMeans:
    def test_separated_pairs(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        labels = kmeans(pts, 2, seed=0)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_k_equals_n_distinct(self):
        pts = np.arange(10, dtype=float).reshape(5, 2)
        labels = kmeans(pts, 5, seed=1)
        assert len(set(labels.tolist())) == 5

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((30, 3))
        assert np.array_equal(kmeans(pts, 4, seed=7), kmeans(pts, 4, seed=7))

    def test_degenerate_duplicates(self):
        labels = kmeans(np.zeros((4, 2)), 3, seed=2)
        assert labels.shape == (4,)
        assert set(labels.tolist()) <= {0, 1, 2}
        assert np.array_equal(labels, kmeans(np.zeros((4, 2)), 3, seed=2))

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(5)
        pts = np.concatenate(
            [rng.normal(0, 1, (40, 3)), rng.normal(6, 1, (40, 3))]
        )
        history: list[float] = []
        kmeans(pts, 3, seed=8, objective_history=history)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_k_contract(self):
        with pytest.raises(ContractError):
            kmeans(np.zeros((2, 2)), 3, seed=0)


def _kmeans_case(rng) -> tuple[np.ndarray, int]:
    """Seeded k-means input with at least 2 columns: Gaussian or gridded
    points (ties, duplicate rows), few distinct rows (the empty-cluster
    repair), zero and -0.0 rows, wide scales or separated blobs."""
    n, d = int(rng.integers(1, 120)), int(rng.integers(2, 12))
    kind = rng.integers(6)
    if kind == 0:
        pts = rng.standard_normal((n, d))
    elif kind == 1:
        pts = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    elif kind == 2:
        distinct = rng.standard_normal((int(rng.integers(1, 4)), d))
        pts = distinct[rng.integers(0, len(distinct), n)]
    elif kind == 3:
        pts = rng.standard_normal((n, d))
        pts[rng.random(n) < 0.3] = 0.0
        pts[rng.random(n) < 0.3] = -0.0
    elif kind == 4:
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-8, 8, size=(1, d))
    else:
        pts = rng.standard_normal((n, d)) + 8.0 * rng.integers(0, 4, size=(n, 1))
    k = int(rng.choice([1, n, int(rng.integers(1, n + 1))]))
    return pts, k


def _assert_same_run(points, k, seed):
    """linalg.kmeans and the per-cluster-mask loop give equal labels and
    objective histories, bit for bit."""
    history, oracle_history = [], []
    labels = kmeans(points, k, seed, objective_history=history)
    expected = kmeans_loop(points, k, seed, objective_history=oracle_history)
    assert np.array_equal(labels, expected)
    assert np.array(history).tobytes() == np.array(oracle_history).tobytes()


class TestKMeansAgainstLoop:
    """linalg.kmeans against conftest.kmeans_loop, which takes each centre
    as the axis-0 mean of its cluster's rows."""

    def test_random_cases(self):
        rng = np.random.default_rng(19)
        for case in range(320):
            pts, k = _kmeans_case(rng)
            try:
                _assert_same_run(pts, k, seed=case)
            except AssertionError:
                raise AssertionError(f"case {case}: shape {pts.shape}, k={k}") from None

    @pytest.mark.parametrize(
        "points, k",
        [
            (np.zeros((6, 3)), 4),  # all zero: every cluster but one repaired
            (np.full((5, 2), -0.0), 2),
            (np.array([[1.0, 2.0]] * 4 + [[-0.0, 0.0]] * 3), 5),  # two distinct rows
            (np.arange(12.0).reshape(6, 2), 6),  # k = n
            (np.arange(12.0).reshape(6, 2), 1),
        ],
    )
    def test_degenerate_inputs(self, points, k):
        _assert_same_run(points, k, seed=3)

    def test_pipeline_shapes(self):
        # a baseline client's shape (500 x 20, k = 20) from a real embedding
        g = planted_graph([50] * 10, 0.3, 0.02, seed=19)
        embedding = bottom_k_eigenvectors(normalized_laplacian(g), 20, seed=1)
        _assert_same_run(embedding, 20, seed=2)
        # the facebook reference's shape (4039 x 10, k = 10), raw and row-normalized
        rng = np.random.default_rng(20)
        blobs = rng.standard_normal((10, 10))[rng.integers(0, 10, 4039)]
        blobs += 0.3 * rng.standard_normal((4039, 10))
        _assert_same_run(blobs, 10, seed=4)
        _assert_same_run(blobs / np.linalg.norm(blobs, axis=1)[:, None], 10, seed=5)

    def test_one_column_well_separated(self):
        # one column: numpy's mean sums pairwise, the bincount in order, so
        # only the labels of well-separated points are compared
        rng = np.random.default_rng(21)
        pts = (100.0 * rng.integers(0, 4, 300) + rng.random(300))[:, None]
        assert np.array_equal(kmeans(pts, 4, seed=6), kmeans_loop(pts, 4, seed=6))

    def test_peak_memory_within_the_loops(self):
        # kmeans_loop (linalg.kmeans before the bincount update) peaked
        # 1,025,728-1,027,225 bytes above its input on this input at seeds
        # 0-2 (tracemalloc, numpy 2.4.6)
        bound = 1_027_225
        pts = np.random.default_rng(0).standard_normal((2000, 20))
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kmeans(pts, 20, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestColumnSigns:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 30)), int(rng.integers(1, 8))
        vectors = rng.standard_normal((n, k))
        for j in range(k):
            kind = rng.integers(4)
            if kind == 0:  # zero column, some of it -0.0
                vectors[:, j] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
            elif kind == 1:  # leading entries at or below the 1e-12 * max cut
                top = np.abs(vectors[:, j]).max()
                lead = int(rng.integers(0, n))
                small = [1e-12 * top, -(1e-12 * top), 0.5e-12 * top, -0.0, 0.0]
                vectors[:lead, j] = rng.choice(small, lead)
            elif kind == 2:  # leading entry just above the cut
                vectors[0, j] = -2e-12 * np.abs(vectors[:, j]).max()
        expected = vectors.copy()
        fix_column_signs_loop(expected)
        linalg._fix_column_signs(vectors)
        assert vectors.tobytes() == expected.tobytes()


class TestGlobalClustering:
    def test_component_separation(self):
        labels = global_spectral_clustering(two_triangles(), 2, seed=0)
        assert len(set(labels[:3].tolist())) == 1
        assert len(set(labels[3:].tolist())) == 1
        assert labels[0] != labels[3]

    def test_deterministic(self):
        g = planted_graph([15, 15], 0.7, 0.05, seed=9)
        a = global_spectral_clustering(g, 2, seed=11)
        b = global_spectral_clustering(g, 2, seed=11)
        assert np.array_equal(a, b)

    def test_invariant_to_edge_file_order(self):
        g = planted_graph([12, 12], 0.7, 0.08, seed=10)
        lines = [f"{u} {v}" for u, v in g.edges]
        rng = np.random.default_rng(0)
        shuffled = [lines[i] for i in rng.permutation(len(lines))]
        from fedspectral.graph import parse_edge_list

        g2 = parse_edge_list("\n".join(shuffled))
        assert np.array_equal(
            global_spectral_clustering(g, 2, seed=3),
            global_spectral_clustering(g2, 2, seed=3),
        )

    def test_methods_agree_on_labels(self):
        # global_spectral_clustering solves with ARPACK; the dense solver is the oracle
        g = planted_graph([100, 100, 100], 0.3, 0.005, seed=12)
        lap = normalized_laplacian(g)
        dense = symmetric_eig_reference(lap.toarray())[1][:, :3]
        expected = kmeans(dense, 3, kmeans_seed(5))
        assert np.array_equal(global_spectral_clustering(g, 3, seed=5), expected)
