"""Numerical kernels.

Reduced QR (LAPACK geqrf/orgqr through scipy) and the dense reference
eigensolver (numpy's LAPACK eigh) under pinned sign conventions, the
bottom-K eigensolver of a sparse or dense Laplacian (ARPACK through
scipy's eigsh, per connected component), Lloyd's k-means with k-means++
seeding, and the one spectral clustering pipeline of a graph: it gives
the reference labeling that every experiment scores against and the
baseline's client labelings; the baseline server runs its two halves on
the twin-class quotient of the client labelings. ``one_blas_thread``
holds the OpenBLAS builds bundled with numpy and scipy at one thread for
the length of a ``with`` block.

Everything is float64 and deterministic for fixed seeds. The
factorizations are followed by sign fixes (non-negative R diagonal;
first nonzero eigenvector component positive), so their outputs are
unique and runs repeat bit for bit.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager

import numpy as np
import scipy
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .errors import ContractError, ConvergenceError, RankError
from .graph import Graph, normalized_laplacian
from .seeding import embedding_seed, kmeans_seed

__all__ = [
    "one_blas_thread",
    "reduced_qr",
    "symmetric_eig_reference",
    "bottom_k_eigenvectors",
    "kmeans",
    "global_spectral_clustering",
]

RANK_TOL = 1e-12
SYMMETRY_TOL = 1e-10
KMEANS_MAX_ITER = 300
# LAPACK work per column: room for the blocked QR path at block sizes up to 64
_QR_WORK_PER_COLUMN = 64
# (package, thread-count getter, setter) of the OpenBLAS each wheel bundles
# under <package>.libs; numpy's is the 64-bit-integer build
_BUNDLED_OPENBLAS = (
    (np, "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    (scipy, "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each bundled OpenBLAS found;
    empty where the packages bundle none or it exports neither symbol."""
    controls = []
    for package, get_name, set_name in _BUNDLED_OPENBLAS:
        site = os.path.dirname(os.path.dirname(package.__file__))
        libs = os.path.join(site, f"{package.__name__}.libs")
        try:
            names = sorted(os.listdir(libs))
        except OSError:  # the package bundles no libraries
            continue
        for name in names:
            if "openblas" not in name:
                continue
            try:
                lib = ctypes.CDLL(os.path.join(libs, name))
                get, set_ = lib[get_name], lib[set_name]
            except (OSError, AttributeError):  # not loadable, or no such symbol
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


@contextmanager
def one_blas_thread():
    """Run the block with numpy's and scipy's bundled OpenBLAS at one thread
    each, and restore their thread counts when it ends, also on an error.

    OpenBLAS spin-waits on its pool after each call, so small N x K calls
    on a second thread cost more than they save and hold a core that
    concurrent work could use. Does nothing where no bundled OpenBLAS
    exports the thread-count functions. The thread count is not meant to
    change a result: OpenBLAS splits a matrix product's output entries,
    not the sums that make each one, between its threads.
    """
    controls = _openblas_thread_controls()
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)


def reduced_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of an N x K matrix, N >= K.

    Returns (q, r) with a = q @ r, q C-contiguous with orthonormal columns,
    r upper triangular with non-negative diagonal (the sign convention that
    makes the factorization unique and runs deterministic). The routines
    are LAPACK's Householder geqrf and orgqr, the ones np.linalg.qr calls.

    Raises
    ------
    RankError
        If any |r[j, j]| < 1e-12 after factorization, naming the column.
    ContractError
        If N < K.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ContractError("reduced_qr expects a 2-d matrix")
    n, k = a.shape
    if n < k:
        raise ContractError(f"reduced_qr needs N >= K, got {n} x {k}")

    if k == 0:  # LAPACK rejects a leading dimension of 0
        return np.zeros((n, 0)), np.zeros((0, 0))

    # np.linalg.qr's routines without its wrapper copies and workspace
    # queries; Q goes to C order, which scipy's CSR product takes uncopied
    lwork = _QR_WORK_PER_COLUMN * k
    packed, tau, _, info = lapack.dgeqrf(a, lwork=lwork)
    r = np.triu(packed[:k])
    q, _, info_q = lapack.dorgqr(packed, tau, lwork=lwork, overwrite_a=1)
    del packed  # q's buffer, which dies once q is in C order
    if info or info_q:
        raise ContractError(f"LAPACK QR failed (geqrf info {info}, orgqr info {info_q})")
    q = np.ascontiguousarray(q)
    # in place: a boolean column index would gather the flipped columns
    # into a copy; multiplying by +-1.0 is exact either way
    signs = np.where(np.diagonal(r) < 0, -1.0, 1.0)
    q *= signs
    r *= signs[:, None]

    small = np.abs(np.diagonal(r)) < RANK_TOL
    if small.any():
        j = int(np.argmax(small))
        raise RankError(f"rank-deficient input at column {j} (|r[{j},{j}]| < {RANK_TOL})")
    return q, r


def _fix_column_signs(vectors: np.ndarray) -> None:
    """Flip columns in place so each one's first nonzero component is positive.

    A component counts as nonzero above 1e-12 times its column's largest
    magnitude; an all-zero column is left as it is.
    """
    mags = np.abs(vectors)
    first = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    np.negative(vectors, out=vectors, where=lead < 0)


def symmetric_eig_reference(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns in matching
    order). Each eigenvector's first nonzero component is positive. This is
    the test oracle and the small-instance workhorse.

    Raises
    ------
    ContractError
        If the input has a non-finite entry or is not symmetric to within
        SYMMETRY_TOL.
    ConvergenceError
        If LAPACK's eigensolver does not converge.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError("expected a square matrix")
    if a.shape[0] == 0:
        raise ContractError("expected a non-empty matrix")
    if not np.isfinite(a).all():
        raise ContractError("matrix has non-finite entries")
    if np.abs(a - a.T).max() > SYMMETRY_TOL:
        raise ContractError("matrix is not symmetric within tolerance")

    try:
        vals, vectors = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver did not converge: {exc}") from None
    _fix_column_signs(vectors)
    return vals, vectors


def _bottom_of_component(
    block: sparse.csr_array, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Bottom-k eigenpairs of one connected component's Laplacian block.

    ARPACK starts from a standard normal vector drawn from ``rng`` and
    draws any restart vector from it too. Grown from one vector, its
    Krylov space can hold fewer copies of a repeated eigenvalue than there
    are, so an answer that repeats an eigenvalue is not trusted. The dense
    reference solver takes those blocks, the blocks ARPACK cannot run on
    (k not below the block size) and the blocks where ARPACK stops with an
    error other than non-convergence (error 3, "no shifts could be
    applied", is seen on cliques).
    """
    if k < block.shape[0]:
        try:
            # the block's own product: scipy's wrapper of a sparse matrix
            # reaches the same csr_matvec through matmat and reshapes
            op = LinearOperator(block.shape, matvec=block.__matmul__, dtype=np.float64)
            vals, vecs = eigsh(
                op, k, which="SA", v0=rng.standard_normal(block.shape[0]), rng=rng
            )
            if (np.diff(np.sort(vals)) > 1e-9).all():
                return vals, vecs
        except ArpackNoConvergence as exc:
            raise ConvergenceError(f"ARPACK did not converge: {exc}") from None
        except ArpackError:
            pass
    return symmetric_eig_reference(block.toarray())


def bottom_k_eigenvectors(lap, k: int, seed: int) -> np.ndarray:
    """Orthonormal eigenvectors of the K smallest eigenvalues of a Laplacian.

    ``lap`` is a dense or sparse symmetric Laplacian. It is block diagonal
    over its graph's connected components, each with one zero eigenvalue,
    and a Krylov method grown from one start vector sees only one copy of
    a repeated eigenvalue. So each component gives its bottom min(K, size)
    pairs (_bottom_of_component; an isolated node, a zero row, is a 1 x 1
    block) and the K smallest pairs are kept, ties going to the component
    with the lowest node (each component's zero keyed as exactly 0.0, so
    that rule, not rounding, orders the zeros). Only the K components with
    the lowest nodes are solved, since their K zeros outrank every pair of
    the rest. Columns come in ascending eigenvalue order, each with its
    first nonzero component positive, and repeat bit for bit for fixed
    (lap, k, seed).

    Raises
    ------
    ContractError
        If the input is not square or has a non-finite entry, or k is
        outside 1..N.
    ConvergenceError
        If ARPACK does not converge.
    """
    lap = sparse.csr_array(lap, dtype=np.float64)
    n = lap.shape[0]
    if lap.shape != (n, n):
        raise ContractError("expected a square Laplacian")
    if not 1 <= k <= n:
        raise ContractError(f"need 1 <= k <= {n}, got {k}")
    if not np.isfinite(lap.data).all():
        raise ContractError("Laplacian has non-finite entries")

    count, component = connected_components(lap, directed=False)
    rng = np.random.default_rng(seed)
    pairs = []  # (eigenvalue, lowest node, nodes, eigenvector on the nodes)
    # needs scipy to number components by lowest node (test-pinned)
    for label in range(min(count, k)):
        nodes = np.flatnonzero(component == label)
        block = lap if count == 1 else lap[nodes][:, nodes]
        vals, vecs = _bottom_of_component(block, min(k, len(nodes)), rng)
        # every component of L_sym has exactly one zero eigenvalue
        vals[np.argmin(vals)] = 0.0
        pairs += [(val, nodes[0], nodes, vec) for val, vec in zip(vals[:k], vecs.T)]
    pairs.sort(key=lambda pair: pair[:2])

    basis = np.zeros((n, k), dtype=np.float64)
    for col, (_, _, nodes, vec) in enumerate(pairs[:k]):
        basis[nodes, col] = vec
    _fix_column_signs(basis)
    return basis


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    *,
    objective_history: list[float] | None = None,
) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding.

    Deterministic for fixed (points, k, seed). Stops when no label changes
    or after KMEANS_MAX_ITER iterations. An empty cluster is repaired by
    reassigning the point farthest from its current centroid (ties break to
    the lowest index). Never fails on degenerate geometry: with fewer than
    k distinct rows, duplicates simply share labels.

    Each centre is the mean of its cluster's rows. One bincount gives all
    k x d sums, adding each cluster's rows in ascending order, which is
    the order of numpy's axis-0 mean of two or more columns, so the centres
    are those means bit for bit. numpy sums a single column pairwise, so
    for d = 1 a centre can differ from the mean in its last bits; the
    spectral pipeline never clusters one column unless k = 1.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ContractError("kmeans expects a 2-d matrix of row points")
    n, d = points.shape
    if not 1 <= k <= n:
        raise ContractError(f"need 1 <= k <= {n}, got {k}")

    rng = np.random.default_rng(seed)
    centers = np.empty((k, d), dtype=np.float64)
    centers[0] = points[rng.integers(n)]
    diff = np.empty_like(points)
    near = np.empty(n, dtype=np.float64)
    dist_sq = np.square(np.subtract(points, centers[0], out=diff), out=diff).sum(axis=1)
    for c in range(1, k):
        total = float(dist_sq.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            threshold = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(dist_sq, out=near), threshold)), n - 1)
        centers[c] = points[idx]
        np.square(np.subtract(points, centers[c], out=diff), out=diff).sum(axis=1, out=near)
        np.minimum(dist_sq, near, out=dist_sq)
    del diff, near, dist_sq  # the Lloyd buffers below take their place

    flat = points.ravel()
    point_sq = (points * points).sum(axis=1)[:, None]
    rows, offsets = np.arange(n), np.arange(d)
    sq = np.empty((n, k), dtype=np.float64)
    # the cross products and the centre-sum slots are never live together,
    # so they share one buffer and the loop holds two N x max(k, d) arrays
    work = np.empty(n * max(k, d), dtype=np.float64)
    cross = work[: n * k].reshape(n, k)
    slots = work[: n * d].view(np.int64).reshape(n, d)
    labels = None
    for _ in range(KMEANS_MAX_ITER):
        np.matmul(points, centers.T, out=cross)
        cross *= 2.0
        np.add(point_sq, (centers * centers).sum(axis=1), out=sq)
        sq -= cross
        np.maximum(sq, 0.0, out=sq)
        new_labels = np.argmin(sq, axis=1)
        assigned = sq[rows, new_labels]

        counts = np.bincount(new_labels, minlength=k)
        while (counts == 0).any():
            empty = int(np.argmax(counts == 0))
            movable = counts[new_labels] >= 2
            candidates = np.where(movable, assigned, -np.inf)
            mover = int(np.argmax(candidates))
            counts[new_labels[mover]] -= 1
            new_labels[mover] = empty
            counts[empty] += 1
            assigned[mover] = 0.0

        if objective_history is not None:
            objective_history.append(float(assigned.sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # slot of (row i, column j) is labels[i] * d + j
        np.multiply(labels[:, None], d, out=slots)
        slots += offsets
        sums = np.bincount(slots.ravel(), weights=flat, minlength=k * d)
        np.divide(sums.reshape(k, d), counts[:, None], out=centers)
    return labels


def global_spectral_clustering(g: Graph, k: int, seed: int) -> np.ndarray:
    """Spectral clustering of a graph: the reference (the whole graph) and
    each baseline client (its shard) call this one pipeline. Bottom-K
    eigenvectors of the sparse normalized Laplacian, then k-means on the
    node rows, both seeded from ``seed`` by role; deterministic for fixed
    (g, k, seed), also for an edgeless shard, whose Laplacian is all zero
    and makes every node its own component. The baseline server takes the
    same two steps, and the same seeds, on its twin-class quotient instead
    of a Graph. Both run under one_blas_thread, as the protocols do, so
    the reference solve takes no second OpenBLAS thread either. No name
    here holds ``g`` past its Laplacian, nor the Laplacian past the solve,
    so a graph its caller passes as a temporary (a baseline client's
    shard) is dead by the eigensolve, and the Laplacian by the k-means.
    """
    with one_blas_thread():
        lap = normalized_laplacian(g)
        del g
        embedding = bottom_k_eigenvectors(lap, k, embedding_seed(seed))
        del lap
        return kmeans(embedding, k, kmeans_seed(seed))
