"""Acceptance suite.

Part 1 is fully deterministic and needs no dataset. Part 2 reproduces the
published headline numbers and trend claims on the two real datasets at
desk scale; those tests skip (with fetch instructions) when the dataset
files are absent. Every criterion prints one PASS/FAIL line.
"""

import time

import numpy as np
import pytest

from fedspectral.errors import RankError
from fedspectral.experiment import ExperimentConfig, compute_reference, run_experiment, sweep
from fedspectral.fedplus import (
    ClientReply,
    PowerIterationClient,
    run_fedspectral_plus,
    server_round_loop,
)
from fedspectral.graph import normalized_laplacian
from fedspectral.linalg import (
    bottom_k_eigenvectors,
    global_spectral_clustering,
    reduced_qr,
    symmetric_eig_reference,
)
from fedspectral.metrics import cluster_similarity
from fedspectral.partition import distribute_edges, replication_count

from conftest import (
    gnp_graph,
    median_similarity,
    mismatch_pairs_loop,
    mismatch_pairs_matrix,
    planted_graph,
    principal_angles,
    require_dataset,
)


def check(name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{state}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------
# Part 1: deterministic, dataset-free criteria
# ---------------------------------------------------------------------------


def test_qr_roundtrip_and_orthonormality():
    rng = np.random.default_rng(101)
    worst_recon, worst_orth = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, k)) * float(10.0 ** rng.integers(-3, 4))
        q, r = reduced_qr(a)
        worst_recon = max(worst_recon, np.abs(a - q @ r).max() / np.abs(a).max())
        worst_orth = max(worst_orth, np.abs(q.T @ q - np.eye(k)).max())
        assert (np.diagonal(r) >= 0).all()
    check(
        "QR round-trip <= 1e-8 and orthonormality <= 1e-10 on 200 random matrices",
        worst_recon <= 1e-8 and worst_orth <= 1e-10,
        f"recon {worst_recon:.2e}, orth {worst_orth:.2e}",
    )


def test_eigensolver_residuals_small_matrices():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 65))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        vals, vecs = symmetric_eig_reference(a)
        scale = np.linalg.norm(a, ord=2)
        resid = np.linalg.norm(a @ vecs - vecs * vals, ord=2)
        worst = max(worst, resid / scale)
    check(
        "reference eigensolver residuals <= 1e-8 on random symmetric N <= 64",
        worst <= 1e-8,
        f"worst {worst:.2e}",
    )


# planted families keep a spectral gap at the K boundary, which is what
# makes "the bottom-K subspace" well defined for the comparison
_AGREEMENT_GRAPHS = [
    ([20, 20], 0.8, 0.06, 2),
    ([25, 25, 25], 0.75, 0.04, 3),
    ([18, 22, 35], 0.8, 0.04, 3),
    ([30, 30, 30, 30], 0.7, 0.03, 4),
    ([50, 50, 50, 50], 0.65, 0.02, 4),
]


def test_bottom_k_agrees_with_reference():
    worst = 0.0
    for idx, (sizes, p_in, p_out, k) in enumerate(_AGREEMENT_GRAPHS):
        g = planted_graph(sizes, p_in, p_out, seed=300 + idx)
        lap = normalized_laplacian(g)
        vals, vecs = symmetric_eig_reference(lap.toarray())
        ratio = (2.0 - vals[k]) / (2.0 - vals[k - 1])
        assert ratio < 0.97, "generator must leave a gap at the K boundary"
        basis = bottom_k_eigenvectors(lap, k, seed=idx)
        worst = max(worst, principal_angles(basis, vecs[:, :k]).max())
    check(
        "ARPACK bottom-K matches reference bottom-K within 1e-6 (N <= 200)",
        worst < 1e-6,
        f"worst principal angle {worst:.2e}",
    )


def test_single_client_equivalence():
    rng = np.random.default_rng(103)
    failures = []
    for case in range(20):
        blocks = int(rng.integers(2, 5))
        sizes = [int(rng.integers(8, 16)) for _ in range(blocks)]
        g = planted_graph(sizes, 0.85, 0.05, seed=400 + case)
        assert g.num_nodes <= 60
        shards = distribute_edges(g, 1, 1.0, seed=case)
        labels, _ = run_fedspectral_plus(
            shards, num_clusters=blocks, seed=500 + case, iters=1, global_rounds=200
        )
        expected = global_spectral_clustering(g, blocks, seed=500 + case)
        if not np.array_equal(labels, expected):
            failures.append(case)
    check(
        "single-client protocol (rounds=200) equals global clustering on 20 graphs",
        not failures,
        f"failing cases {failures}" if failures else "20/20 exact",
    )


def test_full_overlap_bitwise_reduction():
    g = planted_graph([20, 20], 0.8, 0.06, seed=600)
    per_round: dict[int, list[np.ndarray]] = {1: [], 3: []}
    for clients in (1, 3):
        shards = distribute_edges(g, clients, 1.0, seed=602)
        run_fedspectral_plus(
            shards,
            num_clusters=2,
            seed=601,
            iters=2,
            global_rounds=8,
            on_round=lambda t, previous, b: per_round[clients].append(b.copy()),
        )
    same = all(
        np.array_equal(a, b) for a, b in zip(per_round[1], per_round[3])
    )
    check(
        "full overlap with C=3 is bitwise equal to C=1 every round",
        same and len(per_round[3]) == 8,
    )


def test_metric_criteria():
    rng = np.random.default_rng(104)
    agree = True
    for _ in range(100):
        n = int(rng.integers(2, 301))
        a = rng.integers(0, int(rng.integers(1, 13)), n)
        b = rng.integers(0, int(rng.integers(1, 13)), n)
        expected = 1.0 - mismatch_pairs_matrix(a, b) / n**2
        agree &= abs(cluster_similarity(a, b) - expected) < 1e-15
    for _ in range(10):
        n = int(rng.integers(2, 40))
        a = rng.integers(0, 4, n)
        b = rng.integers(0, 4, n)
        expected = 1.0 - mismatch_pairs_loop(a, b) / n**2
        agree &= abs(cluster_similarity(a, b) - expected) < 1e-15
    check("metric equals the brute-force pair-counting oracle on 100+ pairs", agree)

    ident = all(
        cluster_similarity(lab, lab) == 1.0
        for lab in (rng.integers(0, 7, 50) for _ in range(10))
    )
    check("metric identity: similarity(x, x) = 1", ident)

    a = rng.integers(0, 5, 80)
    b = rng.integers(0, 6, 80)
    base = cluster_similarity(a, b)
    relabel = all(
        cluster_similarity(rng.permutation(5)[a], rng.permutation(6)[b]) == base
        for _ in range(10)
    )
    check("metric invariant under bijective relabeling of either argument", relabel)

    check(
        "metric asymmetry example scores exactly 0.25",
        cluster_similarity([0, 0, 0, 0], [0, 1, 2, 3]) == 0.25,
    )


def test_partitioner_criteria():
    rng = np.random.default_rng(105)
    ok_replication = ok_union = ok_determinism = True
    for case in range(50):
        n = int(rng.integers(5, 41))
        g = gnp_graph(n, 0.3, seed=700 + case)
        if g.num_edges == 0:
            continue
        clients = int(rng.integers(1, 9))
        overlap = float(rng.uniform(0.05, 1.0))
        r = replication_count(overlap, clients)
        shards = distribute_edges(g, clients, overlap, seed=case)
        counts: dict[tuple, int] = {tuple(e): 0 for e in g.edges.tolist()}
        for shard in shards:
            for e in shard.edges.tolist():
                counts[tuple(e)] += 1
        ok_replication &= all(c == r for c in counts.values())
        union = {tuple(e) for sh in shards for e in sh.edges.tolist()}
        ok_union &= union == set(counts)
        again = distribute_edges(g, clients, overlap, seed=case)
        ok_determinism &= all(
            np.array_equal(sa.edges, sb.edges) for sa, sb in zip(shards, again)
        )
    check("partitioner replicates every edge exactly r times (50 graphs)", ok_replication)
    check("partitioner union covers the global edge set (50 graphs)", ok_union)
    check("partitioner is deterministic for a fixed seed (50 graphs)", ok_determinism)


def test_privacy_boundary_structural():
    # the server loop must function given nothing but the round API; the
    # spy confirms the only payloads crossing it are N x K float64 arrays
    rng = np.random.default_rng(106)
    reply = rng.standard_normal((10, 2))

    class Stub:
        def __init__(self, client_id):
            self.client_id = client_id

        def run_round(self, message):
            assert isinstance(message.embedding, np.ndarray)
            return ClientReply(self.client_id, reply.copy())

    v0, _ = reduced_qr(rng.standard_normal((10, 2)))
    out = server_round_loop([Stub(0), Stub(1)], v0, 3)
    stub_ok = out.shape == (10, 2)

    g = planted_graph([10, 10], 0.8, 0.08, seed=800)
    shards = distribute_edges(g, 3, 0.5, seed=801)
    payloads = []

    class Spy:
        def __init__(self, inner):
            self._inner = inner
            self.client_id = inner.client_id

        def run_round(self, message):
            payloads.append(message.embedding)
            out = self._inner.run_round(message)
            payloads.append(out.embedding)
            return out

    transports = [Spy(PowerIterationClient(sh, 2)) for sh in shards]
    v0, _ = reduced_qr(rng.standard_normal((20, 2)))
    server_round_loop(transports, v0, 3)
    payload_ok = all(
        isinstance(p, np.ndarray) and p.shape == (20, 2) and p.dtype == np.float64
        for p in payloads
    )
    hidden = not [n for n in vars(PowerIterationClient(shards[0], 1)) if not n.startswith("_")]
    check(
        "privacy boundary: server round loop sees only N x K embeddings",
        stub_ok and payload_ok and hidden,
    )


def test_aggregate_rank_deficiency_is_an_error():
    rng = np.random.default_rng(107)
    x = rng.standard_normal((6, 2))

    class Fixed:
        def __init__(self, client_id, out):
            self.client_id = client_id
            self._out = out

        def run_round(self, message):
            return ClientReply(self.client_id, self._out.copy())

    v0, _ = reduced_qr(rng.standard_normal((6, 2)))
    try:
        server_round_loop([Fixed(0, x), Fixed(1, -x)], v0, 1)
        ok = False
    except RankError:
        ok = True
    check("rank-deficient round average surfaces as an error", ok)


# ---------------------------------------------------------------------------
# Part 2: dataset reproduction criteria (skip when files are absent)
# ---------------------------------------------------------------------------

FACEBOOK = {"K": 10, "C": 5, "overlap": 0.4, "iters": 6, "rounds": 20}
EMAIL = {"K": 10, "C": 5, "overlap": 0.4, "iters": 1, "rounds": 1}
HEADLINE_TRIALS = 5
ORDERING_TRIALS = 3
ORDERING_CLIENTS = (2, 5, 10)
TREND_BAND = 0.02


@pytest.fixture(scope="module")
def facebook(facebook_graph):
    path = require_dataset("ego-facebook")
    cfg = ExperimentConfig(dataset_path=str(path), num_clusters=FACEBOOK["K"])
    start = time.perf_counter()
    reference = compute_reference(facebook_graph, cfg)
    print(f"\nego-Facebook reference labeling: {time.perf_counter() - start:.1f}s")
    return {"graph": facebook_graph, "reference": reference, "path": str(path)}


@pytest.fixture(scope="module")
def email(email_graph):
    path = require_dataset("email-eu-core")
    cfg = ExperimentConfig(dataset_path=str(path), num_clusters=EMAIL["K"])
    start = time.perf_counter()
    reference = compute_reference(email_graph, cfg)
    print(f"\nemail-Eu-core reference labeling: {time.perf_counter() - start:.1f}s")
    return {
        "graph": email_graph,
        "reference": reference,
        "path": str(path),
    }


def _run(ds, algo, *, trials, seed=20240, **overrides):
    params = dict(
        dataset_path=ds["path"],
        algo=algo,
        num_clients=5,
        num_clusters=10,
        overlap=0.4,
        iters=1,
        global_rounds=1,
        master_seed=seed,
        num_trials=trials,
    )
    params.update(overrides)
    cfg = ExperimentConfig(**params)
    return run_experiment(cfg, graph=ds["graph"], reference=ds["reference"])


@pytest.mark.dataset
class TestDatasetCounts:
    def test_facebook_counts(self):
        path = require_dataset("ego-facebook")
        from fedspectral.experiment import verify_dataset

        report = verify_dataset(path, 4039, 88234, directed=False)
        check(
            "ego-Facebook parses to 4039 nodes / 88234 edges",
            report.ok,
            f"nodes {report.num_nodes}, edges {report.num_edges}",
        )

    def test_email_counts_and_dedup_oracle(self):
        path = require_dataset("email-eu-core")
        from fedspectral.experiment import verify_dataset

        report = verify_dataset(path, 1005, 25571, directed=True)
        # dedup oracle: an independent pass over the raw arcs bounds and
        # pins the undirected edge count after symmetrization
        pairs = set()
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = map(int, line.split())
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        check(
            "email-Eu-core parses to 1005 nodes / 25571 arcs; undirected count "
            "matches the dedup oracle and is <= 25571",
            report.ok
            and report.undirected_edges == len(pairs)
            and report.undirected_edges <= 25571,
            f"nodes {report.num_nodes}, arcs {report.num_edges}, "
            f"undirected {report.undirected_edges}",
        )


@pytest.mark.dataset
class TestHeadlines:
    def test_email_fedplus_headline(self, email):
        start = time.perf_counter()
        records = _run(
            email,
            "fedspectral_plus",
            trials=HEADLINE_TRIALS,
            iters=EMAIL["iters"],
            global_rounds=EMAIL["rounds"],
        )
        elapsed = time.perf_counter() - start
        med = median_similarity(records)
        check(
            "email-Eu-core FedSpectral+ (C=5, K=10, iters=1, rounds=1) median >= 0.99",
            med >= 0.99,
            f"median {med:.4f}, {elapsed:.0f}s (paper: 0.998)",
        )

    def test_facebook_fedplus_headline(self, facebook):
        start = time.perf_counter()
        records = _run(
            facebook,
            "fedspectral_plus",
            trials=HEADLINE_TRIALS,
            iters=FACEBOOK["iters"],
            global_rounds=FACEBOOK["rounds"],
        )
        elapsed = time.perf_counter() - start
        med = median_similarity(records)
        check(
            "ego-Facebook FedSpectral+ (C=5, K=10, iters=6, rounds=20) median >= 0.96",
            med >= 0.96,
            f"median {med:.4f}, {elapsed:.0f}s (paper: 0.9885)",
        )

    def test_facebook_baseline_headline(self, facebook):
        records = _run(facebook, "fedspectral", trials=HEADLINE_TRIALS)
        med = median_similarity(records)
        check(
            "ego-Facebook FedSpectral baseline median within 0.7763 +/- 0.06",
            abs(med - 0.7763) <= 0.06,
            f"median {med:.4f}",
        )

    def test_email_baseline_headline(self, email):
        records = _run(email, "fedspectral", trials=HEADLINE_TRIALS)
        med = median_similarity(records)
        check(
            "email-Eu-core FedSpectral baseline median within 0.8705 +/- 0.06",
            abs(med - 0.8705) <= 0.06,
            f"median {med:.4f}",
        )


def _ordering_medians(ds, fed_iters, fed_rounds):
    medians = {}
    for clients in ORDERING_CLIENTS:
        for algo, iters, rounds in (
            ("fedspectral", 1, 1),
            ("fedspectral_plus", fed_iters, fed_rounds),
        ):
            records = _run(
                ds,
                algo,
                trials=ORDERING_TRIALS,
                num_clients=clients,
                iters=iters,
                global_rounds=rounds,
            )
            medians[(algo, clients)] = median_similarity(records)
    return medians


@pytest.fixture(scope="module")
def facebook_ordering(facebook):
    return _ordering_medians(facebook, FACEBOOK["iters"], FACEBOOK["rounds"])


@pytest.fixture(scope="module")
def email_ordering(email):
    return _ordering_medians(email, EMAIL["iters"], EMAIL["rounds"])


@pytest.mark.dataset
class TestOrderingAndTrends:
    def test_fedplus_beats_baseline_everywhere(self, facebook_ordering, email_ordering):
        for name, medians in (("ego-Facebook", facebook_ordering), ("email-Eu-core", email_ordering)):
            strict = all(
                medians[("fedspectral_plus", c)] > medians[("fedspectral", c)]
                for c in ORDERING_CLIENTS
            )
            detail = ", ".join(
                f"C={c}: {medians[('fedspectral_plus', c)]:.3f} vs "
                f"{medians[('fedspectral', c)]:.3f}"
                for c in ORDERING_CLIENTS
            )
            check(
                f"{name}: FedSpectral+ median strictly exceeds the baseline at every C",
                strict,
                detail,
            )

    def test_similarity_drops_with_more_clients(self, facebook_ordering):
        for algo in ("fedspectral", "fedspectral_plus"):
            series = [facebook_ordering[(algo, c)] for c in ORDERING_CLIENTS]
            non_increasing = all(
                b <= a + TREND_BAND for a, b in zip(series, series[1:])
            )
            check(
                f"ego-Facebook {algo}: median non-increasing vs clients (band {TREND_BAND})",
                non_increasing,
                " -> ".join(f"{s:.3f}" for s in series),
            )

    def _trend_medians(self, ds, axis, values, **overrides):
        params = dict(
            dataset_path=ds["path"],
            algo="fedspectral_plus",
            num_clients=5,
            num_clusters=10,
            overlap=0.4,
            master_seed=20240,
            num_trials=ORDERING_TRIALS,
        )
        params.update(overrides)
        cfg = ExperimentConfig(**params)
        points = sweep(cfg, axis, values, graph=ds["graph"])
        return [median_similarity(records) for _, records in points]

    def test_rounds_trend_facebook(self, facebook):
        meds = self._trend_medians(
            facebook, "global_rounds", [1, 5, 10, 20], iters=10
        )
        ok = all(b >= a - TREND_BAND for a, b in zip(meds, meds[1:]))
        check(
            "ego-Facebook: median similarity non-decreasing vs global rounds",
            ok,
            " -> ".join(f"{m:.3f}" for m in meds),
        )

    def test_rounds_trend_email(self, email):
        meds = self._trend_medians(email, "global_rounds", [1, 5, 10, 20], iters=10)
        ok = all(b >= a - TREND_BAND for a, b in zip(meds, meds[1:]))
        check(
            "email-Eu-core: median similarity non-decreasing vs global rounds",
            ok,
            " -> ".join(f"{m:.3f}" for m in meds),
        )

    def test_overlap_trend_facebook(self, facebook):
        meds = self._trend_medians(
            facebook,
            "overlap",
            [0.2, 0.4, 0.6, 0.8],
            iters=FACEBOOK["iters"],
            global_rounds=FACEBOOK["rounds"],
        )
        ok = all(b >= a - TREND_BAND for a, b in zip(meds, meds[1:]))
        check(
            "ego-Facebook: median similarity non-decreasing vs overlap",
            ok,
            " -> ".join(f"{m:.3f}" for m in meds),
        )
