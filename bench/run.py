"""Benchmark for the fedspectral simulator.

Run from the repository root:

    python3 bench/run.py --workload fedplus_facebook --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured untraced; with
``--trace 1`` it prints the per-layer metrics of one traced set-up and one
traced trial. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# A traced run writes its spans here as JSON lines when it ends.
TRACE_DIR = ROOT / ".bench_trace"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
# Set-up is repeated and its median reported, so work moved into set-up shows
# without one slow repetition deciding the figure.
SETUP_REPEATS = 3
NUM_COMMUNITIES = 10
NUM_CLIENTS = 5
OVERLAP = 0.4


class Trial(NamedTuple):
    seconds: float
    score: float
    labels: object
    final_drift: float


@dataclass(frozen=True)
class Workload:
    num_nodes: int
    num_edges: int
    algo: str
    num_clusters: int
    iters: int = 1
    global_rounds: int = 1


# Why each workload exists is written down in bench/README.md.
WORKLOADS = {
    "fedplus_facebook": Workload(4039, 88234, "fedspectral_plus", 10, 6, 20),
    "fedplus_email_rounds": Workload(1005, 16064, "fedspectral_plus", 10, 1, 200),
    "baseline_email_k20": Workload(500, 8000, "fedspectral", 20),
}


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def import_package():
    """Import fedspectral from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fedspectral" / "__init__.py").is_file():
        raise SystemExit(f"error: no fedspectral package under {src}")
    sys.path.insert(0, str(src))
    import fedspectral

    if Path(fedspectral.__file__).resolve().parent != (src / "fedspectral").resolve():
        raise SystemExit(f"error: imported fedspectral from {fedspectral.__file__}")
    return fedspectral


def blas_threads(numpy):
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import glob

    libs_dir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment(numpy, nproc) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "blas_thread_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def label_digest(labels) -> str:
    import numpy as np

    return hashlib.sha256(np.asarray(labels, dtype="<i8").tobytes()).hexdigest()


def labels_problem(labels, n, k) -> str | None:
    """Why a labeling is not N integers with at most K distinct values."""
    import numpy as np

    labels = np.asarray(labels)
    if labels.shape != (n,):
        return f"labels have shape {labels.shape}, expected ({n},)"
    if not np.issubdtype(labels.dtype, np.integer):
        return f"labels have dtype {labels.dtype}, expected integers"
    distinct = len(np.unique(labels))
    if distinct > k:
        return f"{distinct} distinct labels, at most {k} allowed"
    return None


def boundary_problem(array, n, k) -> str | None:
    """Why a payload crossing the client boundary is not an N x K finite float64."""
    import numpy as np

    if not isinstance(array, np.ndarray):
        return f"payload is {type(array).__name__}, not an ndarray"
    if array.dtype != np.float64 or array.shape != (n, k):
        return f"payload is {array.dtype} {array.shape}, expected float64 ({n}, {k})"
    if not np.isfinite(array).all():
        return "payload has non-finite entries"
    return None


class Bench:
    def __init__(self, fedspectral, name, seed, trace_dir):
        from sbm import planted_partition

        self.fs = fedspectral
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.trace_dir = trace_dir
        w = self.workload
        self.cfg = fedspectral.experiment.ExperimentConfig(
            dataset_path=name,
            algo=w.algo,
            num_clients=NUM_CLIENTS,
            num_clusters=w.num_clusters,
            iters=w.iters,
            global_rounds=w.global_rounds,
            overlap=OVERLAP,
            master_seed=seed,
        )
        fedspectral.experiment.validate_config(self.cfg)
        self.generated = planted_partition(w.num_nodes, w.num_edges, NUM_COMMUNITIES, seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.boundary_violations: list[str] = []
        self.digest = None

    # -- program calls, looked up at call time so tracing patches apply --

    def setup(self):
        """Parse the SNAP text and compute the reference; returns (graph, ref)."""
        graph = self.fs.graph.parse_edge_list(self.generated.text)
        reference = self.fs.experiment.compute_reference(graph, self.cfg)
        return graph, reference

    def trial(self, graph, reference, index):
        """Run and check one trial; returns a Trial, or None if it failed."""
        seed = self.fs.seeding.trial_seed(self.seed, index)
        self.attempted += 1
        violations = len(self.boundary_violations)
        start = time.perf_counter()
        try:
            score, labels, diag, _ = self.fs.experiment.run_single_trial(
                graph, reference, self.cfg, seed
            )
        except Exception as exc:  # a failing trial is counted, not fatal
            self.failures.append(f"trial {index}: {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - start
        problems = [labels_problem(labels, graph.num_nodes, self.cfg.num_clusters)]
        if not (0.0 < score <= 1.0):
            problems.append(f"score {score!r} outside (0, 1]")
        problems += self.boundary_violations[violations:]
        digest = label_digest(labels)
        if index == 0:
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("trial 0 labels differ between passes of one run")
        problems = [p for p in problems if p is not None]
        if problems:
            self.failures.append(f"trial {index}: " + "; ".join(problems))
            return None
        drift = diag.round_drift[-1] if diag.round_drift else 0.0
        return Trial(seconds, score, labels, drift)

    def boundary_checks(self, patches):
        """Check every fedplus message and reply at the client transports."""
        n, k = self.workload.num_nodes, self.cfg.num_clusters

        def make(run_round):
            def checked(client, message):
                reply = run_round(client, message)
                for what, array in (("message", message.embedding), ("reply", reply.embedding)):
                    problem = boundary_problem(array, n, k)
                    if problem is not None:
                        self.boundary_violations.append(f"{what} {problem}")
                return reply

            return checked

        patches.add("fedspectral.fedplus:PowerIterationClient.run_round", make)

    def check_setup(self, graph, reference):
        w = self.workload
        if (graph.num_nodes, graph.num_edges) != (w.num_nodes, w.num_edges):
            raise SystemExit(
                f"error: parsed {graph.num_nodes} nodes / {graph.num_edges} edges, "
                f"generated {w.num_nodes} / {w.num_edges}"
            )
        problem = labels_problem(reference, w.num_nodes, self.cfg.num_clusters)
        if problem is not None:
            raise SystemExit(f"error: reference labeling: {problem}")

    def quality(self, reference, trial):
        sim = self.fs.metrics.cluster_similarity
        planted = self.generated.planted
        return {
            "similarity": trial.score,
            "ref_planted": sim(reference, planted),
            "fed_planted": sim(trial.labels, planted),
        }

    # -- the two kinds of run --

    def end_to_end(self, seconds):
        from tracing import Patches

        setups = []
        digests = set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            graph, reference = self.setup()
            setups.append(time.perf_counter() - start)
            self.check_setup(graph, reference)
            digests.add(label_digest(reference))
        if len(digests) != 1:
            raise SystemExit("error: reference differs between set-ups")

        # Peak memory and the boundary checks use their own pass, apart from
        # the timed trials, because both slow a trial down.
        patches = Patches()
        self.boundary_checks(patches)
        with patches:
            tracemalloc.start()
            try:
                first = self.trial(graph, reference, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Trials repeat while the next one, if it takes as long as the last,
        # still ends within ``seconds``; the first always runs.
        results = []
        start = time.perf_counter()
        index = 0
        while True:
            began = time.perf_counter()
            outcome = self.trial(graph, reference, index)
            index += 1
            if outcome is not None:
                results.append(outcome)
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
        if not results:
            raise SystemExit("error: every timed trial failed: " + self.failures[-1])
        times = [r.seconds for r in results]
        metrics = {
            "trial_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_mb": (peak / 2**20, "MiB"),
        }
        # Quality comes from trial 0 alone: the number of timed trials depends
        # on the machine's speed, and a median over them would too.
        for key, value in self.quality(reference, first or results[0]).items():
            metrics[key] = (value, "1")
        info = {
            "trial_samples": len(times),
            "trial_times": [round(t, 4) for t in times],
            "setup_times": [round(t, 4) for t in setups],
        }
        return metrics, info

    def traced(self):
        from layers import layer_metrics, traced_patches
        from tracing import Recorder, self_times

        recorder = Recorder()
        patches = traced_patches(self.fs, recorder)
        self.boundary_checks(patches)
        with patches:
            graph, reference = self.setup()
        self.check_setup(graph, reference)
        untraced = self.trial(graph, reference, 0)
        with patches:
            recorder.trial = 0
            traced = self.trial(graph, reference, 0)
        if untraced is None or traced is None:
            raise SystemExit("error: traced run failed: " + self.failures[-1])
        metrics = layer_metrics(recorder.spans, self.cfg)
        metrics["fedplus.final_drift"] = (traced.final_drift, "1")
        trial_self = self_times([s for s in recorder.spans if s.trial == 0])
        metrics["trace.trial_s"] = (traced.seconds, "s")
        metrics["trace.untraced_trial_s"] = (untraced.seconds, "s")
        metrics["trace.overhead_s"] = (traced.seconds - untraced.seconds, "s")
        metrics["trace.self_sum_s"] = (sum(trial_self.values()), "s")
        metrics["trace.spans"] = (len(recorder.spans), "count")
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            recorder.write_jsonl(self.trace_dir / f"spans-{self.name}-{self.seed}.jsonl")
        return metrics, {"absent_spans": patches.absent}


def report(bench, metrics, info) -> None:
    """Print one workload's lines; the last is the JSON result."""
    failed = len(bench.failures)
    info.update(
        workload=bench.name,
        seed=bench.seed,
        trial0_sha256=bench.digest,
        fail_rate=failed / max(1, bench.attempted),
        attempted=bench.attempted,
        failed=failed,
        boundary_violations=len(bench.boundary_violations),
    )
    print("run " + json.dumps(info, sort_keys=True))
    for problem in bench.failures[:20]:
        print(f"FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": max(1, bench.attempted),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    fedspectral = import_package()
    import numpy

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    print("env " + json.dumps(environment(numpy, nproc), sort_keys=True), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        bench = Bench(fedspectral, name, args.seed, TRACE_DIR)
        if args.trace:
            metrics, info = bench.traced()
        else:
            metrics, info = bench.end_to_end(args.seconds)
        report(bench, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
