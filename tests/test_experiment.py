import builtins
import dataclasses
import io
import json
import os
import warnings
import weakref

import numpy as np
import pytest

from fedspectral import baseline, experiment, fedplus, linalg
from fedspectral.baseline import fedspectral_server
from fedspectral.errors import ConfigError, ContractError
from fedspectral.experiment import (
    ALGORITHMS,
    ExperimentConfig,
    ResultRecord,
    compute_reference,
    parse_config_value,
    reference_seed,
    resolve_dataset_path,
    run_experiment,
    run_single_trial,
    sweep,
    validate_config,
    verify_dataset,
    write_records_csv,
    write_records_jsonl,
    write_sweep_summary_csv,
)
from fedspectral.graph import Graph, load_edge_list, serialize_edge_list
from fedspectral.metrics import read_labels_csv
from fedspectral.partition import distribute_edges
from fedspectral.seeding import partition_seed, trial_seed

from conftest import planted_graph, records_to_csv_text


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    g = planted_graph([30, 30, 30], 0.6, 0.02, seed=100)
    path = tmp_path_factory.mktemp("data") / "planted90.txt"
    path.write_text(serialize_edge_list(g, comments=["synthetic planted partition"]))
    return path


def ids_10_to_15(tmp_path):
    """Six nodes with ids 10..15, so row positions are not the dataset's ids."""
    path = tmp_path / "six_nodes.txt"
    path.write_text("10 11\n10 12\n11 12\n13 14\n13 15\n14 15\n12 13\n")
    return path


def make_cfg(dataset_file, **kwargs):
    base = dict(
        dataset_path=str(dataset_file),
        algo="fedspectral_plus",
        num_clients=3,
        num_clusters=3,
        iters=2,
        global_rounds=5,
        overlap=0.5,
        master_seed=7,
        num_trials=2,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation_errors(self, dataset_file):
        with pytest.raises(ConfigError):
            validate_config(make_cfg(dataset_file, algo="bogus"))
        with pytest.raises(ConfigError):
            validate_config(make_cfg(dataset_file, overlap=0.0))
        with pytest.raises(ConfigError):
            validate_config(make_cfg(dataset_file, num_trials=0))

    def test_irrelevant_fields_warn(self, dataset_file):
        cfg = make_cfg(dataset_file, algo="global", iters=9)
        with pytest.warns(UserWarning) as caught:
            validate_config(cfg)
        assert any("iters is ignored" in str(w.message) for w in caught)
        cfg2 = make_cfg(dataset_file, algo="fedspectral", global_rounds=4)
        with pytest.warns(UserWarning) as caught:
            validate_config(cfg2)
        assert any("global_rounds is ignored" in str(w.message) for w in caught)

    def test_output_path_is_not_a_field(self, dataset_file):
        # the output file is the CLI's --output, not part of an experiment
        with pytest.raises(TypeError, match="output_path"):
            make_cfg(dataset_file, output_path="out/records.csv")

    @pytest.mark.parametrize(
        "name, raw, value",
        [
            ("num_clients", "3", 3),
            ("dataset_path", "none", "none"),
            ("algo", " global ", "global"),
            ("overlap", "1", 1.0),
            ("iters", " 12 ", 12),
        ],
    )
    def test_parse_config_value_by_type(self, name, raw, value):
        parsed = parse_config_value(name, raw)
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize(
        "name, raw, message",
        [
            ("iters", "abc", "iters must be an integer, got 'abc'"),
            ("iters", "2.5", "iters must be an integer, got '2.5'"),
            ("num_trials", "two", "num_trials must be an integer, got 'two'"),
            ("overlap", "x", "overlap must be a float, got 'x'"),
            ("bogus", "1", "unknown config key 'bogus'"),
            # a key of older releases
            ("normalize_rows", "true", "unknown config key 'normalize_rows'"),
        ],
    )
    def test_parse_config_value_errors(self, name, raw, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_value(name, raw)
        assert str(excinfo.value) == message

    def test_dataset_env_dir(self, dataset_file, monkeypatch):
        monkeypatch.setenv("FEDSPECTRAL_DATA_DIR", str(dataset_file.parent))
        assert resolve_dataset_path(dataset_file.name) == dataset_file.parent / dataset_file.name
        monkeypatch.delenv("FEDSPECTRAL_DATA_DIR")
        with pytest.raises(ConfigError, match="dataset not found"):
            resolve_dataset_path("no-such-file.txt")


class TestRun:
    def test_global_algo_scores_one(self, dataset_file):
        cfg = ExperimentConfig(
            dataset_path=str(dataset_file), algo="global", num_clusters=3, num_trials=1
        )
        records = run_experiment(cfg)
        assert len(records) == 1
        assert records[0].similarity == 1.0
        assert records[0].round_drift == () and records[0].converged is None

    def test_records_carry_reproduction_data(self, dataset_file):
        cfg = make_cfg(dataset_file)
        records = run_experiment(cfg)
        assert [r.trial for r in records] == [0, 1]
        for r in records:
            assert r.trial_seed == trial_seed(cfg.master_seed, r.trial)
            assert 0.0 < r.similarity <= 1.0
            assert r.wallclock_ms > 0
            assert len(r.round_drift) == cfg.global_rounds

    def test_round_drift_matches_svd_over_200_rounds(self, dataset_file, monkeypatch):
        # the drift is the largest singular value of the residual of each
        # aggregated basis against the broadcast one; the server loop takes
        # it from the K x K Gram matrix, hands it to the trial's observer,
        # and stops at the first round where it is at most STOP_DRIFT
        svd_drift = []
        real = experiment.run_fedspectral_plus

        def spy(*args, on_round, **kwargs):
            def both(t, previous, basis, drift):
                residual = basis - previous @ (previous.T @ basis)
                svd_drift.append(np.linalg.svd(residual, compute_uv=False)[0])
                on_round(t, previous, basis, drift)

            return real(*args, on_round=both, **kwargs)

        monkeypatch.setattr(experiment, "run_fedspectral_plus", spy)
        cfg = make_cfg(dataset_file, iters=1, global_rounds=200, num_trials=1)
        graph = load_edge_list(dataset_file)
        _, _, record, _ = run_single_trial(
            graph, compute_reference(graph, cfg), cfg, trial_seed(cfg.master_seed, 0)
        )
        drift = np.array(record.round_drift)
        assert len(drift) == len(svd_drift) < 200
        assert (np.abs(drift - svd_drift) <= 1e-12 * np.array(svd_drift) + 1e-15).all()
        assert drift[-1] <= fedplus.STOP_DRIFT < drift[:-1].min()
        assert drift[-1] < 1e-6 < drift[0]
        assert record.converged is True

    def test_slowly_converging_trial_runs_to_its_cap_and_says_so(self, tmp_path):
        # on a 61-node cycle the basis is still moving after 40 rounds
        path = tmp_path / "cycle61.txt"
        path.write_text("".join(f"{i} {(i + 1) % 61}\n" for i in range(61)))
        cfg = ExperimentConfig(
            dataset_path=str(path), num_clients=1, num_clusters=2, global_rounds=40,
            overlap=1.0, num_trials=1,
        )
        (record,) = run_experiment(cfg)
        assert len(record.round_drift) == 40
        assert min(record.round_drift) > fedplus.STOP_DRIFT
        assert record.converged is False

    def test_paper_shaped_single_round_has_not_converged(self, dataset_file):
        (record,) = run_experiment(make_cfg(dataset_file, iters=1, global_rounds=1, num_trials=1))
        assert len(record.round_drift) == 1 and record.converged is False

    def test_shards_are_dead_when_the_rounds_start(self, dataset_file, monkeypatch):
        # the trial hands each shard to its client, so once every client is
        # built no shard from distribute_edges is left alive
        cfg = make_cfg(dataset_file, num_trials=1)
        graph = load_edge_list(dataset_file)
        reference = compute_reference(graph, cfg)
        seed = trial_seed(cfg.master_seed, 0)
        expected = run_single_trial(graph, reference, cfg, seed)
        refs = []
        real_distribute, real_loop = experiment.distribute_edges, fedplus.server_round_loop

        def distribute(*args, **kwargs):
            shards = real_distribute(*args, **kwargs)
            refs.extend(weakref.ref(shard) for shard in shards)
            return shards

        def loop(*args, **kwargs):
            assert len(refs) == cfg.num_clients
            assert [ref() for ref in refs] == [None] * cfg.num_clients
            return real_loop(*args, **kwargs)

        monkeypatch.setattr(experiment, "distribute_edges", distribute)
        monkeypatch.setattr(fedplus, "server_round_loop", loop)
        got = run_single_trial(graph, reference, cfg, seed)
        assert np.array_equal(got[1], expected[1])
        assert got[2].round_drift == expected[2].round_drift

    def test_a_lower_cap_records_a_prefix_of_the_drift(self, dataset_file):
        graph = load_edge_list(dataset_file)
        cfg = make_cfg(dataset_file, iters=1, global_rounds=200, num_trials=1)
        reference = compute_reference(graph, cfg)
        seed = trial_seed(cfg.master_seed, 0)
        _, labels, full, _ = run_single_trial(graph, reference, cfg, seed)
        stop = len(full.round_drift)
        for cap in (5, stop - 1, stop):
            capped = dataclasses.replace(cfg, global_rounds=cap)
            _, got, record, _ = run_single_trial(graph, reference, capped, seed)
            assert record.round_drift == full.round_drift[:cap]
            assert record.converged is (cap == stop)
        assert np.array_equal(got, labels)

    def test_similarity_reproducible_from_trial_seed(self, dataset_file):
        cfg = make_cfg(
            dataset_file, algo="fedspectral", num_trials=2, iters=1, global_rounds=1
        )
        graph = load_edge_list(dataset_file)
        reference = compute_reference(graph, cfg)
        records = run_experiment(cfg, graph=graph, reference=reference)
        again, _, record, _ = run_single_trial(
            graph, reference, cfg, records[1].trial_seed, trial=1
        )
        assert again == records[1].similarity
        assert dataclasses.replace(record, wallclock_ms=0.0) == dataclasses.replace(
            records[1], wallclock_ms=0.0
        )

    def test_csv_byte_identical_modulo_wallclock(self, dataset_file):
        cfg = make_cfg(dataset_file)
        first = records_to_csv_text(run_experiment(cfg))
        second = records_to_csv_text(run_experiment(cfg))

        def strip_wallclock(text):
            return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())

        assert strip_wallclock(first) == strip_wallclock(second)
        assert first.splitlines()[0].endswith("wallclock_ms")

    def test_jsonl_output(self, dataset_file, tmp_path):
        cfg = make_cfg(dataset_file, num_trials=1)
        records = run_experiment(cfg)
        out = tmp_path / "records.jsonl"
        write_records_jsonl(records, out)
        payload = json.loads(out.read_text().splitlines()[0])
        assert payload["algo"] == "fedspectral_plus"
        assert payload["similarity"] == records[0].similarity

    def test_records_flag_empty_shards_in_client_order(self, tmp_path):
        path = tmp_path / "six_nodes.txt"
        path.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n")
        cfg = ExperimentConfig(
            dataset_path=str(path),
            algo="fedspectral",
            num_clients=10,
            num_clusters=2,
            overlap=0.1,
            num_trials=2,
        )
        graph = load_edge_list(path)
        for record in run_experiment(cfg, graph=graph):
            shards = distribute_edges(graph, 10, 0.1, partition_seed(record.trial_seed))
            empty = [sh.client_id for sh in shards if sh.num_edges == 0]
            assert len(empty) >= 3  # 7 edges, each on one of 10 clients
            assert record.flags == tuple(f"degenerate shard {c}: no edges" for c in empty)

    def test_baseline_trial_returns_its_client_labelings(self, dataset_file):
        cfg = make_cfg(dataset_file, algo="fedspectral", iters=1, global_rounds=1)
        graph = load_edge_list(dataset_file)
        seed = trial_seed(cfg.master_seed, 1)
        _, labels, _, client_labelings = run_single_trial(
            graph, compute_reference(graph, cfg), cfg, seed, trial=1
        )
        shards = distribute_edges(graph, cfg.num_clients, cfg.overlap, partition_seed(seed))
        expected_labels, expected = fedspectral_server(shards, cfg.num_clusters, seed)
        assert np.array_equal(labels, expected_labels)
        assert len(client_labelings) == len(expected) == cfg.num_clients
        for got, want in zip(client_labelings, expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("algo", ["global", "fedspectral_plus"])
    def test_other_trials_return_no_client_labelings(self, dataset_file, algo):
        cfg = make_cfg(dataset_file, algo=algo)
        graph = load_edge_list(dataset_file)
        _, _, _, client_labelings = run_single_trial(
            graph, compute_reference(graph, cfg), cfg, trial_seed(cfg.master_seed, 0)
        )
        assert client_labelings == []

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_only_the_run_writes_files(self, dataset_file, tmp_path, monkeypatch, algo):
        # the run writes every label file around its trials, never inside one
        inside = []
        real_trial = experiment.run_single_trial

        def trial(*args, **kwargs):
            inside.append(True)
            try:
                return real_trial(*args, **kwargs)
            finally:
                inside.pop()

        def outside_trials(real):
            def call(*args, **kwargs):
                assert not inside, f"{real.__name__} called inside a trial"
                return real(*args, **kwargs)

            return call

        monkeypatch.setattr(experiment, "run_single_trial", trial)
        for module, name in (
            (experiment, "write_labels_csv"),
            (os, "makedirs"),
            (builtins, "open"),
        ):
            monkeypatch.setattr(module, name, outside_trials(getattr(module, name)))
        cfg = ExperimentConfig(
            dataset_path=str(dataset_file), algo=algo, num_clusters=3, num_trials=2
        )
        run_experiment(cfg, labels_dir=tmp_path)
        assert (tmp_path / "trial_1_labels.csv").exists()

    def test_client_label_dump(self, tmp_path):
        path = ids_10_to_15(tmp_path)
        cfg = ExperimentConfig(
            dataset_path=str(path),
            algo="fedspectral",
            num_clients=2,
            num_clusters=2,
            num_trials=2,
        )
        labels_dir = tmp_path / "labels"
        records = run_experiment(cfg, labels_dir=labels_dir)
        graph = load_edge_list(path)
        reference = compute_reference(graph, cfg)
        expected = {"reference_labels.csv": reference}
        for record in records:
            _, labels, _, client_labelings = run_single_trial(
                graph, reference, cfg, record.trial_seed, trial=record.trial
            )
            expected[f"trial_{record.trial}_labels.csv"] = labels
            for c, lab in enumerate(client_labelings):
                expected[f"trial_{record.trial}/client_{c}_labels.csv"] = lab
        written = [p.relative_to(labels_dir).as_posix() for p in labels_dir.rglob("*.csv")]
        assert sorted(written) == sorted(expected) and len(written) == 1 + 2 * 3
        for name, want in expected.items():
            ids, got = read_labels_csv(labels_dir / name)
            assert ids.tolist() == list(range(10, 16))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("algo", ["global", "fedspectral_plus"])
    def test_labels_dir_without_baseline_has_no_client_files(self, tmp_path, algo):
        # no client labelings; FedSpectral+ still writes its trial's shards
        cfg = ExperimentConfig(
            dataset_path=str(ids_10_to_15(tmp_path)), algo=algo, num_clusters=2, num_trials=1
        )
        labels_dir = tmp_path / "labels"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_experiment(cfg, labels_dir=labels_dir)
        shards = [f"trial_0/client_{c}.txt" for c in range(cfg.num_clients)]
        written = sorted(p.relative_to(labels_dir).as_posix() for p in labels_dir.rglob("*"))
        assert written == sorted(
            ["reference_labels.csv", "trial_0_labels.csv"]
            + (["trial_0", *shards] if algo == "fedspectral_plus" else [])
        )

    def test_shard_files_use_the_dataset_ids(self, tmp_path):
        # every client holds every edge, so each shard file lists the
        # dataset's seven edges in its own ids 10..15, like the label CSVs
        path = ids_10_to_15(tmp_path)
        cfg = ExperimentConfig(
            dataset_path=str(path), algo="fedspectral", num_clients=2, num_clusters=2,
            overlap=1.0, num_trials=1,
        )
        labels_dir = tmp_path / "labels"
        run_experiment(cfg, labels_dir=labels_dir)
        edges = sorted(tuple(map(int, line.split())) for line in path.read_text().splitlines())
        ids, _ = read_labels_csv(labels_dir / "trial_0_labels.csv")
        for c in range(2):
            lines = (labels_dir / f"trial_0/client_{c}.txt").read_text().splitlines()
            assert lines[:3] == [f"# client_id: {c}", "# seed: 0", "# nodes: 6"]
            assert [tuple(map(int, line.split())) for line in lines[3:]] == edges
        assert {u for edge in edges for u in edge} == set(ids.tolist())

    @pytest.mark.parametrize("algo", ["fedspectral", "fedspectral_plus"])
    def test_shard_files_are_dead_when_the_trial_starts(
        self, dataset_file, tmp_path, monkeypatch, algo
    ):
        # each trial's shard files are written from shards that die before
        # the trial partitions the graph again
        refs = []
        real_write, real_trial = experiment.write_shard, experiment.run_single_trial

        def write(shard, *args, **kwargs):
            refs.append(weakref.ref(shard))
            return real_write(shard, *args, **kwargs)

        def trial(*args, **kwargs):
            assert len(refs) == cfg.num_clients * (kwargs["trial"] + 1)
            assert [ref() for ref in refs] == [None] * len(refs)
            return real_trial(*args, **kwargs)

        monkeypatch.setattr(experiment, "write_shard", write)
        monkeypatch.setattr(experiment, "run_single_trial", trial)
        cfg = make_cfg(dataset_file, algo=algo, iters=1, global_rounds=1)
        run_experiment(cfg, labels_dir=tmp_path)
        assert len(refs) == 2 * cfg.num_clients

    def test_weighted_shard_fails_before_the_first_trial(self, dataset_file, tmp_path,
                                                         monkeypatch):
        # shard files have no weight column, so write_shard refuses them
        def trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiment, "run_single_trial", trial)
        g = load_edge_list(dataset_file)
        weighted = Graph(g.num_nodes, g.edges, np.full(g.num_edges, 2.0))
        cfg = make_cfg(dataset_file, num_trials=1)
        with pytest.raises(ContractError, match="unit weights"):
            run_experiment(cfg, graph=weighted, labels_dir=tmp_path)

    def test_labels_dir(self, dataset_file, tmp_path):
        cfg = make_cfg(dataset_file, num_trials=1)
        run_experiment(cfg, labels_dir=tmp_path)
        assert (tmp_path / "reference_labels.csv").exists()
        assert (tmp_path / "trial_0_labels.csv").exists()

    def test_reference_seed_rule_is_stable(self, dataset_file):
        assert reference_seed(dataset_file) == reference_seed(str(dataset_file))
        assert reference_seed("a/planted90.txt") == reference_seed("b/planted90.txt")
        assert reference_seed("x.txt") != reference_seed("y.txt")


class TestRecordFormat:
    """Exact bytes of one hand-built record, pinning every column's format."""

    RECORD = ResultRecord(
        dataset="data/email-Eu-core.txt",
        algo="fedspectral",
        num_clients=5,
        num_clusters=42,
        iters=1,
        global_rounds=1,
        overlap=0.1 + 0.2,
        master_seed=7,
        trial=3,
        trial_seed=18446744073709551615,
        similarity=0.9123456789012345,
        flags=(
            "degenerate shard 2: no edges",
            "bottom_k: sweep cap 1000 reached (drift 5.000e-04)",
        ),
        round_drift=(0.5, 1e-05),
        converged=False,
        wallclock_ms=12.3456,
    )

    def test_csv_line(self):
        assert records_to_csv_text([self.RECORD]) == (
            "dataset,algo,num_clients,num_clusters,iters,global_rounds,"
            "overlap,master_seed,trial,trial_seed,"
            "similarity,flags,round_drift,converged,wallclock_ms\n"
            "data/email-Eu-core.txt,fedspectral,5,42,1,1,0.30000000000000004,"
            "7,3,18446744073709551615,0.9123456789012345,"
            "degenerate shard 2: no edges;"
            "bottom_k: sweep cap 1000 reached (drift 5.000e-04),"
            "0.5;1e-05,False,12.346\n"
        )

    def test_no_convergence_field_is_an_empty_csv_cell_and_a_json_null(self, tmp_path):
        record = dataclasses.replace(self.RECORD, converged=None)
        assert records_to_csv_text([record]).splitlines()[1].endswith(",0.5;1e-05,,12.346")
        out = tmp_path / "record.jsonl"
        write_records_jsonl([record], out)
        assert json.loads(out.read_text())["converged"] is None

    def test_jsonl_line(self, tmp_path):
        out = tmp_path / "record.jsonl"
        write_records_jsonl([self.RECORD], out)
        assert out.read_text() == (
            '{"algo": "fedspectral", "converged": false, '
            '"dataset": "data/email-Eu-core.txt", '
            '"flags": ["degenerate shard 2: no edges", '
            '"bottom_k: sweep cap 1000 reached (drift 5.000e-04)"], '
            '"global_rounds": 1, "iters": 1, "master_seed": 7, '
            '"num_clients": 5, "num_clusters": 42, '
            '"overlap": 0.30000000000000004, '
            '"round_drift": [0.5, 1e-05], "similarity": 0.9123456789012345, '
            '"trial": 3, "trial_seed": 18446744073709551615, "wallclock_ms": 12.3456}\n'
        )

    # Two sweep points: RECORD alone, then RECORD with a lower-scoring trial.
    SWEEP_POINTS = [
        (1, [RECORD]),
        (0.1 + 0.2, [RECORD, dataclasses.replace(RECORD, trial=4, similarity=0.25)]),
    ]

    def test_sweep_summary_lines(self):
        buf = io.StringIO()
        write_sweep_summary_csv(self.SWEEP_POINTS, "overlap", buf)
        assert buf.getvalue() == (
            "axis,axis_value,num_trials,median,q1,q3,min,max\n"
            "overlap,1,1,0.9123456789012345,0.9123456789012345,"
            "0.9123456789012345,0.9123456789012345,0.9123456789012345\n"
            "overlap,0.30000000000000004,2,0.5811728394506173,"
            "0.41558641972530863,0.7467592591759259,0.25,0.9123456789012345\n"
        )


class TestSweep:
    def test_axis_validation(self, dataset_file):
        cfg = make_cfg(dataset_file)
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            sweep(cfg, "bogus", [1, 2])
        with pytest.raises(ConfigError, match="at least one value"):
            sweep(cfg, "iters", [])

    def test_sweep_and_outputs(self, dataset_file, tmp_path):
        cfg = make_cfg(dataset_file, num_trials=1)
        points = sweep(cfg, "global_rounds", [1, 3])
        assert [value for value, _ in points] == [1, 3]
        assert all(len(records) == 1 for _, records in points)

        long_path = tmp_path / "sweep.csv"
        summary_path = tmp_path / "sweep_summary.csv"
        write_records_csv([r for _, records in points for r in records], long_path)
        write_sweep_summary_csv(points, "global_rounds", summary_path)
        long_lines = long_path.read_text().splitlines()
        assert long_lines[0].startswith("dataset,algo,")
        assert len(long_lines) == 3
        summary_lines = summary_path.read_text().splitlines()
        assert summary_lines[0].startswith("axis,axis_value,num_trials,median")
        assert len(summary_lines) == 3

    def test_algo_axis(self, dataset_file):
        import warnings

        cfg = make_cfg(dataset_file, num_trials=1, global_rounds=2)
        with warnings.catch_warnings():
            # the global point legitimately warns about federated-only fields
            warnings.simplefilter("ignore", UserWarning)
            points = sweep(cfg, "algo", ["global", "fedspectral_plus"])
        sims = {value: records[0].similarity for value, records in points}
        assert sims["global"] == 1.0
        assert 0.0 < sims["fedspectral_plus"] <= 1.0

    def test_one_warning_per_point(self, dataset_file):
        import warnings

        cfg = ExperimentConfig(
            dataset_path=str(dataset_file), algo="global", num_clients=3, num_trials=1
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = sweep(cfg, "num_clusters", [2, 3])
        assert len(points) == 2
        assert [str(w.message) for w in caught] == [
            "num_clients is ignored by algo=global"
        ] * 2

    def test_bad_value_fails_before_any_point_runs(self, dataset_file):
        for axis, values, error in [
            ("overlap", [0.5, 7.0], "overlap must be in"),
            # 91 clusters on the 90-node dataset: no reference labeling
            ("num_clusters", [2, 91], "got 91"),
        ]:
            ran = []
            with pytest.raises((ConfigError, ContractError), match=error):
                sweep(make_cfg(dataset_file, num_trials=1), axis, values, progress=ran.append)
            assert ran == []


class TestVerify:
    def test_pass_and_fail(self, dataset_file):
        g = load_edge_list(dataset_file)
        report = verify_dataset(dataset_file, g.num_nodes, g.num_edges)
        assert report.ok
        assert report.undirected_edges == g.num_edges
        bad = verify_dataset(dataset_file, g.num_nodes, g.num_edges + 1)
        assert not bad.ok

    def test_directed_counts_arcs(self, tmp_path):
        path = tmp_path / "arcs.txt"
        path.write_text("0 1\n1 0\n2 2\n")
        report = verify_dataset(path, 3, 3, directed=True)
        assert report.ok
        assert report.undirected_edges == 1
        # (0,1), (1,0) and (1,1) are three arcs; the repeated self-loop is one
        path.write_text("# c\n0 1\n1 0\n1 1\n1 1\n")
        report = verify_dataset(path, 2, 3, directed=True)
        assert report.ok
        assert report.undirected_edges == 1

    def test_truncated_file_fails_with_counts(self, dataset_file, tmp_path):
        g = load_edge_list(dataset_file)
        truncated = tmp_path / "trunc.txt"
        lines = dataset_file.read_text().splitlines()
        truncated.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        report = verify_dataset(truncated, g.num_nodes, g.num_edges)
        assert not report.ok
        assert report.num_edges < g.num_edges


def shaped_graph(num_nodes: int, num_edges: int, k: int, seed: int) -> Graph:
    """A graph of exactly ``num_edges`` random edges, three quarters of the
    drawn pairs inside one of k communities (node i is in i % k)."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, num_nodes, 2 * num_edges)
    v = rng.integers(0, num_nodes, 2 * num_edges)
    inside = rng.random(2 * num_edges) < 0.75
    v[inside] -= (v[inside] - u[inside]) % k
    v[v < 0] += k
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = (lo * num_nodes + hi)[lo < hi]
    _, first = np.unique(keys, return_index=True)
    keys = keys[np.sort(first)][:num_edges]
    assert len(keys) == num_edges
    return Graph.from_edges(num_nodes, np.stack(np.divmod(keys, num_nodes), axis=1))


class TestIndexWidth:
    """Every sparse matrix a trial builds has int32 indices and indptr at
    the benchmark shapes: the reference and client Laplacians and their
    component blocks, the FedSpectral+ multipliers, and the baseline's
    agreement matrix and quotient Laplacian."""

    @pytest.mark.parametrize(
        "num_nodes, num_edges, algo, k",
        [(4039, 88234, "fedspectral_plus", 10), (1005, 16064, "fedspectral_plus", 10),
         (500, 8000, "fedspectral", 20)],
    )
    def test_int32_indices_at_the_benchmark_shapes(
        self, monkeypatch, num_nodes, num_edges, algo, k
    ):
        built = []

        def spy(module, name, keep):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                out = real(*args, **kwargs)
                built.append((name, keep(args, out)))
                return out

            monkeypatch.setattr(module, name, wrapper)

        spy(linalg, "connected_components", lambda args, _: args[0])
        spy(linalg, "_bottom_of_component", lambda args, _: args[0])
        spy(fedplus, "shard_multiplier", lambda _, out: out)
        spy(baseline, "build_similarity_graph", lambda _, out: out.agreement)

        g = shaped_graph(num_nodes, num_edges, 10, num_nodes)
        cfg = ExperimentConfig(
            dataset_path="shape", algo=algo, num_clients=5, num_clusters=k,
            overlap=0.4, global_rounds=2,
        )
        run_single_trial(g, compute_reference(g, cfg), cfg, trial_seed(1, 0))
        names = {name for name, _ in built}
        expected = {"connected_components", "_bottom_of_component"}
        expected |= {"build_similarity_graph"} if algo == "fedspectral" else {"shard_multiplier"}
        assert names == expected
        for name, matrix in built:
            assert matrix.indices.dtype == matrix.indptr.dtype == np.int32, name
