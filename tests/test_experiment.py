import dataclasses
import json

import numpy as np
import pytest

from fedspectral.errors import ConfigError
from fedspectral.experiment import (
    ExperimentConfig,
    ResultRecord,
    apply_config_values,
    compute_reference,
    parse_config_file,
    parse_config_value,
    records_to_csv_text,
    reference_seed,
    resolve_dataset_path,
    run_experiment,
    run_single_trial,
    sweep,
    validate_config,
    verify_dataset,
    write_records_jsonl,
    write_sweep_csv,
    write_sweep_summary_csv,
)
from fedspectral.graph import load_edge_list, serialize_edge_list
from fedspectral.seeding import trial_seed

from conftest import planted_graph


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    g = planted_graph([30, 30, 30], 0.6, 0.02, seed=100)
    path = tmp_path_factory.mktemp("data") / "planted90.txt"
    path.write_text(serialize_edge_list(g, comments=["synthetic planted partition"]))
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
        with pytest.raises(ConfigError):
            validate_config(make_cfg(dataset_file, replication=9))

    def test_irrelevant_fields_warn(self, dataset_file):
        cfg = make_cfg(dataset_file, algo="global", iters=9)
        with pytest.warns(UserWarning) as caught:
            validate_config(cfg)
        assert any("iters is ignored" in str(w.message) for w in caught)
        cfg2 = make_cfg(dataset_file, algo="fedspectral", global_rounds=4)
        with pytest.warns(UserWarning) as caught:
            validate_config(cfg2)
        assert any("global_rounds is ignored" in str(w.message) for w in caught)

    def test_config_file_parse_and_override(self, dataset_file, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# sample config\n"
            f"dataset_path = {dataset_file}\n"
            "algo = fedspectral\n"
            "num_clients = 4\n"
            "overlap = 0.25\n"
            "normalize_rows = false\n"
        )
        values = parse_config_file(cfg_file)
        cfg = apply_config_values(ExperimentConfig(dataset_path=""), values)
        assert cfg.algo == "fedspectral"
        assert cfg.num_clients == 4
        assert cfg.overlap == 0.25
        overridden = apply_config_values(cfg, {"num_clients": 6})
        assert overridden.num_clients == 6

    def test_config_file_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(bad)
        bad.write_text("num_clients = many\n")
        with pytest.raises(ConfigError, match="integer"):
            parse_config_file(bad)
        bad.write_text("just a line\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(bad)

    def test_config_file_round_trip_every_field(self, tmp_path):
        expected = ExperimentConfig(
            dataset_path="data/email-Eu-core.txt",
            algo="fedspectral",
            num_clients=4,
            num_clusters=42,
            iters=3,
            global_rounds=7,
            overlap=0.25,
            replication=2,
            master_seed=11,
            num_trials=9,
            normalize_rows=True,
            output_path="out/records.csv",
        )
        default = ExperimentConfig(dataset_path="")
        for field in dataclasses.fields(ExperimentConfig):
            assert getattr(expected, field.name) != getattr(default, field.name)
        text = {"normalize_rows": "TRUE"}
        cfg_file = tmp_path / "every.cfg"
        cfg_file.write_text(
            "".join(
                f"{f.name} = {text.get(f.name, getattr(expected, f.name))}\n"
                for f in dataclasses.fields(ExperimentConfig)
            )
        )
        assert apply_config_values(default, parse_config_file(cfg_file)) == expected

        cfg_file.write_text(
            "replication = none\n"
            "output_path = none\n"
            "normalize_rows = no\n"
        )
        assert apply_config_values(expected, parse_config_file(cfg_file)) == (
            dataclasses.replace(
                expected,
                replication=None,
                output_path=None,
                normalize_rows=False,
            )
        )

    @pytest.mark.parametrize(
        "name, raw, value",
        [
            ("replication", "", None),
            ("replication", " None ", None),
            ("replication", "3", 3),
            ("output_path", "", None),
            ("dataset_path", "none", "none"),
            ("algo", " global ", "global"),
            ("normalize_rows", "Yes", True),
            ("normalize_rows", "FALSE", False),
            ("normalize_rows", "0", False),
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
            ("replication", "two", "replication must be an integer, got 'two'"),
            ("overlap", "x", "overlap must be a float, got 'x'"),
            (
                "normalize_rows",
                "maybe",
                "normalize_rows must be a boolean, got 'maybe'",
            ),
            ("bogus", "1", "unknown config key 'bogus'"),
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

    def test_records_carry_reproduction_data(self, dataset_file):
        cfg = make_cfg(dataset_file)
        records = run_experiment(cfg)
        assert [r.trial for r in records] == [0, 1]
        for r in records:
            assert r.trial_seed == trial_seed(cfg.master_seed, r.trial)
            assert 0.0 < r.similarity <= 1.0
            assert r.wallclock_ms > 0
            assert len(r.round_drift) == cfg.global_rounds

    def test_similarity_reproducible_from_trial_seed(self, dataset_file):
        cfg = make_cfg(
            dataset_file, algo="fedspectral", num_trials=2, iters=1, global_rounds=1
        )
        graph = load_edge_list(dataset_file)
        reference = compute_reference(graph, cfg)
        records = run_experiment(cfg, graph=graph, reference=reference)
        again, _, _, _ = run_single_trial(graph, reference, cfg, records[1].trial_seed)
        assert again == records[1].similarity

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
        replication=None,
        normalize_rows=False,
        master_seed=7,
        trial=3,
        trial_seed=18446744073709551615,
        similarity=0.9123456789012345,
        flags=(
            "degenerate shard 2: no edges",
            "bottom_k: sweep cap 1000 reached (drift 5.000e-04)",
        ),
        round_drift=(0.5, 1e-05),
        wallclock_ms=12.3456,
    )

    def test_csv_line(self):
        assert records_to_csv_text([self.RECORD]) == (
            "dataset,algo,num_clients,num_clusters,iters,global_rounds,"
            "overlap,replication,normalize_rows,master_seed,trial,trial_seed,"
            "similarity,flags,round_drift,wallclock_ms\n"
            "data/email-Eu-core.txt,fedspectral,5,42,1,1,0.30000000000000004,,"
            "false,7,3,18446744073709551615,0.9123456789012345,"
            "degenerate shard 2: no edges;"
            "bottom_k: sweep cap 1000 reached (drift 5.000e-04),"
            "0.5;1e-05,12.346\n"
        )

    def test_jsonl_line(self, tmp_path):
        out = tmp_path / "record.jsonl"
        write_records_jsonl([self.RECORD], out)
        assert out.read_text() == (
            '{"algo": "fedspectral", "dataset": "data/email-Eu-core.txt", '
            '"flags": ["degenerate shard 2: no edges", '
            '"bottom_k: sweep cap 1000 reached (drift 5.000e-04)"], '
            '"global_rounds": 1, "iters": 1, "master_seed": 7, '
            '"normalize_rows": false, "num_clients": 5, "num_clusters": 42, '
            '"overlap": 0.30000000000000004, "replication": null, '
            '"round_drift": [0.5, 1e-05], "similarity": 0.9123456789012345, '
            '"trial": 3, "trial_seed": 18446744073709551615, "wallclock_ms": 12.3456}\n'
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
        write_sweep_csv(points, "global_rounds", long_path)
        write_sweep_summary_csv(points, "global_rounds", summary_path)
        long_lines = long_path.read_text().splitlines()
        assert long_lines[0].startswith("axis,axis_value,")
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
        ran = []
        with pytest.raises(ConfigError, match="overlap must be in"):
            sweep(
                make_cfg(dataset_file, num_trials=1),
                "overlap",
                [0.5, 7.0],
                progress=ran.append,
            )
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
