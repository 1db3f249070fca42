import dataclasses

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from fedspectral import linalg
from fedspectral.cli import _build_config, build_parser, main
from fedspectral.experiment import ExperimentConfig
from fedspectral.graph import load_edge_list, parse_arcs, serialize_edge_list
from fedspectral.metrics import write_labels_csv

from conftest import planted_graph


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    g = planted_graph([20, 20], 0.6, 0.03, seed=200)
    path = tmp_path_factory.mktemp("clidata") / "planted40.txt"
    path.write_text(serialize_edge_list(g))
    return path


def test_run_writes_csv(dataset_file, tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main(
        [
            "run",
            "--dataset", str(dataset_file),
            "--algo", "fedspectral_plus",
            "--clients", "2",
            "--clusters", "2",
            "--iters", "2",
            "--rounds", "3",
            "--overlap", "0.5",
            "--seed", "3",
            "--trials", "2",
            "--output", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("dataset,algo,")
    assert len(lines) == 3
    assert "median similarity" in capsys.readouterr().err


def test_run_stdout_and_config_file(dataset_file, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"dataset_path = {dataset_file}\n"
        "algo = global\n"
        "num_clusters = 2\n"
        "num_trials = 1\n"
    )
    code = main(["run", "--config", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("dataset,algo,")
    assert ",global," in out.splitlines()[1]


def test_run_missing_dataset_errors(capsys):
    code = main(["run", "--dataset", "missing.txt", "--clusters", "2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_unconverged_reference_errors(dataset_file, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(linalg, "eigsh", no_convergence)
    code = main(["run", "--dataset", str(dataset_file), "--algo", "global", "--clusters", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert "ARPACK did not converge" in lines[0]


@pytest.mark.parametrize("command", ["run", "verify"])
def test_id_outside_int64_errors(command, tmp_path, capsys):
    path = tmp_path / "huge_id.txt"
    path.write_text("0 1\n# c\n99999999999999999999 1\n")
    argv = {
        "run": ["run", "--dataset", str(path), "--clusters", "2"],
        "verify": ["verify", "--dataset", str(path), "--expect-nodes", "3", "--expect-edges", "2"],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "line 3" in lines[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command", ["verify", "run", "sweep", "partition-dump", "metric", "config"]
)
def test_non_utf8_input_errors(command, dataset_file, tmp_path, capsys):
    # one reader a case: verify_dataset, load_edge_list (run, sweep and
    # partition-dump), read_labels_csv (metric) and parse_config_file (config)
    bad = tmp_path / "latin1.txt"
    good_labels = tmp_path / "good.csv"
    write_labels_csv(good_labels, [0, 1])
    content = {
        "metric": b"node_id,label\n0,0\n\xff,1\n",
        "config": b"algo = global\n\r\n# caf\xe9\n",
    }.get(command, b"0 1\n\xff 2\n")
    bad.write_bytes(content)
    dataset = ["--dataset", str(bad)]
    argv = {
        "verify": ["verify", *dataset, "--expect-nodes", "2", "--expect-edges", "1"],
        "run": ["run", *dataset, "--clusters", "2"],
        "sweep": ["sweep", *dataset, "--clusters", "2", "--axis", "global_rounds",
                  "--values", "1"],
        "partition-dump": ["partition-dump", *dataset, "--outdir", str(tmp_path / "shards")],
        "metric": ["metric", str(good_labels), str(bad)],
        "config": ["run", "--config", str(bad), "--dataset", str(dataset_file)],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    line = 3 if command in ("metric", "config") else 2
    byte = "0xe9" if command == "config" else "0xff"
    assert lines == [f"error: {bad}: line {line}: not UTF-8 text (byte {byte})"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["verify", "run", "sweep", "partition-dump"])
def test_malformed_edge_line_error_names_the_file_once(command, tmp_path, capsys):
    # verify_dataset and load_edge_list (run, sweep and partition-dump)
    bad = tmp_path / "malformed.txt"
    bad.write_text("0 1\n# c\n2 3 4\n")
    dataset = ["--dataset", str(bad)]
    argv = {
        "verify": ["verify", *dataset, "--expect-nodes", "2", "--expect-edges", "1"],
        "run": ["run", *dataset, "--clusters", "2"],
        "sweep": ["sweep", *dataset, "--clusters", "2", "--axis", "global_rounds",
                  "--values", "1"],
        "partition-dump": ["partition-dump", *dataset, "--outdir", str(tmp_path / "shards")],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {bad}: line 3: expected two integers in the int64 range, got '2 3 4'"
    ]


# pytest's filterwarnings = error would raise these instead of showing them
@pytest.mark.filterwarnings("default::UserWarning")
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["run", "--algo", "global", "--iters", "9", "--clients", "3"],
            ["--clients is ignored by algo=global", "--iters is ignored by algo=global"],
        ),
        (
            ["run", "--algo", "fedspectral_plus", "--dump-client-labels", "clients"],
            ["--dump-client-labels is ignored by algo=fedspectral_plus"],
        ),
        (
            ["sweep", "--algo", "global", "--iters", "9", "--axis", "num_clusters",
             "--values", "2,3"],
            ["--iters is ignored by algo=global"],
        ),
    ],
)
def test_warnings_are_one_line_naming_the_flag(dataset_file, tmp_path, capsys, argv, expected):
    argv = argv + ["--dataset", str(dataset_file), "--clusters", "2", "--trials", "1",
                   "--output", str(tmp_path / "out.csv")]
    assert main([str(tmp_path / a) if a == "clients" else a for a in argv]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("warning:")] == [
        f"warning: {message}" for message in expected
    ]
    # Python's own format is 'file.py:LINE: UserWarning: ...' plus the
    # source line of the call, indented by two spaces
    assert not any("Warning" in line or ".py:" in line for line in err), err
    assert not any(line.startswith(" ") for line in err), err
    assert not (tmp_path / "clients").exists()


def test_sweep_outputs(dataset_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--dataset", str(dataset_file),
            "--clusters", "2",
            "--clients", "2",
            "--iters", "1",
            "--overlap", "0.5",
            "--trials", "1",
            "--axis", "global_rounds",
            "--values", "1,2",
            "--output", str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    assert (tmp_path / "sweep.csv.summary.csv").exists()


def test_sweep_summary_without_output(dataset_file, tmp_path, capsys):
    summary = tmp_path / "s.csv"
    argv = [
        "sweep",
        "--dataset", str(dataset_file),
        "--clusters", "2",
        "--clients", "2",
        "--trials", "1",
        "--axis", "global_rounds",
        "--values", "1,2",
    ]
    assert main(argv + ["--summary", str(summary)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("axis,axis_value,dataset,")
    assert len(captured.out.splitlines()) == 3
    assert f"wrote {summary}" in captured.err
    lines = summary.read_text().splitlines()
    assert lines[0] == "axis,axis_value,num_trials,median,q1,q3,min,max"
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "2"]
    assert main(argv) == 0
    assert "wrote" not in capsys.readouterr().err


def test_sweep_bad_axis(dataset_file, capsys):
    code = main(
        [
            "sweep",
            "--dataset", str(dataset_file),
            "--axis", "bogus",
            "--values", "1",
        ]
    )
    assert code == 1
    assert "unknown sweep axis" in capsys.readouterr().err


@pytest.mark.parametrize(
    "axis, values", [("iters", "abc"), ("overlap", "0.4,x"), ("algo", "global,nope")]
)
def test_sweep_bad_values(dataset_file, capsys, axis, values):
    code = main(
        [
            "sweep",
            "--dataset", str(dataset_file),
            "--axis", axis,
            "--values", values,
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert axis in err


def test_flags_set_every_config_field():
    args = build_parser().parse_args(
        [
            "run",
            "--dataset", "data/email-Eu-core.txt",
            "--algo", "fedspectral",
            "--clients", "4",
            "--clusters", "42",
            "--iters", "3",
            "--rounds", "7",
            "--overlap", "0.25",
            "--seed", "11",
            "--trials", "9",
            "--normalize-rows",
            "--output", "out/records.csv",
        ]
    )
    cfg = _build_config(args)
    assert cfg == ExperimentConfig(
        dataset_path="data/email-Eu-core.txt",
        algo="fedspectral",
        num_clients=4,
        num_clusters=42,
        iters=3,
        global_rounds=7,
        overlap=0.25,
        master_seed=11,
        num_trials=9,
        normalize_rows=True,
        output_path="out/records.csv",
    )
    default = ExperimentConfig(dataset_path="")
    for field in dataclasses.fields(ExperimentConfig):
        assert getattr(cfg, field.name) != getattr(default, field.name)


def test_metric_subcommand(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_labels_csv(a, [1, 1, 1, 1])
    write_labels_csv(b, [0, 1, 2, 3])
    code = main(["metric", str(a), str(b)])
    assert code == 0
    assert "cluster_similarity = 0.250000" in capsys.readouterr().out


def test_metric_id_mismatch(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_labels_csv(a, [0, 1], node_ids=[0, 1])
    write_labels_csv(b, [0, 1], node_ids=[5, 6])
    assert main(["metric", str(a), str(b)]) == 1
    assert "different node id" in capsys.readouterr().err


def test_metric_repeated_node_id(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("node_id,label\n0,1\n0,2\n1,1\n")
    b.write_text("node_id,label\n0,1\n0,1\n1,2\n")
    assert main(["metric", str(a), str(b)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert "node id 0 repeated" in lines[0]
    good = tmp_path / "good.csv"
    good.write_text("node_id,label\n0,1\n1,2\n")
    assert main(["metric", str(good), str(b)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {b}: line 3: node id 0 repeated")


def test_verify_subcommand(dataset_file, capsys):
    g = load_edge_list(dataset_file)
    code = main(
        [
            "verify",
            "--dataset", str(dataset_file),
            "--expect-nodes", str(g.num_nodes),
            "--expect-edges", str(g.num_edges),
        ]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    code = main(
        [
            "verify",
            "--dataset", str(dataset_file),
            "--expect-nodes", str(g.num_nodes + 1),
            "--expect-edges", str(g.num_edges),
        ]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_partition_dump_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["partition-dump", "--dataset", "d", "--outdir", "o"])
    default = ExperimentConfig(dataset_path="")
    assert (args.clients, args.overlap, args.seed) == (
        default.num_clients, default.overlap, default.master_seed
    )


def test_partition_dump(dataset_file, tmp_path, capsys):
    outdir = tmp_path / "shards"
    argv = ["partition-dump", "--dataset", str(dataset_file), "--clients", "3"]
    assert main(argv + ["--overlap", "7", "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "overlap" in err
    assert not outdir.exists()

    code = main(argv + ["--overlap", "0.5", "--seed", "4", "--outdir", str(outdir)])
    assert code == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["client_0.txt", "client_1.txt", "client_2.txt"]

    g = load_edge_list(dataset_file)
    union = set()
    for c, name in enumerate(files):
        text = (outdir / name).read_text()
        header = [f"# client_id: {c}", "# seed: 4", f"# nodes: {g.num_nodes}"]
        assert text.splitlines()[:3] == header
        union |= {tuple(e) for e in parse_arcs(text).tolist()}
    assert union == {tuple(e) for e in g.edges.tolist()}


def test_dump_client_labels(dataset_file, tmp_path):
    dump = tmp_path / "clients"
    code = main(
        [
            "run",
            "--dataset", str(dataset_file),
            "--algo", "fedspectral",
            "--clients", "2",
            "--clusters", "2",
            "--overlap", "0.5",
            "--trials", "1",
            "--output", str(tmp_path / "out.csv"),
            "--dump-client-labels", str(dump),
        ]
    )
    assert code == 0
    assert (dump / "trial_0" / "client_0_labels.csv").exists()
    assert (dump / "trial_0" / "client_1_labels.csv").exists()


def test_labels_out_and_json(dataset_file, tmp_path, capsys):
    labels_dir = tmp_path / "labels"
    code = main(
        [
            "run",
            "--dataset", str(dataset_file),
            "--algo", "global",
            "--clusters", "2",
            "--trials", "1",
            "--json",
            "--labels-out", str(labels_dir),
        ]
    )
    assert code == 0
    assert (labels_dir / "reference_labels.csv").exists()
    first_line = capsys.readouterr().out.splitlines()[0]
    import json

    assert json.loads(first_line)["similarity"] == 1.0
