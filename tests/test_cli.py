import argparse
import dataclasses
import json

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from fedspectral import experiment, linalg
from fedspectral.cli import _build_config, build_parser, main
from fedspectral.experiment import SWEEP_AXES, ExperimentConfig
from fedspectral.graph import load_edge_list, parse_arcs, serialize_edge_list
from fedspectral.metrics import write_labels_csv
from fedspectral.partition import distribute_edges
from fedspectral.seeding import partition_seed, trial_seed

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


def test_run_writes_records_to_stdout(dataset_file, capsys):
    code = main(["run", "--dataset", str(dataset_file), "--algo", "global",
                 "--clusters", "2", "--trials", "1"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("dataset,algo,")
    assert out[1].startswith(f"{dataset_file},global,")


def test_config_flag_is_retired(dataset_file, tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(f"dataset_path = {dataset_file}\nnum_clusters = 2\n")
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config), "--trials", "1", "--output", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --config" in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == [config]


def test_run_missing_dataset_errors(capsys):
    code = main(["run", "--dataset", "missing.txt", "--clusters", "2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_without_a_dataset_errors(capsys):
    code = main(["run", "--clusters", "2"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no dataset given (use --dataset)\n"


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


@pytest.mark.parametrize(
    "flags",
    [
        ["--algo", "fedspectral_plus", "--clusters", "9"],
        ["--algo", "fedspectral", "--clusters", "9"],
        ["--axis", "num_clusters", "--values", "2,9"],
    ],
    ids=["fedspectral_plus", "fedspectral", "sweep"],
)
def test_more_clusters_than_nodes_errors_before_any_trial(tmp_path, monkeypatch, capsys, flags):
    path = tmp_path / "six_nodes.txt"
    path.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n")
    trials = []
    monkeypatch.setattr(experiment, "run_single_trial", lambda *a, **k: trials.append(a))
    code = main(["run", "--dataset", str(path), "--clients", "2", "--trials", "1", *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --clusters must be <= the node count 6, got 9"]
    assert trials == []


@pytest.mark.parametrize(
    "argv, line",
    [
        (["run", "--clusters", "0"], "error: --clusters must be >= 1, got 0"),
        (["run", "--iters", "0", "--algo", "fedspectral_plus"],
         "error: --iters must be >= 1, got 0"),
        (["run", "--overlap", "2"], "error: --overlap must be in (0, 1], got 2.0"),
        (["run", "--trials", "0"], "error: --trials must be >= 1, got 0"),
        # verify's --dataset is no config field: its line keeps its words
        (["verify", "--expect-nodes", "6", "--expect-edges", "7"],
         "error: dataset not found: missing.txt"),
    ],
    ids=["clusters", "iters", "overlap", "trials", "verify-missing"],
)
def test_error_line_names_the_flag(tmp_path, monkeypatch, capsys, argv, line):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(experiment.DATASET_ENV_VAR, raising=False)
    (tmp_path / "six.txt").write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n")
    dataset = "six.txt" if argv[0] == "run" else "missing.txt"
    assert main([argv[0], "--dataset", dataset, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


@pytest.mark.parametrize("command", ["run", "verify", "metric-id", "metric-label"])
def test_id_outside_int64_errors(command, tmp_path, capsys):
    path = tmp_path / "huge_id.txt"
    path.write_text({
        "metric-id": "node_id,label\n0,1\n99999999999999999999,1\n",
        "metric-label": "node_id,label\n0,1\n1,99999999999999999999\n",
    }.get(command, "0 1\n# c\n99999999999999999999 1\n"))
    good_labels = tmp_path / "good.csv"
    write_labels_csv(good_labels, [0, 1])
    argv = {
        "run": ["run", "--dataset", str(path), "--clusters", "2"],
        "verify": ["verify", "--dataset", str(path), "--expect-nodes", "3", "--expect-edges", "2"],
    }.get(command, ["metric", str(good_labels), str(path)])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: line 3: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["verify", "run", "sweep", "metric"])
def test_non_utf8_input_errors(command, tmp_path, capsys):
    # one reader a case: verify_dataset, load_edge_list (run and run
    # --axis) and read_labels_csv (metric)
    bad = tmp_path / "latin1.txt"
    good_labels = tmp_path / "good.csv"
    write_labels_csv(good_labels, [0, 1])
    content = b"node_id,label\n0,0\n\xff,1\n" if command == "metric" else b"0 1\n\xff 2\n"
    bad.write_bytes(content)
    dataset = ["--dataset", str(bad)]
    argv = {
        "verify": ["verify", *dataset, "--expect-nodes", "2", "--expect-edges", "1"],
        "run": ["run", *dataset, "--clusters", "2"],
        "sweep": ["run", *dataset, "--clusters", "2", "--axis", "global_rounds",
                  "--values", "1"],
        "metric": ["metric", str(good_labels), str(bad)],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    line = 3 if command == "metric" else 2
    assert lines == [f"error: {bad}: line {line}: not UTF-8 text (byte 0xff)"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["verify", "run", "sweep"])
def test_malformed_edge_line_error_names_the_file_once(command, tmp_path, capsys):
    # verify_dataset and load_edge_list (run and run --axis)
    bad = tmp_path / "malformed.txt"
    bad.write_text("0 1\n# c\n2 3 4\n")
    dataset = ["--dataset", str(bad)]
    argv = {
        "verify": ["verify", *dataset, "--expect-nodes", "2", "--expect-edges", "1"],
        "run": ["run", *dataset, "--clusters", "2"],
        "sweep": ["run", *dataset, "--clusters", "2", "--axis", "global_rounds",
                  "--values", "1"],
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
            ["run", "--algo", "fedspectral", "--rounds", "4"],
            ["--rounds is ignored by algo=fedspectral"],
        ),
        (
            ["run", "--algo", "global", "--iters", "9", "--axis", "num_clusters",
             "--values", "2,3"],
            ["--iters is ignored by algo=global"],
        ),
    ],
)
def test_warnings_are_one_line_naming_the_flag(dataset_file, tmp_path, capsys, argv, expected):
    argv = argv + ["--dataset", str(dataset_file), "--clusters", "2", "--trials", "1",
                   "--output", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("warning:")] == [
        f"warning: {message}" for message in expected
    ]
    # Python's own format is 'file.py:LINE: UserWarning: ...' plus the
    # source line of the call, indented by two spaces
    assert not any("Warning" in line or ".py:" in line for line in err), err
    assert not any(line.startswith(" ") for line in err), err


def test_sweep_outputs(dataset_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "run",
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
        "run",
        "--dataset", str(dataset_file),
        "--clusters", "2",
        "--clients", "2",
        "--trials", "1",
        "--axis", "global_rounds",
        "--values", "1,2",
    ]
    assert main(argv + ["--summary", str(summary)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("dataset,algo,")
    assert len(captured.out.splitlines()) == 3
    assert f"wrote {summary}" in captured.err
    lines = summary.read_text().splitlines()
    assert lines[0] == "axis,axis_value,num_trials,median,q1,q3,min,max"
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "2"]
    assert main(argv) == 0
    assert "wrote" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--axis", "bogus", "--values", "1"], "unknown sweep axis 'bogus'"),
        (["--axis", "iters"], "--axis and --values go together"),
        (["--values", "1,2"], "--axis and --values go together"),
        (["--summary", "summary.csv"], "--summary needs --axis"),
        (["--axis", "iters", "--values", "1", "--labels-out", "labels"],
         "--labels-out does not take --axis"),
    ],
    ids=["unknown", "axis-alone", "values-alone", "summary-alone", "labels-out"],
)
def test_run_bad_axis(dataset_file, tmp_path, monkeypatch, capsys, flags, message):
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--dataset", str(dataset_file), "--output", "out.csv", *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and message in lines[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, bad",
    [
        (["--output", "nodir/x.csv"], "--output nodir/x.csv"),
        (["--output", "adir"], "--output adir"),
        (["--axis", "iters", "--values", "1,2", "--output", "ok.csv", "--summary",
          "nodir/s.csv"], "--summary nodir/s.csv"),
        (["--axis", "iters", "--values", "1,2", "--summary", "adir"], "--summary adir"),
    ],
    ids=["output-in-missing-dir", "output-is-dir", "summary-in-missing-dir", "summary-is-dir"],
)
def test_bad_output_path_fails_before_any_trial(
    dataset_file, tmp_path, monkeypatch, capsys, flags, bad
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    argv = ["run", "--dataset", str(dataset_file), "--clusters", "2", "--clients", "2",
            "--trials", "3", *flags]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # no trial line, and nothing written
    assert captured.err.splitlines() == [
        f"error: {bad} must name a file in an existing directory"
    ]
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")] == ["adir"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--axis", "iters", "--values", "1,2", "--output", "out.csv", "--summary", "out.csv"],
         "--summary out.csv would overwrite --output"),
        (["--output", "six.txt"], "--output six.txt would overwrite the dataset"),
        (["--labels-out", "L", "--output", "L/reference_labels.csv"],
         "--output L/reference_labels.csv lies inside --labels-out L"),
    ],
    ids=["summary-is-output", "output-is-dataset", "output-in-labels-out"],
)
def test_output_may_not_overwrite_an_input_or_output(
    dataset_file, tmp_path, monkeypatch, capsys, flags, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "six.txt").write_bytes(dataset_file.read_bytes())
    (tmp_path / "out.csv").write_text("kept\n")
    (tmp_path / "L").mkdir()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    argv = ["run", "--dataset", "six.txt", "--clusters", "2", "--trials", "1", *flags]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert sorted(tmp_path.rglob("*")) == sorted([*before, tmp_path / "L"])
    assert {p: p.read_bytes() for p in before} == before


@pytest.mark.parametrize(
    "axis, values", [("iters", "abc"), ("overlap", "0.4,x"), ("algo", "global,nope")]
)
def test_run_bad_values(dataset_file, capsys, axis, values):
    code = main(
        [
            "run",
            "--dataset", str(dataset_file),
            "--axis", axis,
            "--values", values,
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert axis in err


# two values of each axis, none of them warning with the flags of the test below
AXIS_VALUES = {
    "iters": ("1", "3"),
    "global_rounds": ("1", "4"),
    "num_clusters": ("2", "3"),
    "overlap": ("0.5", "1.0"),
    "num_clients": ("2", "3"),
    "algo": ("fedspectral", "fedspectral_plus"),
}


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_run_over_an_axis_equals_one_run_per_value(axis, dataset_file, capsys):
    # num_clusters: each point is scored against its own reference
    def records(flags):
        argv = ["run", "--dataset", str(dataset_file), "--clusters", "2", "--clients", "2",
                "--seed", "5", "--trials", "2", "--json", *flags]
        assert main(argv) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        for row in rows:
            del row["wallclock_ms"]
        return rows

    first, second = AXIS_VALUES[axis]
    flag = build_parser().parse_args(["run"]).flags[axis]
    swept = records(["--axis", axis, "--values", f"{first},{second}"])
    assert len(swept) == 4
    assert swept == records([flag, first]) + records([flag, second])


def test_sweep_command_is_retired(dataset_file, tmp_path, capsys):
    argv = ["sweep", "--dataset", str(dataset_file), "--axis", "iters", "--values", "1",
            "--output", str(tmp_path / "out.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'sweep'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_settable_value_count():
    # every argument of every subcommand, help excluded, plus every
    # ExperimentConfig field: a new option or field must change these numbers
    (subcommands,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    counts = {
        name: sum(not isinstance(a, argparse._HelpAction) for a in command._actions)
        for name, command in subcommands.choices.items()
    }
    assert counts == {"run": 15, "metric": 2, "verify": 4}
    assert len(dataclasses.fields(ExperimentConfig)) == 9
    assert sum(counts.values()) == 21


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


def test_labels_out_holds_each_trials_shards(dataset_file, tmp_path, capsys):
    labels_dir = tmp_path / "labels"
    argv = ["run", "--dataset", str(dataset_file), "--clusters", "2", "--clients", "3",
            "--trials", "2", "--output", str(tmp_path / "out.csv"),
            "--labels-out", str(labels_dir)]
    assert main(argv + ["--overlap", "7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "overlap" in err
    assert not labels_dir.exists()

    assert main(argv + ["--overlap", "0.5", "--seed", "4"]) == 0
    g = load_edge_list(dataset_file)
    edges = {tuple(e) for e in g.edges.tolist()}
    for trial in range(2):
        shards = distribute_edges(g, 3, 0.5, partition_seed(trial_seed(4, trial)))
        files = sorted(p.name for p in (labels_dir / f"trial_{trial}").glob("*.txt"))
        assert files == ["client_0.txt", "client_1.txt", "client_2.txt"]
        union = set()
        for c, name in enumerate(files):
            text = (labels_dir / f"trial_{trial}" / name).read_text()
            header = [f"# client_id: {c}", "# seed: 4", f"# nodes: {g.num_nodes}"]
            assert text.splitlines()[:3] == header
            assert np.array_equal(parse_arcs(text), shards[c].edges)
            union |= {tuple(e) for e in parse_arcs(text).tolist()}
        assert union == edges


def test_partition_dump_command_is_retired(dataset_file, tmp_path, capsys):
    argv = ["partition-dump", "--dataset", str(dataset_file), "--outdir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'partition-dump'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_dump_client_labels(dataset_file, tmp_path, capsys):
    # --labels-out holds every labeling of the run, the baseline's clients'
    # too, and each trial's client shards
    labels_dir = tmp_path / "labels"
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
            "--labels-out", str(labels_dir),
        ]
    )
    assert code == 0
    assert sorted(p.relative_to(labels_dir).as_posix() for p in labels_dir.rglob("*")) == [
        "reference_labels.csv",
        "trial_0",
        "trial_0/client_0.txt",
        "trial_0/client_0_labels.csv",
        "trial_0/client_1.txt",
        "trial_0/client_1_labels.csv",
        "trial_0_labels.csv",
    ]
    capsys.readouterr()
    reference = str(labels_dir / "reference_labels.csv")
    assert main(["metric", reference, str(labels_dir / "trial_0/client_0_labels.csv")]) == 0
    assert capsys.readouterr().out.startswith("cluster_similarity = ")


def test_output_dir_must_be_new_or_empty(dataset_file, tmp_path, capsys):
    # a second, smaller run into the first one's directory would leave the
    # first run's extra files beside its own
    outdir = tmp_path / "out"
    outdir.mkdir()
    base = ["run", "--dataset", str(dataset_file), "--clusters", "2",
            "--labels-out", str(outdir)]
    assert main(base + ["--algo", "fedspectral", "--clients", "3", "--trials", "2"]) == 0
    written = {p: p.read_bytes() for p in outdir.rglob("*") if p.is_file()}
    # the reference, and per trial its labels, 3 client labelings and 3 shards
    assert len(written) == 1 + 2 * 7
    capsys.readouterr()

    assert main(base + ["--algo", "global", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --labels-out {outdir} is not empty; name a new or empty directory"
    ]
    assert {p: p.read_bytes() for p in outdir.rglob("*") if p.is_file()} == written


def test_dump_client_labels_flag_is_retired(dataset_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--dataset", str(dataset_file), "--dump-client-labels", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --dump-client-labels" in err
    assert list(tmp_path.iterdir()) == []


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
    assert json.loads(first_line)["similarity"] == 1.0
