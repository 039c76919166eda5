import csv
import json
import os
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import erset
from erset import blocking, cli, dataio, engine, metrics, similarity
from erset.cli import _apply_config_file, build_parser, main
from erset.gateway import OracleConfig, SimulatedOracle
from erset.model import Attribute, Record, SetConfig
from erset.synth import generate_dataset


@pytest.fixture
def dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    records, truth = generate_dataset(8, 3, seed=4)
    dataio.save_dataset(path, records, truth)
    return path


class TestDataio:
    def test_ingest_roundtrip(self, dataset_csv):
        ds = dataio.ingest(dataset_csv, truth_column="entity_id")
        assert len(ds.records) == 24
        assert set(ds.ground_truth) == set(ds.records)
        assert "entity_id" not in {
            a.name for a in next(iter(ds.records.values())).attributes
        }

    def test_ingest_errors(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("")
        with pytest.raises(dataio.EmptyFile):
            dataio.ingest(empty)
        noid = tmp_path / "n.csv"
        noid.write_text("name\nx\n")
        with pytest.raises(dataio.MissingHeader):
            dataio.ingest(noid)
        dup = tmp_path / "d.csv"
        dup.write_text("id,name\nr1,x\nr1,y\n")
        with pytest.raises(dataio.DuplicateId, match="line 3"):
            dataio.ingest(dup)

    def test_ingest_errors_name_the_file_line(self, tmp_path):
        """Blank lines are skipped but counted: the duplicate sits on line 4."""
        path = tmp_path / "b.csv"
        path.write_text("id,name\n\nr1,x\nr1,y\n")
        with pytest.raises(dataio.DuplicateId, match=r"line 4: duplicate id 'r1'$"):
            dataio.ingest(path)
        path.write_text("id,name\n\nr1,x\n\nr2,y\n")
        assert sorted(dataio.ingest(path).records) == ["r1", "r2"]

    def test_row_longer_than_header_is_extra_field(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("id,name,city\nr1,ann,oslo\nr3,bob,rome,EXTRA,MORE\n")
        with pytest.raises(dataio.ExtraField, match=r"line 3: 5 fields, header has 3$"):
            dataio.ingest(path)
        assert main(["block", "--input", str(path), "--measure", "jaccard"]) == 2
        assert f"data error: {path} line 3: 5 fields" in capsys.readouterr().err

    def test_short_row_without_id_or_truth_is_missing_field(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("id,name,entity\nr1,ann,e1\nr2,bob\n")
        with pytest.raises(dataio.MissingField, match=r"line 3: no entity value$"):
            dataio.ingest(path, truth_column="entity")
        # without a truth column the short row's missing fields are empty values
        assert dataio.ingest(path).records["r2"].attributes[1].value == ""
        path.write_text("name,id\nann,r1\nbob\n")
        with pytest.raises(dataio.MissingField, match=r"line 3: no id$"):
            dataio.ingest(path)

    def test_ingest_shares_one_attribute_per_column_value(self, tmp_path):
        """Records equal a per-row Record build, short rows and empty values
        included; a (column, value) repeated across rows is one object, and
        one value in two columns is two attributes, each with its name."""
        path = tmp_path / "v.csv"
        path.write_text(
            "id,name,city\n"
            "r1,oslo,oslo\n"
            "r2,ann,oslo\n"
            "r3,,bergen\n"
            "r4,oslo,\n"
            "r5,ann\n"
        )
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        expected = {
            row[0]: Record(
                row[0],
                tuple(
                    Attribute(name, row[i] if i < len(row) else "")
                    for i, name in ((1, "name"), (2, "city"))
                ),
            )
            for row in rows
        }
        records = dataio.ingest(path).records
        assert records == expected
        attrs = {rid: r.attributes for rid, r in records.items()}
        assert attrs["r1"][1] is attrs["r2"][1]  # city oslo
        assert attrs["r1"][0] is attrs["r4"][0]  # name oslo
        assert attrs["r2"][0] is attrs["r5"][0]  # name ann
        assert attrs["r4"][1] is attrs["r5"][1]  # empty, and missing from a short row
        assert attrs["r1"][0] is not attrs["r1"][1]  # oslo in two columns
        assert attrs["r1"][0] == Attribute("name", "oslo")
        assert attrs["r1"][1] == Attribute("city", "oslo")
        assert attrs["r3"][0] == Attribute("name", "")
        assert attrs["r4"][1] == Attribute("city", "")
        assert attrs["r3"][0] is not attrs["r4"][1]

    def test_header_naming_a_column_twice_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("id,name,name\nr1,ann,bob\n")
        with pytest.raises(dataio.DuplicateColumn, match=r"names column 'name' twice"):
            dataio.ingest(path)
        assert main(["block", "--input", str(path), "--measure", "jaccard"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and "'name'" in err

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        dataio.atomic_write(target, "hello")
        assert target.read_text() == "hello"
        assert list(tmp_path.iterdir()) == [target]

    def test_atomic_write_gives_a_new_file_the_umask_mode(self, tmp_path):
        """A new file gets 0o666 less the umask, as open(path, "w") gives."""
        target = tmp_path / "out.txt"
        umask = os.umask(0o022)
        try:
            dataio.atomic_write(target, "hello")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_atomic_write_keeps_an_existing_files_mode(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        target.chmod(0o640)
        umask = os.umask(0o022)
        try:
            dataio.atomic_write(target, "hello")
        finally:
            os.umask(umask)
        assert target.read_text() == "hello"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_ingest_skips_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfid,name\nr1,ann\n")
        ds = dataio.ingest(path)
        assert [(a.name, a.value) for a in ds.records["r1"].attributes] == [
            ("name", "ann")
        ]

    def test_labels_roundtrip(self, tmp_path):
        path = tmp_path / "labels.csv"
        dataio.save_labels(path, {"a": "1", "b": "2"}, "cluster_id")
        assert dataio.load_labels(path) == {"a": "1", "b": "2"}

    def test_load_labels_skips_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"\xef\xbb\xbfrecord_id,entity_id\nr1,e1\n")
        assert dataio.load_labels(path) == {"r1": "e1"}

    @pytest.mark.parametrize(
        "text, line",
        [
            ("record_id,name,entity_id\nr1,john,e1\nr2,mary,e1\n", 1),
            ("record_id\nr1\n", 1),
            ("record_id,cluster_id\nr1,a\n\nr2,b,c\n", 4),
            ("record_id,cluster_id\nr1,a\nr2,b\nr1,c\n", 4),
        ],
        ids=["three-column-header", "one-column-header", "three-field-row", "repeated-id"],
    )
    def test_bad_labels_file_is_data_error_naming_its_line(
        self, tmp_path, capsys, text, line
    ):
        """evaluate never scores a column other than the second one, and
        names the line of a repeated id."""
        path = tmp_path / "labels.csv"
        path.write_text(text)
        rc = main(["evaluate", "--partition", str(path), "--truth", str(path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"data error: {path}: line {line}: ")

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_of_other_than_one_character_is_config_error(
        self, dataset_csv, capsys, delimiter
    ):
        rc = main(["block", "--input", str(dataset_csv), "--delimiter", delimiter])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"config error: delimiter must be one character, not {delimiter!r}\n"

    def test_blocks_roundtrip(self, tmp_path):
        from erset.blocking import Block

        path = tmp_path / "blocks.csv"
        blocks = [Block("b0", ("r1", "r2")), Block("b1", ("r3",))]
        dataio.save_blocks(path, blocks)
        assert path.read_text() == "block_id,record_id\nb0,r1\nb0,r2\nb1,r3\n"

    def test_writers_quote_what_the_readers_split(self, tmp_path):
        from erset.blocking import Block
        from erset.model import Attribute, Record

        odd_id = "r,1"
        records = {
            odd_id: Record(
                odd_id,
                (
                    Attribute("name", "Smith, John"),
                    Attribute("city", 'the "old" town'),
                ),
            ),
            "r2": Record("r2", (Attribute("name", "Ann"), Attribute("city", "Springfield"))),
        }
        truth = {odd_id: "e,1", "r2": "e2"}
        data = tmp_path / "d.csv"
        dataio.save_dataset(data, records, truth)
        ds = dataio.ingest(data, truth_column="entity_id")
        values = {a.name: a.value for a in ds.records[odd_id].attributes}
        assert values == {"name": "Smith, John", "city": 'the "old" town'}
        assert ds.ground_truth == truth

        labels = tmp_path / "l.csv"
        dataio.save_labels(labels, truth, "cluster_id")
        assert dataio.load_labels(labels) == truth

        blocks = tmp_path / "b.csv"
        dataio.save_blocks(blocks, [Block("b,0", (odd_id, "r2"))])
        with open(blocks, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["block_id", "record_id"], ["b,0", odd_id], ["b,0", "r2"]]

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nset-size = 5\nbackend=oracle\n")
        assert dataio.load_config(path) == {"set-size": "5", "backend": "oracle"}
        bad = tmp_path / "bad.cfg"
        bad.write_text("just words\n")
        with pytest.raises(Exception):
            dataio.load_config(bad)


class TestCli:
    def test_synth_then_resolve_then_evaluate(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        part = tmp_path / "p.csv"
        report = tmp_path / "rep.json"
        truth_file = tmp_path / "t.csv"
        assert main(["synth", "--entities", "6", "--dupes", "3", "--out", str(data)]) == 0
        assert main(
            [
                "resolve",
                "--input", str(data),
                "--truth-column", "entity_id",
                "--backend", "oracle",
                "--partition-out", str(part),
                "--report-out", str(report),
            ]
        ) == 0
        out = json.loads(report.read_text())
        assert out["metrics"]["acc"] == 1.0
        ds = dataio.ingest(data, truth_column="entity_id")
        dataio.save_labels(truth_file, ds.ground_truth, "entity_id")
        capsys.readouterr()
        assert main(["evaluate", "--partition", str(part), "--truth", str(truth_file)]) == 0
        scores = json.loads(capsys.readouterr().out)
        assert scores["acc"] == scores["fp_measure"] == scores["nmi"] == scores["ari"] == 1.0

    def test_evaluate_identical_files(self, tmp_path, capsys):
        labels = tmp_path / "l.csv"
        dataio.save_labels(labels, {"a": "x", "b": "x", "c": "y"}, "cluster_id")
        assert main(["evaluate", "--partition", str(labels), "--truth", str(labels)]) == 0
        scores = json.loads(capsys.readouterr().out)
        assert scores["acc"] == 1.0 and scores["ari"] == 1.0

    def test_block_reports_quality(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "blocks.csv"
        rc = main(
            [
                "block",
                "--input", str(dataset_csv),
                "--truth-column", "entity_id",
                "--blocking", "filter",
                "--measure", "jaccard",
                "--b-t", "0.3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["blocks"] >= 1
        assert 0.0 <= report["pair_recall"] <= 1.0
        assert out.exists()

    def test_tune_prints_threshold(self, dataset_csv, capsys):
        rc = main(
            [
                "tune",
                "--input", str(dataset_csv),
                "--truth-column", "entity_id",
                "--measure", "jaccard",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best_threshold"] in [round(0.05 * i, 2) for i in range(1, 20)]

    def test_simulate_perfect_oracle(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        rc = main(
            [
                "simulate",
                "--input", str(dataset_csv),
                "--truth-column", "entity_id",
                "--error-rates", "0.0",
                "--seeds", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["mean_acc"] == 1.0
        assert out.read_text().count("\n") == 3  # header + 2 runs

    def test_simulate_builds_blocks_once(self, dataset_csv, tmp_path, monkeypatch):
        """Blocks depend on --seed and the blocking flags only: six runs
        share one blocking, and each row equals a run on its own blocks."""
        make_blocks = blocking.make_blocks
        methods = []

        def counting(method, *args, **kwargs):
            methods.append(method)
            return make_blocks(method, *args, **kwargs)

        monkeypatch.setattr(blocking, "make_blocks", counting)
        out = tmp_path / "sim.csv"
        argv = [
            "simulate",
            "--input", str(dataset_csv),
            "--truth-column", "entity_id",
            "--blocking", "lsh",
            "--error-rates", "0.0,0.1",
            "--seeds", "3",
            "--out", str(out),
        ]
        assert main(argv) == 0
        assert methods == ["lsh"]
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))

        args = build_parser().parse_args(argv)
        dataset = cli._load_dataset(args)
        index = cli._index(args, dataset)
        expected = []
        for rate in (0.0, 0.1):
            for seed in range(3):
                blocks = make_blocks(
                    "lsh", dataset.records, index.token_sets, index.embeddings,
                    cli._blocking_params(args),
                )
                backend = SimulatedOracle(
                    OracleConfig(dataset.ground_truth, rate, seed)
                )
                partition, ledger, report = cli._run_resolve(
                    args, dataset, index, blocks, backend, seed
                )
                labels = partition.as_labels()
                expected.append(
                    [str(rate), str(seed), str(ledger.api_calls),
                     str(report.guardrail.regenerations),
                     str(metrics.acc(labels, dataset.ground_truth))]
                )
        got = [
            [r["error_rate"], r["seed"], r["api_calls"], r["regenerations"], r["acc"]]
            for r in rows
        ]
        assert got == expected

    def test_simulate_builds_one_index(self, dataset_csv, monkeypatch, capsys):
        """Every (error rate, seed) run resolves over the index the command
        built first; the summary is the one each run building its own gave."""
        built = []

        class Counting(similarity.SimilarityIndex):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "SimilarityIndex", Counting)
        monkeypatch.setattr(engine, "SimilarityIndex", Counting)
        argv = [
            "simulate",
            "--input", str(dataset_csv),
            "--truth-column", "entity_id",
            "--blocking", "lsh",
            "--error-rates", "0.0,0.3",
            "--seeds", "2",
        ]
        assert main(argv) == 0
        assert len(built) == 1
        assert json.loads(capsys.readouterr().out) == {
            "mean_acc": 0.8645833333333334,
            "mean_api_calls": 3.0,
            "mean_fp_measure": 0.9264638293960842,
            "runs": 4,
        }

    def test_resolve_without_backend_is_config_error(self, dataset_csv, capsys):
        rc = main(["resolve", "--input", str(dataset_csv)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_refused_request_is_provider_error(self, dataset_csv, capsys, monkeypatch):
        """A 401 reply ends the run with exit 3 after one post and no sleep."""
        import requests

        posts = []

        class Unauthorized:
            status_code = 401

            def raise_for_status(self):
                raise requests.HTTPError("401 Unauthorized", response=self)

        def post(*args, **kwargs):
            posts.append(1)
            return Unauthorized()

        def sleep(seconds):
            raise AssertionError("a refused request is not retried")

        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr("erset.gateway.time.sleep", sleep)
        rc = main(["resolve", "--input", str(dataset_csv), "--backend", "http",
                   "--endpoint", "http://localhost:1/v1", "--model", "m"])
        assert rc == 3
        assert "provider error" in capsys.readouterr().err
        assert posts == [1]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--blocking", "lsh", "--lsh-bands", "0"],
            ["--blocking", "lsh", "--lsh-planes", "0"],
            ["--dim", "0"],
        ],
        ids=["lsh-bands", "lsh-planes", "dim"],
    )
    def test_zero_sized_setting_is_config_error(self, dataset_csv, capsys, flags):
        rc = main(["block", "--input", str(dataset_csv)] + flags)
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_more_lsh_bands_than_planes_is_config_error(self, dataset_csv, capsys):
        rc = main(
            ["block", "--input", str(dataset_csv), "--blocking", "lsh",
             "--lsh-planes", "4", "--lsh-bands", "8"]
        )
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["resolve", "simulate"])
    def test_b_t_bounds_the_sweep(self, dataset_csv, monkeypatch, command):
        """One --b-t sets both the blocking threshold and the sweep's
        bound."""
        configs = []

        class Recording(cli.Resolver):
            def __init__(self, *args, config=None, **kwargs):
                configs.append(config)
                super().__init__(*args, config=config, **kwargs)

        monkeypatch.setattr(cli, "Resolver", Recording)
        argv = [command, "--input", str(dataset_csv), "--truth-column",
                "entity_id", "--b-t", "0.9"]
        if command == "resolve":
            argv += ["--backend", "oracle"]
        assert main(argv) == 0
        assert [c.b_t for c in configs] == [0.9]

    @pytest.mark.parametrize("b_t", ["0", "1"])
    def test_b_t_outside_open_interval_is_config_error(
        self, dataset_csv, capsys, b_t
    ):
        with pytest.raises(ValueError, match="b_t"):
            SetConfig(b_t=float(b_t))
        argv = ["resolve", "--input", str(dataset_csv), "--truth-column",
                "entity_id", "--backend", "oracle", "--b-t", b_t]
        assert main(argv) == 1
        assert "config error: b_t must be in (0, 1)" in capsys.readouterr().err

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        rc = main(
            ["block", "--input", str(tmp_path / "nope.csv"), "--measure", "jaccard"]
        )
        assert rc == 2

    def test_label_row_without_cluster_id_is_data_error(self, tmp_path, capsys):
        labels = tmp_path / "l.csv"
        labels.write_text("record_id,cluster_id\nr0,x\nr1\n")
        rc = main(["evaluate", "--partition", str(labels), "--truth", str(labels)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"data error: {labels}: line 3: no cluster id" in err

    def test_short_row_without_truth_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "x.csv"
        data.write_text("id,name,entity\nr2,bob\n")
        rc = main(["resolve", "--input", str(data), "--truth-column", "entity"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"data error: {data} line 2: no entity value" in err

    def test_config_file_defaults_and_flag_override(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        main(["synth", "--entities", "4", "--dupes", "2", "--out", str(data)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {data}\ntruth-column = entity_id\nbackend = oracle\nseeds = 1\n"
            "set-size = 5\nb-t = 0.4\n"
        )
        capsys.readouterr()
        argv = ["--config", str(cfg), "simulate", "--seeds", "1"]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["runs"] == 1
        args = _apply_config_file(build_parser(), argv)
        assert type(args.set_size) is int and args.set_size == 5
        assert type(args.b_t) is float and args.b_t == 0.4

    def test_config_file_with_byte_order_mark(self, tmp_path, capsys):
        """A config file saved with a UTF-8 byte-order mark reads its first
        key as written, as the same file without the mark does."""
        data = tmp_path / "d.csv"
        main(["synth", "--entities", "4", "--dupes", "2", "--out", str(data)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b-t = 0.3\nbackend = oracle\n", encoding="utf-8-sig")
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
        capsys.readouterr()
        argv = ["--config", str(cfg), "resolve", "--input", str(data),
                "--truth-column", "entity_id"]
        assert main(argv) == 0
        assert "config error" not in capsys.readouterr().err
        assert _apply_config_file(build_parser(), argv).b_t == 0.3

    @pytest.mark.parametrize(
        "line", ["set-sise = 3", "batch-size = 2", "b-s = 0.8"]
    )
    def test_config_file_unknown_key_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"backend = oracle\n{line}\n")
        rc = main(["--config", str(cfg), "resolve", "--input", "x.csv"])
        assert rc == 1
        key = line.split()[0]
        assert f"config error: {cfg}: unknown key {key!r}" in capsys.readouterr().err

    def test_unknown_blocking_method_is_usage_error(self, dataset_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["block", "--input", str(dataset_csv), "--blocking", "canopy"])
        assert exc.value.code == 2
        assert "invalid choice: 'canopy'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, shown",
        [
            ("set-size = abc", "set-size = 'abc' is not a valid int"),
            ("b-t = high", "b-t = 'high' is not a valid float"),
            ("seed = 1.5", "seed = '1.5' is not a valid int"),
            ("backend = grpc", "backend = 'grpc' is not one of oracle, http"),
            ("measure = dice", "measure = 'dice' is not one of cosine, jaccard"),
            ("blocking = canopy", "blocking = 'canopy' is not one of filter, lsh, none"),
        ],
        ids=["set-size", "b-t", "seed", "backend", "measure", "blocking"],
    )
    def test_config_file_unparseable_value_is_config_error(
        self, tmp_path, capsys, line, shown
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"backend = oracle\n{line}\n")
        rc = main(["--config", str(cfg), "resolve", "--input", "x.csv"])
        assert rc == 1
        assert f"config error: {cfg}: {shown}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--set-size", "1", "--set-diversity", "1"],
            ["--k-candidates", "0"],
            ["--k-candidates", "-1"],
        ],
        ids=["set-size-1", "k-candidates-0", "k-candidates-negative"],
    )
    def test_setting_that_resolves_nothing_is_config_error(
        self, dataset_csv, capsys, flags
    ):
        rc = main(
            ["resolve", "--input", str(dataset_csv), "--truth-column", "entity_id",
             "--blocking", "filter", "--measure", "jaccard", "--backend", "oracle"]
            + flags
        )
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command", ["resolve", "simulate"])
    def test_parallelism_below_one_is_config_error(
        self, dataset_csv, capsys, command, value
    ):
        argv = [command, "--input", str(dataset_csv), "--truth-column", "entity_id",
                "--parallelism", value]
        if command == "resolve":
            argv += ["--backend", "oracle"]
        assert main(argv) == 1
        assert "config error: parallelism must be >= 1" in capsys.readouterr().err

    def test_requests_per_minute_below_one_is_config_error(
        self, dataset_csv, capsys, monkeypatch
    ):
        import requests

        def post(*args, **kwargs):
            raise AssertionError("no request is made")

        monkeypatch.setattr(requests, "post", post)
        rc = main(["resolve", "--input", str(dataset_csv), "--backend", "http",
                   "--endpoint", "http://x", "--model", "m",
                   "--requests-per-minute", "0"])
        assert rc == 1
        assert "config error: requests_per_minute must be >= 1" in capsys.readouterr().err

    def test_determinism_of_partition_file(self, dataset_csv, tmp_path):
        parts = []
        for run in range(2):
            part = tmp_path / f"p{run}.csv"
            assert main(
                [
                    "resolve",
                    "--input", str(dataset_csv),
                    "--truth-column", "entity_id",
                    "--backend", "oracle",
                    "--error-rate", "0.3",
                    "--seed", "5",
                    "--parallelism", "4",
                    "--partition-out", str(part),
                ]
            ) == 0
            parts.append(part.read_bytes())
        assert parts[0] == parts[1]


class TestEmbeddingsFile:
    """An embeddings file that does not match the dataset: r1 and r2 are one
    entity, r3 another."""

    ROWS = {"r1": "1.0,0.0", "r2": "1.0,0.1", "r3": "0.0,1.0"}

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,name,entity\nr1,ann,e1\nr2,ann,e1\nr3,bob,e2\n")
        return path

    def _embeddings(self, tmp_path, name, extra=()):
        path = tmp_path / name
        rows = [f"{rid},{values}" for rid, values in self.ROWS.items()]
        path.write_text("\n".join(["id,d0,d1", *rows, *extra]) + "\n")
        return path

    def _run(self, data, embeddings, tmp_path, command="resolve"):
        part = tmp_path / f"{embeddings.stem}.part.csv"
        args = [command, "--input", str(data), "--truth-column", "entity",
                "--blocking", "lsh", "--embeddings", str(embeddings)]
        if command == "resolve":
            args += ["--backend", "oracle", "--partition-out", str(part)]
        return main(args), part

    def test_id_without_a_record_is_dropped(self, data, tmp_path, capsys):
        exact = self._embeddings(tmp_path, "exact.csv")
        extra = self._embeddings(tmp_path, "extra.csv", ["zz,1.0,0.05"])
        rc, want = self._run(data, exact, tmp_path)
        assert rc == 0
        rc, got = self._run(data, extra, tmp_path)
        assert rc == 0
        assert got.read_bytes() == want.read_bytes()
        assert dataio.load_labels(got)["r1"] == dataio.load_labels(got)["r2"]
        capsys.readouterr()
        reports = []
        for embeddings in (exact, extra):
            assert self._run(data, embeddings, tmp_path, "block")[0] == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[1] == reports[0]
        assert reports[0]["pair_recall"] == 1.0

    def test_rows_wider_than_the_header_are_data_error(self, data, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        rows = [f"{rid},{values},0.5" for rid, values in self.ROWS.items()]
        wide.write_text("\n".join(["id,d0,d1", *rows]) + "\n")
        rc, part = self._run(data, wide, tmp_path)
        assert rc == 2 and not part.exists()
        err = capsys.readouterr().err
        assert err == f"data error: {wide} line 2: id 'r1' has dim 3, header has 2\n"

    def test_repeated_id_is_data_error(self, data, tmp_path, capsys):
        repeated = self._embeddings(tmp_path, "repeated.csv", ["r1,0.0,1.0"])
        rc, part = self._run(data, repeated, tmp_path)
        assert rc == 2 and not part.exists()
        err = capsys.readouterr().err
        assert err == f"data error: {repeated} line 5: duplicate id 'r1'\n"

    @pytest.mark.parametrize("command", ["resolve", "block"])
    def test_embeddings_without_a_direction_are_data_error(
        self, data, tmp_path, capsys, command
    ):
        """A header without dimensions, or a row of zeros, names its file
        line, whatever the command (both once failed only in the cosine)."""
        flat = tmp_path / "flat.csv"
        flat.write_text("id\nr1\nr2\nr3\n")
        zero = self._embeddings(tmp_path, "zero.csv")
        zero.write_text(zero.read_text().replace("r3,0.0,1.0", "r3,0.0,-0.0"))
        for path, message in (
            (flat, "line 1: header has no dimension columns"),
            (zero, "line 4: zero vector for id 'r3'"),
        ):
            rc, part = self._run(data, path, tmp_path, command)
            assert rc == 2 and not part.exists()
            assert capsys.readouterr().err == f"data error: {path} {message}\n"


class TestReadme:
    def test_cli_walkthrough_runs(self, tmp_path, monkeypatch, capsys):
        """Every line of README's CLI block exits 0, run in a fresh directory:
        ``erset`` lines through ``main``, ``python -c`` lines with this
        interpreter. The live-endpoint lines (the ``export`` and the
        ``--backend http`` command) are skipped."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [
            shlex.split(line)
            for line in lines
            if line.strip()
            and not line.startswith(("#", "export "))
            and "--backend http" not in line
        ]
        src = str(Path(erset.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        monkeypatch.chdir(tmp_path)
        ran = []
        for argv in commands:
            if argv[0] == "erset":
                rc = main(argv[1:])
                ran.append(argv[1])
            else:
                assert argv[:2] == ["python", "-c"], argv
                rc = subprocess.run([sys.executable, *argv[1:]], env=env).returncode
                ran.append("python")
            assert rc == 0, (argv, capsys.readouterr().err)
        assert set(ran) == {
            "synth", "block", "tune", "resolve", "python", "evaluate", "simulate"
        }
