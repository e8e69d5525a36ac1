"""Tests for the console front-end."""

import pytest

from repro.cli import build_parser, main
from repro.io.csv_io import write_csv
from repro.io.datasets import address_example


@pytest.fixture()
def address_csv(tmp_path):
    path = tmp_path / "address.csv"
    write_csv(address_example(), path)
    return path


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["data.csv"])
        assert args.algorithm == "hyfd"
        assert args.target == "bcnf"
        assert args.closure == "optimized"
        assert not args.interactive

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["data.csv", "--algorithm", "magic"])

    def test_algorithm_choices_are_the_registry(self):
        from repro.cli import (
            FD_ALGORITHM_NAMES,
            build_apply_batch_parser,
            build_submit_parser,
        )
        from repro.discovery.base import FD_ALGORITHMS

        assert FD_ALGORITHM_NAMES == tuple(FD_ALGORITHMS)
        for parser in (
            build_parser(),
            build_apply_batch_parser(),
            build_submit_parser(),
        ):
            (action,) = [a for a in parser._actions if a.dest == "algorithm"]
            assert action.choices is FD_ALGORITHM_NAMES

    def test_multiple_files(self):
        args = build_parser().parse_args(["a.csv", "b.csv"])
        assert args.files == ["a.csv", "b.csv"]

    @pytest.mark.parametrize("flag", ["--kernel", "--storage"])
    @pytest.mark.parametrize(
        "command",
        [
            ["data.csv"],
            ["apply-batch", "data.csv", "--changes", "c.json"],
            ["watch", "data.csv", "--changes", "c.json"],
            ["serve"],
            ["submit"],
            ["verify"],
        ],
        ids=["normalize", "apply-batch", "watch", "serve", "submit", "verify"],
    )
    def test_selector_flags_are_gone(self, command, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, flag, "python"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestMain:
    def test_normalizes_and_prints_schema(self, address_csv, capsys):
        exit_code = main([str(address_csv), "--algorithm", "bruteforce"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Postcode" in out
        assert "minimal FDs" in out
        assert "values: 30 -> 27" in out

    def test_ddl_output(self, address_csv, tmp_path, capsys):
        ddl_path = tmp_path / "schema.sql"
        main(
            [
                str(address_csv),
                "--algorithm",
                "bruteforce",
                "--ddl",
                str(ddl_path),
            ]
        )
        ddl = ddl_path.read_text(encoding="utf-8")
        assert "CREATE TABLE" in ddl
        assert "PRIMARY KEY" in ddl

    def test_out_dir_writes_relations(self, address_csv, tmp_path, capsys):
        out_dir = tmp_path / "normalized"
        main(
            [
                str(address_csv),
                "--algorithm",
                "bruteforce",
                "--out-dir",
                str(out_dir),
            ]
        )
        written = sorted(p.name for p in out_dir.glob("*.csv"))
        assert len(written) == 2

    def test_3nf_target(self, address_csv, capsys):
        assert main([str(address_csv), "--algorithm", "bruteforce", "--target", "3nf"]) == 0

    def test_tane_and_closure_choice(self, address_csv, capsys):
        exit_code = main(
            [
                str(address_csv),
                "--algorithm",
                "tane",
                "--closure",
                "improved",
            ]
        )
        assert exit_code == 0

    def test_interactive_session(self, address_csv, capsys, monkeypatch):
        answers = iter(["0", "", ""])  # pick FD 0, default keys
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        exit_code = main(
            [str(address_csv), "--algorithm", "bruteforce", "--interactive"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Ranked decomposition candidates" in out

    def test_interactive_stop(self, address_csv, capsys, monkeypatch):
        answers = iter(["s", ""])  # stop the relation, pick default key
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        exit_code = main(
            [str(address_csv), "--algorithm", "bruteforce", "--interactive"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "values: 30 -> 30" in out


class TestExtendedOptions:
    def test_profile_mode(self, address_csv, capsys):
        assert main([str(address_csv), "--profile", "--algorithm", "bruteforce"]) == 0
        out = capsys.readouterr().out
        assert "minimal FDs: 12" in out

    def test_tree_output(self, address_csv, capsys):
        main([str(address_csv), "--algorithm", "bruteforce", "--tree"])
        out = capsys.readouterr().out
        assert "Foreign-key tree:" in out
        assert "`-- " in out

    def test_dot_output(self, address_csv, tmp_path, capsys):
        dot_path = tmp_path / "schema.dot"
        main([str(address_csv), "--algorithm", "bruteforce", "--dot", str(dot_path)])
        assert dot_path.read_text(encoding="utf-8").startswith("digraph")

    def test_json_export(self, address_csv, tmp_path, capsys):
        import json

        json_path = tmp_path / "result.json"
        main([str(address_csv), "--algorithm", "bruteforce", "--json", str(json_path)])
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["values_after"] == 27

    def test_save_and_load_fds(self, address_csv, tmp_path, capsys):
        fds_path = tmp_path / "fds.json"
        main(
            [
                str(address_csv),
                "--algorithm",
                "bruteforce",
                "--save-fds",
                str(fds_path),
            ]
        )
        assert fds_path.exists()
        capsys.readouterr()
        exit_code = main([str(address_csv), "--load-fds", str(fds_path)])
        assert exit_code == 0
        assert "values: 30 -> 27" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--load-fds", "{fds}"], "different columns"),
            (["{other}", "--load-fds", "{fds}"], "exactly one input file"),
            (["{other}", "--target", "4nf"], "exactly one input file"),
            (["{other}", "--save-fds", "{fds}"], "exactly one input file"),
        ],
        ids=["column-mismatch", "load-fds", "4nf", "save-fds"],
    )
    def test_load_fds_column_mismatch(self, tmp_path, capsys, flags, message):
        # Bad argument combinations are input errors (exit 2), never the
        # exit 1 that --check reserves for "does not conform".
        from repro.discovery.bruteforce import BruteForceFD
        from repro.io.datasets import planets_example
        from repro.io.serialization import save_fdset

        planets = planets_example()
        fds_path = tmp_path / "planet_fds.json"
        save_fdset(BruteForceFD().discover(planets), planets.columns, fds_path)
        address_csv = tmp_path / "address.csv"
        write_csv(address_example(), address_csv)
        other_csv = tmp_path / "planets.csv"
        write_csv(planets, other_csv)
        argv = [str(address_csv)] + [
            flag.format(fds=fds_path, other=other_csv) for flag in flags
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_4nf_target(self, tmp_path, capsys):
        from repro.io.csv_io import write_csv
        from repro.model.instance import RelationInstance
        from repro.model.schema import Relation

        rows = []
        books = {"Curie": ["B1", "B2"], "Noether": ["B1", "B3"]}
        students = {"Curie": ["s1", "s2"], "Noether": ["s2", "s3"]}
        for teacher in books:
            for book in books[teacher]:
                for student in students[teacher]:
                    rows.append((teacher, book, student))
        course = RelationInstance.from_rows(
            Relation("course", ("teacher", "book", "student")), rows
        )
        path = tmp_path / "course.csv"
        write_csv(course, path)
        assert main([str(path), "--target", "4nf", "--algorithm", "bruteforce"]) == 0
        out = capsys.readouterr().out
        assert "->>" in out


class TestCheckMode:
    def test_check_reports_violation(self, address_csv, capsys):
        exit_code = main([str(address_csv), "--check", "--algorithm", "bruteforce"])
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "VIOLATES BCNF" in out

    def test_check_passes_on_conform_relation(self, tmp_path, capsys):
        from repro.core.normalize import normalize
        from repro.io.csv_io import write_csv

        result = normalize(address_example(), algorithm="bruteforce")
        conform = next(iter(result.instances.values()))
        path = tmp_path / "conform.csv"
        write_csv(conform, path)
        exit_code = main([str(path), "--check", "--algorithm", "bruteforce"])
        assert exit_code == 0
        assert "conforms to BCNF" in capsys.readouterr().out


class TestVerifySubcommand:
    def test_verify_passes_on_clean_seeds(self, capsys):
        exit_code = main(["verify", "--seeds", "3", "--quiet"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "all passed" in out

    def test_verify_reports_progress_and_counts(self, capsys):
        exit_code = main(["verify", "--seeds", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "verified 2 seeds" in out

    def test_verify_repro_out_untouched_when_green(self, tmp_path, capsys):
        target = tmp_path / "repros.py"
        exit_code = main(
            ["verify", "--seeds", "2", "--quiet", "--repro-out", str(target)]
        )
        assert exit_code == 0
        assert not target.exists()

    def test_python_dash_m_entry(self):
        import subprocess
        import sys as _sys

        completed = subprocess.run(
            [_sys.executable, "-m", "repro", "verify", "--seeds", "1", "--quiet"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        assert completed.returncode == 0, completed.stderr
        assert "all passed" in completed.stdout
