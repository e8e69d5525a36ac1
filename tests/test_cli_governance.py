"""CLI-level tests for the governance surface: exit codes, deadlines,
checkpoint/resume, and CSV repair policies."""

import json
import re
import time

import pytest

from repro.cli import (
    EXIT_BUDGET_EXCEEDED,
    EXIT_CHECKPOINT_ERROR,
    EXIT_INPUT_ERROR,
    main,
)
from repro.datagen.random_tables import random_instance
from repro.io.csv_io import write_csv


@pytest.fixture()
def wide_csv(tmp_path):
    """A 20-column instance big enough to make a tight deadline bind."""
    instance = random_instance(7, 20, 400, domain_size=[3] * 20)
    path = tmp_path / "wide.csv"
    write_csv(instance, path)
    return str(path)


@pytest.fixture()
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(
        "a,b,c\n1,x,p\n2,x,q\n3,y,p\n1,x,p\n", encoding="utf-8"
    )
    return str(path)


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main([str(tmp_path / "absent.csv")])
        assert code == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_strict(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1\n", encoding="utf-8")
        assert main([str(path)]) == EXIT_INPUT_ERROR

    def test_malformed_csv_pad_succeeds(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1\n2,3\n", encoding="utf-8")
        assert main([str(path), "--csv-errors", "pad"]) == 0

    def test_bad_budget_is_input_error(self, small_csv):
        assert main([small_csv, "--deadline", "soon"]) == EXIT_INPUT_ERROR

    def test_breach_without_degrade_is_exit_3(self, wide_csv, capsys):
        code = main(
            [wide_csv, "--deadline", "50ms", "--no-degrade"]
        )
        assert code == EXIT_BUDGET_EXCEEDED
        assert "budget exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value", [("--sample-rows", "2"), ("--approx-error", "0.1")]
    )
    def test_sampling_flags_need_approximate(
        self, small_csv, capsys, flag, value
    ):
        assert main([small_csv, flag, value]) == EXIT_INPUT_ERROR
        assert "need --approximate" in capsys.readouterr().err

    def test_bad_checkpoint_is_exit_4(self, small_csv, tmp_path, capsys):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_text("{}", encoding="utf-8")
        code = main([small_csv, "--resume", str(bogus)])
        assert code == EXIT_CHECKPOINT_ERROR


class TestDeadlineAcceptance:
    """The issue's acceptance bar: a tight deadline on a wide instance
    returns a fidelity-tagged partial result instead of hanging."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_deadline_returns_degraded_result_in_time(self, wide_csv, capsys):
        deadline = 1.0
        started = time.monotonic()
        code = main([wide_csv, "--deadline", f"{deadline}s"])
        elapsed = time.monotonic() - started
        out = capsys.readouterr().out
        assert code == 0
        # The budget starts after CSV parsing and stages stop at their
        # next probe, so a small overshoot is expected (about 0.05 s on
        # a 2-vCPU host) — a hang or full run is not.
        assert elapsed < deadline * 2
        assert "fidelity" in out.lower()

    def test_generous_deadline_stays_exact(self, small_csv, capsys):
        assert main([small_csv, "--deadline", "60s"]) == 0
        assert "exact" in capsys.readouterr().out.lower()


class TestCheckpointFlow:
    def test_checkpoint_then_resume_round_trip(self, small_csv, tmp_path, capsys):
        # Resume replays discovery from the journal, so the wall-clock
        # "discovery N.NNs" field legitimately differs: compare the DDL
        # byte for byte and the report with its seconds masked.
        ckpt = tmp_path / "run.ckpt"
        ddl = tmp_path / "schema.sql"
        assert main([small_csv, "--checkpoint", str(ckpt), "--ddl", str(ddl)]) == 0
        first = capsys.readouterr().out
        first_ddl = ddl.read_bytes()
        assert ckpt.exists()
        assert main([small_csv, "--resume", str(ckpt), "--ddl", str(ddl)]) == 0
        second = capsys.readouterr().out
        assert ddl.read_bytes() == first_ddl
        seconds = re.compile(r"\d+\.\d+s\b")
        assert seconds.sub("<t>s", first) == seconds.sub("<t>s", second)

    def test_resume_refuses_a_changed_sample(self, small_csv, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        approximate = [small_csv, "--approximate", "--sample-rows"]
        assert main([*approximate, "3", "--checkpoint", ckpt]) == 0
        assert main([*approximate, "2", "--resume", ckpt]) == (
            EXIT_CHECKPOINT_ERROR
        )
        assert main([*approximate, "3", "--resume", ckpt]) == 0

    def test_a_recorded_sample_does_not_block_a_plain_resume(
        self, small_csv, tmp_path
    ):
        # Older checkpoints record a sample size even for plain runs.
        ckpt = tmp_path / "run.ckpt"
        ddl = tmp_path / "schema.sql"
        assert main([small_csv, "--checkpoint", str(ckpt), "--ddl", str(ddl)]) == 0
        first_ddl = ddl.read_bytes()
        payload = json.loads(ckpt.read_text(encoding="utf-8"))
        payload["config"].update(sample_rows=512, approx_error=0.0)
        ckpt.write_text(json.dumps(payload), encoding="utf-8")
        assert main([small_csv, "--resume", str(ckpt), "--ddl", str(ddl)]) == 0
        assert ddl.read_bytes() == first_ddl

    def test_resume_missing_file_is_exit_4(self, small_csv, tmp_path):
        code = main(
            [small_csv, "--resume", str(tmp_path / "never.ckpt")]
        )
        assert code == EXIT_CHECKPOINT_ERROR
