"""State persisted by older builds still loads.

One build recorded DUCC's walk seed in every pipeline checkpoint and
incremental journal config, a key this build has no knob for, and its
daemon could persist a session created with ``--algorithm dfd``.  The
next one could still write checkpoints of sampled discovery
(``--approximate``) and persist daemon sessions with a candidate cap.
The files under ``fixtures/legacy_state`` were written by those builds
(see the README there); each test copies what it resumes, since
resuming rewrites journals and checkpoints.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.normalize import Normalizer
from repro.incremental import IncrementalNormalizer
from repro.io.csv_io import read_csv
from repro.io.ddl import schema_to_ddl
from repro.runtime.checkpointing import load_state
from repro.runtime.errors import CheckpointError
from repro.server.client import ServerError
from tests.test_server import ServerThread

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "legacy_state"
EXPECTED_DDL = (FIXTURES / "expected.sql").read_text(encoding="utf-8")


def retired_keys(recorded: dict, current: dict) -> set[str]:
    """Config keys ``recorded`` holds that this build has no knob for."""
    return set(recorded) - set(current)


@pytest.fixture()
def legacy(tmp_path):
    """A writable copy of the fixture directory."""
    copy = tmp_path / "legacy"
    shutil.copytree(FIXTURES, copy)
    return copy


def _apply_batch(legacy: Path, *flags: str) -> int:
    return main(
        [
            "apply-batch",
            str(legacy / "orders.csv"),
            "--changes",
            str(legacy / "changes.json"),
            "--journal",
            str(legacy / "apply_batch.journal.json"),
            "--resume",
            *flags,
        ]
    )


class TestIncrementalJournal:
    def test_apply_batch_resumes_a_journal_recording_a_retired_key(
        self, legacy, capsys
    ):
        journal = json.loads((legacy / "apply_batch.journal.json").read_text())
        current = IncrementalNormalizer(
            read_csv(legacy / "orders.csv"), defer_initial_run=True
        ).config()
        assert retired_keys(journal["config"], current)
        assert journal["applied_batches"] == 2

        out_ddl = legacy / "out.sql"
        assert _apply_batch(legacy, "--ddl", str(out_ddl)) == 0
        assert "resumed from" in capsys.readouterr().out
        assert out_ddl.read_text(encoding="utf-8") == EXPECTED_DDL
        rewritten = json.loads((legacy / "apply_batch.journal.json").read_text())
        assert rewritten["applied_batches"] == 3
        assert rewritten["config"] == current

    def test_any_other_config_difference_is_still_refused(self, legacy, capsys):
        path = legacy / "apply_batch.journal.json"
        journal = json.loads(path.read_text())
        journal["config"]["target"] = "3nf"
        path.write_text(json.dumps(journal))
        assert _apply_batch(legacy) == 4
        assert "different configuration" in capsys.readouterr().err


class TestPipelineCheckpoint:
    def test_a_retired_key_is_skipped_on_resume(self, legacy):
        state = load_state(legacy / "pipeline.checkpoint.json")
        normalizer = Normalizer()
        assert retired_keys(state.config, normalizer._config())
        instance = read_csv(legacy / "orders.csv")
        result = normalizer.run(instance, resume_state=state)
        assert schema_to_ddl(result.schema, result.instances) == EXPECTED_DDL

    def test_a_knob_this_run_has_is_still_compared(self, legacy):
        state = load_state(legacy / "pipeline.checkpoint.json")
        instance = read_csv(legacy / "orders.csv")
        with pytest.raises(CheckpointError, match="target"):
            Normalizer(target="3nf").run(instance, resume_state=state)

    def test_cli_resume(self, legacy):
        out_ddl = legacy / "out.sql"
        exit_code = main(
            [
                str(legacy / "orders.csv"),
                "--resume",
                str(legacy / "pipeline.checkpoint.json"),
                "--ddl",
                str(out_ddl),
            ]
        )
        assert exit_code == 0
        assert out_ddl.read_text(encoding="utf-8") == EXPECTED_DDL


class TestApproximateCheckpoint:
    """``repro orders.csv --approximate --sample-rows 4 --approx-error
    0.2 --checkpoint ...``: it records the sampled discoverer, its sample
    size and g3 bound, and an unsound ``"sampled"`` relation."""

    def test_a_plain_cli_resume_completes(self, legacy):
        checkpoint = legacy / "approximate.checkpoint.json"
        state = load_state(checkpoint)
        assert state.config["algorithm"] == "sampled-g3"
        assert retired_keys(state.config, Normalizer()._config()) == {
            "sample_rows",
            "approx_error",
        }
        fidelity = state.fidelity["orders"]
        assert fidelity.fidelity == "sampled"
        assert not fidelity.exact
        assert not fidelity.sound

        out_ddl = legacy / "out.sql"
        exit_code = main(
            [
                str(legacy / "orders.csv"),
                "--resume",
                str(checkpoint),
                "--ddl",
                str(out_ddl),
            ]
        )
        assert exit_code == 0
        assert out_ddl.read_text(encoding="utf-8") == EXPECTED_DDL

    def test_a_knob_this_run_has_is_still_compared(self, legacy):
        state = load_state(legacy / "approximate.checkpoint.json")
        instance = read_csv(legacy / "orders.csv")
        with pytest.raises(CheckpointError, match="target"):
            Normalizer(target="3nf").run(instance, resume_state=state)


class TestDaemonRevival:
    def test_sessions_revive_from_their_journals(self, legacy):
        with ServerThread(resume_dir=str(legacy / "resume_dir")) as harness:
            client = harness.client("acme")
            for session in ("orders-hyfd", "orders-dfd"):
                assert client.ddl(session) == EXPECTED_DDL
            assert client.session_info("orders-dfd")["options"]["algorithm"] == (
                "dfd"
            )
            # The third batch goes through the revived engine, which
            # maintains covers and runs no discovery.
            changes = json.loads((legacy / "changes.json").read_text())
            client.apply_batch("orders-dfd", changes["batches"][2])
            assert client.ddl("orders-dfd") == EXPECTED_DDL
            stats = client.stats()["sessions"]
        assert stats["journal_hits"] == 2
        assert stats["discovery_runs"] == 0

    def test_a_capped_session_revives(self, legacy):
        with ServerThread(resume_dir=str(legacy / "resume_dir")) as harness:
            client = harness.client("acme")
            assert client.ddl("orders-capped") == EXPECTED_DDL
            options = client.session_info("orders-capped")["options"]
            stats = client.stats()["sessions"]
        assert "max_candidates" not in options
        assert stats["journal_hits"] >= 1
        assert stats["discovery_runs"] == 0

    def test_a_new_dfd_session_is_a_400(self, tmp_path):
        with ServerThread(resume_dir=str(tmp_path / "state")) as harness:
            with pytest.raises(ServerError) as excinfo:
                harness.client().create_session(
                    b"a,b\n1,2\n", name="r", algorithm="dfd"
                )
        assert excinfo.value.status == 400
        assert "unknown algorithm 'dfd'" in excinfo.value.body.decode()

    def test_submit_rejects_dfd(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "--port", "1", "--session", "s", "--algorithm", "dfd"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'dfd'" in capsys.readouterr().err
