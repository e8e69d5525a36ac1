"""Tests for checkpoint journaling, replay validation, and kill/resume."""

import json
from pathlib import Path

import pytest

from repro.core.normalize import Normalizer
from repro.datagen.random_tables import random_instance
from repro.discovery.base import FDAlgorithm
from repro.discovery.bruteforce import BruteForceFD
from repro.io.csv_io import read_csv
from repro.io.ddl import schema_to_ddl
from repro.io.serialization import checkpoint_from_json, checkpoint_to_json
from repro.model.fd import FDSet
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.runtime.checkpointing import PipelineState, load_state, save_state
from repro.runtime.degrade import RelationFidelity
from repro.runtime.errors import BudgetExceeded, CheckpointError
from repro.runtime.faults import FaultPlan, SimulatedKill

ORDERS = Path(__file__).resolve().parent / "fixtures" / "legacy_state" / "orders.csv"


def make_state():
    fds = FDSet(3)
    fds.add_masks(0b001, 0b110)
    state = PipelineState(config={"algorithm": "hyfd", "target": "bcnf"})
    state.record_inputs(
        [
            RelationInstance.from_rows(
                Relation("r", ("a", "b", "c")), [("1", "2", "3")]
            )
        ]
    )
    state.record_discovery("r", fds, RelationFidelity(relation="r"))
    state.record_decision(
        {
            "kind": "fd",
            "relation": "r",
            "lhs": ["a"],
            "rhs": ["b", "c"],
            "edited_rhs": ["b", "c"],
        }
    )
    state.record_decision({"kind": "key", "relation": "r_rest", "key": ["a"]})
    return state


class TestDecisionLog:
    def test_fresh_recordings_are_not_replayed(self):
        state = make_state()
        assert not state.replaying  # cursor sits past its own recordings

    def test_replay_in_order(self):
        state = make_state()
        state.cursor = 0  # as after load_state
        first = state.next_decision("fd", "r")
        assert first["kind"] == "fd"
        second = state.next_decision("key", "r_rest")
        assert second["key"] == ["a"]
        assert state.next_decision("key", "anything") is None

    def test_fd_request_stops_at_key_phase(self):
        state = make_state()
        state.cursor = 1  # the next recorded decision is the key
        assert state.next_decision("fd", "r_rest") is None
        assert state.cursor == 1  # not consumed: the key phase reads it

    def test_relation_mismatch_diverges(self):
        state = make_state()
        state.cursor = 0
        with pytest.raises(CheckpointError, match="diverged"):
            state.next_decision("fd", "other_relation")

    def test_kind_mismatch_diverges(self):
        state = make_state()
        state.cursor = 0  # the recorded head is an "fd" decision
        with pytest.raises(CheckpointError, match="diverged"):
            state.next_decision("key", "r")


class TestValidation:
    def test_config_mismatch_refused(self):
        state = make_state()
        with pytest.raises(CheckpointError, match="refusing to resume"):
            state.validate_against(
                {"algorithm": "hyfd", "target": "3nf"}, []
            )

    def test_input_mismatch_refused(self):
        state = make_state()
        other = RelationInstance.from_rows(
            Relation("r", ("a", "b")), [("1", "2")]
        )
        with pytest.raises(CheckpointError, match="do not match"):
            state.validate_against(state.config, [other])

    def test_matching_run_accepted(self):
        state = make_state()
        same = RelationInstance.from_rows(
            Relation("r", ("a", "b", "c")), [("1", "2", "3")]
        )
        state.validate_against(dict(state.config), [same])


class TestDiskRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        state = make_state()
        path = tmp_path / "run.ckpt"
        save_state(state, path)
        back = load_state(path)
        assert back.config == state.config
        assert back.inputs == state.inputs
        assert back.decisions == state.decisions
        assert back.complete == state.complete
        assert back.cursor == 0  # a loaded state replays from the start
        assert dict(back.discovered["r"].items()) == dict(
            state.discovered["r"].items()
        )

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_state(make_state(), path)
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_state(tmp_path / "absent.ckpt")

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_state(path)

    def test_wrong_format_marker(self, tmp_path):
        payload = checkpoint_to_json(make_state())
        payload["format"] = "something/else"
        path = tmp_path / "fmt.ckpt"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_state(path)

    def test_missing_keys_are_malformed(self):
        payload = checkpoint_to_json(make_state())
        del payload["decisions"]
        with pytest.raises(CheckpointError, match="malformed"):
            checkpoint_from_json(payload)


class TestKillAndResume:
    """The headline robustness guarantee: a mid-run kill is survivable
    and the resumed run reproduces the reference DDL byte-for-byte."""

    def ddl(self, result):
        return schema_to_ddl(result.schema, result.instances)

    def make_inputs(self):
        # Two input relations: the checkpoint flushes after the first
        # relation's discovery, so kills across a wide tick range land
        # *after* a flush and genuinely exercise the resume path.
        def named(name, instance):
            return RelationInstance(
                Relation(name, instance.columns), instance.columns_data
            )

        return [
            named("alpha", random_instance(3, 4, 15, domain_size=[3, 2, 4, 3])),
            named(
                "beta",
                random_instance(5, 6, 30, domain_size=[3, 3, 4, 2, 5, 3]),
            ),
        ]

    def test_kill_then_resume_reproduces_reference(self, tmp_path):
        inputs = self.make_inputs()
        reference = self.ddl(Normalizer(algorithm="hyfd").run(inputs))

        resumed_from_file = 0
        for at_tick in (30, 100, 250, 450):
            ckpt = tmp_path / f"kill-{at_tick}.ckpt"
            plan = FaultPlan(mode="kill", at_tick=at_tick)
            governed = Normalizer(
                algorithm="hyfd", checkpoint_path=ckpt, fault_plan=plan
            )
            try:
                result = governed.run(inputs)
            except SimulatedKill:
                if ckpt.exists():
                    state = load_state(ckpt)
                    result = Normalizer(
                        algorithm="hyfd", checkpoint_path=ckpt
                    ).run(inputs, resume_state=state)
                    resumed_from_file += 1
                else:  # killed before the first flush: rerun fresh
                    result = Normalizer(algorithm="hyfd").run(inputs)
            assert self.ddl(result) == reference, f"at_tick={at_tick}"
        # At least one kill must have landed after a flush, otherwise
        # the resume path was never actually exercised.
        assert resumed_from_file >= 1

    def test_completed_checkpoint_replays_identically(self, tmp_path, university):
        ckpt = tmp_path / "full.ckpt"
        reference = Normalizer(algorithm="hyfd", checkpoint_path=ckpt).run(
            university
        )
        state = load_state(ckpt)
        assert state.complete
        replayed = Normalizer(algorithm="hyfd", checkpoint_path=ckpt).run(
            university, resume_state=state
        )
        assert self.ddl(replayed) == self.ddl(reference)

    def test_resume_with_different_config_refused(self, tmp_path, university):
        ckpt = tmp_path / "cfg.ckpt"
        Normalizer(algorithm="hyfd", checkpoint_path=ckpt).run(university)
        state = load_state(ckpt)
        with pytest.raises(CheckpointError, match="refusing to resume"):
            Normalizer(algorithm="hyfd", target="3nf").run(
                university, resume_state=state
            )


class _BogusPartial(FDAlgorithm):
    """Stand-in discoverer: breaches at once and attaches the exact cover
    plus ``price -> product``, which the orders data refutes (price 3
    goes with ``pad`` and with a NULL product), as an inexact partial."""

    name = "bogus-partial"

    def discover(self, instance):
        fds = BruteForceFD().discover(instance)
        relation = instance.relation
        fds.add_masks(relation.mask_of(["price"]), relation.mask_of(["product"]))
        raise BudgetExceeded("deadline", stage="bogus").attach_partial(
            fds, exact=False
        )


class TestRefutedFdReplay:
    """A split on an unsound cover that refutes its whole FD is journaled
    (an empty ``edited_rhs``), so a resume re-ranks without it too."""

    @staticmethod
    def steps(result):
        return [
            (step.parent, step.lhs, step.rhs, step.chosen_rank, step.num_candidates)
            for step in result.steps
        ]

    def test_resume_replays_the_refutation(self, tmp_path):
        instance = read_csv(ORDERS)
        ckpt = tmp_path / "refuted.ckpt"
        recorded = Normalizer(algorithm=_BogusPartial(), checkpoint_path=ckpt).run(
            instance
        )
        state = load_state(ckpt)
        refutations = [
            decision
            for decision in state.decisions
            if decision["kind"] == "fd" and not decision["edited_rhs"]
        ]
        assert [
            (decision["lhs"], decision["refuted_rhs"]) for decision in refutations
        ] == [(["price"], ["product"])]

        resumed = Normalizer(algorithm=_BogusPartial(), checkpoint_path=ckpt).run(
            instance, resume_state=state
        )
        assert self.steps(resumed) == self.steps(recorded)
        assert schema_to_ddl(resumed.schema, resumed.instances) == schema_to_ddl(
            recorded.schema, recorded.instances
        )
