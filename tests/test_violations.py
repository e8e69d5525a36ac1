"""Tests for violating-FD identification (paper §6, Algorithm 4)."""

import pytest

from repro.core.violations import find_violating_fds
from repro.model.fd import FD, FDSet


def fdset(num_attrs, *pairs):
    return FDSet(num_attrs, [FD(lhs, rhs) for lhs, rhs in pairs])


class TestCoreCheck:
    def test_fd_with_key_lhs_conforms(self):
        fds = fdset(3, (0b001, 0b110))
        assert find_violating_fds(fds, keys=[0b001]) == []

    def test_fd_with_superkey_lhs_conforms(self):
        fds = fdset(3, (0b011, 0b100))
        assert find_violating_fds(fds, keys=[0b001]) == []

    def test_non_key_lhs_violates(self):
        fds = fdset(3, (0b010, 0b100))
        violating = find_violating_fds(fds, keys=[0b001])
        assert violating == [FD(0b010, 0b100)]

    def test_no_keys_everything_violates(self):
        fds = fdset(3, (0b001, 0b010), (0b010, 0b100))
        assert len(find_violating_fds(fds, keys=[])) == 2

    def test_empty_lhs_skipped(self):
        fds = fdset(3, (0, 0b001), (0b010, 0b100))
        violating = find_violating_fds(fds, keys=[])
        assert violating == [FD(0b010, 0b100)]


class TestNullRule:
    def test_null_lhs_skipped(self):
        fds = fdset(3, (0b010, 0b100))
        assert find_violating_fds(fds, keys=[], null_mask=0b010) == []

    def test_null_elsewhere_irrelevant(self):
        fds = fdset(3, (0b010, 0b100))
        violating = find_violating_fds(fds, keys=[], null_mask=0b101)
        assert violating == [FD(0b010, 0b100)]


class TestPrimaryKeyRule:
    def test_pk_attributes_removed_from_rhs(self):
        fds = fdset(4, (0b0010, 0b1100))
        violating = find_violating_fds(fds, keys=[], primary_key=0b0100)
        assert violating == [FD(0b0010, 0b1000)]

    def test_fd_dropped_when_rhs_becomes_empty(self):
        fds = fdset(3, (0b010, 0b100))
        assert find_violating_fds(fds, keys=[], primary_key=0b100) == []


class TestForeignKeyRule:
    def test_fk_disjoint_from_rhs_ok(self):
        fds = fdset(4, (0b0010, 0b0100))
        violating = find_violating_fds(fds, keys=[], foreign_keys=[0b1001])
        assert violating == [FD(0b0010, 0b0100)]

    def test_fk_inside_r2_ok(self):
        # fk ⊆ lhs ∪ rhs survives in R2
        fds = fdset(4, (0b0010, 0b0100))
        violating = find_violating_fds(fds, keys=[], foreign_keys=[0b0110])
        assert violating == [FD(0b0010, 0b0100)]

    def test_fk_torn_apart_skips_fd(self):
        # fk overlaps rhs AND reaches outside lhs|rhs
        fds = fdset(4, (0b0010, 0b0100))
        assert find_violating_fds(fds, keys=[], foreign_keys=[0b1100]) == []


class Test3NFMode:
    def test_lhs_splitting_fd_removed(self):
        # X={A}, Y={B}: splitting would tear LHS {B,C} apart.
        fds = fdset(3, (0b001, 0b010), (0b110, 0b001))
        bcnf = find_violating_fds(fds, keys=[], target="bcnf")
        tnf = find_violating_fds(fds, keys=[], target="3nf")
        assert FD(0b001, 0b010) in bcnf
        assert FD(0b001, 0b010) not in tnf

    def test_non_splitting_fd_kept(self):
        fds = fdset(3, (0b001, 0b010))
        tnf = find_violating_fds(fds, keys=[], target="3nf")
        assert tnf == [FD(0b001, 0b010)]

    def test_lhs_fully_inside_r2_not_split(self):
        # other LHS {A,B} ⊆ X∪Y with X={A}, Y={B}: not torn apart.
        fds = fdset(3, (0b001, 0b010), (0b011, 0b100))
        tnf = find_violating_fds(fds, keys=[], target="3nf")
        assert FD(0b001, 0b010) in tnf

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown target"):
            find_violating_fds(fdset(2, (0b1, 0b10)), keys=[], target="5nf")

    def test_non_minimal_fd_cannot_veto(self):
        # A=0 B=1 C=2 D=3.  {A,B} -> D is not minimal ({B} -> D holds),
        # so splitting on {C,D} -> A may tear {A,B} apart.
        fds = fdset(4, (0b0010, 0b1000), (0b0011, 0b1000), (0b1100, 0b0001))
        tnf = find_violating_fds(fds, keys=[], target="3nf")
        assert FD(0b1100, 0b0001) in tnf

    def test_partly_reduced_fd_still_vetoes(self):
        # {A,B} -> {D,E}: only D follows from {B}; E keeps the veto.
        fds = fdset(
            5, (0b00010, 0b01000), (0b00011, 0b11000), (0b01100, 0b00001)
        )
        tnf = find_violating_fds(fds, keys=[], target="3nf")
        assert FD(0b01100, 0b00001) not in tnf

    def test_shrunk_verify_seed_278(self):
        # `repro verify --start 278 --seeds 1`, pipeline[planted, 3nf],
        # shrunk: the projected FDs keep c1,c2 -> c4 although c2 -> c4
        # holds, and it must not veto the split on c3,c4 -> c1.
        from repro.model.instance import RelationInstance
        from repro.model.schema import Relation
        from repro.verification.metamorphic import check_pipeline_properties

        instance = RelationInstance(
            Relation("planted", ("c1", "c2", "c3", "c4", "c5")),
            [
                [1, 0, 0, 0, 0, 1, 1],
                [0, 2, 2, 0, 1, 2, 3],
                [0, 0, 1, 2, 2, 2, 2],
                [2, 1, 1, 2, 3, 1, 1],
                [1, 1, 1, 1, 1, 0, 0],
            ],
        )
        assert not check_pipeline_properties(instance, target="3nf")[0]


class TestCombined:
    def test_paper_example_pipeline(self, address):
        """Postcode -> City,Mayor is the violating FD of Table 1."""
        from repro.core.closure import optimized_closure
        from repro.core.key_derivation import derive_keys
        from repro.discovery.bruteforce import BruteForceFD

        extended = optimized_closure(BruteForceFD().discover(address))
        keys = derive_keys(extended, address.full_mask())
        violating = find_violating_fds(extended, keys)
        postcode = address.relation.mask_of(["Postcode"])
        city_mayor = address.relation.mask_of(["City", "Mayor"])
        assert FD(postcode, city_mayor) in violating
