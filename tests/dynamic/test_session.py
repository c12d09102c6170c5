"""Unit tests of the :class:`repro.dynamic.DynamicList` arena."""

import numpy as np
import pytest

import repro
from repro.core import verify_maximal_matching
from repro.dynamic import ComponentSnapshot, DynamicList, RepairLedger
from repro.errors import InvalidParameterError, VerificationError
from repro.lists import NIL, LinkedList, random_list


class TestLifecycle:
    def test_empty_arena(self):
        dyn = DynamicList()
        assert len(dyn) == 0
        assert dyn.nodes().size == 0
        assert dyn.tails().size == 0
        dyn.verify()
        assert dyn.components() == []
        assert dyn.to_match_results() == []

    def test_add_node_then_delete(self):
        dyn = DynamicList()
        u = dyn.add_node(7)
        assert dyn.has_node(u)
        assert dyn.value_of(u) == 7
        assert dyn.next_of(u) == NIL and dyn.pred_of(u) == NIL
        dyn.delete(u)
        assert not dyn.has_node(u)
        assert len(dyn) == 0
        dyn.verify()

    def test_arena_grows_and_reuses_slots(self):
        dyn = DynamicList(capacity=8)
        addrs = [dyn.add_node() for _ in range(20)]
        assert dyn.capacity >= 20
        assert len(set(addrs)) == 20
        dyn.delete(addrs[3])
        reused = dyn.add_node()
        assert reused == addrs[3]
        assert not dyn.is_matched_tail(reused)
        dyn.verify()

    def test_capacity_stays_power_of_two(self):
        dyn = DynamicList(capacity=5)
        assert dyn.capacity == 8
        for _ in range(9):
            dyn.add_node()
        assert dyn.capacity == 16

    def test_dead_node_access_raises(self):
        dyn = DynamicList()
        u = dyn.add_node()
        dyn.delete(u)
        for fn in (dyn.next_of, dyn.pred_of, dyn.value_of, dyn.delete,
                   dyn.insert_after, dyn.split):
            with pytest.raises(InvalidParameterError):
                fn(u)


class TestFromList:
    @pytest.mark.parametrize("backend", ["reference", "numpy"])
    def test_adopts_list_and_matching(self, backend):
        lst = random_list(100, rng=4)
        dyn = DynamicList.from_list(lst, backend=backend)
        assert len(dyn) == 100
        dyn.verify()
        [snap] = dyn.components()
        assert snap.n == 100
        verify_maximal_matching(snap.lst, snap.tails)

    def test_adopts_external_tails(self):
        lst = random_list(64, rng=1)
        res = repro.maximal_matching(lst, algorithm="match2")
        dyn = DynamicList.from_list(lst, tails=res.matching.tails)
        assert np.array_equal(np.sort(dyn.tails()),
                              np.sort(res.matching.tails))
        dyn.verify()

    def test_single_node_list(self):
        dyn = DynamicList.from_list(LinkedList(np.array([NIL])))
        assert len(dyn) == 1
        assert dyn.tails().size == 0
        dyn.verify()


class TestEditSemantics:
    def test_insert_after_links(self):
        dyn = DynamicList.from_list(random_list(10, rng=0))
        v = int(dyn.heads()[0])
        w = dyn.next_of(v)
        u = dyn.insert_after(v)
        assert dyn.next_of(v) == u
        assert dyn.pred_of(u) == v
        assert dyn.next_of(u) == w
        assert dyn.pred_of(w) == u
        dyn.verify()

    def test_insert_after_tail(self):
        dyn = DynamicList.from_list(random_list(4, rng=0))
        t = int(dyn.component_tails()[0])
        u = dyn.insert_after(t)
        assert dyn.next_of(t) == u
        assert dyn.next_of(u) == NIL
        dyn.verify()

    def test_delete_head_tail_and_middle(self):
        dyn = DynamicList.from_list(random_list(12, rng=2))
        order = list(dyn.walk(int(dyn.heads()[0])))
        for v in (order[0], order[-1], order[5]):
            dyn.delete(v)
            dyn.verify()
        assert len(dyn) == 9

    def test_split_and_concat_roundtrip_structure(self):
        dyn = DynamicList.from_list(random_list(16, rng=3))
        order = list(dyn.walk(int(dyn.heads()[0])))
        v = order[7]
        h = dyn.split(v)
        assert h == order[8]
        assert dyn.heads().size == 2
        dyn.verify()
        dyn.concat(v, h)
        assert dyn.heads().size == 1
        assert list(dyn.walk(order[0])) == order
        dyn.verify()

    def test_split_at_tail_raises(self):
        dyn = DynamicList.from_list(random_list(4, rng=0))
        with pytest.raises(InvalidParameterError):
            dyn.split(int(dyn.component_tails()[0]))

    def test_concat_rejects_cycle_and_non_endpoints(self):
        dyn = DynamicList.from_list(random_list(8, rng=1))
        head = int(dyn.heads()[0])
        tail = int(dyn.component_tails()[0])
        with pytest.raises(InvalidParameterError):
            dyn.concat(tail, head)  # same component: would close a ring
        other = dyn.add_node()
        mid = list(dyn.walk(head))[3]
        with pytest.raises(InvalidParameterError):
            dyn.concat(mid, other)  # mid is not a tail
        with pytest.raises(InvalidParameterError):
            dyn.concat(tail, mid)  # mid is not a head

    def test_splice_out_detaches_segment(self):
        dyn = DynamicList.from_list(random_list(20, rng=5))
        order = list(dyn.walk(int(dyn.heads()[0])))
        a, b = order[4], order[8]
        got = dyn.splice_out(a, b)
        assert got == a
        assert list(dyn.walk(a)) == order[4:9]
        assert list(dyn.walk(order[0])) == order[:4] + order[9:]
        dyn.verify()

    def test_splice_out_unreachable_raises(self):
        dyn = DynamicList.from_list(random_list(10, rng=6))
        order = list(dyn.walk(int(dyn.heads()[0])))
        with pytest.raises(InvalidParameterError):
            dyn.splice_out(order[5], order[2])

    def test_splice_in_merges_components(self):
        dyn = DynamicList.from_list(random_list(10, rng=7))
        order = list(dyn.walk(int(dyn.heads()[0])))
        h = dyn.splice_out(order[6], order[8])
        v = order[2]
        dyn.splice_in(v, h)
        assert dyn.heads().size == 1
        got = list(dyn.walk(order[0]))
        assert got == order[:3] + order[6:9] + order[3:6] + order[9:]
        dyn.verify()

    def test_splice_in_same_component_raises(self):
        dyn = DynamicList.from_list(random_list(8, rng=8))
        head = int(dyn.heads()[0])
        mid = list(dyn.walk(head))[4]
        with pytest.raises(InvalidParameterError):
            dyn.splice_in(mid, head)


class TestLedger:
    def test_every_edit_recorded(self):
        dyn = DynamicList.from_list(random_list(32, rng=9))
        dyn.insert_after(int(dyn.heads()[0]))
        dyn.delete(int(dyn.component_tails()[0]))
        dyn.add_node()
        assert dyn.ledger.edits == 3
        assert set(dyn.ledger.per_op) == {
            "insert_after", "delete", "add_node"}
        assert dyn.ledger.per_op["delete"]["edits"] == 1

    def test_recompute_does_not_pollute_edit_stats(self):
        dyn = DynamicList.from_list(random_list(64, rng=10))
        before = dyn.ledger.max_moves_per_edit
        dyn._chosen[dyn.nodes()] = False  # vandalize, then recompute
        dyn.recompute()
        assert dyn.ledger.recomputes == 1
        assert dyn.ledger.edits == 0
        assert dyn.ledger.max_moves_per_edit == before
        assert dyn.ledger.maintenance_moves > 0
        dyn.verify()

    def test_amortized_moves(self):
        led = RepairLedger()
        assert led.amortized_moves() == 0.0
        led.record("delete", 3, 4)
        led.record("delete", 1, 2)
        assert led.amortized_moves() == 2.0
        d = led.to_dict()
        assert d["edits"] == 2 and d["moves"] == 4
        assert d["per_op"]["delete"]["moves"] == 4


class TestMaintainFlag:
    def test_unmaintained_session_skips_repair(self):
        lst = random_list(32, rng=11)
        dyn = DynamicList.from_list(lst, maintain=False)
        head = int(dyn.heads()[0])
        for _ in range(5):
            dyn.delete(int(dyn.nodes()[-1]))
        # Structure stays sound even though the matching may decay:
        # drops still apply (stale bits are cleared) but no repair runs,
        # so no node neighborhood is ever examined.
        assert len(dyn) == 27
        assert dyn.ledger.touched == 0
        dyn.recompute()
        dyn.verify()
        for snap in dyn.components():
            verify_maximal_matching(snap.lst, snap.tails)
        assert dyn.has_node(head)


class TestSnapshots:
    def test_snapshot_preserves_address_order(self):
        dyn = DynamicList.from_list(random_list(24, rng=12))
        dyn.split(list(dyn.walk(int(dyn.heads()[0])))[11])
        for snap in dyn.components():
            assert isinstance(snap, ComponentSnapshot)
            # Local ids are ranks of ascending arena addresses.
            assert np.all(np.diff(snap.nodes) > 0)
            verify_maximal_matching(snap.lst, snap.tails)
            # Values round-trip through the compaction.
            for local, arena in enumerate(snap.nodes):
                assert snap.lst.values[local] == dyn.value_of(int(arena))

    def test_to_match_results(self):
        dyn = DynamicList.from_list(random_list(16, rng=13))
        dyn.insert_after(int(dyn.heads()[0]))
        [res] = dyn.to_match_results()
        assert res.backend == "dynamic"
        assert res.algorithm == "maintained"
        assert res.report.phases[0].name == "maintain"
        assert res.extras["ledger"]["edits"] == 1
        assert res.matching.size == res.matching.tails.size
        assert len(res.extras["nodes"]) == 17


class TestVerify:
    def test_catches_broken_pred(self):
        dyn = DynamicList.from_list(random_list(8, rng=14))
        order = list(dyn.walk(int(dyn.heads()[0])))
        dyn._pred[order[3]] = NIL  # sever backlink only
        with pytest.raises(VerificationError):
            dyn.verify()

    def test_catches_adjacent_matched(self):
        dyn = DynamicList.from_list(random_list(8, rng=15))
        order = list(dyn.walk(int(dyn.heads()[0])))
        dyn._chosen[:] = False
        dyn._chosen[order[0]] = True
        dyn._chosen[order[1]] = True  # shares endpoint order[1]
        with pytest.raises(VerificationError):
            dyn.verify()

    def test_catches_addable_pointer(self):
        dyn = DynamicList.from_list(random_list(8, rng=16))
        dyn._chosen[:] = False  # empty matching is not maximal here
        with pytest.raises(VerificationError):
            dyn.verify()

    def test_catches_chosen_on_dead_slot(self):
        dyn = DynamicList.from_list(random_list(8, rng=17))
        dead = int(dyn.capacity - 1) if not dyn._live[dyn.capacity - 1] \
            else None
        if dead is None:
            dyn2 = DynamicList.from_list(random_list(8, rng=17))
            dyn2.add_node()
            dyn = dyn2
            dead = int(np.flatnonzero(~dyn._live)[0])
        dyn._chosen[dead] = True
        with pytest.raises(VerificationError):
            dyn.verify()
