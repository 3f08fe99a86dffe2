"""Tests for history providers, the history file, the RAS, and repair."""

import pytest

from repro.components.ras import ReturnAddressStack
from repro.core.history import GlobalHistoryProvider, LocalHistoryProvider
from repro.core.history_file import HistoryFile, HistoryFileError
from repro.core.repair import RepairStateMachine


class TestGlobalHistory:
    def test_speculate_shifts(self):
        g = GlobalHistoryProvider(8)
        g.speculate([True, False, True])
        assert g.read() == 0b101

    def test_truncates_to_length(self):
        g = GlobalHistoryProvider(4)
        g.speculate([True] * 10)
        assert g.read() == 0b1111

    def test_restore(self):
        g = GlobalHistoryProvider(8)
        g.speculate([True, True])
        snap = g.read()
        g.speculate([False, False])
        g.restore(snap)
        assert g.read() == snap

    def test_reset(self):
        g = GlobalHistoryProvider(8)
        g.speculate([True])
        g.reset()
        assert g.read() == 0

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            GlobalHistoryProvider(0)

    def test_storage_is_flops(self):
        assert GlobalHistoryProvider(64).storage().flop_bits == 64


class TestLocalHistory:
    def test_per_packet_isolation(self):
        lh = LocalHistoryProvider(16, 8, 4)
        idx_a, _ = lh.read(0)
        idx_b, _ = lh.read(4)
        assert idx_a != idx_b
        lh.speculate(idx_a, [True])
        _, hist_a = lh.read(0)
        _, hist_b = lh.read(4)
        assert hist_a == 1 and hist_b == 0

    def test_same_packet_same_entry(self):
        lh = LocalHistoryProvider(16, 8, 4)
        idx0, _ = lh.read(1)
        idx1, _ = lh.read(3)
        assert idx0 == idx1  # same 4-wide packet

    def test_restore_and_write(self):
        lh = LocalHistoryProvider(16, 8, 4)
        idx, snap = lh.read(0)
        lh.speculate(idx, [True, True])
        lh.restore(idx, snap)
        assert lh.read(0)[1] == snap

    def test_storage(self):
        assert LocalHistoryProvider(256, 32).storage().sram_bits == 256 * 32


class TestHistoryFile:
    def _alloc(self, hf, **over):
        fields = dict(
            fetch_pc=0, width=4, req_ghist=0, chain_ghist=0,
            lhist_index=0, lhist_snapshot=0, metas={},
            br_mask=(False,) * 4, taken_mask=(False,) * 4,
            cfi_idx=None, cfi_taken=False, cfi_target=None,
        )
        fields.update(over)
        return hf.allocate(**fields)

    def test_allocate_places_every_field(self):
        hf = HistoryFile(4)
        hf.allocate(**self._base_fields())
        entry = hf.allocate(
            fetch_pc=12, width=3, req_ghist=5, chain_ghist=6,
            lhist_index=7, lhist_snapshot=8, metas={"bim": 9},
            br_mask=(True, False, True), taken_mask=(False, False, True),
            cfi_idx=2, cfi_taken=True, cfi_target=40, phist_snapshot=11,
            cfi_is_br=True, slot_providers=("bim", None, "btb"),
        )
        assert entry.ftq_id == 1
        assert (entry.fetch_pc, entry.width) == (12, 3)
        assert (entry.req_ghist, entry.chain_ghist) == (5, 6)
        assert (entry.lhist_index, entry.lhist_snapshot) == (7, 8)
        assert entry.metas == {"bim": 9}
        assert entry.br_mask == (True, False, True)
        assert entry.taken_mask == (False, False, True)
        assert (entry.cfi_idx, entry.cfi_taken, entry.cfi_target) == (2, True, 40)
        assert entry.phist_snapshot == 11
        assert (entry.cfi_is_br, entry.cfi_is_jal, entry.cfi_is_jalr) == (
            True, False, False
        )
        assert entry.slot_providers == ("bim", None, "btb")
        # Resolve-time fields start cleared.
        assert entry.mispredicted is False
        assert entry.mispredict_idx is None
        assert entry.resolved_cfi_target is None
        assert entry.commit_countdown == 0

    def test_positional_allocate_follows_the_entry_field_order(self):
        # The composer allocates positionally, in HistoryFileEntry's order.
        entry = HistoryFile(4).allocate(
            12, 3, 5, 6, 7, 8, {"bim": 9}, (True, False, True),
            (False, False, True), 2, True, 40, 11, True, False, True,
            ("bim", None, "btb"),
        )
        assert entry.ftq_id == 0
        assert (entry.fetch_pc, entry.width) == (12, 3)
        assert (entry.req_ghist, entry.chain_ghist) == (5, 6)
        assert (entry.lhist_index, entry.lhist_snapshot) == (7, 8)
        assert entry.metas == {"bim": 9}
        assert entry.br_mask == (True, False, True)
        assert entry.taken_mask == (False, False, True)
        assert (entry.cfi_idx, entry.cfi_taken, entry.cfi_target) == (2, True, 40)
        assert entry.phist_snapshot == 11
        assert (entry.cfi_is_br, entry.cfi_is_jal, entry.cfi_is_jalr) == (
            True, False, True
        )
        assert entry.slot_providers == ("bim", None, "btb")
        assert entry.mispredicted is False
        assert entry.mispredict_idx is None

    def _base_fields(self):
        return dict(
            fetch_pc=0, width=4, req_ghist=0, chain_ghist=0,
            lhist_index=0, lhist_snapshot=0, metas={},
            br_mask=(False,) * 4, taken_mask=(False,) * 4,
            cfi_idx=None, cfi_taken=False, cfi_target=None,
        )

    def test_fifo_ids(self):
        hf = HistoryFile(8)
        ids = [self._alloc(hf).ftq_id for _ in range(3)]
        assert ids == [0, 1, 2]

    def test_overflow_raises(self):
        hf = HistoryFile(2)
        self._alloc(hf)
        self._alloc(hf)
        assert hf.full
        with pytest.raises(HistoryFileError):
            self._alloc(hf)

    def test_squash_after_non_contiguous_ids(self):
        """Ids skip after squashes; find() must still work (regression)."""
        hf = HistoryFile(8)
        a = self._alloc(hf)
        self._alloc(hf)
        self._alloc(hf)
        squashed = hf.squash_after(a.ftq_id)
        assert [e.ftq_id for e in squashed] == [1, 2]
        d = self._alloc(hf)  # id 3: gap at 1,2
        assert hf.get(d.ftq_id) is d
        assert hf.get(a.ftq_id) is a
        assert hf.find(1) is None

    def test_dequeue_order(self):
        hf = HistoryFile(8)
        a = self._alloc(hf)
        b = self._alloc(hf)
        assert hf.dequeue() is a
        assert hf.head() is b

    def test_dequeue_empty_raises(self):
        with pytest.raises(HistoryFileError):
            HistoryFile(2).dequeue()

    def test_get_retired_raises(self):
        hf = HistoryFile(4)
        a = self._alloc(hf)
        hf.dequeue()
        with pytest.raises(HistoryFileError):
            hf.get(a.ftq_id)

    def test_squash_all(self):
        hf = HistoryFile(4)
        self._alloc(hf)
        self._alloc(hf)
        assert len(hf.squash_all()) == 2
        assert len(hf) == 0

    def test_storage_scales_with_meta(self):
        hf = HistoryFile(32)
        small = hf.storage(10, 64, 0).total_bits
        big = hf.storage(100, 64, 32).total_bits
        assert big > small


class TestRas:
    def test_push_pop(self):
        ras = ReturnAddressStack(4)
        ras.push(10)
        ras.push(20)
        assert ras.pop() == 20
        assert ras.pop() == 10

    def test_peek_does_not_pop(self):
        ras = ReturnAddressStack(4)
        ras.push(7)
        assert ras.peek() == 7
        assert ras.peek() == 7

    def test_wraps_at_depth(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)  # overwrites the oldest
        assert ras.pop() == 3
        assert ras.pop() == 2

    def test_snapshot_restore(self):
        ras = ReturnAddressStack(4)
        ras.push(5)
        snap = ras.snapshot()
        ras.push(6)
        ras.pop()
        ras.pop()
        ras.restore(snap)
        assert ras.peek() == 5

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            ReturnAddressStack(0)


class TestRepairWalk:
    def test_walk_cycle_accounting(self):
        lh = LocalHistoryProvider(16, 8, 4)
        machine = RepairStateMachine([], lh, walk_width=2)
        hf = HistoryFile(16)
        entries = []
        for i in range(5):
            entries.append(
                hf.allocate(
                    fetch_pc=i * 4, width=4, req_ghist=0, chain_ghist=0,
                    lhist_index=i, lhist_snapshot=0b11, metas={},
                    br_mask=(False,) * 4, taken_mask=(False,) * 4,
                    cfi_idx=None, cfi_taken=False, cfi_target=None,
                )
            )
        squashed = hf.squash_after(entries[0].ftq_id)
        cycles = machine.repair(squashed)
        assert cycles == 2  # ceil(4 / 2)
        assert machine.stats.entries_repaired == 4

    def test_restores_local_history_snapshots(self):
        lh = LocalHistoryProvider(16, 8, 4)
        machine = RepairStateMachine([], lh, walk_width=2)
        hf = HistoryFile(16)
        keep = hf.allocate(
            fetch_pc=0, width=4, req_ghist=0, chain_ghist=0,
            lhist_index=0, lhist_snapshot=0, metas={},
            br_mask=(False,) * 4, taken_mask=(False,) * 4,
            cfi_idx=None, cfi_taken=False, cfi_target=None,
        )
        idx, snap = lh.read(4)
        victim = hf.allocate(
            fetch_pc=4, width=4, req_ghist=0, chain_ghist=0,
            lhist_index=idx, lhist_snapshot=snap, metas={},
            br_mask=(False,) * 4, taken_mask=(False,) * 4,
            cfi_idx=None, cfi_taken=False, cfi_target=None,
        )
        lh.speculate(idx, [True, True, True])
        machine.repair(hf.squash_after(keep.ftq_id))
        assert lh.read(4)[1] == snap

    def test_oldest_snapshot_wins_for_shared_index(self):
        """Two squashed packets touching the same lhist entry: the state
        must return to the *oldest* squashed packet's snapshot."""
        lh = LocalHistoryProvider(16, 8, 4)
        machine = RepairStateMachine([], lh, walk_width=2)
        hf = HistoryFile(16)
        keep = hf.allocate(
            fetch_pc=32, width=4, req_ghist=0, chain_ghist=0,
            lhist_index=9, lhist_snapshot=0, metas={},
            br_mask=(False,) * 4, taken_mask=(False,) * 4,
            cfi_idx=None, cfi_taken=False, cfi_target=None,
        )
        idx, snap0 = lh.read(0)
        hf.allocate(
            fetch_pc=0, width=4, req_ghist=0, chain_ghist=0,
            lhist_index=idx, lhist_snapshot=snap0, metas={},
            br_mask=(False,) * 4, taken_mask=(False,) * 4,
            cfi_idx=None, cfi_taken=False, cfi_target=None,
        )
        lh.speculate(idx, [True])
        _, snap1 = lh.read(0)
        hf.allocate(
            fetch_pc=0, width=4, req_ghist=0, chain_ghist=0,
            lhist_index=idx, lhist_snapshot=snap1, metas={},
            br_mask=(False,) * 4, taken_mask=(False,) * 4,
            cfi_idx=None, cfi_taken=False, cfi_target=None,
        )
        lh.speculate(idx, [True])
        machine.repair(hf.squash_after(keep.ftq_id))
        assert lh.read(0)[1] == snap0

    def test_empty_walk_is_free(self):
        machine = RepairStateMachine([], LocalHistoryProvider(4, 4), 2)
        assert machine.repair([]) == 0
        assert machine.stats.walks == 0

    def test_invalid_walk_width(self):
        with pytest.raises(ValueError):
            RepairStateMachine([], LocalHistoryProvider(4, 4), 0)


class TestSharedEventBundles:
    """The composer builds one bundle per event and sets ``meta`` to each
    receiving component's own metadata before its handler runs."""

    def test_one_bundle_per_event_carrying_each_components_meta(self):
        from repro.core.composer import compose
        from repro.core.prediction import PLAIN_SLOT, PreDecodedSlot

        predictor = compose("LOOP3 > PAG3 > BTB2 > BIM2")
        calls = []
        for component in predictor.components:
            for hook in ("fire", "on_repair", "on_update"):
                def spy(bundle, original=getattr(component, hook),
                        name=component.name, hook=hook):
                    calls.append((hook, name, bundle, bundle.meta))
                    original(bundle)

                setattr(component, hook, spy)
        branch = PreDecodedSlot(is_cond_branch=True, direct_target=64)
        packet = (branch, PLAIN_SLOT, branch, PLAIN_SLOT)
        first = predictor.predict(0, packet)
        second = predictor.predict(4, packet)
        entries = {e.ftq_id: e for e in predictor.history_file}
        metas = {first.ftq_id: dict(entries[first.ftq_id].metas),
                 second.ftq_id: dict(entries[second.ftq_id].metas)}
        predictor.squash_after(first.ftq_id)  # repairs the second packet
        predictor.commit_packet(first.ftq_id)

        fires = [c for c in calls if c[0] == "fire"]
        repairs = [c for c in calls if c[0] == "on_repair"]
        updates = [c for c in calls if c[0] == "on_update"]
        assert [c[1] for c in fires] == ["pag", "loop"] * 2
        assert [c[1] for c in repairs] == ["pag", "loop"]
        assert [c[1] for c in updates] == [c.name for c in predictor.components]
        for group, ftq_id in (
            (fires[:2], first.ftq_id),
            (fires[2:], second.ftq_id),
            (repairs, second.ftq_id),
            (updates, first.ftq_id),
        ):
            assert len({id(bundle) for _, _, bundle, _ in group}) == 1
            for _, name, _, meta in group:
                assert meta == metas[ftq_id][name]
