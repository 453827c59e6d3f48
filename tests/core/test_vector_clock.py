"""Vector clocks over inheritable TLS: fork-ordering semantics.

Includes property-based tests checking the happens-before laws that the
parent-child pruning of section 4.1 depends on.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vector_clock import (
    TLS_KEY,
    CounterCell,
    ThreadVectorClock,
    concurrent,
    leq,
    ordered,
)
from repro.sim.api import Simulation


class _FakeThread:
    def __init__(self, tid):
        self.tid = tid


class TestCounterCell:
    def test_starts_at_one(self):
        assert CounterCell().value == 1

    def test_increment(self):
        cell = CounterCell()
        cell.increment()
        assert cell.value == 2


class TestThreadVectorClock:
    def test_fresh_clock_snapshot(self):
        clock = ThreadVectorClock(tid=5)
        assert clock.snapshot() == {5: 1}

    def test_inherit_appends_child_entry(self):
        parent = ThreadVectorClock(tid=1)
        child = parent.inherit_to(_FakeThread(1), _FakeThread(2))
        assert child.snapshot() == {1: 1, 2: 1}

    def test_inherit_bumps_parent_counter(self):
        parent = ThreadVectorClock(tid=1)
        parent.inherit_to(_FakeThread(1), _FakeThread(2))
        assert parent.snapshot() == {1: 2}

    def test_child_entry_frozen_against_later_forks(self):
        """The paper-critical clarification: a later fork by the parent
        must not retroactively advance an earlier child's view."""
        parent = ThreadVectorClock(tid=1)
        first = parent.inherit_to(_FakeThread(1), _FakeThread(2))
        parent.inherit_to(_FakeThread(1), _FakeThread(3))
        assert first.snapshot()[1] == 1
        assert parent.snapshot() == {1: 3}

    def test_grandchild_carries_ancestor_entries(self):
        root = ThreadVectorClock(tid=1)
        child = root.inherit_to(_FakeThread(1), _FakeThread(2))
        grandchild = child.inherit_to(_FakeThread(2), _FakeThread(3))
        assert grandchild.snapshot() == {1: 1, 2: 1, 3: 1}


class TestOrdering:
    def test_parent_prefork_ordered_before_child(self):
        parent = ThreadVectorClock(tid=1)
        before_fork = parent.snapshot()
        child = parent.inherit_to(_FakeThread(1), _FakeThread(2))
        assert ordered(before_fork, child.snapshot())
        assert leq(before_fork, child.snapshot())

    def test_parent_postfork_concurrent_with_child(self):
        parent = ThreadVectorClock(tid=1)
        child = parent.inherit_to(_FakeThread(1), _FakeThread(2))
        after_fork = parent.snapshot()
        assert concurrent(after_fork, child.snapshot())

    def test_siblings_concurrent(self):
        parent = ThreadVectorClock(tid=1)
        a = parent.inherit_to(_FakeThread(1), _FakeThread(2))
        b = parent.inherit_to(_FakeThread(1), _FakeThread(3))
        assert concurrent(a.snapshot(), b.snapshot())

    def test_missing_snapshots_treated_as_unordered(self):
        assert not ordered(None, {1: 1})
        assert not ordered({1: 1}, None)
        assert concurrent(None, None)

    def test_reflexive(self):
        snap = {1: 2, 2: 1}
        assert ordered(snap, snap)


class TestHypothesisLaws:
    snapshots = st.dictionaries(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
        min_size=0,
        max_size=6,
    )

    @given(a=snapshots, b=snapshots)
    def test_ordered_is_symmetric(self, a, b):
        assert ordered(a, b) == ordered(b, a)

    @given(a=snapshots)
    def test_leq_reflexive(self, a):
        assert leq(a, a)

    @given(a=snapshots, b=snapshots, c=snapshots)
    def test_leq_transitive(self, a, b, c):
        if leq(a, b) and leq(b, c):
            assert leq(a, c)

    @given(a=snapshots, b=snapshots)
    def test_concurrent_is_negation_of_ordered(self, a, b):
        assert concurrent(a, b) == (not ordered(a, b))

    @given(tids=st.lists(st.integers(min_value=2, max_value=50), max_size=8, unique=True))
    @settings(max_examples=50)
    def test_fork_chain_snapshots_totally_ordered_along_chain(self, tids):
        """Along a fork chain, each ancestor's pre-fork snapshot is
        ordered before every descendant's snapshot."""
        clock = ThreadVectorClock(tid=1)
        history = [clock.snapshot()]
        current = clock
        current_tid = 1
        for tid in tids:
            current = current.inherit_to(_FakeThread(current_tid), _FakeThread(tid))
            current_tid = tid
            history.append(current.snapshot())
        for i in range(len(history)):
            for j in range(i + 1, len(history)):
                assert leq(history[i], history[j])


def grow_fork_tree(seed, n_threads, fork_bias=0.6, captures_per_thread=2):
    """Grow one random fork tree, capturing snapshots between forks.

    Returns ``(captures, fork_point)``: ``captures`` lists
    ``(tid, epoch, snapshot)`` triples, where ``epoch`` counts the forks
    ``tid`` had made when the snapshot was taken; ``fork_point`` maps
    each child tid to its parent's ``(tid, epoch)`` at the fork.
    """
    rng = random.Random(seed)
    clocks = {1: ThreadVectorClock(1)}
    epochs = {1: 0}
    fork_point = {}
    tids = [1]
    captures = []
    newest = 1
    while len(tids) < n_threads:
        parent = newest if rng.random() < fork_bias else rng.choice(tids)
        # Interleave captures with forks so snapshots at different
        # epochs of the same thread appear.
        for tid in rng.sample(tids, min(len(tids), captures_per_thread)):
            captures.append((tid, epochs[tid], clocks[tid].snapshot()))
        child = len(tids) + 1
        clocks[child] = clocks[parent].inherit_to(_FakeThread(parent), _FakeThread(child))
        fork_point[child] = (parent, epochs[parent])
        epochs[parent] += 1
        epochs[child] = 0
        newest = child
        tids.append(child)
    for tid in tids:
        captures.append((tid, epochs[tid], clocks[tid].snapshot()))
    return captures, fork_point


def fork_reaches(a, b, fork_point):
    """Oracle: does point ``a = (tid, epoch)`` precede or equal ``b``?

    Walk up from ``b`` through the fork points of its ancestors until
    reaching ``a``'s thread; ``a`` precedes iff it is not later there.
    """
    tid_a, epoch_a = a
    tid_b, epoch_b = b
    while tid_b != tid_a:
        if tid_b not in fork_point:
            return False
        tid_b, epoch_b = fork_point[tid_b]
    return epoch_a <= epoch_b


def expected_snapshot(tid, epoch, fork_point):
    """Oracle: a thread's own counter is its epoch + 1, and each
    ancestor entry is the ancestor's epoch + 1 at the fork below it."""
    snap = {tid: epoch + 1}
    while tid in fork_point:
        tid, epoch = fork_point[tid]
        snap[tid] = epoch + 1
    return snap


class TestForkTreeOracle:
    """Snapshots and ``leq`` agree with the fork-tree history itself."""

    @staticmethod
    def _assert_leq_matches_oracle(captures, fork_point):
        for tid_a, epoch_a, snap_a in captures:
            for tid_b, epoch_b, snap_b in captures:
                expect = fork_reaches((tid_a, epoch_a), (tid_b, epoch_b), fork_point)
                assert leq(snap_a, snap_b) == expect
                both = expect and fork_reaches((tid_b, epoch_b), (tid_a, epoch_a), fork_point)
                either = expect or fork_reaches((tid_b, epoch_b), (tid_a, epoch_a), fork_point)
                assert ordered(snap_a, snap_b) == either
                assert concurrent(snap_a, snap_b) == (not either)
                assert (snap_a == snap_b) == both

    @pytest.mark.parametrize("seed", range(6))
    def test_leq_matches_fork_reachability(self, seed):
        captures, fork_point = grow_fork_tree(seed, n_threads=24)
        self._assert_leq_matches_oracle(captures, fork_point)

    def test_deep_spine_matches_fork_reachability(self):
        # A pure spine maximizes the number of inherited entries.
        captures, fork_point = grow_fork_tree(11, n_threads=60, fork_bias=1.0)
        self._assert_leq_matches_oracle(captures, fork_point)

    @pytest.mark.parametrize("seed", range(4))
    def test_snapshots_match_fork_history(self, seed):
        # Checked after the whole tree has grown: a snapshot taken
        # earlier must not have moved with its thread's later forks.
        captures, fork_point = grow_fork_tree(seed, n_threads=40)
        for tid, epoch, snap in captures:
            assert snap == expected_snapshot(tid, epoch, fork_point)

    def test_same_thread_program_order(self):
        clock = ThreadVectorClock(5)
        a = clock.snapshot()
        clock.inherit_to(_FakeThread(5), _FakeThread(6))
        b = clock.snapshot()
        assert leq(a, b) and not leq(b, a)
        assert ordered(a, b)


class TestEndToEndWithSimulation:
    def test_fork_tree_clocks_via_itls(self):
        """Install a root clock in inheritable TLS and verify fork-tree
        ordering laws over a real simulated thread tree."""
        sim = Simulation(seed=3)
        snaps = {}

        def leaf(sim, name):
            snaps[name] = sim.itls_get(TLS_KEY).snapshot()
            yield from sim.sleep(0)

        def mid(sim, name):
            snaps[name + ".pre"] = sim.itls_get(TLS_KEY).snapshot()
            t = sim.fork(leaf(sim, name + ".leaf"), name=name + ".leaf")
            snaps[name + ".post"] = sim.itls_get(TLS_KEY).snapshot()
            yield from sim.join(t)

        def main(sim):
            sim.itls_set(TLS_KEY, ThreadVectorClock(sim.current_thread.tid))
            snaps["root.pre"] = sim.itls_get(TLS_KEY).snapshot()
            a = sim.fork(mid(sim, "a"), name="a")
            b = sim.fork(mid(sim, "b"), name="b")
            yield from sim.join(a)
            yield from sim.join(b)

        sim.run(main(sim))
        # Root's pre-fork snapshot precedes everything.
        for name, snap in snaps.items():
            if name != "root.pre":
                assert leq(snaps["root.pre"], snap), name
        # Pre-fork mid precedes its own leaf...
        assert leq(snaps["a.pre"], snaps["a.leaf"])
        # ... post-fork mid is concurrent with its leaf ...
        assert concurrent(snaps["a.post"], snaps["a.leaf"])
        # ... and the two subtrees are mutually concurrent.
        assert concurrent(snaps["a.leaf"], snaps["b.leaf"])
        assert concurrent(snaps["a.pre"], snaps["b.pre"])
