"""The report cache's LIRS policy: replay counts against LRU, invariants.

Every stream is built here, from a seed. Miss counts are pinned at the
ledger's capacity (16) and each is checked against an LRU reference
replayed over the same stream.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ReportCache

from .test_cache import make_entry

CAPACITY = 16


def stratified_tail(seed, rounds=28, hot=(0, 1, 2, 6, 7, 8, 12, 13, 18, 19)):
    """24 keys: each round asks every hot key once and the next two of the
    14 tail keys in a seeded cyclic order, shuffled within the round — a
    tail key recurs only after all 23 others (the ``serve-mix`` shape)."""
    rng = random.Random(seed)
    tail = [key for key in range(24) if key not in hot]
    rng.shuffle(tail)
    stream = []
    for index in range(rounds):
        batch = list(hot) + [tail[(2 * index + k) % len(tail)] for k in range(2)]
        rng.shuffle(batch)
        stream.extend(batch)
    return stream


def zipf(seed, keys=60, length=800):
    """Seeded draws with weight ``1 / rank`` over ``keys`` keys."""
    weights = [1.0 / (rank + 1) for rank in range(keys)]
    return random.Random(seed).choices(range(keys), weights, k=length)


def popularity_shift(seed, keys=30, length=400):
    """Zipf over keys 0-29, then the same popularity over keys 30-59."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(keys)]
    before = rng.choices(range(keys), weights, k=length)
    after = rng.choices(range(keys, 2 * keys), weights, k=length)
    return before + after


def lirs_misses(stream, capacity=CAPACITY):
    """Replay as the service uses the cache: a miss solves, then stores."""
    cache = ReportCache(capacity)
    entry = make_entry()
    for key in stream:
        if cache.get(str(key)) is None:
            cache.put(str(key), entry)
    assert cache.hits + cache.misses == len(stream)
    return cache.misses


def lru_misses(stream, capacity=CAPACITY):
    cache: OrderedDict = OrderedDict()
    misses = 0
    for key in stream:
        if key in cache:
            cache.move_to_end(key)
            continue
        misses += 1
        cache[key] = None
        if len(cache) > capacity:
            cache.popitem(last=False)
    return misses


class TestReplay:
    """Pinned miss counts at capacity 16; LIRS never misses more than LRU."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 7, 11, 42])
    def test_stratified_cyclic_tail(self, seed):
        stream = stratified_tail(seed)
        assert lru_misses(stream) == 66
        assert lirs_misses(stream) == 51

    @pytest.mark.parametrize(
        "seed, lirs, lru", [(1, 302, 338), (2, 277, 323), (3, 272, 313)]
    )
    def test_seeded_zipf(self, seed, lirs, lru):
        stream = zipf(seed)
        assert lru_misses(stream) == lru
        assert lirs_misses(stream) == lirs <= lru

    @pytest.mark.parametrize(
        "seed, lirs, lru", [(1, 198, 207), (2, 186, 201), (3, 180, 193)]
    )
    def test_popularity_shift(self, seed, lirs, lru):
        stream = popularity_shift(seed)
        assert lru_misses(stream) == lru
        assert lirs_misses(stream) == lirs <= lru


class TestLirs:
    def test_a_scan_does_not_flush_the_recurring_keys(self):
        cache = ReportCache(capacity=4)  # 3 LIR + 1 resident HIR
        for key in "abc":
            cache.put(key, make_entry())
        for key in "wxyz":  # seen once each: they pass through the queue
            cache.put(key, make_entry())
        assert all(key in cache for key in "abc")
        assert cache.policy_stats() == {"lir": 3, "hir": 1, "nonresident": 3}

    def test_an_evicted_key_that_returns_becomes_lir(self):
        cache = ReportCache(capacity=4)
        for key in "abcx":
            cache.put(key, make_entry())
        assert cache.put("y", make_entry()) == 1  # x, the queue's HIR, goes
        assert "x" not in cache
        cache.put("x", make_entry())  # a ghost back: its reuse gap is short
        assert "x" in cache and "y" not in cache
        assert cache.policy_stats() == {"lir": 3, "hir": 1, "nonresident": 1}
        # a, the stack's bottom, went to the queue in x's place, so the
        # next new key evicts a and x stays.
        cache.put("z", make_entry())
        assert "a" not in cache and "x" in cache

    def test_nonresident_keys_are_remembered_up_to_capacity(self):
        cache = ReportCache(capacity=3)
        cache.put("hot", make_entry())
        for index in range(50):
            cache.put(f"scan-{index}", make_entry())
        state = cache.policy_stats()
        assert state["nonresident"] == 3
        assert state["lir"] + state["hir"] == len(cache) == 3

    def test_capacity_two_victim(self):
        """At capacity 2 the LIR set holds one key, the first put, and the
        queue one resident HIR key; a new key always evicts that HIR key.
        When the LIR key was used after the HIR key was stored, the HIR
        key is also LRU's victim; when it was not, the policies part."""
        cache = ReportCache(capacity=2)
        cache.put("a", make_entry())
        cache.put("b", make_entry())
        assert cache.policy_stats() == {"lir": 1, "hir": 1, "nonresident": 0}
        assert cache.get("a") is not None  # a used last: LRU's victim is b
        assert cache.put("c", make_entry()) == 1
        assert "b" not in cache and "a" in cache and "c" in cache
        assert lru_misses(["a", "b", "a", "c", "b"], capacity=2) == 4

        cache = ReportCache(capacity=2)
        for key in "abc":  # no use of a: LRU would evict a, LIRS keeps it
            cache.put(key, make_entry())
        assert "a" in cache and "b" not in cache and "c" in cache
        assert cache.policy_stats() == {"lir": 1, "hir": 1, "nonresident": 1}
        assert lru_misses(["a", "b", "c", "a"], capacity=2) == 4

    def test_clear_forgets_the_policy_state(self):
        cache = ReportCache(capacity=4)
        for key in "abcdef":
            cache.put(key, make_entry())
        cache.clear()
        assert len(cache) == 0
        assert cache.policy_stats() == {"lir": 0, "hir": 0, "nonresident": 0}


#: One operation: ``("get", key)`` or ``("put", key)``.
OPERATIONS = st.lists(
    st.tuples(st.sampled_from(["get", "put"]), st.integers(0, 11)), max_size=120
)


class TestInvariants:
    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(0, 9), operations=OPERATIONS)
    def test_replay_invariants(self, capacity, operations):
        cache = ReportCache(capacity)
        last_put = {}
        gets = 0
        for op, number in operations:
            key = f"k{number}"
            if op == "put":
                entry = make_entry()
                size = len(cache)
                resident = key in cache
                evicted = cache.put(key, entry)
                last_put[key] = entry
                assert len(cache) == size + (capacity > 0 and not resident) - evicted
                if capacity:
                    assert key in cache  # the last put is always resident
            else:
                gets += 1
                hit = cache.get(key)
                if hit is not None:
                    assert hit is last_put[key]
            state = cache.policy_stats()
            assert len(cache) <= capacity
            assert state["lir"] + state["hir"] == len(cache)
            assert state["nonresident"] <= capacity
            assert cache.hits + cache.misses == gets
            if capacity == 0:
                assert len(cache) == 0 and state["nonresident"] == 0
            if capacity == 1 and last_put:
                assert len(cache) == 1

    def test_capacity_one_holds_the_last_put(self):
        cache = ReportCache(capacity=1)
        for key in "abab":
            cache.put(key, make_entry())
            assert len(cache) == 1 and key in cache
        assert cache.get("b") is not None
        assert cache.get("a") is None
