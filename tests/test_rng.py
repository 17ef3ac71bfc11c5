from __future__ import annotations

import signal

import pytest

from treewave.rng import BELOW_LIMIT, XorShift64Star, derive_seed, splitmix64


def test_splitmix64_reference_value():
    # first output of the seed-0 splitmix64 stream, as published
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_stream_is_pinned():
    # frozen stream: instance bytes everywhere depend on these exact values
    rng = XorShift64Star(1)
    assert [rng.next_u64() for _ in range(4)] == [
        5424204624148110235,
        15555979849632202484,
        6851360858507811590,
        4263911567865507035,
    ]


def test_same_seed_same_stream():
    a = XorShift64Star(12345)
    b = XorShift64Star(12345)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_below_range_and_coverage():
    rng = XorShift64Star(7)
    seen = set()
    for _ in range(2000):
        v = rng.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_below_one_and_errors():
    rng = XorShift64Star(0)
    assert rng.below(1) == 0
    with pytest.raises(ValueError):
        rng.below(0)
    with pytest.raises(ValueError):
        rng.randint(3, 2)


def _alarm(signum, frame):
    raise TimeoutError("below() did not return")


def test_below_refuses_more_than_2_64_values():
    """One 64-bit draw covers at most 2**64 values; a larger n is refused
    at once instead of rejection-sampling forever."""
    assert BELOW_LIMIT == 2**64
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(5)
    try:
        rng = XorShift64Star(1)
        for n in (2**64 + 1, 10**21, 2**70):
            with pytest.raises(ValueError, match=r"^below\(\) needs n <= 2\*\*64$"):
                rng.below(n)
        with pytest.raises(ValueError):
            rng.randint(0, 2**64)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # the refusals drew nothing, and n = 2**64 still takes a draw as is
    assert rng.below(2**64) == 5424204624148110235
    assert rng.randint(1, 2**64) == 15555979849632202484 + 1


def test_randint_inclusive():
    rng = XorShift64Star(9)
    values = {rng.randint(2, 4) for _ in range(200)}
    assert values == {2, 3, 4}


def test_derive_seed_spreads():
    seeds = {derive_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(42, 0) != derive_seed(43, 0)
