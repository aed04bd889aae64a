from __future__ import annotations

import random

import pytest

from tabbench.seeding import Draws, derive_seed, rng_for

LENGTHS = range(1, 41)


@pytest.mark.parametrize("parts", [("render", "natural"), ("render", "order_fixed"), ("ünïcode key", 3)])
def test_draws_pick_and_swap_what_random_picks_and_swaps(parts):
    """Over 200 items, one stream each: a pick from every length 1 to 40, then
    a shuffle of every length, alternating, matches the Random that rng_for
    gives the same labels."""
    draws = Draws(11, *parts)
    for item in range(200):
        draws.reseed(item, f"key {item}")
        twin = rng_for(11, *parts, item, f"key {item}")
        for n in LENGTHS:
            seq = tuple(range(n))
            assert seq[draws.below(n)] == twin.choice(seq)
            mine, theirs = list(seq), list(seq)
            draws.shuffle(mine)
            twin.shuffle(theirs)
            assert mine == theirs


def test_reseed_starts_the_stream_of_the_derived_seed():
    draws = Draws(7, "render", "natural")
    for item in ((0, "Ronaldo"), (99, "Ngolo Kanté"), (5, "a:b")):
        draws.reseed(*item)
        twin = random.Random(derive_seed(7, "render", "natural", *item))
        assert [draws.below(1000) for _ in range(20)] == [twin.randrange(1000) for _ in range(20)]


def test_an_empty_range_raises_as_choice_of_an_empty_sequence_does():
    draws = Draws(3, "x")
    draws.reseed(0)
    with pytest.raises(IndexError):
        random.Random(0).choice(())
    with pytest.raises(IndexError):
        draws.below(0)
    # a shuffle of fewer than two items draws nothing
    for items in ([], ["a"]):
        draws.shuffle(items)
    assert draws.below(1 << 20) == rng_for(3, "x", 0).randrange(1 << 20)
