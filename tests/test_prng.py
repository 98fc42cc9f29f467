import ast
import math
from pathlib import Path

import numpy as np
import pytest

from ahpatron.prng import SplitMix64, derive_stream_seed, normal_pairs

from oracles import ScalarSplitMix64, scalar_shuffle

SRC = Path(__file__).resolve().parent.parent / "src" / "ahpatron"


def test_known_answer_seed_zero():
    # Reference outputs of splitmix64 with the standard constants.
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_replay_is_exact():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_below_range_and_reachability():
    gen = SplitMix64(7)
    seen = set()
    for _ in range(2000):
        v = gen.below(5)
        assert 0 <= v < 5
        seen.add(v)
    assert seen == {0, 1, 2, 3, 4}


def test_below_rejects_nonpositive():
    gen = SplitMix64(7)
    try:
        gen.below(0)
    except ValueError:
        pass
    else:
        raise AssertionError("below(0) should raise")


def test_uniform_in_unit_interval():
    gen = ScalarSplitMix64(3)
    values = [gen.uniform() for _ in range(5000)]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.02


def test_normal_moments():
    gen = ScalarSplitMix64(11)
    values = [gen.normal() for _ in range(20000)]
    mean = sum(values) / len(values)
    var = sum(v * v for v in values) / len(values) - mean * mean
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05
    assert all(math.isfinite(v) for v in values)


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(50))
    a = list(items)
    SplitMix64(42).shuffle(a)
    b = list(items)
    SplitMix64(42).shuffle(b)
    assert a == b
    assert sorted(a) == items
    c = list(items)
    SplitMix64(43).shuffle(c)
    assert c != a


@pytest.mark.parametrize("seed", [0, 42, 987654321, 2**64 - 1])
def test_shuffle_matches_scalar_loop(seed):
    for n in (0, 1, 2, 3, 10, 1000, 20000):
        fast, slow = list(range(n)), list(range(n))
        a, b = SplitMix64(seed), SplitMix64(seed)
        a.shuffle(fast)
        scalar_shuffle(b, slow)
        assert fast == slow
        assert a.getstate() == b.getstate()


_GAMMA = 0x9E3779B97F4A7C15


class Substituted(SplitMix64):
    """SplitMix64 whose output number ``at`` (0-based from the seed) is
    ``value``, whether it is drawn by next_u64 or by take; counts below calls."""

    def __init__(self, seed, at, value):
        super().__init__(seed)
        self.origin, self.at, self.value = seed, at, value
        self.below_calls = 0

    def drawn(self):
        """Outputs drawn so far: the state is origin + drawn * gamma mod 2^64."""
        return (self.getstate() - self.origin) * pow(_GAMMA, -1, 2**64) % 2**64

    def next_u64(self):
        k = self.drawn()
        u = super().next_u64()
        return self.value if k == self.at else u

    def take(self, n):
        k = self.drawn()
        out = super().take(n)
        if k <= self.at < k + n:
            out[self.at - k] = self.value
        return out

    def below(self, bound):
        self.below_calls += 1
        return super().below(bound)


@pytest.mark.parametrize("above_limit", [True, False])
def test_shuffle_falls_back_from_first_rejected_draw(above_limit):
    # Draw 3 of a 10-item shuffle serves bound 7; below accepts u < limit.
    n, at, bound = 10, 3, 7
    limit = 2**64 - 2**64 % bound
    value = limit if above_limit else limit - 1
    fast, slow = list(range(n)), list(range(n))
    a, b = Substituted(5, at, value), Substituted(5, at, value)
    a.shuffle(fast)
    scalar_shuffle(b, slow)
    assert fast == slow
    assert a.getstate() == b.getstate()
    # A rejected draw hands it and every later draw to below.
    assert a.below_calls == (n - 1 - at if above_limit else 0)
    assert b.below_calls == n - 1


def test_derived_stream_differs():
    seed = 1234
    assert derive_stream_seed(seed) != seed
    main = [SplitMix64(seed).next_u64() for _ in range(4)]
    side = [SplitMix64(derive_stream_seed(seed)).next_u64() for _ in range(4)]
    assert main != side


def test_take_matches_next_u64():
    for seed in (0, 987654321, 2**64 - 1):
        a = SplitMix64(seed)
        b = SplitMix64(seed)
        block = a.take(1000)
        assert block.dtype == np.uint64
        assert block.tolist() == [b.next_u64() for _ in range(1000)]
        assert a.getstate() == b.getstate()
        assert a.next_u64() == b.next_u64()
    assert SplitMix64(5).take(0).size == 0


def test_take_leaves_spare_normal_pending():
    a = ScalarSplitMix64(17)
    b = ScalarSplitMix64(17)
    a.normal()
    b.normal()
    a.take(3)
    for _ in range(3):
        b.next_u64()
    assert a.normal() == b.normal()


def test_normal_pairs_match_scalar_normals():
    gen = ScalarSplitMix64(41)
    draws = SplitMix64(41).take(20_000)
    cos_part, sin_part = normal_pairs(draws[0::2], draws[1::2])
    scalar = [gen.normal() for _ in range(20_000)]
    assert cos_part.tolist() == scalar[0::2]
    assert sin_part.tolist() == scalar[1::2]


_TOP = 2**64 - 1  # an output whose >> 11 is 2^53 - 1, the largest draw


def test_numpy_cos_sin_are_libm_on_box_muller_angles():
    # normal_pairs takes cos and sin from numpy's float64 ufuncs and the
    # scalar oracle from math; the two must agree bit for bit on the angles
    # the generator makes, u2 = 0 and the largest u2 included.
    second = np.concatenate([SplitMix64(29).take(2**18),
                             np.array([0, _TOP], dtype=np.uint64)])
    theta = (2.0 * math.pi) * ((second >> 11) * 2.0**-53)
    for fast, scalar in ((np.cos, math.cos), (np.sin, math.sin)):
        libm = np.fromiter(map(scalar, theta.tolist()), float, len(theta))
        differ = np.count_nonzero(fast(theta).view(np.uint64) != libm.view(np.uint64))
        assert differ == 0, (
            f"np.{fast.__name__} differs from math.{scalar.__name__} on {differ} "
            f"of {len(theta)} Box-Muller angles: every synthetic stream would "
            f"change on this numpy build")


class Replayed(ScalarSplitMix64):
    """ScalarSplitMix64 whose outputs are the given values, in order."""

    def __init__(self, outputs):
        super().__init__(0)
        self.outputs = iter(outputs)

    def next_u64(self):
        return next(self.outputs)


def test_normal_pairs_match_scalar_normals_at_the_draw_extremes():
    # first >> 11 in {0, 2^53 - 1} gives u1 = 2^-53 and u1 = 1 (where r is
    # sqrt(-0.0) = -0.0), second >> 11 in {0, 2^53 - 1} the two ends of u2.
    # Bytes are compared, since a list == treats -0.0 as 0.0.
    first = np.array([0, 0, _TOP, _TOP, 2047, 2048], dtype=np.uint64)
    second = np.array([0, _TOP, 0, _TOP, 2048, 2047], dtype=np.uint64)
    cos_part, sin_part = normal_pairs(first, second)
    gen = Replayed(np.stack([first, second], axis=1).ravel().tolist())
    scalar = np.array([gen.normal() for _ in range(2 * len(first))])
    assert cos_part.tobytes() == scalar[0::2].tobytes()
    assert sin_part.tobytes() == scalar[1::2].tobytes()
    assert math.copysign(1.0, cos_part[2]) == -1.0  # r = sqrt(-0.0)
    empty = np.empty(0, dtype=np.uint64)
    for part in normal_pairs(empty, empty):
        assert part.dtype == np.float64 and part.size == 0


def test_setstate_replays_from_getstate():
    gen = SplitMix64(3)
    gen.next_u64()
    saved = gen.getstate()
    assert isinstance(saved, int)
    first = gen.take(5).tolist() + [gen.below(7) for _ in range(5)]
    gen.setstate(saved)
    assert gen.take(5).tolist() + [gen.below(7) for _ in range(5)] == first


def test_library_draws_no_scalar_floats():
    # Floats come from blocks of outputs (take, normal_pairs); the scalar
    # uniform() and normal() draws live in oracles.ScalarSplitMix64 only.
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("normal", "uniform")]
    assert calls == []
