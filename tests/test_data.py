import hashlib
import io
from collections import Counter
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from ahpatron import data
from ahpatron.data import (
    BlockTooLarge,
    Dataset,
    MalformedLine,
    NonBinaryLabels,
    format_libsvm,
    load_dataset,
    load_libsvm,
    parse_libsvm,
    permute,
    synth_noisy,
    synth_separable,
)
from ahpatron.kernels import LabeledExample, SparseVector
from ahpatron.prng import SplitMix64

from helpers import adopted, subsample, support
from oracles import ScalarSplitMix64, per_line_parse, random_examples, scalar_synth


# -- parsing ---------------------------------------------------------------------


def test_parse_basic_line():
    ds = parse_libsvm(["+1 1:0.5 3:2"])
    assert ds.examples[0].y == 1
    assert ds.examples[0].x == SparseVector([(1, 0.5), (3, 2.0)])
    assert ds.examples[0].x.width == 4


def test_parse_zero_one_label_mapping():
    ds = parse_libsvm(["0 2:1", "1 2:1"])
    assert [e.y for e in ds.examples] == [-1, 1]


def test_parse_one_two_label_mapping():
    ds = parse_libsvm(["1 0:1", "2 0:1", "1 1:1"])
    assert [e.y for e in ds.examples] == [-1, 1, -1]


def test_parse_keeps_plus_minus_one():
    ds = parse_libsvm(["-1 0:1", "+1 0:2", "1 0:3"])
    assert [e.y for e in ds.examples] == [-1, 1, 1]


def test_parse_nonincreasing_indices():
    with pytest.raises(MalformedLine) as err:
        parse_libsvm(["1 3:1 2:1"])
    assert err.value.line_number == 1


def test_parse_reports_line_number():
    with pytest.raises(MalformedLine) as err:
        parse_libsvm(["+1 1:1", "", "# comment", "-1 not-a-feature"])
    assert err.value.line_number == 4


def test_parse_bad_label():
    with pytest.raises(MalformedLine):
        parse_libsvm(["spam 1:1"])


def test_parse_comments_and_blanks():
    ds = parse_libsvm(["# header", "", "+1 1:2 # trailing", "   ", "-1 2:3"])
    assert len(ds.examples) == 2
    assert ds.examples[0].x == SparseVector([(1, 2.0)])


def test_parse_label_only_line():
    ds = parse_libsvm(["+1", "-1 1:1"])
    assert ds.examples[0].x == SparseVector([])


def test_parse_explicit_zero_values_dropped():
    ds = parse_libsvm(["+1 1:0 2:5", "-1 1:1"])
    assert ds.examples[0].x == SparseVector([(2, 5.0)])


def test_parse_rejects_nonbinary_labels():
    with pytest.raises(NonBinaryLabels):
        parse_libsvm(["1 0:1", "2 0:1", "3 0:1"])
    with pytest.raises(NonBinaryLabels):
        parse_libsvm(["5 0:1"])
    with pytest.raises(NonBinaryLabels):
        parse_libsvm([])


def test_roundtrip_identity():
    gen = ScalarSplitMix64(301)
    examples = random_examples(gen, 40, 7, scale=3.0)
    ds = Dataset(examples, name="t")
    buf = io.StringIO()
    format_libsvm(ds, buf)
    again = parse_libsvm(io.StringIO(buf.getvalue()), name="t")
    assert again.examples == ds.examples


def _outcome(parse, lines):
    """(labels, indices, value bytes, widths, squared-norm bytes, dense-row
    bytes, block widths, name) of a parse, or the (type, message, line
    number) of the error it raised."""
    try:
        labels, xs, widths, norms, rows, block_widths, name = parse(lines)
    except ValueError as e:
        return type(e), str(e), getattr(e, "line_number", None)
    supports = [support(x) for x in xs]
    values = b"".join(np.array(v, dtype=float).tobytes() for _, v in supports)
    return (labels, [at for at, _ in supports], values, widths,
            np.array(norms, dtype=float).tobytes(), b"".join(rows), block_widths, name)


def _library(lines):
    """parse_libsvm, with the width of the block each instance's row is cut from."""
    ds = parse_libsvm(lines, name="f")
    xs = [ex.x for ex in ds.examples]
    block_widths = {x.dense(x.width).base.shape[1] for x in xs}
    width = max(block_widths)
    return ([ex.y for ex in ds.examples], xs, [x.width for x in xs],
            [x.sq_norm for x in xs], [x.dense(width).tobytes() for x in xs],
            block_widths, ds.name)


def _reference(lines):
    """per_line_parse, with each width, squared norm (a left-to-right float
    loop, +inf on overflow) and dense row computed from the supports alone;
    every row is as wide as the largest nonzero index + 1."""
    raw, xs = per_line_parse(lines)
    if not raw:
        raise NonBinaryLabels("empty dataset")
    supports = [support(x) for x in xs]
    widths = [at[-1] + 1 if at else 0 for at, _ in supports]
    width = max(widths)
    norms, rows = [], []
    for at, values in supports:
        sq = 0.0
        for v in values:
            sq += v * v
        norms.append(sq)
        row = np.zeros(width)
        row[list(at)] = values
        rows.append(row.tobytes())
    return data._normalize_labels(raw), xs, widths, norms, rows, {width}, "f"


def _check_against_reference(lines):
    got = _outcome(_library, lines)
    assert got == _outcome(_reference, lines), lines
    return got


_BINARY = ["-1 3:1\n", "+1 1:0.5 2:0.25\n"]


@pytest.mark.parametrize("line, parses", [
    ("1 5 1:2:3", False),
    ("1 1:2:3 4:5", False),
    ("1 1::2", False),
    ("1 :2", False),
    ("1 1:", False),
    ("1 1: 2:3", False),
    ("1:2 3", False),
    ("1 1:\t2", False),      # a tab after the colon splits the token
    ("1 1:\xa02", False),    # so does a non-ASCII space
    ("1\t1:2\t3:4", True),
    ("1  1:2  3:4", True),
    (" 1 1:2 ", True),
    ("1 1:2\r", True),
    ("1 1:0", True),
    ("1 1:-0.0", True),
    ("1 1:1 2:0 3:1", True),
    ("1 1:2 # comment 3:4", True),
    ("# 1 1:2", True),
    ("1", True),
    ("1 01:2 2:1_0", True),
    ("1 \u0663:2", True),     # int() reads digits of every script
    ("1 1:1e308 2:1e308", True),  # finite values, overflowing sum
    ("1 1:nan", False),
    ("1 1:-inf", False),
    ("inf 1:2", False),
    ("1 -1:2", False),
    ("1 2:1 2:3", False),
    ("1 3:1 2:1", False),
])
def test_parse_matches_per_line_reference(line, parses):
    for lines in ([*_BINARY[:1], line + "\n", *_BINARY[1:]], [line] + _BINARY):
        got = _check_against_reference(lines)
        assert (got[0] is not MalformedLine) == parses


def test_parse_fuzz_matches_per_line_reference():
    rng = random.Random(20261018)
    buf = io.StringIO()
    format_libsvm(synth_noisy(40, 4, 0.2, 7), buf)
    format_libsvm(Dataset(random_examples(ScalarSplitMix64(3), 40, 6, scale=4.0)), buf)
    base = buf.getvalue().splitlines(keepends=True)
    alphabet = " \t:#0-e.x \r" + "\u0663"  # and ARABIC-INDIC DIGIT THREE
    kinds = Counter()
    for _ in range(3000):
        lines = rng.sample(base, 4)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(lines))
            line = lines[i]
            pos = rng.randrange(len(line))
            op = rng.randrange(3)
            ch = rng.choice(alphabet)
            if op == 0:
                line = line[:pos] + ch + line[pos:]
            elif op == 1:
                line = line[:pos] + line[pos + 1:]
            else:
                line = line[:pos] + ch + line[pos + 1:]
            lines[i] = line
        if rng.random() < 0.25:  # trailing whitespace, as some files have
            i = rng.randrange(len(lines))
            body = lines[i].rstrip("\n")
            lines[i] = body + rng.choice([" ", "\t", " \t", "  "]) + lines[i][len(body):]
        got = _check_against_reference(lines)
        kinds[got[0] if isinstance(got[0], type) else "parsed"] += 1
    # Both outcomes are common, so both paths and the errors are exercised.
    assert kinds["parsed"] > 300 and kinds[MalformedLine] > 300, kinds


def test_trailing_whitespace_takes_the_bulk_path():
    # Files such as a9a end every line in a space; those lines stay on the
    # fast path (the fuzz above checks that the result is unchanged).
    for tail in ("", "\n", " \n", "\t\n", " \r\n", " \t "):
        assert data._bulk_line("1 1:2 3:4" + tail, None, ()) == (
            1.0, ["1", "3"], (1, 3), (2.0, 4.0)), repr(tail)
    assert data._bulk_line("1 1:2 3:4\x1c\n", None, ()) is None


def test_parse_pin_and_one_block(tmp_path):
    path = tmp_path / "noisy.libsvm"
    with open(path, "w", encoding="utf-8") as fh:
        format_libsvm(synth_noisy(2000, 18, 0.1, 3), fh)
    ds = load_libsvm(str(path))
    h = hashlib.sha256()
    for ex in ds.examples:
        at, values = support(ex.x)
        h.update(np.array(at, dtype=np.int64).tobytes())
        h.update(np.array(values, dtype=np.float64).tobytes())
        h.update(np.int8(ex.y).tobytes())
    # Captured from the per-line parser.
    assert h.hexdigest() == (
        "ebfef2623937c08bcb9f95370a5be0d264aaf68deb06751552dc802e0811bb81")
    assert (ds.name, len(ds)) == ("noisy.libsvm", 2000)
    block = ds.examples[0].x.dense(18).base
    assert block.shape == (2000, 18)
    assert all(ex.x.dense(18).base is block for ex in ds.examples)


class _Discard:
    def write(self, text: str) -> None:
        pass


def test_formatting_keeps_nothing_per_row():
    # Each row is written from its dense row; a cached index and value tuple
    # per vector took ~4 MB at this size.
    ds = synth_noisy(5000, 18, 0.1, 3)
    tracemalloc.start()
    try:
        format_libsvm(ds, _Discard())
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and retained < 1 << 16


def test_parse_allocates_its_block_once():
    # The block becomes the store as it is; copying it would double the peak.
    T, width = 2000, 1000
    lines = [f"{(-1) ** t} {width - 1}:{t + 1}" for t in range(T)]
    tracemalloc.start()
    try:
        ds = parse_libsvm(lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.examples[-1].x.dense(width).base.shape == (T, width)
    assert peak < 1.5 * T * width * 8


def test_parse_releases_its_flat_arrays_before_the_instances():
    # A dense 20,000 x 18 stream: the flat index and value arrays (16 B a
    # nonzero, two blocks) are gone before the instances and examples are
    # built, so the peak stays under two blocks above what the parse keeps.
    T, d = 20_000, 18
    buf = io.StringIO()
    format_libsvm(synth_noisy(T, d, 0.1, seed=2), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = parse_libsvm(lines)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.examples[0].x.dense(d).base.shape == (T, d)
    assert held - before > T * d * 8
    assert peak - held < 2 * T * d * 8


def test_block_limit_counts_the_block_and_its_copy(monkeypatch):
    # SUSY, 5,000,000 rows of width 19, must still fit.
    assert 2 * 5_000_000 * 19 * 8 <= data._BLOCK_BYTES_LIMIT
    lines = ["1 1:1", "-1 3:2"]  # 2 rows of width 4: 64 bytes, 128 with the copy
    monkeypatch.setattr(data, "_BLOCK_BYTES_LIMIT", 128)
    assert len(parse_libsvm(lines)) == 2
    monkeypatch.setattr(data, "_BLOCK_BYTES_LIMIT", 127)
    with pytest.raises(BlockTooLarge, match="^wide: 2 rows of width 4 need 128 bytes"):
        parse_libsvm(lines, name="wide")


# -- permutation / subsampling ------------------------------------------------------


def _tiny_dataset(n=100):
    gen = ScalarSplitMix64(999)
    return Dataset(random_examples(gen, n, 5), name="tiny")


def test_permute_deterministic():
    ds = _tiny_dataset()
    a = permute(ds, 7)
    b = permute(ds, 7)
    assert a.examples == b.examples


def test_permute_differs_across_seeds():
    ds = _tiny_dataset()
    assert permute(ds, 1).examples != permute(ds, 2).examples


def test_permute_preserves_multiset_and_objects():
    ds = _tiny_dataset()
    shuffled = permute(ds, 3)
    assert sorted(id(e) for e in shuffled.examples) == sorted(id(e) for e in ds.examples)
    assert shuffled.name == ds.name


def test_subsample_full_size_is_permutation():
    ds = _tiny_dataset()
    s = subsample(ds, len(ds.examples), 5)
    assert sorted(id(e) for e in s.examples) == sorted(id(e) for e in ds.examples)


def test_subsample_single_and_subset():
    ds = _tiny_dataset()
    one = subsample(ds, 1, 11)
    assert len(one.examples) == 1 and one.examples[0] in ds.examples
    some = subsample(ds, 17, 13)
    ids = {id(e) for e in ds.examples}
    assert len(some.examples) == 17
    assert all(id(e) in ids for e in some.examples)


def test_subsample_rejects_bad_n():
    ds = _tiny_dataset()
    with pytest.raises(ValueError):
        subsample(ds, len(ds.examples) + 1, 0)
    with pytest.raises(ValueError):
        subsample(ds, 0, 0)


# -- synthetic streams ----------------------------------------------------------------


def _comparator_margins(ds, d, margin):
    """y * <w, x> per example for the comparator the construction guarantees:
    an example is accepted when y * sum(x) / sqrt(d) >= margin, so
    w = [1 / (sqrt(d) * margin)] * d has functional margin 1."""
    w = [1.0 / (math.sqrt(d) * margin)] * d
    out = []
    for e in ds.examples:
        at, values = support(e.x)
        out.append(e.y * sum(w[i] * v for i, v in zip(at, values)))
    return out


def test_separable_margin_one_extreme():
    ds = synth_separable(10, 2, margin=1.0, seed=4)
    assert len(ds.examples) == 10
    assert all(m >= 1.0 - 1e-12 for m in _comparator_margins(ds, 2, 1.0))


def test_separable_guarantee_and_unit_ball():
    for seed in (0, 1, 2):
        ds = synth_separable(200, 3, margin=0.5, seed=seed)
        assert all(m >= 1.0 for m in _comparator_margins(ds, 3, 0.5))
        assert all(e.x.sq_norm <= 1.0 + 1e-12 for e in ds.examples)


def test_separable_label_balance():
    for seed in (0, 1, 2, 3):
        ds = synth_separable(200, 3, margin=0.5, seed=seed)
        positives = sum(1 for e in ds.examples if e.y == 1)
        assert abs(positives - 100) <= 20  # within 20% of T/2


def test_separable_deterministic():
    a = synth_separable(50, 4, 0.7, seed=8)
    b = synth_separable(50, 4, 0.7, seed=8)
    assert a.examples == b.examples
    assert a.examples != synth_separable(50, 4, 0.7, seed=9).examples


def test_separable_validates_inputs():
    with pytest.raises(ValueError):
        synth_separable(0, 3, 0.5, 0)
    with pytest.raises(ValueError):
        synth_separable(10, 3, 0.0, 0)
    with pytest.raises(ValueError):
        synth_separable(10, 3, 1.5, 0)


def test_noisy_zero_flip_matches_separable():
    clean = synth_separable(80, 3, 0.5, seed=21)
    noisy = synth_noisy(80, 3, 0.0, seed=21)
    assert noisy.examples == clean.examples


def test_noisy_flip_fraction():
    T, p = 2000, 0.15
    ds = synth_noisy(T, 3, p, seed=33)
    clean = synth_separable(T, 3, 0.5, seed=33)
    flips = sum(1 for a, b in zip(ds.examples, clean.examples) if a.y != b.y)
    sigma = math.sqrt(T * p * (1 - p))
    assert abs(flips - p * T) <= 3 * sigma


def test_noisy_deterministic():
    a = synth_noisy(60, 3, 0.2, seed=5)
    b = synth_noisy(60, 3, 0.2, seed=5)
    assert a.examples == b.examples


def test_noisy_validates_flip_prob():
    with pytest.raises(ValueError):
        synth_noisy(10, 3, 0.5, 0)
    with pytest.raises(ValueError):
        synth_noisy(10, 3, -0.1, 0)


def _dataset_digest(ds):
    """SHA-256 over the name and every example's label and support."""
    h = hashlib.sha256()
    h.update(repr(ds.name).encode())
    for ex in ds.examples:
        h.update(repr((ex.y, *support(ex.x))).encode())
    return h.hexdigest()


# The examples were captured from the scalar generator (one Box-Muller
# normal at a time, as oracles.ScalarSplitMix64.normal draws it) before
# generation was vectorized; the block generator must reproduce every value
# bit for bit.  Rejection counts in the comments.
_STREAM_PINS = {
    "noisy-3000-68": (  # 0 rejections
        lambda: synth_noisy(3000, 68, 0.1, 3),
        "c9cecc6dc64a20ae4f816031e64607fed456bb1906ea982c527406625405752e"),
    "noisy-2000-3-odd-d": (  # 1 rejection
        lambda: synth_noisy(2000, 3, 0.1, 1),
        "67e546fd746403bdcebecbdf151fe796bc0e0dbb2532ba944afa4e598dd1b5b6"),
    "separable-2000-2": (  # 9 rejections
        lambda: synth_separable(2000, 2, 0.9, 1),
        "2eb6bd92b86722ec1856e6c9f3a02eeeac23e34c6e080c927326164a84051961"),
    "separable-500-1-odd-d": (  # 19 rejections
        lambda: synth_separable(500, 1, 0.9, 3),
        "cdf2f591065f54e498d542e2ac1b108117a611b6a2c2f8963fa8e0cd8d49c8c0"),
    "separable-margin-one": (
        lambda: synth_separable(300, 5, 1.0, 2),
        "aa4c31642cb41cc8b5a89dfc5d5791bcc31e9d94c8b186b2550add5ee778a162"),
    "noisy-margin-one": (
        lambda: synth_noisy(300, 4, 0.2, 6, margin=1.0),
        "a1f1857bc21c1d994e858275392b6989f46b5d9558f6c4ba9fc4b45588238aa2"),
    "permute": (
        lambda: permute(synth_noisy(2000, 3, 0.1, 1), 5),
        "956f1422b4bd5530b7d85e4ea55715f55eb6e3c9cba90f3827150cea47f90aba"),
    "subsample": (
        lambda: subsample(synth_noisy(2000, 3, 0.1, 1), 700, 9),
        "eeca8eee37963385445664a0051cd7d11a2836163475df2587dc007aa7aaafa5"),
}


@pytest.mark.parametrize("case", sorted(_STREAM_PINS))
def test_streams_match_pinned_hashes(case):
    make, expected = _STREAM_PINS[case]
    assert _dataset_digest(make()) == expected


def _first_try_rejections_by_block_position(attempts, block):
    """Where in its block each example that failed its first attempt falls.

    synth_separable starts a new block after each such example, whose
    further attempts it draws one example at a time.
    """
    positions = []
    start = 0
    while start < len(attempts):
        end = min(start + block, len(attempts))
        rejected = [t for t in range(start, end) if attempts[t] > 1]
        if not rejected:
            start = end
            continue
        positions.append(rejected[0] - start)
        start = rejected[0] + 1
    return positions


@pytest.mark.parametrize("T, d, margin, seed, flip, covers", [
    (200, 1, 0.9, 0, 0.0, {0}),    # a rejection opens a block; odd d
    (200, 1, 0.9, 1, 0.2, {6}),    # a rejection closes a block
    (200, 2, 0.9, 2, 0.1, {0}),    # even d
    (61, 3, 0.5, 4, 0.1, set()),   # odd d, no rejection
    (40, 5, 1.0, 2, 0.0, set()),   # the margin = 1 extreme
    (699, 1, 0.9, 2, 0.0, set()),  # example 401 takes 4 attempts
    (700, 1, 0.9, 24, 0.0, set()),  # the last example is resampled
])
def test_block_generator_matches_scalar_oracle(monkeypatch, T, d, margin, seed,
                                               flip, covers):
    block = 7
    monkeypatch.setattr(data, "_BLOCK", block)
    generators = []

    class Recorded(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            generators.append(self)

    monkeypatch.setattr(data, "SplitMix64", Recorded)
    ds = synth_noisy(T, d, flip, seed, margin=margin)
    labels, rows, attempts, oracle_gen = scalar_synth(T, d, margin, seed, flip)
    # The stream ends in a short block or in a resampled example.
    assert T % block != 0 or attempts[-1] > 1
    assert covers <= set(_first_try_rejections_by_block_position(attempts, block))
    assert [ex.y for ex in ds.examples] == labels
    for ex, row in zip(ds.examples, rows):
        assert ex.x == SparseVector(enumerate(row))
        sq = 0.0
        for v in row:
            sq += v * v
        assert ex.x.sq_norm == sq
    # The instance generator ends where the scalar path leaves it.
    assert generators[0].getstate() == oracle_gen.getstate()


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("T", [6, 7, 8, 13, 14, 15])
def test_stream_is_a_prefix_of_longer_streams(monkeypatch, block, d, T):
    # With odd d the Box-Muller spare crosses example boundaries.  A longer
    # stream ends its last block elsewhere, blocks of 1024 hold every spare
    # inside one draw, and with block = 1 every spare is carried from one
    # block to the next, so a wrong carry shows as a mismatch.  At d = 1,
    # examples 10 and 13 are resampled.
    monkeypatch.setattr(data, "_BLOCK", block)
    short = synth_noisy(T, d, 0.2, 1, margin=0.9).examples
    for k in (1, 6):
        assert synth_noisy(T + k, d, 0.2, 1, margin=0.9).examples[:T] == short
    monkeypatch.setattr(data, "_BLOCK", 1024)
    assert synth_noisy(T, d, 0.2, 1, margin=0.9).examples == short


def test_blocks_shrink_to_the_rejection_rate(monkeypatch):
    # At d = 1, margin 0.9 about one first attempt in 20 is rejected; each
    # rejection redraws the rest of its block, so blocks of 1024 would draw
    # the stream's examples about 40 times over.
    drawn = []
    draw = data._draw

    def spy(gen, spare, n, d, labels=True):
        drawn.append(n if labels else 0)
        return draw(gen, spare, n, d, labels)

    monkeypatch.setattr(data, "_draw", spy)
    T = 5000
    synth_separable(T, 1, 0.9, 3)
    assert sum(drawn) < 4 * T


@pytest.mark.parametrize("T, seed, most", [
    (500, 3, 3),  # example 218 takes 3 attempts
    (700, 2, 4),  # example 401 takes 4 attempts
])
def test_rejection_cap_counts_every_attempt(monkeypatch, T, seed, most):
    # Every example takes at most `most` attempts, the first included.
    uncapped = synth_separable(T, 1, 0.9, seed).examples
    for cap in (1, most - 1):
        monkeypatch.setattr(data, "_REJECTION_CAP", cap)
        with pytest.raises(RuntimeError,
                           match="rejection sampling failed; margin too aggressive"):
            synth_separable(T, 1, 0.9, seed)
    monkeypatch.setattr(data, "_REJECTION_CAP", most)
    assert synth_separable(T, 1, 0.9, seed).examples == uncapped


def test_drawn_blocks_hold_only_the_streams_rows():
    # A block cut short at a rejection is adopted as an exact-size copy, so
    # no instance keeps the rows drawn after it alive.
    ds = synth_separable(3000, 1, 0.5, 2)
    blocks = {id(b): b for b in (ex.x.dense(1).base for ex in ds.examples)}
    assert len(blocks) > 100
    assert sum(len(b) for b in blocks.values()) == 3000


def test_generation_memory_is_bounded_by_the_block():
    # Transient memory is a few blocks of arrays, whatever T is; holding the
    # whole stream as arrays at once would take ~57 MB more at this size.
    tracemalloc.start()
    try:
        ds = synth_noisy(50_000, 18, 0.1, 0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds) == 50_000
    assert peak - retained < 4 * 2**20


def test_adopt_matches_constructor():
    rows = np.array([[0.5, -1.0, 2.0], [0.0, 3.0, 0.0], [0.0, 0.0, 0.0],
                     [0.0, 1e-300, 4.0], [0.1, 0.2, 0.3]])
    built = adopted(rows)
    for x, row in zip(built, rows.tolist()):
        plain = SparseVector(enumerate(row))
        assert support(x) == support(plain)
        assert x.sq_norm == plain.sq_norm
        assert np.array_equal(x.dense(3), plain.dense(3))


# Rows with a leading zero, an all-zero row and rows with trailing zeros.
_BLOCK_ROWS = [[0.5, -1.0, 2.0], [0.0, 3.0, 0.0], [0.0, 0.0, 0.0],
               [0.0, 1e-300, 4.0], [1.0, 0.0, 0.0]]


def test_adopt_holds_no_tuples_until_asked():
    built = adopted(_BLOCK_ROWS)
    read = [(x.dense(3), x.sq_norm, x.width) for x in built]
    assert len(read) == len(_BLOCK_ROWS)
    assert SparseVector.__slots__ == ("_row", "_sq", "_width")  # no tuple cache
    wide = adopted([[0.0, 2.0, 0.0, 0.0, 0.0]])[0]
    pairs = [(x, SparseVector(enumerate(row))) for x, row in zip(built, _BLOCK_ROWS)]
    pairs += [
        (SparseVector([(0, 1.0)]), SparseVector([(0, 1.0), (2, 3.0)])),  # equal prefix
        (SparseVector([(1, 2.0)]), SparseVector([(1, 2.5)])),  # same support
        (wide, SparseVector([(1, 2.0)])),  # rows of 5 and 2 entries
        (wide, pickle.loads(pickle.dumps(wide))),
    ]
    for x, y in pairs:
        same = support(x) == support(y)
        assert (x == y) == same and (x != y) != same
        assert (hash(x) == hash(y)) == same
        assert (repr(x) == repr(y)) == same
        at, values = support(x)
        assert repr(x) == "SparseVector({%s})" % ", ".join(
            f"{i}:{v:g}" for i, v in zip(at, values))
    assert [support(x) == support(y) for x, y in pairs[-4:]] == [False, False, True, True]


def test_adopt_dense_rows_are_read_only_views_of_the_block():
    rows = np.array(_BLOCK_ROWS)
    built = SparseVector.adopt(rows)
    assert not rows.flags.writeable  # the caller's array is the store
    for x, row in zip(built, _BLOCK_ROWS):
        d = x.dense(3)
        assert d.base is rows and not d.flags.writeable
        assert d.tobytes() == SparseVector(enumerate(row)).dense(3).tobytes()
        with pytest.raises(ValueError):
            d[0] = 7.0


def test_adopt_pads_a_copy_at_another_width():
    for x, row in zip(adopted(_BLOCK_ROWS), _BLOCK_ROWS):
        plain = SparseVector(enumerate(row))
        assert x.dense(6).tobytes() == plain.dense(6).tobytes()
        assert x.dense(3).tobytes() == plain.dense(3).tobytes()


def test_adopt_width_ignores_trailing_zeros():
    built = adopted(_BLOCK_ROWS)
    assert [x.width for x in built] == [3, 2, 0, 3, 1]
    assert [x.width for x in adopted(np.zeros((2, 0)))] == [0, 0]
    with pytest.raises(ValueError, match="dim 0 < width 1"):
        built[4].dense(0)


@pytest.mark.parametrize("source, d, most", [
    # Boxed float tuples plus a second dense copy took 3,066 B per example.
    ("drawn", 68, 1_000),
    # Parsed tuples plus a dense copy took 1,009 B per example.
    ("parsed", 18, 600),
])
def test_synthetic_example_memory_after_dense_rows(tmp_path, source, d, most):
    # Each value lives once, in its block.
    path = tmp_path / "noisy.libsvm"
    if source == "parsed":
        with open(path, "w", encoding="utf-8") as fh:
            format_libsvm(synth_noisy(20_000, d, 0.1, 3), fh)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = (load_libsvm(str(path)) if source == "parsed"
              else synth_noisy(20_000, d, 0.1, 3))
        for ex in ds.examples:
            ex.x.dense(d)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(ds) <= most


def test_every_dense_row_is_read_only():
    built = SparseVector([(0, 1.0), (2, 3.0)])
    parsed = parse_libsvm(["+1 0:1 2:-7\n", "-1 1:2 \n"]).examples
    drawn = adopted(_BLOCK_ROWS)
    xs = [built, parsed[0].x, parsed[1].x, *drawn]
    rows = [x.dense(3) for x in xs] + [x.dense(x.width + 2) for x in xs]
    rows += [x.dense(3) for x in pickle.loads(pickle.dumps(xs))]
    for row in rows:
        with pytest.raises(ValueError):
            row[0] = 100.0
    assert built.dense(3).tolist() == [1.0, 0.0, 3.0] and built.sq_norm == 10.0
    assert parsed[0].x.dense(3).tolist() == [1.0, 0.0, -7.0]


# -- descriptors ------------------------------------------------------------------------


def test_load_dataset_descriptors():
    ds = load_dataset("synth:separable:T=25,d=3,margin=0.6,seed=2")
    assert len(ds.examples) == 25
    assert ds.examples == synth_separable(25, 3, 0.6, 2).examples
    noisy = load_dataset("synth:noisy:T=25,d=3,margin=0.6,flip=0.2,seed=2")
    assert noisy.examples == synth_noisy(25, 3, 0.2, 2, margin=0.6).examples


def test_load_dataset_rejects_bad_descriptors():
    with pytest.raises(ValueError):
        load_dataset("synth:bogus:T=5")
    with pytest.raises(ValueError):
        load_dataset("synth:separable:T=5,unknown=1")


def test_load_dataset_from_file(tmp_path):
    path = tmp_path / "small.libsvm"
    path.write_text("+1 1:1\n-1 2:1\n")
    ds = load_dataset(str(path))
    assert len(ds.examples) == 2 and ds.name == "small.libsvm"
