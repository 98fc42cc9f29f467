"""Dataset ingestion, label normalization, permutation, and synthetic streams.

Input format is LIBSVM sparse text: ``<label> <idx>:<val> <idx>:<val> ...``
per line, ``#`` comments, blank lines skipped.  Labels are normalized to
{-1, +1}: raw labels already in {-1, +1} are kept; any other two-valued set
maps its smaller value to -1 and larger to +1 (so {0,1} -> 0 maps to -1 and
{1,2} -> 1 maps to -1).  Indices are preserved as given (LIBSVM files are
typically 1-based) and must be strictly increasing within a line.

All randomness flows through the SplitMix64 generator in ahpatron.prng, so
permutations and synthetic streams replay exactly from their seed.  A
synthetic example draws its label (one output), then d normals, and is
redrawn (same label, fresh normals) until both acceptance sums, taken left
to right, pass; a Box-Muller spare carries over to the next example when d
is odd.  Since SplitMix64 is counter-based, one vectorized draw (_draw)
computes a whole block of examples, or one example's resampled normals, at
a time.

Every instance is stored once, as a read-only row of a block: a synthetic
one of the block it was drawn in, a parsed one of the single block its file
fills once every line is read; each block is handed to SparseVector.adopt.
That row is its dense row, which format_libsvm writes from.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Sequence

import numpy as np

from .kernels import LabeledExample, SparseVector, check_pairs
from .prng import SplitMix64, derive_stream_seed, normal_pairs

_REJECTION_CAP = 10_000
_BLOCK = 1024  # examples per vectorized synthetic block
_CHUNK = 1 << 16  # parsed values held as Python objects before a flush to arrays
# Twice a stream's block bytes: about what a parse holds at its peak, and
# what the comparator's two operand blocks take (SUSY needs 1.52 GB).
_BLOCK_BYTES_LIMIT = 2 << 30


class MalformedLine(ValueError):
    """Unparseable LIBSVM line; carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number


class NonBinaryLabels(ValueError):
    """The file does not contain a two-valued label set."""


class BlockTooLarge(ValueError):
    """A stream's dense block would exceed _BLOCK_BYTES_LIMIT."""


@dataclass
class Dataset:
    """Immutable-by-convention list of labeled examples.

    Examples hold rows of shared blocks, so a permuted or relabeled copy
    (permute, synth_noisy's flips) adds no instance storage.
    """

    examples: list[LabeledExample]
    name: str = ""

    def __len__(self) -> int:
        return len(self.examples)


def parse_libsvm(lines: Iterable[str], name: str = "") -> Dataset:
    """Parse LIBSVM sparse text into a Dataset, normalizing labels to +/-1.

    Lines as format_libsvm writes them take a bulk path (_bulk_line), and a
    line whose index strings repeat the previous bulk line's reuses its
    parsed indices; every other line goes through _parse_line, which gives
    the same result or the same MalformedLine.  The lines' indices and
    values go to flat arrays every _CHUNK values, so no more than a chunk
    of them is held as Python objects.  At the end they fill one block, a
    row per example and as wide as the largest nonzero index + 1, and are
    released; SparseVector.adopt then keeps the block, uncopied (its values
    are finite and nonzero, np.zeros' +0.0 elsewhere).  A block past
    _BLOCK_BYTES_LIMIT, or an index past np.intp, raises BlockTooLarge
    before it is allocated.
    """
    raw_labels: list[float] = []
    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    # Each line's indices and values since the last flush, nnz values in all.
    cols: list[Sequence[int]] = []
    vals: list[Sequence[float]] = []
    nnz = 0
    keys: list[str] | None = None  # index strings of the last bulk line
    indices: tuple[int, ...] = ()
    for lineno, line in enumerate(lines, start=1):
        bulk = _bulk_line(line, keys, indices)
        if bulk is not None:
            label, keys, indices, values = bulk
            line_cols = indices
        else:
            parsed = _parse_line(lineno, line)
            if parsed is None:
                continue
            label, line_cols, values = parsed
        raw_labels.append(label)
        cols.append(line_cols)
        vals.append(values)
        nnz += len(values)
        if nnz >= _CHUNK:
            chunks.append(_arrays(cols, vals, nnz, name))
            cols, vals, nnz = [], [], 0
    if not raw_labels:
        raise NonBinaryLabels("empty dataset")
    labels = _normalize_labels(raw_labels)
    del raw_labels
    chunks.append(_arrays(cols, vals, nnz, name))
    del cols, vals
    width = max((int(at.max()) + 1 for _, at, _ in chunks if len(at)), default=0)
    _check_block(name or "input", len(labels), width)
    block = np.zeros((len(labels), width))
    _fill(block, chunks)
    # The flat arrays (16 B a nonzero) go before the instances are built.
    del chunks
    instances = SparseVector.adopt(block)
    examples = [LabeledExample(x, y) for x, y in zip(instances, labels)]
    return Dataset(examples, name=name)


def _fill(block: np.ndarray,
          chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
    """Write each chunk's lines into the next rows of block."""
    start = 0
    for counts, at, values in chunks:
        rows = np.repeat(np.arange(start, start + len(counts)), counts)
        block[rows, at] = values
        start += len(counts)


def _check_block(name: str, rows: int, width: int) -> None:
    """Raise BlockTooLarge if twice a rows x width float64 block is over the limit."""
    if (needed := 2 * rows * width * 8) > _BLOCK_BYTES_LIMIT:
        raise BlockTooLarge(f"{name}: {rows} rows of width {width} need {needed:,} "
                            f"bytes with headroom, over {_BLOCK_BYTES_LIMIT:,}")


def _arrays(cols: list[Sequence[int]], vals: list[Sequence[float]], nnz: int,
            name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nonzeros per line, flat indices, flat values) of a run of lines."""
    try:
        at = np.fromiter(chain.from_iterable(cols), np.intp, nnz)
    except OverflowError:
        raise BlockTooLarge(f"{name or 'input'}: an index of "
                            f"{np.iinfo(np.intp).max + 1:,} or more needs a block "
                            f"over {_BLOCK_BYTES_LIMIT:,} bytes") from None
    return (np.fromiter(map(len, vals), np.intp, len(vals)), at,
            np.fromiter(chain.from_iterable(vals), float, nnz))


# Every byte but those that decide how a line splits: ASCII whitespace
# (str.split's separators), ':' and '#'.
_NOT_SEPARATORS = bytes(b for b in range(256)
                        if not (b < 128 and chr(b).isspace()) and b not in b":#")


def _bulk_line(line: str, keys: list[str] | None, indices: tuple[int, ...]):
    """(label, index strings, indices, values) of a well-formed line, else None.

    A well-formed line is ASCII, and its separators are exactly one space
    before each idx:val token and one colon inside it: no other whitespace
    (trailing whitespace aside), no '#', and no colon in the label.  Its label
    and values must convert to finite floats, the values must be nonzero,
    and the indices nonnegative and strictly increasing; if the index
    strings equal keys, the line reuses indices, the tuple already parsed
    from them.  Any other line returns None, so _parse_line handles it.
    """
    if not line.isascii():
        return None
    body = line.rstrip(" \t\r\n\v\f")
    signature = body.encode().translate(None, _NOT_SEPARATORS)
    if signature != b" :" * (len(signature) >> 1):
        return None
    pieces = body.replace(":", " ").split(" ")
    line_keys = pieces[1::2]
    fresh = line_keys != keys
    try:
        label = float(pieces[0])
        values = tuple(map(float, pieces[2::2]))
        if fresh:
            indices = tuple(map(int, line_keys))
    except ValueError:
        return None
    if fresh and indices and (indices[0] < 0
                              or not all(map(operator.lt, indices, indices[1:]))):
        return None
    # A finite sum means every term is finite (a nan or inf term makes it
    # non-finite); an overflowing sum of finite values just takes the slow path.
    if not math.isfinite(label + sum(values)) or 0.0 in values:
        return None
    return label, line_keys, indices, values


def _parse_line(lineno: int, line: str
                ) -> tuple[float, list[int], list[float]] | None:
    """(label, indices, values) of one line, None if it is blank or a comment.

    Explicit zeros are dropped from indices and values, as SparseVector
    drops them.
    """
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    tokens = line.split()
    if not tokens:
        return None
    try:
        label = float(tokens[0])
    except ValueError:
        raise MalformedLine(lineno, f"bad label {tokens[0]!r}") from None
    if not math.isfinite(label):
        raise MalformedLine(lineno, f"non-finite label {tokens[0]!r}")
    pairs = []
    for tok in tokens[1:]:
        idx_str, sep, val_str = tok.partition(":")
        if not sep:
            raise MalformedLine(lineno, f"expected idx:val, got {tok!r}")
        try:
            pairs.append((int(idx_str), float(val_str)))
        except ValueError:
            raise MalformedLine(lineno, f"bad feature {tok!r}") from None
    try:
        indices, values = check_pairs(pairs)
    except ValueError as e:
        raise MalformedLine(lineno, str(e)) from None
    return label, indices, values


def _normalize_labels(raw: list[float]) -> list[int]:
    distinct = sorted(set(raw))
    if set(distinct) <= {-1.0, 1.0}:
        return [int(v) for v in raw]
    if len(distinct) == 2:
        lo = distinct[0]
        return [-1 if v == lo else 1 for v in raw]
    if len(distinct) == 1:
        raise NonBinaryLabels(
            f"single label value {distinct[0]} with no -1/+1 interpretation"
        )
    raise NonBinaryLabels(f"{len(distinct)} distinct label values: {distinct[:5]}...")


def load_libsvm(path: str, name: str = "") -> Dataset:
    """Parse a LIBSVM file from disk (streamed line by line)."""
    if not name:
        name = path.rsplit("/", 1)[-1]
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh, name=name)


def format_libsvm(ds: Dataset, out: IO[str]) -> None:
    """Serialize back to LIBSVM text; reparsing yields an identical dataset."""
    for ex in ds.examples:
        row = ex.x.dense(ex.x.width)
        at = np.flatnonzero(row)
        parts = ["+1" if ex.y > 0 else "-1"]
        parts.extend(f"{i}:{v!r}" for i, v in zip(at.tolist(), row[at].tolist()))
        out.write(" ".join(parts))
        out.write("\n")


def permute(ds: Dataset, seed: int) -> Dataset:
    """Seed-determined Fisher-Yates permutation of the examples."""
    examples = list(ds.examples)
    SplitMix64(seed).shuffle(examples)
    return Dataset(examples, name=ds.name)


def synth_separable(T: int, d: int, margin: float, seed: int) -> Dataset:
    """Two Gaussian clusters, linearly separable with functional margin 1.

    Instances stay inside the unit ball and every example satisfies
    y * <w, x> >= 1 for the comparator direction w = u / margin, where u is
    the unit diagonal direction.  Outliers are rejection-resampled; margin
    must lie in (0, 1] for the unit-ball construction to be feasible.

    The stream is drawn up to _BLOCK examples at a time (see _draw).  At
    the first example r of a block that fails its acceptance test, the
    generator is rewound to the block start and redraws examples 0..r,
    which leaves it and the Box-Muller spare just after example r's first
    attempt; each further attempt draws d fresh normals and keeps the
    label, and the next block starts after example r.  A T x d stream over
    _BLOCK_BYTES_LIMIT raises BlockTooLarge before the first draw.
    """
    if T < 1 or d < 1:
        raise ValueError("T and d must be positive")
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must be in (0, 1], got {margin}")
    name = f"synth-separable-T{T}-d{d}-m{margin:g}-s{seed}"
    _check_block(name, T, d)
    u, center, noise_sd = _cluster(d, margin)
    gen = SplitMix64(seed)
    spare = None
    examples: list[LabeledExample] = []
    rejections = 0
    while len(examples) < T:
        # A block ends at its first rejection, and what it drew after that
        # example is drawn again, so once rejections occur a block spans
        # twice the mean run between them; the stream does not depend on it.
        size = 2 * len(examples) // rejections + 1 if rejections else _BLOCK
        n = min(_BLOCK, T - len(examples), size)
        start = gen.getstate()
        y, normals, carried = _draw(gen, spare, n, d)
        offsets = (y * center * u)[:, None]
        coords = offsets + noise_sd * normals
        accepted = _accepted(coords, y, u, margin)
        if accepted.all():
            spare = carried
        else:
            r = int(accepted.argmin())
            rejections += 1
            gen.setstate(start)
            _, _, spare = _draw(gen, spare, r + 1, d)
            for _ in range(_REJECTION_CAP - 1):
                _, normals, spare = _draw(gen, spare, 1, d, labels=False)
                coords[r] = offsets[r] + noise_sd * normals[0]
                if _accepted(coords[r:r + 1], y[r:r + 1], u, margin)[0]:
                    break
            else:
                raise RuntimeError("rejection sampling failed; margin too aggressive")
            coords, y = coords[:r + 1].copy(), y[:r + 1]  # frees the unused rows
        # Offsets plus scaled normals are finite, and a cancellation is +0.0.
        xs = SparseVector.adopt(coords)
        examples += [LabeledExample(x, label) for x, label in zip(xs, y.tolist())]
    return Dataset(examples, name=name)


def _cluster(d: int, margin: float) -> tuple[float, float, float]:
    """u = 1/sqrt(d), the cluster centre's offset along u, and the noise sd."""
    root = math.sqrt(d)
    return 1.0 / root, (1.0 + margin) / 2.0, (1.0 - margin) / (4.0 * root)


def _draw(
    gen: SplitMix64, spare: float | None, n: int, d: int, labels: bool = True
) -> tuple[np.ndarray, np.ndarray, float | None]:
    """(labels, n x d normals, spare) of the next n first attempts.

    Each example takes one output for its label (+1 if odd, as below(2)
    gives it) and then d normals; the normals come in Box-Muller pairs,
    the pending spare first, and a pair's unused sin part is the spare
    returned.  Example k's label is output k + 2*ceil((k*d - o)/2), where
    o is 1 if a spare is pending and 0 otherwise, and the other outputs are
    the pairs in order.  With labels=False no label outputs are drawn and
    the labels come back empty.
    """
    o = 0 if spare is None else 1
    pairs = (n * d - o + 1) // 2
    k = np.arange(n if labels else 0)
    labels_at = k + 2 * ((k * d - o + 1) // 2)
    draws = gen.take(len(k) + 2 * pairs)
    y = np.where(draws[labels_at] & 1, 1, -1)
    draws = np.delete(draws, labels_at)
    cos_part, sin_part = normal_pairs(draws[0::2], draws[1::2])
    normals = np.empty(o + 2 * pairs)
    if o:
        normals[0] = spare
    normals[o::2] = cos_part
    normals[o + 1::2] = sin_part
    carried = float(normals[-1]) if len(normals) > n * d else None
    return y, normals[:n * d].reshape(n, d), carried


def _accepted(coords: np.ndarray, y: np.ndarray, u: float, margin: float) -> np.ndarray:
    """Which rows pass both acceptance tests.

    Both sums run left to right, as cumulative sums (numpy's sum is
    pairwise, and builtin sum() of floats is compensated from Python 3.12
    on; either would change borderline cases).  Both checks tolerate
    rounding at the margin = 1 extreme, where the noise-free construction
    sits exactly on the boundary.
    """
    proj = y * u * np.cumsum(coords, axis=1)[:, -1]
    sq = np.cumsum(coords * coords, axis=1)[:, -1]
    return (proj >= margin * (1.0 - 1e-12)) & (sq <= 1.0 + 1e-12)


def synth_noisy(
    T: int, d: int, flip_prob: float, seed: int, margin: float = 0.5
) -> Dataset:
    """synth_separable stream with labels independently flipped.

    Example t is flipped when the t-th uniform of a derived generator,
    (output >> 11) * 2^-53, is below flip_prob, so flip_prob = 0 reproduces
    the separable stream exactly; the T uniforms come from one take(T).
    """
    if not 0.0 <= flip_prob < 0.5:
        raise ValueError(f"flip_prob must be in [0, 0.5), got {flip_prob}")
    base = synth_separable(T, d, margin, seed)
    uniforms = (SplitMix64(derive_stream_seed(seed)).take(T) >> 11) * 2.0**-53
    flipped = uniforms < flip_prob
    examples = [LabeledExample(ex.x, -ex.y) if flip else ex
                for ex, flip in zip(base.examples, flipped.tolist())]
    name = f"synth-noisy-T{T}-d{d}-m{margin:g}-f{flip_prob:g}-s{seed}"
    return Dataset(examples, name=name)


def load_dataset(spec: str) -> Dataset:
    """Load a dataset from a path or a ``synth:`` descriptor.

    Descriptors:
      synth:separable:T=2000,d=4,margin=0.6,seed=3
      synth:noisy:T=2000,d=4,margin=0.6,flip=0.1,seed=3
    """
    if not spec.startswith("synth:"):
        return load_libsvm(spec)
    try:
        _, kind, params_str = spec.split(":", 2)
        params = {}
        if params_str:
            for item in params_str.split(","):
                key, _, value = item.partition("=")
                params[key.strip()] = value.strip()
        T = int(params.pop("T", 1000))
        d = int(params.pop("d", 4))
        margin = float(params.pop("margin", 0.5))
        seed = int(params.pop("seed", 0))
        if kind == "separable":
            if params:
                raise ValueError(f"unknown parameters {sorted(params)}")
            return synth_separable(T, d, margin, seed)
        if kind == "noisy":
            flip = float(params.pop("flip", 0.1))
            if params:
                raise ValueError(f"unknown parameters {sorted(params)}")
            return synth_noisy(T, d, flip, seed, margin=margin)
        raise ValueError(f"unknown synthetic kind {kind!r}")
    except ValueError as e:
        raise ValueError(f"bad dataset descriptor {spec!r}: {e}") from e
