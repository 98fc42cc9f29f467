"""Dataset ingestion, label normalization, permutation, and synthetic streams.

Input format is LIBSVM sparse text: ``<label> <idx>:<val> <idx>:<val> ...``
per line, ``#`` comments, blank lines skipped.  Labels are normalized to
{-1, +1}: raw labels already in {-1, +1} are kept; any other two-valued set
maps its smaller value to -1 and larger to +1 (so {0,1} -> 0 maps to -1 and
{1,2} -> 1 maps to -1).  Indices are preserved as given (LIBSVM files are
typically 1-based) and must be strictly increasing within a line.

All randomness flows through the SplitMix64 generator in ahpatron.prng, so
permutations and synthetic streams replay exactly from their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import IO, Iterable

from .kernels import LabeledExample, SparseVector
from .prng import SplitMix64, derive_stream_seed

_REJECTION_CAP = 10_000


class MalformedLine(ValueError):
    """Unparseable LIBSVM line; carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number


class NonBinaryLabels(ValueError):
    """The file does not contain a two-valued label set."""


@dataclass
class Dataset:
    """Immutable-by-convention list of labeled examples."""

    examples: list[LabeledExample]
    name: str = ""
    feature_count: int = 0
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.examples)


def parse_libsvm(lines: Iterable[str], name: str = "") -> Dataset:
    """Parse LIBSVM sparse text into a Dataset, normalizing labels to +/-1."""
    raw_labels: list[float] = []
    instances: list[SparseVector] = []
    feature_count = 0
    for lineno, line in enumerate(lines, start=1):
        hash_pos = line.find("#")
        if hash_pos >= 0:
            line = line[:hash_pos]
        tokens = line.split()
        if not tokens:
            continue
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
            instances.append(SparseVector(pairs))
        except ValueError as e:
            raise MalformedLine(lineno, str(e)) from None
        raw_labels.append(label)
        # Explicit zeros count toward the width even though SparseVector drops them.
        if pairs and pairs[-1][0] + 1 > feature_count:
            feature_count = pairs[-1][0] + 1
    if not raw_labels:
        raise NonBinaryLabels("empty dataset")
    labels = _normalize_labels(raw_labels)
    examples = [LabeledExample(x, y) for x, y in zip(instances, labels)]
    return Dataset(examples, name=name, feature_count=feature_count)


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
        parts = ["+1" if ex.y > 0 else "-1"]
        parts.extend(f"{i}:{v!r}" for i, v in zip(ex.x.indices, ex.x.values))
        out.write(" ".join(parts))
        out.write("\n")


def permute(ds: Dataset, seed: int) -> Dataset:
    """Seed-determined Fisher-Yates permutation of the examples."""
    examples = list(ds.examples)
    SplitMix64(seed).shuffle(examples)
    return Dataset(examples, name=ds.name, feature_count=ds.feature_count,
                   metadata=dict(ds.metadata))


def subsample(ds: Dataset, n: int, seed: int) -> Dataset:
    """Uniform sample of n examples without replacement (shuffle prefix)."""
    if not 1 <= n <= len(ds.examples):
        raise ValueError(f"n must be in [1, {len(ds.examples)}], got {n}")
    shuffled = permute(ds, seed)
    return replace(shuffled, examples=shuffled.examples[:n])


def synth_separable(T: int, d: int, margin: float, seed: int) -> Dataset:
    """Two Gaussian clusters, linearly separable with functional margin 1.

    Instances stay inside the unit ball (so linear-kernel streams satisfy
    the unit-diagonal assumption) and every example satisfies
    y * <w, x> >= 1 for the comparator direction w = u / margin, where u is
    the unit diagonal direction.  Outliers are rejection-resampled; margin
    must lie in (0, 1] for the unit-ball construction to be feasible.
    Dataset metadata carries the comparator description.
    """
    if T < 1 or d < 1:
        raise ValueError("T and d must be positive")
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must be in (0, 1], got {margin}")
    gen = SplitMix64(seed)
    examples = [_separable_example(gen, d, margin) for _ in range(T)]
    u = 1.0 / math.sqrt(d)
    meta = {
        "kind": "separable",
        "margin": margin,
        "comparator_weights": [u / margin] * d,
        "comparator_guarantee": "y * dot(w, x) >= 1 under the linear kernel",
    }
    name = f"synth-separable-T{T}-d{d}-m{margin:g}-s{seed}"
    return Dataset(examples, name=name, feature_count=d, metadata=meta)


def _separable_example(gen: SplitMix64, d: int, margin: float) -> LabeledExample:
    u = 1.0 / math.sqrt(d)
    center = (1.0 + margin) / 2.0
    noise_sd = (1.0 - margin) / (4.0 * math.sqrt(d))
    y = 1 if gen.below(2) == 1 else -1
    for _ in range(_REJECTION_CAP):
        coords = [y * center * u + noise_sd * gen.normal() for _ in range(d)]
        proj = y * u * sum(coords)
        sq = sum(c * c for c in coords)
        # Both acceptance checks tolerate rounding at the margin = 1 extreme,
        # where the noise-free construction sits exactly on the boundary.
        if proj >= margin * (1.0 - 1e-12) and sq <= 1.0 + 1e-12:
            return LabeledExample(SparseVector(enumerate(coords)), y)
    raise RuntimeError("rejection sampling failed; margin too aggressive")


def synth_noisy(
    T: int, d: int, flip_prob: float, seed: int, margin: float = 0.5
) -> Dataset:
    """synth_separable stream with labels independently flipped.

    Flips draw from a derived generator so flip_prob = 0 reproduces the
    separable stream exactly.
    """
    if not 0.0 <= flip_prob < 0.5:
        raise ValueError(f"flip_prob must be in [0, 0.5), got {flip_prob}")
    base = synth_separable(T, d, margin, seed)
    flip_gen = SplitMix64(derive_stream_seed(seed))
    examples = []
    flips = 0
    for ex in base.examples:
        if flip_gen.uniform() < flip_prob:
            examples.append(LabeledExample(ex.x, -ex.y))
            flips += 1
        else:
            examples.append(ex)
    meta = dict(base.metadata)
    meta.update(kind="noisy", flip_prob=flip_prob, flips=flips)
    name = f"synth-noisy-T{T}-d{d}-m{margin:g}-f{flip_prob:g}-s{seed}"
    return Dataset(examples, name=name, feature_count=d, metadata=meta)


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
