"""Load, validate, normalize, and save static word embeddings.

Two text formats are supported:

* ``word2vec-text`` — first line ``"<vocab_count> <dim>"``, then one
  ``"<word> <v1> ... <vd>"`` line per word.
* ``glove-text`` — no header; the dimension is inferred from the first line
  and every line must match it.

Files are UTF-8 with ``\\n`` or ``\\r\\n`` line endings. Fields are
separated by ASCII spaces and tabs only, so a token may hold any other
character, including Unicode whitespace such as U+00A0 or U+2028 (real
vocabularies contain such tokens); a token cannot contain a space, a tab or a
line break. The binary word2vec format is not supported.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyFileError,
    MalformedLineError,
    WordSkippedWarning,
    ZeroVectorError,
)

FORMATS = ("word2vec-text", "glove-text")

#: Unit-norm tolerance for the ``normalized`` invariant.
UNIT_TOL = 1e-6

#: Norms below this are treated as zero vectors.
ZERO_NORM = 1e-12

#: Field separators of a data line, and the pattern of one field.
_SEPARATORS = " \t"
FIELD = re.compile(r"[^ \t]+")
_UNSAVABLE = re.compile(r"[ \t\n\r]")


@dataclass(frozen=True)
class EmbeddingSet:
    """An immutable vocabulary-to-vector map with a fixed dimension.

    Every word appears exactly once; ``matrix`` row ``i`` is the vector for
    ``vocab[i]``. ``normalized`` is derived from the matrix: True exactly
    when every row has unit L2 norm within ``UNIT_TOL``. Instances are safe
    for concurrent reads: the matrix is marked read-only and all
    mutation-shaped operations return new sets.
    """

    vocab: tuple[str, ...]
    matrix: np.ndarray
    normalized: bool = field(init=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=np.float64, copy=True)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
        if matrix.shape[0] != len(self.vocab):
            raise ValueError(
                f"{len(self.vocab)} words but {matrix.shape[0]} matrix rows")
        if matrix.shape[1] < 1:
            raise ValueError("dimension must be at least 1")
        if not np.isfinite(matrix).all():
            raise ValueError("matrix contains non-finite entries")
        index = {}
        for i, word in enumerate(self.vocab):
            if word in index:
                raise ValueError(f"duplicate word {word!r}")
            index[word] = i
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        matrix.flags.writeable = False
        object.__setattr__(self, "vocab", tuple(self.vocab))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "normalized",
                           bool((np.abs(norms - 1.0) <= UNIT_TOL).all()))
        object.__setattr__(self, "_index", index)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def index(self, word: str) -> int:
        return self._index[word]

    def vector(self, word: str) -> np.ndarray:
        """Read-only view of the vector for ``word`` (KeyError if absent)."""
        return self.matrix[self._index[word]]

    def take(self, words) -> np.ndarray:
        """Matrix whose rows are the vectors of ``words``, in order."""
        idx = [self._index[w] for w in words]
        return self.matrix[idx]

    def subset(self, words) -> "EmbeddingSet":
        """New set holding the rows of those ``words`` that are in the
        vocabulary, in vocabulary order."""
        idx = sorted({self._index[w] for w in words if w in self._index})
        return EmbeddingSet(tuple(self.vocab[i] for i in idx), self.matrix[idx])


def _is_blank(line: str) -> bool:
    """A line holding nothing but ASCII spaces, tabs and its line break."""
    return not line.strip(_SEPARATORS + "\n")


def data_lines(text: str) -> list[tuple[int, str]]:
    """``(line number, line)`` of each non-blank line of ``text``. Lines break
    at ``\\n`` only: ``str.splitlines()`` would also break at U+0085, U+2028..."""
    return [(i + 1, ln) for i, ln in enumerate(text.split("\n"))
            if not _is_blank(ln)]


def _fields(line: str, dim: int | None) -> list[str]:
    """Fields of a data line, split on ASCII spaces and tabs only, so a token
    or a value keeps any Unicode whitespace it holds. Splitting on single
    spaces is the fast path; tabs, runs of separators or a count other than
    ``dim`` values take the pattern match."""
    parts = line.rstrip(_SEPARATORS).split(" ")
    if len(parts) - 1 != dim or "" in parts or "\t" in line:
        return FIELD.findall(line)
    return parts


def _parse_rows(lines, dim):
    """Parse data lines into (words, rows); first duplicate occurrence wins."""
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    duplicates = 0
    inferred = dim
    for lineno, line in lines:
        parts = _fields(line, inferred)
        if len(parts) < 2:
            raise MalformedLineError(
                f"expected a word followed by values, got {len(parts)} field(s)",
                lineno)
        word = parts[0]
        if inferred is None:
            inferred = len(parts) - 1
        if len(parts) - 1 != inferred:
            raise DimensionMismatchError(
                f"line {lineno}: {len(parts) - 1} values, expected {inferred}")
        try:
            vec = np.asarray(parts[1:], dtype=np.float64)
        except ValueError as exc:
            raise MalformedLineError(f"unparseable value ({exc})", lineno) from None
        if not np.isfinite(vec).all():
            raise MalformedLineError(
                f"non-finite value for word {word!r}", lineno)
        if word in seen:
            duplicates += 1
            continue
        seen.add(word)
        words.append(word)
        rows.append(vec)
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate word(s) ignored (first occurrence kept)",
            WordSkippedWarning, stacklevel=3)
    return words, rows, inferred


def load_embeddings(path, format: str) -> EmbeddingSet:
    """Load an embedding file; rows are kept as written, not rescaled.

    Raises MalformedLineError, DimensionMismatchError, or EmptyFileError.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    lines = data_lines(raw)
    if not lines:
        raise EmptyFileError(f"{path}: no content")

    dim = None
    if format == "word2vec-text":
        lineno, header = lines[0]
        fields = header.split()
        if len(fields) != 2:
            raise MalformedLineError(
                f"header must be '<count> <dim>', got {header!r}", lineno)
        try:
            declared_count, dim = int(fields[0]), int(fields[1])
        except ValueError:
            raise MalformedLineError(
                f"header must be two integers, got {header!r}", lineno) from None
        if dim < 1:
            raise MalformedLineError("declared dimension must be positive", lineno)
        lines = lines[1:]
        if not lines:
            raise EmptyFileError(f"{path}: header but no vectors")

    words, rows, dim = _parse_rows(lines, dim)
    if not words:
        raise EmptyFileError(f"{path}: no vectors")
    if format == "word2vec-text" and len(words) != declared_count:
        warnings.warn(
            f"header declares {declared_count} words, file has {len(words)}",
            WordSkippedWarning, stacklevel=2)
    return EmbeddingSet(tuple(words), np.vstack(rows))


def sniff_format(path) -> str:
    """Guess the format: word2vec-text when the first non-blank line is two
    integers ``<count> <dim>`` followed by no line or one of ``dim + 1`` fields."""
    with open(path, encoding="utf-8") as fh:
        lines = (ln.rstrip("\n") for ln in fh if not _is_blank(ln))
        fields = next(lines, "").split()
        try:
            _, dim = map(int, fields)
        except ValueError:
            return "glove-text"
        data = next(lines, None)
    if data is None or len(_fields(data, dim)) == dim + 1:
        return "word2vec-text"
    return "glove-text"


def normalize(emb: EmbeddingSet) -> EmbeddingSet:
    """Rescale every row to unit L2 norm.

    Raises ZeroVectorError if any row has norm below ``ZERO_NORM``.
    """
    norms = np.linalg.norm(emb.matrix, axis=1)
    bad = np.nonzero(norms < ZERO_NORM)[0]
    if bad.size:
        raise ZeroVectorError(emb.vocab[int(bad[0])])
    return EmbeddingSet(emb.vocab, emb.matrix / norms[:, None])


def save_embeddings(emb: EmbeddingSet, path, format: str) -> None:
    """Write ``emb`` to ``path``; values carry 17 significant digits so a
    reload reproduces them bit-exactly. A word the loader could not read back
    (empty, or holding a space, tab or line break) raises ValueError before
    the file is opened."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    bad = next((w for w in emb.vocab if not w or _UNSAVABLE.search(w)), None)
    if bad is not None:
        raise ValueError(f"word {bad!r} cannot be saved: words must be nonempty "
                         "and hold no space, tab or line break")
    fmt = " ".join(["%.17g"] * emb.dim)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if format == "word2vec-text":
            fh.write(f"{len(emb)} {emb.dim}\n")
        for word, row in zip(emb.vocab, emb.matrix):
            fh.write(word + " " + fmt % tuple(row) + "\n")
