"""Seeded benchmark input: the acceptance-criterion-9 generator, sized.

Rows are standard-normal 300-d vectors scaled to unit length. The first rows
carry every word of the bundled lexicons (including the race-gender
intersectional names); the rest are filler words ``w000000``, ``w000001``,
... The file is word2vec text with 17 significant digits, so it reloads
bit-exactly.
"""

from __future__ import annotations

import numpy as np

DIM = 300


def generate(lexicon: list[str], rows: int, seed: int):
    """(words, unit matrix) for ``rows`` words; the same seed gives the same set."""
    if rows < len(lexicon):
        raise ValueError(f"need at least {len(lexicon)} rows for the lexicon")
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, DIM))
    matrix /= np.linalg.norm(matrix, axis=1)[:, None]
    words = lexicon + [f"w{i:06d}" for i in range(rows - len(lexicon))]
    return words, matrix


def write_word2vec_text(path, words, matrix) -> None:
    fmt = " ".join(["%.17g"] * matrix.shape[1])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        fh.writelines(f"{w} {fmt % tuple(row)}\n" for w, row in zip(words, matrix))


def read_word2vec_text(path):
    """(words, matrix) of a word2vec text file written by the program."""
    with open(path, encoding="utf-8") as fh:
        count, dim = (int(x) for x in fh.readline().split())
        words, values = [], []
        for line in fh:
            word, rest = line.split(" ", 1)
            words.append(word)
            values.append(rest)
    matrix = np.array(" ".join(values).split(), dtype=np.float64)
    if len(words) != count or matrix.size != count * dim:
        raise ValueError(f"{path}: header says {count} x {dim}, file holds "
                         f"{len(words)} rows and {matrix.size} values")
    return words, matrix.reshape(count, dim)
