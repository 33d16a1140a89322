#!/usr/bin/env python3
"""Loading, normalizing, and saving embeddings.

Builds a toy word2vec-text file, loads it back, unit-normalizes the rows,
and shows that save/load round-trips are bit-exact.
"""

import tempfile
from pathlib import Path

import numpy as np

from embdebias import load_embeddings, normalize, save_embeddings, sniff_format

with tempfile.TemporaryDirectory(prefix="embdebias-demo-") as tmp:
    workdir = Path(tmp)
    path = workdir / "toy.txt"

    # a word2vec-text file starts with "<count> <dim>"; glove-text has no header
    path.write_text(
        "4 3\n"
        "king 3 4 0\n"
        "queen 0 3 4\n"
        "apple 1 1 1\n"
        "pear 2 0 2\n"
    )

    print("format sniffed from the file:", sniff_format(path))
    emb = load_embeddings(path, "word2vec-text")
    print("vocab:", emb.vocab, "dim:", emb.dim)
    print("king ->", emb.vector("king"), "normalized:", emb.normalized)

    # every pipeline step downstream assumes unit rows
    unit = normalize(emb)
    print("after normalize, king ->", unit.vector("king"), "normalized:", unit.normalized)
    print("row norms:", np.linalg.norm(unit.matrix, axis=1))

    # values are written with 17 significant digits, so a reload is bit-exact
    out = workdir / "roundtrip.txt"
    save_embeddings(unit, out, "glove-text")
    back = load_embeddings(out, "glove-text")
    print("round-trip bit-exact:", np.array_equal(back.matrix, unit.matrix))

    # sets are immutable; transformations hand back new sets
    try:
        unit.matrix[0, 0] = 9.0
    except ValueError as exc:
        print("mutation rejected:", exc)
