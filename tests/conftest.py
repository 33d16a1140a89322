import json

import numpy as np
import pytest

from embdebias import EmbeddingSet


def random_orthonormal(d, k, rng):
    """k orthonormal rows in R^d."""
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return q.T[:k]


def unit_rows(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    return matrix / np.linalg.norm(matrix, axis=1)[:, None]


def make_set(words, matrix):
    return EmbeddingSet(tuple(words), np.asarray(matrix, dtype=np.float64))


@pytest.fixture
def write_spec(tmp_path):
    def _write(name, payload):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path
    return _write


def write_embeddings_file(path, words, matrix, header=True):
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{len(words)} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix):
            fh.write(word + " " + " ".join("%.17g" % v for v in row) + "\n")
    return path
