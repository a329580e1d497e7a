"""Fixed word-embedding table, stored as one read-only (tokens, dim) matrix,
with vectorized phrase averaging and OOV-to-zero lookup."""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import EmbeddingParseError
from .tensor import segment_mean

_WS = re.compile(r"\s+")
_SPLIT = re.compile(r"[\s_]+")


def normalize_token(token: str) -> str:
    """Lowercase, trim, collapse inner whitespace, underscores to spaces."""
    return _WS.sub(" ", token.replace("_", " ").strip().lower())


class EmbeddingTable:
    """token -> fixed vector of width ``dim``; read-only after construction.

    ``index`` maps a normalized token to its row of ``matrix``, ``entries``
    to that row itself (a view).
    """

    def __init__(self, dim: int, entries: dict[str, np.ndarray]):
        index, rows = {}, []
        for token, vec in entries.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (dim,):
                raise EmbeddingParseError(
                    f"vector for '{token}' has length {vec.size}, expected {dim}"
                )
            if not np.isfinite(vec).all():
                raise EmbeddingParseError(f"vector for '{token}' has non-finite values")
            key = normalize_token(token)
            if key not in index:
                index[key] = len(rows)
                rows.append(vec)
        self._adopt(dim, np.array(rows, dtype=np.float64).reshape(len(rows), dim), index)

    @classmethod
    def from_rows(cls, dim: int, matrix: np.ndarray, index: dict) -> "EmbeddingTable":
        """A table over ``matrix`` (finite, ``dim`` columns) without copying it;
        ``index`` maps normalized tokens to rows."""
        table = cls.__new__(cls)
        table._adopt(dim, matrix, index)
        return table

    def _adopt(self, dim, matrix, index):
        matrix.flags.writeable = False
        self.dim, self.matrix, self.index = dim, matrix, index
        self.entries = {token: matrix[row] for token, row in index.items()}

    def __contains__(self, token):
        return normalize_token(token) in self.index

    def __len__(self):
        return len(self.index)

    def lookup_word(self, word: str):
        return self.entries.get(normalize_token(word))

    def phrase_vectors(self, phrases) -> np.ndarray:
        """(len(phrases), dim): each phrase's mean found word vector, zeros
        for a phrase with no word in the table.

        Words are split on whitespace and underscores after normalization, so
        multi-word concepts like ``part_of`` average their parts.
        """
        rows, owners = [], []
        for i, phrase in enumerate(phrases):
            for word in _SPLIT.split(normalize_token(phrase)):
                row = self.index.get(word) if word else None
                if row is not None:
                    rows.append(row)
                    owners.append(i)
        return segment_mean(self.matrix[np.array(rows, dtype=np.intp)],
                            np.array(owners, dtype=np.intp), len(phrases))


def load_embeddings(path, dim: int = 300) -> EmbeddingTable:
    """Parse a text embedding file: one token then ``dim`` finite floats per
    line, separated by runs of whitespace.

    Rows are parsed straight into one matrix.  Duplicate tokens keep the
    first occurrence; malformed lines raise with their line number.
    """
    with open(path, encoding="utf-8") as fh:
        # sized by a first pass: numpy backs a large array with huge pages,
        # so spare rows would be resident memory too
        matrix = np.empty((sum(1 for _ in fh), dim), dtype=np.float64)
        fh.seek(0)
        index = {}
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != dim + 1:
                raise EmbeddingParseError(
                    f"{path}:{lineno}: expected token + {dim} floats, "
                    f"got {len(fields) - 1} values"
                )
            try:
                values = list(map(float, fields[1:]))
            except ValueError as exc:
                raise EmbeddingParseError(f"{path}:{lineno}: {exc}") from exc
            # a nan or inf makes the sum non-finite; so can overflow, so recheck
            if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
                raise EmbeddingParseError(f"{path}:{lineno}: non-finite value")
            key = normalize_token(fields[0])
            if key and key not in index:
                matrix[len(index)] = values
                index[key] = len(index)
    if not index:
        raise EmbeddingParseError(f"{path}: no embedding entries found")
    return EmbeddingTable.from_rows(dim, matrix[:len(index)], index)
