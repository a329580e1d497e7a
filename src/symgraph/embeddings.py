"""Fixed word-embedding table, stored as one read-only (tokens, dim) matrix,
with vectorized phrase averaging and OOV-to-zero lookup."""

from __future__ import annotations

import math
import re
from itertools import chain

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

    ``index`` maps a normalized token to its row of ``matrix``.  Phrases are
    split into word rows once per table (``phrase_rows``) and remembered.
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
        self._phrase_rows = {}  # phrase as given -> tuple of its found word rows

    def __contains__(self, token):
        return normalize_token(token) in self.index

    def __len__(self):
        return len(self.index)

    @property
    def entries(self) -> dict:
        """token -> its row of ``matrix`` (a view), built on each access."""
        return {token: self.matrix[row] for token, row in self.index.items()}

    def lookup_word(self, word: str):
        """The word's row of ``matrix`` (a read-only view), or None."""
        row = self.index.get(normalize_token(word))
        return None if row is None else self.matrix[row]

    def phrase_rows(self, phrase: str) -> tuple:
        """Rows of the phrase's words found in the table, in word order.

        Words are split on whitespace and underscores after normalization, so
        multi-word concepts like ``part_of`` average their parts.
        """
        rows = self._phrase_rows.get(phrase)
        if rows is None:
            words = _SPLIT.split(normalize_token(phrase))
            rows = tuple(self.index[w] for w in words if w and w in self.index)
            self._phrase_rows[phrase] = rows
        return rows

    def phrase_vectors(self, phrases) -> np.ndarray:
        """(len(phrases), dim): each phrase's mean found word vector
        (``phrase_rows``), zeros for a phrase with no word in the table."""
        found = list(map(self.phrase_rows, phrases))
        rows = np.fromiter(chain.from_iterable(found), dtype=np.intp)
        owners = np.repeat(np.arange(len(found)), list(map(len, found)))
        return segment_mean(self.matrix[rows], owners, len(found))


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
