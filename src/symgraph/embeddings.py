"""Fixed word-embedding table, stored as one read-only (tokens, dim) matrix,
with vectorized phrase averaging and OOV-to-zero lookup."""

from __future__ import annotations

import math
import os
import re
from itertools import chain, repeat

import numpy as np

from .errors import EmbeddingParseError, read_text
from .tensor import segment_mean

_WS = re.compile(r"\s+")
_SPLIT = re.compile(r"[\s_]+")


def normalize_token(token: str) -> str:
    """Lowercase, trim, collapse inner whitespace, underscores to spaces.

    A lowercase ASCII letters-and-digits token is already in that form and
    is returned as it is, without the regex pass."""
    if token.isascii() and token.isalnum() and token.islower():
        return token
    return _WS.sub(" ", token.replace("_", " ").strip().lower())


class EmbeddingTable:
    """token -> fixed vector of width ``dim``; read-only after construction.

    ``index`` maps a token, as the loaders normalized it, to its row of
    ``matrix``, which the table adopts without copying and makes read-only.
    Phrases are split into word rows once per table (``phrase_rows``) and remembered.
    """

    def __init__(self, dim: int, matrix: np.ndarray, index: dict):
        matrix.flags.writeable = False
        self.dim, self.matrix, self.index = dim, matrix, index
        self._phrase_rows = {}  # phrase as given -> tuple of its found word rows

    def __contains__(self, token):
        return normalize_token(token) in self.index

    def __len__(self):
        return len(self.index)

    @property
    def entries(self) -> dict:
        """token -> its row of ``matrix`` (a view), built on each access; no
        program path reads it, and it stays because the benchmark does."""
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


# Files smaller than this parse line by line, where loadtxt's fixed setup
# costs more than it saves.  Timed right after a bundle round trip, as the
# benchmark's ingest round runs it (dim 16, medians): 12 rows (2.2 KB) took
# 158 us by line and 245 us in bulk, 40 rows (7.6 KB) 310 and 327 us, and
# 160 rows (30 KB) 880 and 613 us.
BULK_MIN_BYTES = 8192


def load_embeddings(path, dim: int = 300) -> EmbeddingTable:
    """Parse a UTF-8 text embedding file: one token then ``dim`` finite floats
    per line, separated by runs of whitespace.

    The file is read once, streamed: each line splits once into its token and
    the rest, and all the rests parse in one ``np.loadtxt`` call.  Duplicate
    tokens (after ``normalize_token``) keep the first occurrence.  Files under
    ``BULK_MIN_BYTES``, and files that call refuses or reads as non-finite, go
    through ``_parse_lines``, which names the first malformed line, and which
    alone reads the rare well-formed value loadtxt refuses (``1_0``,
    non-ASCII digits).
    """
    if os.stat(path).st_size < BULK_MIN_BYTES:
        return EmbeddingTable(dim, *_parse_lines(path, dim))
    tokens = []
    try:
        with open(path, encoding="utf-8") as fh:
            rows = filter(None, map(str.split, fh, repeat(None), repeat(1)))
            matrix = np.loadtxt(_values(rows, tokens), dtype=np.float64, comments=None,
                                ndmin=2)
    except ValueError:  # also bytes that are not UTF-8, which _parse_lines names
        matrix = None
    if matrix is None or matrix.shape != (len(tokens), dim) or not np.isfinite(matrix).all():
        return EmbeddingTable(dim, *_parse_lines(path, dim))
    keys = list(map(normalize_token, tokens))
    index = dict(zip(keys, range(len(keys))))
    if len(index) < len(keys) or "" in index:  # duplicates, or an empty token
        first = {}
        for row, key in enumerate(keys):
            if key:
                first.setdefault(key, row)
        matrix = matrix[list(first.values())]
        index = dict(zip(first, range(len(first))))
    if not index:
        raise EmbeddingParseError(f"{path}: no embedding entries found")
    return EmbeddingTable(dim, matrix, index)


def _values(rows, tokens):
    """The values text of each [token, values] row, its token appended to
    ``tokens``; raises ValueError on a row without values, and on no rows at
    all, where loadtxt would warn of empty input."""
    for token, values in rows:
        tokens.append(token)
        yield values
    if not tokens:
        raise ValueError("no rows")


def _parse_lines(path, dim: int):
    """(matrix, index) of the embedding file, parsed one line at a time with
    Python's ``float``; raises naming the first malformed line."""
    lines = read_text(path, EmbeddingParseError).split("\n")
    matrix = np.empty((len(lines), dim), dtype=np.float64)
    index = {}
    for lineno, line in enumerate(lines, start=1):
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
    return matrix[:len(index)], index
