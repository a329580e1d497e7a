"""Seed handling: every random choice flows from one root seed through
named child streams, so runs differing in one factor share all other draws."""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError


def child_rng(seed: int, name: str) -> np.random.Generator:
    """Deterministic child generator for a named stream of a root seed; a
    negative seed raises ``ConfigError``."""
    if int(seed) < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode("utf-8"))])
    )
