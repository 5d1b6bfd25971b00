"""Deterministic random streams.

Every stochastic step in the pipeline draws from an RngStream: a numpy
Generator over the PCG64 bit generator, seeded with an explicit 64-bit
integer, so every Generator draw method is available as is. The same seed
yields the same draw sequence on any platform. Independent substreams are
derived by hashing the parent seed with a label (SHA-256, first 8 bytes), so
e.g. negative sampling and neighbor sampling never perturb each other's
sequences no matter how often either is called.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF


class RngStream(np.random.Generator):
    """A numpy Generator on PCG64(seed mod 2**64) with labelled child streams."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64
        super().__init__(np.random.PCG64(self.seed))

    def child(self, label: str) -> "RngStream":
        """Derive an independent stream keyed by (seed, label)."""
        digest = hashlib.sha256(f"{self.seed}:{label}".encode("utf-8")).digest()
        return RngStream(int.from_bytes(digest[:8], "little"))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"
