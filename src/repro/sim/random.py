"""Named, independently seeded random streams.

Medical CPS experiments compare configurations (e.g. open-loop vs closed-loop
PCA) on *the same* patient population and fault schedule.  To make such
comparisons paired rather than confounded by random-number consumption order,
every stochastic component draws from its own named stream derived
deterministically from a master seed.

Sensor noise is drawn through :class:`GaussianNoise`, which reads its stream
in blocks.  A noise stream owns its Generator: nothing else may draw from it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np


def derive_seed(master_seed: int, name: str) -> int:
    """Derive an unsigned 64-bit seed for ``name`` from ``master_seed``.

    The derivation is position-independent: it depends only on the pair
    ``(master_seed, name)``, never on how many seeds were derived before.
    Campaign workers use this to seed each run from its stable run
    identifier, so a run's randomness is identical whether it executes
    serially, in a worker pool, or alone during a resume.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStreams:
    """Factory of named :class:`numpy.random.Generator` streams.

    Two :class:`RandomStreams` built from the same master seed hand out
    identical generators for identical names, regardless of the order the
    names are requested in.
    """

    def __init__(self, master_seed: int = 0) -> None:
        if master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def _seed_for(self, name: str) -> int:
        return derive_seed(self.master_seed, name)

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(self._seed_for(name))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Return a child factory whose streams are independent of the parent's."""
        return RandomStreams(self._seed_for(name) % (2**31 - 1))

    def reset(self) -> None:
        """Forget all handed-out streams so the next request re-seeds them."""
        self._streams.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RandomStreams(master_seed={self.master_seed}, streams={sorted(self._streams)})"


#: Standard normals drawn per :class:`GaussianNoise` refill.
NOISE_BLOCK = 256


class GaussianNoise:
    """Zero-mean Gaussian noise drawn from ``rng`` in blocks.

    ``noise(sd)`` returns exactly ``float(rng.normal(0.0, sd))``, bit for
    bit, at a fraction of a scalar numpy call's cost.  numpy computes a
    scalar normal as ``loc + scale * z`` from one standard normal ``z``, and
    ``rng.standard_normal(n)`` makes the same ``n`` draws in the same order,
    so ``0.0 + sd * z[i]`` is the ``i``-th scalar value (``sd == 0.0`` still
    uses up its draw).  ``sd`` must be non-negative; callers validate it.

    The block is drawn ahead, so the helper must be the *only* consumer of
    its Generator: another draw from ``rng`` would see a different stream
    position than it would with scalar calls.
    """

    __slots__ = ("_rng", "_block", "_index")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._block: List[float] = []
        self._index = 0

    # repro-lint: hot
    def __call__(self, sd: float) -> float:
        index = self._index
        block = self._block
        if index == len(block):
            block = self._block = self._rng.standard_normal(NOISE_BLOCK).tolist()
            index = 0
        self._index = index + 1
        return 0.0 + sd * block[index]
