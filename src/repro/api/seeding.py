"""One seeding entry point for scripts, benchmarks, and orchestrated runs.

Every script used to hand-roll its own seeding (a ``seed=0`` here, a
``default_rng(123)`` there), which made "the same config" mean subtly
different things depending on which entry point ran it.
:func:`seed_everything` is the single knob: it seeds every random source
this codebase can draw from and hands back the
:class:`numpy.random.Generator` scripts should thread through their own
sampling, so an orchestrated unit and a standalone invocation of the same
config are bit-identical.

This module is also the **only** place allowed to touch the *global* RNGs
(the ``random`` module and numpy's legacy ``np.random`` state) — the
REP-DET01 allowlist of ``python -m repro.run analyze``.  Nothing in this
library draws from the globals; they are seeded purely as a courtesy to
user code and third-party helpers, concentrated here so the whole
global-state surface stays one auditable location.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np


def seed_everything(seed: Optional[int] = 0) -> np.random.Generator:
    """Seed every random source and return a fresh :class:`Generator`.

    Seeds, in order:

    * :mod:`random` — the Python stdlib generator;
    * ``np.random`` — numpy's *legacy* global state (nothing in this library
      draws from it, but user code and third-party helpers might);
    * the returned ``np.random.default_rng(seed)`` — the generator the
      library's own components consume.

    ``seed=None`` leaves entropy-based seeding in place for all three (a
    deliberately irreproducible run).  Calling with the same seed always
    reproduces the same streams, so two scripts that both start with
    ``rng = repro.seed_everything(7)`` sample identically.
    """
    if seed is not None:
        seed = int(seed)
        random.seed(seed)
        # The legacy global RandomState only accepts 32-bit seeds.
        np.random.seed(seed % (2**32))
    return np.random.default_rng(seed)
