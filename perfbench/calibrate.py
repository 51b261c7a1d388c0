"""Same-run machine-speed calibration.

On a shared host the speed available to a process drifts by tens of
percent within minutes (neighbours contend for the shared caches and
memory bandwidth), and a plain wall time inherits that drift. A
calibrated workload therefore times a fixed kernel right before and
after every measured operation and reports each time scaled to a
machine on which that kernel takes :data:`REFERENCE_SECONDS`::

    normalised = wall * REFERENCE_SECONDS / calibration

The kernel imitates the operation: ``"numeric"`` (small einsum
contractions, elementwise arithmetic, an ``np.add.at`` scatter — the
solver's mix) or ``"interpreter"`` (JSON round trips and dict/list work
— a campaign served from its cache). It is part of the benchmark, not
of the program, so a change to the program moves the normalised time
exactly as it moves the wall time.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Calibration-kernel time of the reference machine: normalised times are
#: wall seconds on a machine where one calibration sample takes this long
#: (about what the 2-core x86 container the benchmark was tuned on shows).
REFERENCE_SECONDS = 0.008


class Calibrator:
    """The fixed calibration work of one kind, on inputs built once."""

    def __init__(self, kind: str) -> None:
        self._kernel = {
            "numeric": self._numeric,
            "interpreter": self._interpreter,
        }[kind]
        rng = np.random.default_rng(0)
        self.values = rng.random((5, 512, 4, 4, 4))
        self.matrix = rng.random((4, 4))
        self.index = rng.integers(0, 13824, size=(512, 64))
        self.record = {
            "point": {"order": 3, "elements": 8, "device": "u200"},
            "tier": "closed-form",
            "cycles": [float(i) * 1.5 for i in range(40)],
            "status": "ok",
        }

    def _numeric(self) -> None:
        for _ in range(2):
            np.einsum("ij,fejkl->feikl", self.matrix, self.values)
            shifted = self.values * 1.0001 + 0.5
            scaled = (np.sqrt(shifted) / shifted).reshape(5, 512, 64)
            out = np.zeros((5, 13824))
            for field in range(5):
                np.add.at(out[field], self.index, scaled[field])

    def _interpreter(self) -> None:
        for i in range(350):
            payload = json.loads(json.dumps(self.record, sort_keys=True))
            payload["cycles"] = sorted(payload["cycles"], reverse=i % 2 == 0)

    def sample(self) -> float:
        """Seconds one run of the kernel takes now."""
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start
