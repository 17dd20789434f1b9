"""Machine-speed gauge: puts every measured time on one reference speed.

On the shared 2-CPU machine this benchmark was built on, the CPU speed a
process gets drifts by up to a factor of two within minutes: over two
minutes, a fixed Python loop over tiny numpy operations took between 16.6
and 33.4 ms (medians of 10-second windows), and ``equilibrium_report`` on
example-4.1 between 76 and 148 ms, while the ratio of the two stayed within
about 5%.  So the benchmark runs a fixed reference computation after every
operation, the one whose work is like the operation's, and reports

    scaled time = measured time * REFERENCE_SECONDS / mean reference time,

the operation's time at the machine speed under which the reference takes
``REFERENCE_SECONDS``.  The mean is over the reference runs that lie within
one operation length of the operation on either side, and always includes
the runs right before and right after it; a long operation is thus scaled by
the machine speed over roughly its own span, not by two instants.  The
references use only Python and numpy and no liestab code, so a change to
liestab moves the scaled times as much as the measured ones.

Set-up is mostly ``import liestab`` in a fresh interpreter, which the
in-process references follow poorly, so it has its own reference, "import":
``import numpy`` in a fresh interpreter, run before and after each set-up.
"""

from __future__ import annotations

import time

import numpy as np

# time of each reference computation on an unloaded 2-CPU Intel Xeon virtual machine;
# that of "import" is estimated from its ratio to "interpreter" on the loaded machine
REFERENCE_SECONDS = {"interpreter": 0.0095, "array": 0.017, "import": 0.05}


class SpeedGauge:
    """Readings of both references, and the times they scale.

    "interpreter" is a Python loop over tiny array operations, like the
    evaluation, report and CLI code.  "array" is a few long einsum
    contractions on 28^3 and 45^3 arrays, like the algebra and quotient
    kernels of the nilpotent sweep.  The two slow down by different amounts
    when the machine is loaded, so each operation names the one like its work.
    """

    def __init__(self):
        rng = np.random.default_rng(20190204)
        self._matrix = 0.1 * rng.standard_normal((12, 12))
        self._tensor = rng.standard_normal((6, 6, 6))
        self._small = rng.standard_normal((4, 28))
        self._cube = rng.standard_normal((28, 28, 28))
        self._basis = rng.standard_normal((45, 5))
        self._big = rng.standard_normal((45, 45, 45))
        self._references = {"interpreter": self._interpreter, "array": self._array}
        self.readings = {kind: [] for kind in self._references}  # (start, end) of each run
        for reference in self._references.values():  # warm-up, not recorded
            reference()
        self.measure()

    def _interpreter(self) -> float:
        x = np.ones(12)
        acc = 0.0
        for i in range(2000):
            x = self._matrix @ x + 0.01
            y = np.einsum("i,j,ijk->k", x[:6], x[6:], self._tensor)
            acc += float(y[0]) * 1e-9 + i % 7
        return acc

    def _array(self) -> float:
        # the quotient-algebra contraction on a 28^3 tensor, then the
        # subspace-bracket contraction on a 45^3 tensor
        a, b = self._small, self._basis
        acc = 0.0
        for _ in range(2):
            acc += float(np.einsum("ai,bj,ijk,ck->abc", a, a, self._cube, a)[0, 0, 0])
        acc += float(np.einsum("ia,jb,ijk->kab", b, b, self._big)[0, 0, 0])
        return acc

    def measure(self, kind: str = None) -> None:
        """Run one reference, or all of them when ``kind`` is None."""
        for name in [kind] if kind else list(self._references):
            start = time.perf_counter()
            self._references[name]()
            self.readings[name].append((start, time.perf_counter()))

    def scaled(self, start: float, end: float, kind: str = "interpreter") -> float:
        """Duration of [start, end] at the reference speed; needs a reading after ``end``."""
        starts = np.array([r[0] for r in self.readings[kind]])
        ends = np.array([r[1] for r in self.readings[kind]])
        length = end - start
        middle = 0.5 * (starts + ends)
        near = (middle >= start - length) & (middle <= end + length)
        before = np.flatnonzero(ends <= start)
        after = np.flatnonzero(starts >= end)
        if before.size:
            near[before[-1]] = True
        if after.size:
            near[after[0]] = True
        return length * REFERENCE_SECONDS[kind] / float(np.mean((ends - starts)[near]))

    def slowdown(self) -> dict:
        """Median reference time over its unloaded time: how slow the machine ran."""
        return {kind: float(np.median([e - s for s, e in runs])) / REFERENCE_SECONDS[kind]
                for kind, runs in self.readings.items()}
