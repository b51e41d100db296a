"""Machine-speed probe, so that timings from a noisy shared box compare.

On a shared 2-core Xeon virtual machine, the same pass took
anywhere from 3.2 s to 6.0 s within one process, in phases lasting seconds
to minutes, because the host's other tenants come and go. A fixed
pure-Python loop slowed down in step with the workloads (it tracked them
better than an FFT or a spline-interpolation probe did).

``Pace`` runs that loop from a SIGALRM handler every INTERVAL seconds while
a timed region runs. A region's time is then reported as

    (elapsed - time spent in the probe) * REFERENCE_S / median(probe times)

that is, in seconds at the speed where the probe loop takes REFERENCE_S.
The median is taken over the region's own samples (each op of a pass;
the whole pass for ops too short to collect MIN_SAMPLES). This uses only
the process's own timer and signal handler.
"""

import signal
import statistics
import time

INTERVAL = 0.02
LOOP = 3000
# a region with fewer samples is scaled by its whole pass's samples
MIN_SAMPLES = 5
# probe time of the fast phase on a shared 2-core Xeon VM, Python 3.11
REFERENCE_S = 1.0e-4


class Pace:
    def __init__(self):
        self.samples = []
        self._old = None

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        s = 0
        for i in range(LOOP):
            s += i
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def timed(self, fn):
        """(fn(), elapsed seconds minus probe time, probe samples taken)."""
        before = len(self.samples)
        with self:
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
        own = self.samples[before:]
        return result, elapsed - sum(own), own


def scale(samples):
    """Factor that turns seconds timed under these samples into reference seconds."""
    if not samples:
        raise RuntimeError("no probe samples: timed region too short")
    return REFERENCE_S / statistics.median(samples)
