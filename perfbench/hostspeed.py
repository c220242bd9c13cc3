"""Host-speed probe: a calibration loop that shares the measured core.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to 2x, over spells from under a second to minutes, and the guest sees no
steal time: a slow spell reads as plain CPU time of whatever runs.  Raw
times of the same run then spread by more than any useful bound.

So every measured child and this probe are pinned to one CPU.  The probe
runs at nice 19: it takes about 1.5% of that CPU, in short slices between
those of the measured process, and so sees the host at the same moments.
It loops a fixed chunk of work (a Python loop, an FFT and a pass over a
1 MB array, the mix a CLI run does) and publishes its CPU seconds and chunk
count in a 16-byte shared file.  A CPU time t measured over a window is
reported as ``t * REF_CHUNK_S / c``, with c the probe's CPU seconds per chunk
over the same window: seconds on a core of reference speed.

    python perfbench/hostspeed.py SHARED_FILE     # the probe (run by Probe)

The parent side (Probe) is pure Python, so the benchmark's parent process
never imports numpy.
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

_LAYOUT = struct.Struct("dQ")  # probe CPU seconds in chunks, chunks done
# Probe CPU seconds per chunk while it shares a core with a CLI run on a
# quiet host (2-vCPU VM, Python 3.11, numpy 2.4).  It sets the scale of the
# reported seconds only; every figure is divided by the measured value.
REF_CHUNK_S = 1.0e-4
# Fewest probe chunks a window must hold for its speed to count.
MIN_CHUNKS = 8
# Wall time beyond CPU time within one chunk that marks it as preempted.
PREEMPTED_S = 20e-6


class Probe:
    """The running probe, pinned with this process to one CPU."""

    def __init__(self, shared: Path, env: dict, timeout_s: float = 60.0):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})  # inherited by every child
        self.cpu = cpu
        shared.write_bytes(bytes(_LAYOUT.size))
        self._fh = open(shared, "rb")
        self._mm = mmap.mmap(self._fh.fileno(), _LAYOUT.size, access=mmap.ACCESS_READ)
        self._proc = subprocess.Popen([sys.executable, __file__, str(shared)], env=env,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        t0 = time.monotonic()
        while self.read()[1] < MIN_CHUNKS:
            if self._proc.poll() is not None or time.monotonic() - t0 > timeout_s:
                self.close()
                raise RuntimeError("host-speed probe did not start")
            time.sleep(0.05)

    def read(self) -> tuple[float, int]:
        return _LAYOUT.unpack_from(self._mm, 0)

    def scale(self, before: tuple[float, int], after: tuple[float, int]) -> float:
        """REF_CHUNK_S over the probe's CPU seconds per chunk between two reads."""
        chunks = after[1] - before[1]
        if chunks < MIN_CHUNKS:
            raise RuntimeError(f"host-speed probe ran only {chunks} chunks in a window")
        return REF_CHUNK_S * chunks / (after[0] - before[0])

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
        self._proc.wait()
        self._mm.close()
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _loop(shared: str) -> None:
    import numpy as np

    os.nice(19)
    x = np.random.default_rng(0).standard_normal(2048)
    buf = np.ones(1 << 17)
    with open(shared, "r+b") as fh:
        mm = mmap.mmap(fh.fileno(), _LAYOUT.size)
        spent, chunks, warm = 0.0, 0, False
        cpu, wall = time.thread_time, time.perf_counter
        parent = os.getppid()
        while chunks % 256 or os.getppid() == parent:  # ends if the benchmark dies
            w0, t0 = wall(), cpu()
            s = 0.0
            for i in range(200):
                s += i * 0.5
            np.fft.irfft(np.fft.rfft(x))
            np.multiply(buf, 1.0, out=buf)
            t1, w1 = cpu(), wall()
            # A chunk that was preempted, or follows one, ran on caches the
            # measured process had filled: it would tie the scale to that
            # process's footprint, so only chunks inside a slice count.
            was_warm, warm = warm, w1 - w0 - (t1 - t0) < PREEMPTED_S
            if was_warm and warm:
                spent += t1 - t0
                chunks += 1
                _LAYOUT.pack_into(mm, 0, spent, chunks)


if __name__ == "__main__":
    _loop(sys.argv[1])
