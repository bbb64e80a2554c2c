"""CPU speed probe: a fixed pure-Python loop at the lowest nice level.

Usage: python3 probe.py OUT.json

run.py pins itself, its children and this probe to one CPU.  At nice
19 the probe gets about 1.5% of that CPU in short slices between the
child's, so it runs in the same host conditions the child does.  Each
sample is the CPU time one fixed chunk of work took, stamped with the
perf_counter reading at its end.  The samples are written on SIGTERM; the
probe also stops if the run.py process that started it dies.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

CHUNK = 20_000


def main(out_path: str):
    os.nice(19)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    parent = os.getppid()
    while not stop and os.getppid() == parent:
        began = time.process_time()
        acc = 0
        for i in range(CHUNK):
            acc += i * i
        samples.append((time.perf_counter(), time.process_time() - began))
    with open(out_path, "w") as f:
        json.dump(samples, f)


if __name__ == "__main__":
    main(sys.argv[1])
