#!/usr/bin/env python3
"""Self-test of the benchmark's byte oracle.

Sets up a small warm_small node, reads one clean epoch through the shim
and expects no failures; then flips one byte of one cached copy on the
server side and expects the next epoch to report exactly that sample.

    python3 perfbench/selftest.py

Exits 0 when both checks hold, 1 otherwise.
"""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def main():
    bench.build()
    r = bench.Run("warm_small", seed=7, seconds=0, trace=False)
    r.files = 512
    r.generate(epochs=4)
    r.server = bench.Server(r.shape, r.work)
    ok = True
    try:
        r.setup_once()
        clean, _ = r.hvac_epoch(1)
        if clean["epoch"]["failed"] != 0:
            print("FAIL: clean epoch reported %d failures" % clean["epoch"]["failed"])
            ok = False

        victim = r.samples[3][0]
        path, base = r.server.cachepath(victim)
        fd = os.open(path, os.O_RDWR)
        try:
            old = os.pread(fd, 1, base + 5)
            os.pwrite(fd, bytes([old[0] ^ 0xFF]), base + 5)
        finally:
            os.close(fd)
        dirty, _ = r.hvac_epoch(2)
        e = dirty["epoch"]
        if e["failed"] != 1 or e["failures"] != [victim]:
            print("FAIL: corrupted copy of %s gave failed=%d failures=%s" % (
                victim, e["failed"], e["failures"]))
            ok = False
    finally:
        r.server.close()
        shutil.rmtree(r.work, ignore_errors=True)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
