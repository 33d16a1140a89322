"""Starts the benchmark's child processes and reports wall time and peak RSS.

A child's ``ru_maxrss`` also covers the memory high-water mark of the
process that started it, because exec records the old address space's peak.
``run.py`` holds the input and the reference results, so its children are
started from this small process instead.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "env",
"stdout", "stderr", "timeout"}``; one JSON reply per stdout line, ``{"start",
"wall_s", "code", "peak_rss_mb"}``. An argv entry ``@T_SPAWN`` is replaced by
the ``time.monotonic()`` reading taken just before the child starts, which is
also ``start``. A child still running after ``timeout`` seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request) -> dict:
    with open(request["stdout"] or os.devnull, "wb") as out, \
            open(request["stderr"] or os.devnull, "wb") as err:
        start = time.monotonic()
        argv = [repr(start) if a == "@T_SPAWN" else a for a in request["argv"]]
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=request["cwd"],
                                env=request["env"])
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": start, "wall_s": wall, "code": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
