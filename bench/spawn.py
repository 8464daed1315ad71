"""Start the benchmark's child processes from a small process.

On exec, Linux folds the memory high-water mark of the process image being
replaced into the new program's ``ru_maxrss``.  A child started straight from
the benchmark, which holds numpy and the oracles' arrays, would therefore
report the benchmark's peak instead of its own.  This process imports nothing
heavy and stays small, so a child's ``ru_maxrss`` is the child's.

Protocol: one JSON request per line on stdin (argv, cwd, stdout and stderr
paths, timeout in seconds); the child runs to completion and one JSON line
answers with its wall time, exit code, whether it timed out, and its rusage.
Exits at end of input.
"""

import json
import os
import signal
import subprocess
import sys
import time


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as so, open(request["stderr"], "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=so, stderr=se, cwd=request["cwd"])
        status = usage = None
        timed_out = False
        try:
            signal.alarm(request["timeout"])
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            timed_out = True
        finally:
            signal.alarm(0)
            if status is None:  # timed out or interrupted: never leave it running
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode, "timed_out": timed_out,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
