"""Run one command; write its exit code, wall time and peak RSS as JSON.

    python3 -S perfbench/spawn.py RESULT.json TIMEOUT_S COMMAND...

The benchmark starts every operation through this small process. When a
process execs, the kernel counts the resident set of the process it was
started from into its peak RSS, so a command started straight from the
benchmark would report at least the benchmark's own memory. The peak RSS
covers the command and every child it waited for, such as pool workers.
The command is killed after TIMEOUT_S seconds.
"""

import json
import os
import signal
import sys
import time


def main():
    out, timeout, cmd = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    with open(out, "w") as fh:
        json.dump(
            {"rc": os.waitstatus_to_exitcode(status), "wall_s": wall,
             "maxrss_kb": usage.ru_maxrss},
            fh,
        )


if __name__ == "__main__":
    main()
