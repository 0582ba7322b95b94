"""Run one command and report its wall time, CPU time and peak RSS.

    python3 -S perfbench/launch.py REPORT_FD TIMEOUT_S PROGRAM [ARG ...]

The command inherits this process's stdin, stdout, stderr and environment.
One JSON object is written to the file descriptor REPORT_FD.  A command
still running after TIMEOUT_S seconds is killed; either way it is reaped
before this process exits.

Linux starts a child's peak RSS at the peak of the process it was spawned
from, so the benchmark, which grows while it checks large outputs, spawns
each command through this small, fresh process.
"""

import json
import os
import select
import signal
import sys
import time


def main() -> None:
    report_fd, timeout, argv = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3:]
    os.set_inheritable(report_fd, False)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    pidfd = os.pidfd_open(pid)
    timed_out = True  # also when interrupted: kill, then reap
    try:
        timed_out = not select.select([pidfd], [], [], timeout)[0]
    finally:
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        os.close(pidfd)
    report = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit_code": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
    }
    with os.fdopen(report_fd, "w") as out:
        json.dump(report, out)


if __name__ == "__main__":
    main()
