"""Run one command; report its wall time, peak RSS and exit code.

Usage: python3 -S perfbench/launch.py FD COMMAND...

COMMAND inherits this process's stdin, stdout, stderr and environment.
The report "<spawn time> <wall seconds> <peak RSS KB> <exit code>" goes
to file descriptor FD; the spawn time is time.monotonic(), a clock every
process on the host shares.  A child's ru_maxrss also counts the address
space it was spawned from, so commands are spawned from this small process
rather than from the benchmark, whose memory would otherwise show up in
every child.  It imports nothing beyond `os`, `sys` and `time`, so it adds
little to each command's turnaround.
"""

import os
import sys
import time

fd = int(sys.argv[1])
t0 = time.monotonic()
pid = os.posix_spawnp(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.monotonic() - t0
os.write(fd, f"{t0!r} {wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}".encode())
