"""Start commands from a small process, so that each one's peak RSS is its own.

Linux charges a child started by fork or vfork with the peak RSS of the
process that started it, and the benchmark holds whole streams in memory.
This process holds nothing. It reads one JSON request per line on stdin,
runs `streamclust <args>`, waits for it with os.wait4 and answers with one
JSON line:

    {"python": "...", "args": [...], "cwd": "...", "env": {...},
     "stdout": "path", "stderr": "path", "timeout": 150}
    -> {"returncode": 0, "seconds": 1.23, "scaled": 0.98, "start_s": 0.2,
        "maxrss_kb": 86000}

The command runs as the installed `streamclust` script does (import
`streamclust.cli.main`, call it), with one addition: once the import is
done, it tells this process through a pipe and stops itself (SIGSTOP). The
time up to then is its start: interpreter, imports. It is scaled by the
start calibrations (bench/calib.py) taken right before and right after
the command. From then on, every SEGMENT_S the command is stopped while
this process runs a loop calibration, then continued; each segment is
scaled by the calibrations at its two ends. `seconds` is the command's
wall time without the stops, `scaled` the sum of the scaled parts. The
benchmark pins this process and the command to one CPU, so a calibration
measures the CPU the command runs on.

It exits at the end of its input.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time

import calib

SEGMENT_S = 0.1

# `python -c BOOT <fd> <args>`: the console script plus the import signal.
BOOT = """\
import os, signal, sys
from streamclust.cli import main
fd = int(sys.argv[1])
os.write(fd, b".")
os.close(fd)
os.kill(os.getpid(), signal.SIGSTOP)
sys.argv = ["streamclust", *sys.argv[2:]]
sys.exit(main())
"""


def _wait_started(proc, ready_fd: int, timeout: float):
    """Waits until the command has imported its CLI and stopped itself, or
    has ended. Returns its wait4 status and rusage."""
    if not select.select([ready_fd], [], [], timeout)[0]:
        proc.kill()
    # The command writes, then stops itself; or it ended and closed the pipe.
    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
    return status, usage


def run_scaled(req) -> dict:
    start_before = calib.calibrate_start()
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        ready_fd, signal_fd = os.pipe()
        began = time.perf_counter()
        try:
            proc = subprocess.Popen([req["python"], "-c", BOOT, str(signal_fd), *req["args"]],
                                    stdout=out, stderr=err, env=req["env"], cwd=req["cwd"],
                                    pass_fds=(signal_fd,))
        finally:
            os.close(signal_fd)
        try:
            status, usage = _wait_started(proc, ready_fd, req["timeout"])
        finally:
            os.close(ready_fd)
        start_s = time.perf_counter() - began
        seconds, scaled = start_s, 0.0
        if os.WIFSTOPPED(status):
            cal = calib.calibrate()
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                while True:
                    began = time.perf_counter()
                    os.kill(proc.pid, signal.SIGCONT)
                    if not poller.poll(1e3 * SEGMENT_S):
                        os.kill(proc.pid, signal.SIGSTOP)
                    # Returns when the command has stopped or ended.
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    now = time.perf_counter()
                    next_cal = calib.calibrate()
                    seconds += now - began
                    scaled += calib.scale(now - began, cal, next_cal)
                    cal = next_cal
                    if not os.WIFSTOPPED(status):
                        break
                    if seconds > req["timeout"]:
                        os.kill(proc.pid, signal.SIGKILL)
                        _, status, usage = os.wait4(proc.pid, 0)
                        break
            finally:
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
    scaled += calib.scale_start(start_s, start_before, calib.calibrate_start())
    return {"returncode": proc.returncode, "seconds": seconds, "scaled": scaled,
            "start_s": start_s, "maxrss_kb": usage.ru_maxrss}


def serve(requests, replies) -> None:
    for line in requests:
        replies.write(json.dumps(run_scaled(json.loads(line))) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
