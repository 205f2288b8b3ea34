"""Start benchmark commands on request and report what each one cost.

Reads one JSON request per line on stdin ({"argv", "cwd", "stdout",
"stderr"}), runs the command to completion and answers with one JSON line:
start time, wall seconds, CPU seconds, peak RSS and exit status.

This stays a separate, small process because Linux seeds a child's
ru_maxrss with the peak memory of the process that spawned it: commands
started from the harness itself, after it has parsed a catalog, would report
the harness's memory instead of their own.  SIGTERM kills the running
command, waits for it and exits.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _stop(signum, frame):
    raise SystemExit(1)


def main():
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            started = time.monotonic()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out,
                                    stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.monotonic() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"started": started, "wall": wall,
                          "cpu": usage.ru_utime + usage.ru_stime,
                          "rss_mb": usage.ru_maxrss / 1024,
                          "status": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
