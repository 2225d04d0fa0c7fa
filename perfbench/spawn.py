"""Run one command; print its exit code, wall time, CPU time and peak RSS as JSON.

    python3 perfbench/spawn.py TIMEOUT_S STDOUT_FILE STDERR_FILE CMD...

The benchmark starts every CLI command through this small process rather
than from its own: Linux carries the peak RSS of the process that starts
a command into the command's ``ru_maxrss``, and the benchmark's peak
includes the CT-sized inputs it generated. CPU time and peak RSS come
from ``wait4``. The command is killed after TIMEOUT_S seconds.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout, stdout, stderr, cmd = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
