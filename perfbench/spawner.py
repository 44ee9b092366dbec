"""Start the benchmark's program children from a small process and time them.

Linux charges the memory of the process that forks a child to the child's
peak RSS, so children are started from this process, which stays small,
rather than from the benchmark, which holds inputs in memory.

One JSON request per stdin line, {"argv", "stdout", "stderr", "timeout"};
one JSON reply per stdout line, {"code", "wall_s", "maxrss_kb"}.  Children
inherit this process's working directory and environment.  It exits when
stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
