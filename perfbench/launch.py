"""Run one command and write its wall time, peak RSS and exit code as JSON.

Usage: python3 launch.py RESULT_JSON TIMEOUT_S command...

run.py starts every command through this small interpreter. On Linux a
process's peak RSS (ru_maxrss) starts from the peak of the process it was
forked from, so a command forked straight from run.py, which holds the whole
generated corpus, would report run.py's memory instead of its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    result_path, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    child = subprocess.Popen(argv)
    killer = threading.Timer(timeout, child.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": child.returncode}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
