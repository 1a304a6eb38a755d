"""Child-process launcher for the cold runs.

Reads one JSON request per line on stdin, ``[argv, env, stdout_path,
stderr_path, timeout_s]``, runs the command to completion and answers with
one JSON line, ``[wall_s, exit_code, peak_rss_kib, timed_out]``. It exits
at the end of its input.

The benchmark starts its children through this small process because a
child's peak RSS (``ru_maxrss``) also counts the memory of the process it
was forked from, and the benchmark process holds the generated inputs and
the parsed reports.
"""

import json
import os
import subprocess
import sys
import threading
import time


def spawn(argv: list, env: dict, stdout_path: str, stderr_path: str, timeout_s: float) -> list:
    """Run one child to completion: [wall s, exit code, peak RSS KiB, timed out]."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = proc.returncode == -9 and wall >= timeout_s
    return [wall, proc.returncode, usage.ru_maxrss, timed_out]


def main() -> None:
    for line in sys.stdin:
        try:
            result = spawn(*json.loads(line))
        except OSError as exc:
            result = {"error": str(exc)}
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
