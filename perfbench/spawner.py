"""A small helper process that runs the benchmark's children and times them.

On Linux a child's ``ru_maxrss`` starts from the RSS high-water mark of the
process that spawned it, because ``exec`` keeps the old address space's peak.
Children started straight from the benchmark would report the benchmark's
own corpus and oracle as their peak memory. So the benchmark starts this
helper first, while it is still small, and asks it for every child; each
child then inherits only the helper's few MiB.

Protocol: one JSON request per line on stdin, one JSON reply per line on
stdout. End of input ends the helper.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    timeout = request["timeout"]
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"],
            cwd=request["cwd"],
            env=request["env"],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "maxrss_kib": usage.ru_maxrss,
        "cpu": usage.ru_utime + usage.ru_stime,
        "code": None if wall >= timeout else proc.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
