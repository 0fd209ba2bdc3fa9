"""Process launcher of the ``gut`` benchmark.

The peak RSS that ``wait4`` reports for a child includes the memory
high-water mark of the process that spawned it: Linux folds the spawner's
peak into the child's when the child calls ``exec``.  The benchmark's own
process grows when it checks large outputs, so it does not spawn the
measured children itself.  This small, long-lived process does, and it
keeps its memory flat by streaming each child's output to files.

Protocol: one JSON request per line on stdin, with ``argv``, ``cwd``,
``stdout`` and ``stderr`` (file paths) and ``timeout`` (seconds); one JSON
reply per line on stdout, with ``wall_ms`` (spawn until exit with stdout
read), ``exit_code``, ``rss_mb``, ``timed_out`` and ``sha256`` of stdout.
Children inherit this process's environment.
"""

import hashlib
import json
import os
import selectors
import subprocess
import sys
import time


def run(argv, cwd, stdout, stderr, timeout):
    digest = hashlib.sha256()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        timed_out = False
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ, (out, digest))
                sel.register(proc.stderr, selectors.EVENT_READ, (err, None))
                while sel.get_map():
                    left = t0 + timeout - time.perf_counter()
                    if left <= 0:
                        timed_out = True
                        proc.kill()
                        break
                    for key, _ in sel.select(left):
                        chunk = os.read(key.fd, 1 << 16)
                        if not chunk:
                            sel.unregister(key.fileobj)
                            continue
                        sink, hasher = key.data
                        sink.write(chunk)
                        if hasher is not None:
                            hasher.update(chunk)
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            wall_ms = (time.perf_counter() - t0) * 1e3
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
    return {
        "wall_ms": wall_ms,
        "exit_code": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024,
        "timed_out": timed_out,
        "sha256": digest.hexdigest(),
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(**json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
