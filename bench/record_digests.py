"""Record the SHA-256 of every workload's stdout at the default seed.

Usage, from the repository root, only when an output change is intended::

    python3 bench/record_digests.py

Writes ``bench/expected/digests.json``, which ``run.py`` checks the
default-seed outputs against.  Structural checks and the designed exit
codes still apply, so a run that fails them records nothing.
"""

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    digests = {}
    spawner = run.Spawner()
    try:
        for workload in workloads.WORKLOADS:
            work = run.ROOT / ".bench_work" / f"record-{workload}"
            try:
                for inv in workloads.build(workload, workloads.DEFAULT_SEED, work):
                    inv.digest = None
                    out = spawner.run(run.gut(inv), work, inv.command)
                    problems = workloads.output_problems(inv, out.stdout_path.read_bytes(), out.exit_code)
                    if problems:
                        print(f"{workload} {inv.command}: {problems}", file=sys.stderr)
                        return 1
                    digests.setdefault(workload, {})[inv.command] = out.sha256
            finally:
                shutil.rmtree(work, ignore_errors=True)
    finally:
        spawner.close()
    path = workloads.EXPECTED / "digests.json"
    path.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
