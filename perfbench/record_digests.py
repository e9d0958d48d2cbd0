"""Record the SHA-256 digests that the output gate checks, into digests.json.

    python3 perfbench/record_digests.py

Run it only at a commit whose outputs are known to be right: it runs every
fixture job, and every rational-ops job of the default seed, once per size.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import run
from workloads import WORKLOADS, build_jobs


def main() -> int:
    cli = run._import_program()
    import checks

    digests = {}
    for size in ("full", "small"):
        for workload in WORKLOADS:
            for job in build_jobs(workload, size, run.DEFAULT_SEED, run.WORKDIR):
                if job.key in digests:
                    continue
                out = io.StringIO()
                with redirect_stdout(out):
                    code = cli.main(list(job.argv))
                problems = checks.check_job(job, code, out.getvalue(), {})
                problems = [p for p in problems if "no recorded digest" not in p]
                if problems:
                    print(f"{job.key}: {problems}", file=sys.stderr)
                    return 1
                digests[job.key] = checks.sha256(out.getvalue())
                print(job.key, digests[job.key], flush=True)
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
