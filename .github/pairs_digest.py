"""One sha256 over the outputs of the ``pairs`` benchmark streams of seeds 1-3.

    python .github/pairs_digest.py

Generates the 207 ``certify-pair`` requests of each of the seeds 1, 2 and 3
of perfbench's ``pairs`` workload (621 in all, from ``worker.pairs_ops``) and
runs them through ``braidcert.cli.main`` in one process, in order, so later
requests meet the caches earlier ones filled, as in a benchmark session.
Each output gets the workload's own check (exit 0 and a certificate that
``verify_certificate_dict`` accepts); the first that fails stops the script
with exit 1.  Otherwise it prints one sha256 over every request's exit code,
stdout and stderr.  Nothing under ``perfbench/`` is changed.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402  (puts the checkout's src/ first on sys.path)

from braidcert import cli  # noqa: E402

SEEDS = (1, 2, 3)


def main() -> int:
    digest = hashlib.sha256()
    for seed in SEEDS:
        stream = worker.make_stream("pairs", seed, None)
        for op in itertools.islice(stream, worker.SESSION_OPS["pairs"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(op.argv)
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code
            problem = op.check(rc, out.getvalue(), err.getvalue())
            if problem is not None:
                print(f"seed {seed}, {op.words}: {problem}", file=sys.stderr)
                return 1
            digest.update(json.dumps([rc, out.getvalue(), err.getvalue()]).encode() + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
