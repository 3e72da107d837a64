"""One benchmark session: a fresh interpreter, set-up, then a closed loop.

``run.py`` starts this file once per session, because the pane cache, the
``lru_cache`` tables and the per-``Bimodule`` monomial caches live for one
process, as they do for a CLI user.  A session sends a fixed number of
requests (SESSION_OPS), generated from the run's seed, one after the other.
Every request goes through the CLI entry point ``braidcert.cli.main``, and
its output is checked outside the timed span.  The host's speed is sampled
before, during and after each request (see speed.py).  The last line printed
is one JSON object.

Modes:
  setup   exit once imports are done and the inputs are generated or loaded;
  run     the session, untraced;
  spans   the session with layer spans installed (see tracer.py);
  count   the session with QSqrt2 operation counters installed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from braidcert import cli, homotopy  # noqa: E402  (import time is part of set-up)

import speed  # noqa: E402
import tracer  # noqa: E402

# sha256 of the file written by ``certify --n N --format json --out F``
CERTIFY_SHA256 = {
    2: "d86d99ea3d1405d99de6dc628a0e648bc847d86bfc8c9bbae6198a01d200f0c5",
    3: "90d69fe5be5f87f43de52b5e61910fd1a41ce943abdf026782fe1df850fd6ac6",
}
REPORT_N3 = HERE / "data" / "certify_n3.json"
RELATIONS_N8 = HERE / "data" / "relations_n8.json"

# requests per session.  A fixed session (rather than a loop until a
# deadline) gives every session the same cache warm-up, so a slow host does
# not also shift the share of cold requests; the traced run is one session,
# so its counts repeat exactly
SESSION_OPS = {"certify": 1, "pairs": 207, "verify": 3, "invariant": 325}

# a wrong-degree monomial: adding it to any certificate entry breaks the
# grading of that entry, so the tampered certificate must FAIL exactly there
TAMPER_TERM = "X0^16"


class Op:
    """One request: CLI arguments, whether its latency is the workload's
    headline latency, and a check of (exit code, stdout, stderr)."""

    __slots__ = ("argv", "primary", "check", "words", "prepare")

    def __init__(self, argv, primary, check, words=(), prepare=None):
        self.argv = argv
        self.primary = primary
        self.check = check
        self.words = words
        self.prepare = prepare


def _concat(*parts) -> str:
    return " ".join(p for p in parts if p)


# -- certify: the headline command -------------------------------------------------


def certify_ops(rng, work: Path):
    out = work / "certify_n2.json"

    def check(rc, stdout, stderr):
        if rc != 0:
            return f"certify exit {rc}: {stderr.strip()[:200]}"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if digest != CERTIFY_SHA256[2]:
            return f"certify --n 2 output sha256 {digest} != {CERTIFY_SHA256[2]}"
        return None

    argv = ["certify", "--n", "2", "--format", "json", "--out", str(out)]
    while True:
        yield Op(argv, True, check)


# -- pairs: certify-pair on n=3 relations with virtual letters around ---------------


def _pair_words():
    report = json.loads(REPORT_N3.read_text())
    return [
        tuple(r["certificate"]["words"])
        for r in report["results"]
        if not r["relation"].startswith(("relB2", "relB3"))
    ]


def pairs_ops(rng, pairs):
    virtual = ["z0", "z1", "z2"]

    def check(rc, stdout, stderr):
        if rc != 0:
            return f"certify-pair exit {rc}: {stderr.strip()[:200]}"
        cert = json.loads(stdout)
        with _paused():
            ok, failures = homotopy.verify_certificate_dict(cert)
        if not ok:
            return f"certificate {cert['words']} fails re-verification: {failures[:1]}"
        return None

    # every pair once per round, in seeded order, and each pair steps through
    # the nine (|u|, |v|) length pairs from a seeded start: the iso pairs take
    # a few milliseconds and the contractions tens, and more virtual letters
    # cost more, so independent draws would let the seed move the percentiles
    lengths = [(a, b) for a in range(3) for b in range(3)]
    start = {p: rng.randrange(len(lengths)) for p in pairs}
    for r in itertools.count():
        for pair in rng.sample(pairs, len(pairs)):
            a, b = lengths[(start[pair] + r) % len(lengths)]
            u = " ".join(rng.choice(virtual) for _ in range(a))
            v = " ".join(rng.choice(virtual) for _ in range(b))
            w1, w2 = _concat(u, pair[0], v), _concat(u, pair[1], v)
            argv = ["certify-pair", w1, w2, "--n", "3", "--kind", "auto", "--format", "json"]
            yield Op(argv, True, check, (w1, w2))


# -- verify: the trust root on the committed n=3 report ------------------------------


def _load_report() -> bytes:
    data = REPORT_N3.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != CERTIFY_SHA256[3]:
        raise SystemExit(f"fixture {REPORT_N3.name} sha256 {digest} != {CERTIFY_SHA256[3]}")
    return data


def verify_ops(rng, work: Path, report_bytes: bytes):
    report = json.loads(report_bytes)
    certs = [r["certificate"] for r in report["results"]]
    all_words = tuple(w for c in certs for w in c["words"])
    tampered = work / "tampered.json"

    def check_clean(rc, stdout, stderr):
        oks = stdout.count("[ok]")
        if rc != 0 or oks != len(certs) or "[FAIL]" in stdout:
            return f"clean report: exit {rc}, {oks}/{len(certs)} ok"
        return None

    def tamper_op():
        cert = json.loads(json.dumps(rng.choice(certs)))
        field, item = rng.choice([
            (k, item)
            for k in ("forward", "inverse", "backward", "homotopy_source", "homotopy_target")
            for item in cert.get(k, ())
        ])
        row = rng.randrange(len(item["matrix"]))
        col = rng.randrange(len(item["matrix"][row]))
        entry = item["matrix"][row][col]
        item["matrix"][row][col] = TAMPER_TERM if entry == "0" else f"{entry} + {TAMPER_TERM}"
        witness = re.compile(
            rf"^    degree {item['degree']}: .* at \({row},{col}\): \S", re.MULTILINE
        )
        text = json.dumps(cert)

        def prepare():
            tampered.write_text(text)

        def check(rc, stdout, stderr):
            if rc != 1 or stdout.count("[FAIL]") != 1 or not witness.search(stdout):
                return (
                    f"tampered {cert['relation']} {field} degree {item['degree']} "
                    f"({row},{col}) not caught with a witness: exit {rc}"
                )
            return None

        argv = ["verify-certificate", str(tampered)]
        return Op(argv, False, check, tuple(cert["words"]), prepare)

    while True:
        yield Op(["verify-certificate", str(REPORT_N3)], True, check_clean, all_words)
        for _ in range(2):
            yield tamper_op()


# -- invariant: distinguish at n=8, plus one check-relations -------------------------


def _relations():
    return [tuple(r[1:]) for r in json.loads(RELATIONS_N8.read_text())["relations"]]


def invariant_ops(rng, relations):
    n = 8
    alphabet = [f"s{i}" for i in range(n)] + [f"s{i}^-1" for i in range(n)] + [
        f"z{i}" for i in range(n)
    ]

    def check_relations(rc, stdout, stderr):
        if rc != 0 or not json.loads(stdout)["all_pass"]:
            return f"check-relations --n 8: exit {rc}"
        return None

    def expect(status):
        def check(rc, stdout, stderr):
            got = json.loads(stdout)["status"] if rc == 0 else f"exit {rc}"
            return None if got == status else f"distinguish gave {got}, expected {status}"

        return check

    yield Op(["check-relations", "--n", "8", "--format", "json"], False, check_relations)
    # every (|u|, |v|) pair once per round, in seeded order: cost grows
    # exponentially with word length, so the seed must not move the length mix
    lengths = [(a, b) for a in range(8, 17) for b in range(8, 17)]
    while True:
        for a, b in rng.sample(lengths, len(lengths)):
            u = " ".join(rng.choice(alphabet) for _ in range(a))
            v = " ".join(rng.choice(alphabet) for _ in range(b))
            i = rng.randrange(n)
            for (lhs, rhs), status in (
                (rng.choice(relations), "invariant-equal"),
                ((f"s{i} z{i}", f"z{i} s{i}"), "unequal"),
            ):
                w1, w2 = _concat(u, lhs, v), _concat(u, rhs, v)
                argv = ["distinguish", w1, w2, "--n", "8", "--format", "json"]
                yield Op(argv, True, expect(status), (w1, w2))


def make_stream(workload: str, seed: int, work: Path):
    """Load or generate the session's inputs; returns the operation iterator."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        return certify_ops(rng, work)
    if workload == "pairs":
        return pairs_ops(rng, _pair_words())
    if workload == "verify":
        return verify_ops(rng, work, _load_report())
    if workload == "invariant":
        return invariant_ops(rng, _relations())
    raise SystemExit(f"unknown workload {workload!r}")


# -- the loop -------------------------------------------------------------------------

_ACTIVE: list = []  # the installed tracer or counter, paused around checks


@contextlib.contextmanager
def _paused():
    for t in _ACTIVE:
        t.enabled = False
    try:
        yield
    finally:
        for t in _ACTIVE:
            t.enabled = True


def _call(argv, ticks):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with speed.Ticker() as ticker:
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            elapsed = time.perf_counter() - start
    ticks.extend(ticker.samples)
    return rc, out.getvalue(), err.getvalue(), elapsed


def run_ops(ops, span_tracer=None):
    latencies, failures, props = [], [], {"words": 0, "letters": 0, "braid": 0, "rank": 0}
    speeds = []  # per request: host speed samples before and during it
    headline = []  # (op index, seconds or None) of the headline requests
    started, started_cpu = time.perf_counter(), time.process_time()
    for i, op in enumerate(ops):
        if span_tracer is not None:
            span_tracer.op = i
        for w in op.words:
            letters = w.split()
            braid = sum(1 for x in letters if x.startswith("s"))
            props["words"] += 1
            props["letters"] += len(letters)
            props["braid"] += braid
            props["rank"] += 3**braid
        speeds.append([speed.sample()])
        try:
            with _paused():
                if op.prepare is not None:
                    op.prepare()
            rc, out, err, elapsed = _call(op.argv, speeds[-1])
            with _paused():
                problem = op.check(rc, out, err)
        except Exception:  # a crash is a failed operation, never a crashed run
            problem = traceback.format_exc(limit=3)
        if problem is not None:
            failures.append(problem)
        if op.primary:
            headline.append((i, None if problem else elapsed))
    speeds.append([speed.sample()])
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "latencies_s": [t for _, t in headline],
        # samples before and during each request, and the next one after it
        "speeds_s": [statistics.fmean(speeds[i] + speeds[i + 1][:1]) for i, _ in headline],
        "wall_s": time.perf_counter() - started,
        "cpu_s": time.process_time() - started_cpu,
        "input": props,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "spans", "count"], required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args()

    stream = make_stream(args.workload, args.seed, args.work_dir)
    ops = list(itertools.islice(stream, SESSION_OPS[args.workload]))
    result = {"ready_at": time.monotonic(), "setup_speed_s": speed.sample()}
    if args.mode == "run":
        result.update(run_ops(ops))
    elif args.mode == "spans":
        spans = tracer.SpanTracer()
        spans.install()
        _ACTIVE.append(spans)
        result.update(run_ops(ops, span_tracer=spans))
        _ACTIVE.clear()
        result["layers"] = spans.layer_metrics()
        result["layers"]["trace.spans"] = len(spans.spans)
        if args.spans_out:
            spans.write(args.spans_out)
    elif args.mode == "count":
        counter = tracer.QSqrt2Counter()
        counter.install()
        _ACTIVE.append(counter)
        result.update(run_ops(ops))
        _ACTIVE.clear()
        result["layers"] = counter.layer_metrics()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
