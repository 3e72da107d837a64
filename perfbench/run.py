"""The braidcert benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload certify|pairs|verify|invariant \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each pass runs in a fresh interpreter (``worker.py``).  One client
sends the next request only after the previous one returns.

``--trace 0`` measures the end-to-end metrics with tracing off.  It starts
identical sessions (``worker.py``) until ``--seconds`` have passed and
reports set-up time (median over at least five fresh interpreters), the
workload's headline request times and the peak RSS, while every output is
checked.  Times are scaled to the host's fast speed (see speed.py); the
unscaled figures are printed too.
``--trace 1`` runs the workload's fixed traced work three times at once, in
separate interpreters: untraced, with layer spans, and with QSqrt2 operation
counters.  It prints the per-layer metrics and the tracing overhead (traced
minus untraced CPU time of the session).  Spans go to
``.bench_out/spans-<workload>-<seed>.tsv``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "pairs", "verify", "invariant")

# fresh interpreters per run whose set-up time is measured; the median is
# reported, because one interpreter start is noisy on a shared host
SETUP_SAMPLES = 5
# the passes of a run may not outlive its 180 s limit
WORKER_TIMEOUT_S = 170

# each workload's headline metrics under their issue-tracker names:
# (name, declared metric, scale, unit)
NAMED = {
    "certify": [("certify_s", "op_p50_ms", 1e-3, "s")],
    "pairs": [
        ("pair_p50_ms", "op_p50_ms", 1, "ms"),
        ("pair_p90_ms", "op_p90_ms", 1, "ms"),
        ("pairs_per_s", "ops_per_s", 1, "1/s"),
    ],
    "verify": [("verify_s", "op_p50_ms", 1e-3, "s")],
    "invariant": [
        ("distinguish_p90_ms", "op_p90_ms", 1, "ms"),
        ("distinguish_per_s", "ops_per_s", 1, "1/s"),
    ],
}


class PassFailed(RuntimeError):
    pass


def _spawn(args, mode, work, spans_out=None):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--work-dir", str(work),
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc, started


def _collect(proc, started):
    left = started + WORKER_TIMEOUT_S - time.monotonic()
    try:
        out, _ = proc.communicate(timeout=max(0.0, left))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise PassFailed(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def _run_passes(args, modes, work, spans_out=None):
    """Start one worker per mode at once, wait for all of them."""
    procs = [_spawn(args, m, work, spans_out if m == "spans" else None) for m in modes]
    try:
        return [_collect(p, s) for p, s in procs]
    finally:
        for p, _ in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def _p90(values):
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _input_lines(props) -> list:
    words = props["words"] or 1
    return [
        f"input word_letters_mean = {props['letters'] / words:.6g}",
        f"input braid_letters_mean = {props['braid'] / words:.6g}",
        f"input complex_rank_mean = {props['rank'] / words:.6g} (3^k for k braid letters)",
    ]


def _headline(latencies) -> dict:
    """Median, 90th percentile and rate of per-request times (seconds)."""
    lat = latencies or [0.0]
    return {
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * _p90(lat),
        "ops_per_s": len(latencies) / sum(lat) if sum(lat) else 0.0,
    }


def _scaled(seconds, speed_s):
    """A time at the host's fast speed (see speed.py)."""
    return seconds * speed.REFERENCE_S / speed_s


def _fastest_repeats(sessions, scaled: bool) -> list:
    """Each request's time: its fastest repeat across the run's sessions."""
    per_request = zip(*(
        [_scaled(t, v) if scaled and t is not None else t
         for t, v in zip(s["latencies_s"], s["speeds_s"])]
        for s in sessions
    ))
    return [min(t for t in reps if t is not None) for reps in per_request
            if any(t is not None for t in reps)]


def untraced(args, work):
    deadline = time.monotonic() + args.seconds
    sessions, setup_only = [], []
    while not sessions or time.monotonic() < deadline:
        sessions += _run_passes(args, ["run"], work)
    while len(sessions) + len(setup_only) < SETUP_SAMPLES:
        setup_only += _run_passes(args, ["setup"], work)
    setups = [_scaled(s["setup_s"], s["setup_speed_s"]) for s in sessions + setup_only]
    res = {
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": sum(s["failed"] for s in sessions),
        "failures": [f for s in sessions for f in s["failures"]],
    }
    # the sessions of a run send identical requests; scaling each request
    # by the host speed around it removes the long slow phases, and taking
    # its fastest repeat the short ones
    samples = _fastest_repeats(sessions, scaled=True)
    values = _headline(samples)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = max(s["rss_mb"] for s in sessions)
    unscaled = _headline(_fastest_repeats(sessions, scaled=False))
    lines = [
        f"{name} = {values[key] * scale:.6g} {unit}"
        for name, key, scale, unit in NAMED[args.workload]
    ]
    lines.append(
        f"ops_failed_share = {res['failed'] / res['attempted']:.6g} "
        f"({res['failed']} of {res['attempted']} attempted in {len(sessions)} sessions; "
        f"{len(samples)} headline requests; {len(setups)} set-up samples)"
    )
    lines.append(
        "unscaled: "
        + ", ".join(f"{k} = {v:.6g}" for k, v in unscaled.items())
        + "; host speed (probe loop ms) per session: "
        + " ".join(f"{1000 * statistics.median(s['speeds_s'] or [0]):.3f}" for s in sessions)
    )
    props = {k: sum(s["input"][k] for s in sessions) for k in sessions[0]["input"]}
    return values, res, lines + _input_lines(props)


def traced(args, work):
    out_dir = work.parent
    spans_out = out_dir / f"spans-{args.workload}-{args.seed}.tsv"
    plain, spans, count = _run_passes(args, ["run", "spans", "count"], work, spans_out)
    values = dict(spans["layers"])
    values.update(count["layers"])
    values["trace.cpu_s"] = spans["cpu_s"]
    values["trace.overhead_s"] = spans["cpu_s"] - plain["cpu_s"]
    res = {
        "attempted": plain["attempted"] + spans["attempted"] + count["attempted"],
        "failed": plain["failed"] + spans["failed"] + count["failed"],
        "failures": plain["failures"] + spans["failures"] + count["failures"],
    }
    lines = [
        f"untraced {plain['cpu_s']:.6g} s CPU / {plain['wall_s']:.6g} s wall, "
        f"traced {spans['cpu_s']:.6g} s CPU / {spans['wall_s']:.6g} s wall, "
        f"counting pass {count['wall_s']:.6g} s wall; "
        f"spans written to {spans_out.relative_to(ROOT)}"
    ]
    return values, res, lines + _input_lines(spans["input"])


def main() -> int:
    ap = argparse.ArgumentParser(description="braidcert benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "braidcert" / "cli.py").is_file():
        print(f"error: no braidcert source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    work = ROOT / ".bench_out" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        values, res, lines = (traced if args.trace else untraced)(args, work)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for failure in res["failures"]:
        print(f"FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
