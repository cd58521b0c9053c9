"""The benchmark's one command: run a workload as a user would, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (the directory holding ``src/`` and
``BENCHMARK.json``).  Every measurement is a fresh child process
(``child.py``) with BLAS pinned to one thread, ``src`` on ``PYTHONPATH``
and its working directory, ``TMPDIR``, ``HOME`` and ``XDG_CACHE_HOME`` in a
fresh directory under ``.perfbench_tmp/``, which is removed at the end.
Children are repeated until ``--seconds`` are used up (at least
``MIN_CHILDREN``) and each metric is reported as the median over them.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced children and prints every
per-layer metric, including the tracing overhead (traced minus untraced,
per end-to-end metric).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
standard library only: this process never imports numpy or ``repro``.
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
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

#: Children measured per run at least, whatever ``--seconds`` says.
MIN_CHILDREN = 3
#: The whole run ends within this many seconds, or fails.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The run cannot produce a result; reported on stderr with exit code 1."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError("BENCHMARK.json not found: run from the root of a checkout")
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        raise BenchError("src/repro not found: run from the root of a checkout")
    with open(path) as f:
        return json.load(f)


class Runner:
    """Starts children in fresh directories and collects their results."""

    def __init__(self, root: str, workload: str, seed: int, deadline: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.tmp = os.path.join(root, ".perfbench_tmp", f"{os.getpid()}-{uuid.uuid4().hex[:8]}")
        self.inputs = os.path.join(self.tmp, "inputs")
        os.makedirs(self.inputs)
        self._count = 0
        # Traced children's spans outlive the run: the latest traced run of
        # each workload keeps them here.
        self.spans_dir = os.path.join(root, ".perfbench_out", workload) if trace else None
        if trace:
            shutil.rmtree(self.spans_dir, ignore_errors=True)
            os.makedirs(self.spans_dir)

    def child(self, role: str, rep: int, trace: bool) -> dict:
        self._count += 1
        cwd = os.path.join(self.tmp, f"child{self._count}")
        os.makedirs(cwd)
        env = dict(os.environ)
        env.update({v: "1" for v in wl.BLAS_VARS})
        env.update(PYTHONPATH=os.path.join(self.root, "src"), PYTHONHASHSEED="0",
                   TMPDIR=cwd, HOME=cwd, XDG_CACHE_HOME=cwd)
        out = os.path.join(cwd, "result.json")
        spec = {"role": role, "workload": self.workload, "seed": self.seed, "rep": rep,
                "trace": trace, "inputs": self.inputs, "out": out}
        spec_path = os.path.join(cwd, "spec.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path, repr(t0)],
                cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{role} child exceeded the run time limit") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"{role} child failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}"
            )
        with open(out) as f:
            result = json.load(f)
        result["child_s"] = time.monotonic() - t0
        if trace:
            shutil.move(os.path.join(cwd, "spans.jsonl"),
                        os.path.join(self.spans_dir, f"spans-{self._count}.jsonl"))
        return result

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        parent = os.path.dirname(self.tmp)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def latency(child: dict, q: float) -> float:
    """Nearest-rank ``q``-th percentile of one child's open-loop latencies.

    A failed request counts as missing any latency limit: it scores the
    request timeout.
    """
    timeout_ms = 1e3 * wl.REQUEST_TIMEOUT_S
    ordered = sorted(min(v, timeout_ms) for v in child["serve"]["latencies_ms"])
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(work: wl.Workload, children: list[dict], generated: dict | None) -> dict:
    """Every end-to-end metric of one set of children: medians over children."""

    def med(key, rows=children):
        return statistics.median(c[key] for c in rows)

    training = children if generated is None else [generated]
    first = children[:MIN_CHILDREN] if generated is None else [generated]
    return {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s", training),
        "train_samples_per_s": med("train_samples_per_s", training),
        "val_error": statistics.mean(c["val_error"] for c in first),
        "checkpoint_bytes": med("checkpoint_bytes", training),
        "peak_rss_mb": med("peak_rss_mb"),
        "serve_p50_ms": statistics.median(latency(c, 50) for c in children),
        "serve_p99_ms": statistics.median(latency(c, 99) for c in children),
        "serve_capacity_rps": statistics.median(c["serve"]["capacity_rps"] for c in children),
    }


def measure(runner: Runner, work: wl.Workload, seconds: float, trace: bool):
    """Children until ``seconds`` are used; returns (untraced, traced, generated)."""
    generated = None
    if work.packed:
        generated = runner.child("generate", 0, False)
    role = "serve" if work.packed else "train"
    untraced, traced, unit_s = [], [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        rep = len(untraced)
        untraced.append(runner.child(role, rep, False))
        if trace:
            traced.append(runner.child(role, rep, True))
        unit_s.append(time.monotonic() - t)
        now = time.monotonic()
        nxt = statistics.median(unit_s)
        if len(untraced) >= MIN_CHILDREN and (
            now - start + nxt > seconds or now + 1.5 * nxt > runner.deadline
        ):
            return untraced, traced, generated


def report(args, bench: dict, untraced, traced, generated, metrics: dict) -> None:
    """Human-readable lines before the final JSON line."""
    everyone = untraced + traced + ([generated] if generated else [])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"children {len(untraced)} untraced + {len(traced)} traced"
          + ("  + 1 checkpoint generator" if generated else ""))
    print(f"environment {json.dumps(everyone[0]['environment'], sort_keys=True)}")
    for c in everyone:
        if c.get("fingerprint"):
            print(f"fingerprint {json.dumps(c['fingerprint'])}")
    for i, c in enumerate(untraced + traced):
        s = c["serve"]
        phases = "  ".join(f"{name} {p['attempted']}/{p['failed']} failed"
                           + ("" if p["drained"] else " NOT DRAINED")
                           for name, p in s["phases"].items())
        timings = "  ".join(f"{k} {c[k]:.4g}" for k in ("setup_s", "wall_s", "train_samples_per_s")
                            if k in c)
        print(f"child {i}: {c['child_s']:.2f}s  {timings}  p50_ms {latency(c, 50):.3g}  "
              f"p99_ms {latency(c, 99):.3g}  capacity_rps {s['capacity_rps']:.4g}  "
              f"{phases}  late_ms_max {s['late_ms_max']:.2f}")
    for c in everyone:
        for message in c["messages"]:
            print(f"FAILED {message}")
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    if not args.trace:  # the end-to-end numbers that carry no bound
        listed = listed + [m for m in bench["per_layer"] if m["name"] in metrics]
    for m in listed:
        bound = f", may worsen by {m['bound']:.0%}" if "bound" in m else ""
        print(f"{m['name']:44s} {metrics[m['name']]:>16.6g} {m['unit']}  "
              f"({m['better']} is better{bound})")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        bench = load_spec(root)
        work = wl.WORKLOADS[args.workload]
        runner = Runner(root, args.workload, args.seed, deadline, bool(args.trace))
        try:
            untraced, traced, generated = measure(runner, work, args.seconds, bool(args.trace))
        finally:
            runner.close()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    # End-to-end numbers too noisy between seeds for a bound sit in the
    # per-layer list; both traced and untraced runs print them.
    e2e = end_to_end(work, untraced, generated)
    if args.trace:
        layers = [c["layers"] for c in traced]
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        traced_e2e = end_to_end(work, traced, generated)
        metrics.update({f"overhead.{k}": traced_e2e[k] - e2e[k] for k in e2e})
        metrics.update(e2e)
        listed = bench["per_layer"]
    else:
        metrics = e2e
        listed = bench["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    report(args, bench, untraced, traced, generated, metrics)
    everyone = untraced + traced + ([generated] if generated else [])
    print(json.dumps({
        "correct": all(c["wrong"] == 0 for c in everyone),
        "attempted": sum(c["attempted"] for c in everyone),
        "failed": sum(c["failed"] for c in everyone),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
