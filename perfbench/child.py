"""One fresh process of the benchmark: a training run, a checkpoint generator or a server.

``run.py`` starts this file as ``python3 perfbench/child.py SPEC.json T0`` with
BLAS threads pinned, ``src`` on ``PYTHONPATH`` and a fresh working
directory.  SPEC holds ``role`` (``train``, ``generate`` or ``serve``),
``workload``, ``seed``, ``rep``, ``trace``, ``inputs`` (the run's input
directory) and ``out`` (where the result JSON goes).  T0 is the parent's
``time.monotonic()`` just before starting this process, so every time
includes interpreter start and imports.

Roles:

* ``train``: synthesize the dataset, train with DropBack (freezing halfway),
  ``save_sparse``, check the run, then serve the checkpoint open loop.
* ``generate``: train the serving workload's checkpoints into ``inputs``.
  Their time enters no serving metric.
* ``serve``: register the checkpoints, serve open-loop traffic, then a
  back-to-back burst, and check every served row.

Every check that fails is counted as a failed operation in the result.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

import repro.data as rdata
import repro.io as rio
from repro import profile
from repro.analyze.sanitize import sanitize_enabled
from repro.core import DropBack
from repro.data import DataLoader
from repro.models import mnist_100_100, vgg_s
from repro.optim import ConstantLR
from repro.serve import InferenceServer, ModelRegistry
from repro.tensor import Tensor, kernels, no_grad
from repro.train import Callback, FreezeCallback, Trainer

# The imports above are the program's; a traced child records them as the
# ``proc.imports`` span, from process start to here.
T_IMPORTED = time.monotonic()

import loadgen  # noqa: E402
import workloads as wl  # noqa: E402



def vgg_s_small():
    """VGG-S scaled for 16x16 inputs (the Table 3 model of the experiments)."""
    return vgg_s(fc_width=64, config=(16, "M", 32, "M", 64, 64, "M", 128, 128, "M"))


FACTORIES = {"mnist-100-100": mnist_100_100, "vgg-s-small": vgg_s_small}


class Tally:
    """Operations attempted and failed, with the first few failure messages.

    ``wrong`` counts failed correctness checks only; ``failed`` also counts
    requests that failed or timed out and phases whose queue did not drain.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def note(self, message: str) -> None:
        if len(self.messages) < 10:
            self.messages.append(message)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self.note(message)
        return ok


class LossLog(Callback):
    def __init__(self):
        self.losses: list[float] = []

    def on_step_end(self, trainer, step, loss):
        self.losses.append(loss)


def sub_seed(seed: int, rep: int, stream: int) -> int:
    """Independent 32-bit seed for stream ``stream`` of repetition ``rep``."""
    return int(np.random.SeedSequence([seed, rep, stream]).generate_state(1)[0])


def environment() -> dict:
    """What the numbers were measured on (recorded with every result)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "kernel_backend": kernels.get_backend(),
        "blas_threads": {v: os.environ.get(v) for v in wl.BLAS_VARS},
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def refuse_instrumented() -> None:
    """A run under the sanitizers or the op profiler is a different program."""
    if sanitize_enabled() or profile.is_enabled():
        sys.exit("perfbench: REPRO_SANITIZE or repro.profile is on; refusing to time")
    unpinned = [v for v in wl.BLAS_VARS if os.environ.get(v) != "1"]
    if unpinned:
        sys.exit(f"perfbench: BLAS threads not pinned to 1: {unpinned}")


def sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def train_one(tr: wl.Training, data, seed: int, rep: int, path: str) -> dict:
    """Train one model with DropBack and write its sparse checkpoint to ``path``.

    Returns the training measurements (times are ``time.monotonic()``) and
    what ``check_training`` needs.
    """
    train, test = data
    model = FACTORIES[tr.model]().finalize(sub_seed(seed, rep, 1))
    k = max(1, round(model.num_parameters() / tr.compression))
    opt = DropBack(model, k=k, lr=tr.lr, zero_untracked=tr.zero_untracked)
    log = LossLog()
    trainer = Trainer(model, opt, schedule=ConstantLR(tr.lr),
                      callbacks=[FreezeCallback(tr.epochs // 2), log])
    loader = DataLoader(train, wl.BATCH_SIZE, seed=sub_seed(seed, rep, 2))
    t_fit = time.monotonic()
    hist = trainer.fit(loader, test, epochs=tr.epochs)
    fit_s = time.monotonic() - t_fit
    rio.save_sparse(model, opt, path)
    return {
        "fit_s": fit_s,
        "t_fit": t_fit,
        "t_saved": time.monotonic(),
        "samples": len(train) * hist.epochs_run,
        "val_error": hist.best_val_error,
        "checkpoint_bytes": os.path.getsize(path),
        "swaps_total": int(opt.total_swaps),
        "model": model, "opt": opt, "hist": hist, "losses": log.losses, "path": path,
    }


def check_training(tr: wl.Training, run: dict, test, tally: Tally) -> dict:
    """Check one training run; returns its determinism fingerprint.

    The loss stays finite, ``val_error`` is under the workload's ceiling, the
    tracked set froze, and the checkpoint reloaded into a fresh model gives
    bit-identical logits on the test set.
    """
    model, hist = run["model"], run["hist"]
    losses = np.asarray(run["losses"], dtype=np.float64)
    tally.check(not hist.diverged and bool(np.isfinite(losses).all()),
                f"{tr.model}: non-finite training loss")
    tally.check(hist.best_val_error <= tr.val_error_ceiling,
                f"{tr.model}: val_error {hist.best_val_error:.4f} > {tr.val_error_ceiling}")
    tally.check(run["opt"].frozen, f"{tr.model}: tracked set never froze")
    model.eval()
    fresh = rio.load_sparse(FACTORIES[tr.model](), run["path"]).eval()
    with no_grad():
        same = np.array_equal(model(Tensor(test.images)).numpy(),
                              fresh(Tensor(test.images)).numpy())
    tally.check(same, f"{tr.model}: reloaded checkpoint gives different logits")
    return {"loss_sha256": sha256(losses), "plane_sha256": sha256(model.weight_plane)}


def synth(tr: wl.Training, seed: int):
    kwargs = {} if tr.noise is None else {"noise": tr.noise}
    if tr.dataset == "mnist":
        return rdata.synth_mnist(n_train=tr.n_train, n_test=tr.n_test, seed=seed, **kwargs)
    return rdata.synth_cifar(n_train=tr.n_train, n_test=tr.n_test, seed=seed, size=16, **kwargs)


# ---------------------------------------------------------------------- #
# serving
# ---------------------------------------------------------------------- #


def candidates(model, x: np.ndarray) -> np.ndarray:
    """Every row a direct forward of ``x`` can produce on ``model``.

    BLAS picks its kernel, and so its summation order, by batch size and
    row position, so a served row is bit-equal to one of the rows of a
    batch of ``m`` copies of ``x``, for some ``m`` up to the batch limit.
    """
    with no_grad():
        rows = [model(Tensor(np.repeat(x[None], m, axis=0))).numpy()
                for m in range(1, wl.MAX_BATCH + 1)]
    return np.concatenate(rows)


def check_served(runs, entries, pool, tally: Tally) -> None:
    """Compare every served row with a separately materialized copy.

    Dense entries must be bit-equal to a direct forward; packed entries
    must be within the CSR tolerance of ``docs/sparse.md``, relative to
    the row's largest logit.
    """
    copies = {}
    cache: dict[tuple[str, int], np.ndarray] = {}
    for phase, ds, ids in runs:
        for out, digest, sid in zip(phase.outputs, ds, ids):
            if out is None:
                continue  # already counted as a failed request
            entry = entries[digest]
            if digest not in copies:
                copies[digest] = rio.load_sparse(entry["factory"](), entry["path"]).eval()
            key = (digest, int(sid))
            if key not in cache:
                cache[key] = candidates(copies[digest], pool[sid])
            rows = cache[key]
            if entry["packed"]:
                scale = np.abs(rows).max(axis=1, keepdims=True)
                ok = bool((np.abs(rows - out) <= wl.PACKED_RTOL * scale).all(axis=1).any())
            else:
                ok = bool((rows == out).all(axis=1).any())
            if not ok:
                gap = float(np.abs(rows - out).max(axis=1).min())
                kind = "packed" if entry["packed"] else "dense"
                tally.check(False, f"{phase.name}: {kind} {entry['name']} sample {sid}: served "
                            f"row differs from direct forward by {gap:.3g}")
            else:
                tally.check(True, "")


def serve(server, entries: dict, load: wl.Load, pool: np.ndarray, seed: int, rep: int,
          tally: Tally, tracer=None) -> dict:
    """Warm up, then an open-loop Poisson phase, then back-to-back bursts."""
    rng = np.random.default_rng(sub_seed(seed, rep, 3))
    names = list(entries)  # registration order, which is also popularity rank
    batch_start = tracer.batch_start if tracer is not None else None

    def requests(n):
        models = loadgen.zipf_choice(rng, len(names), load.zipf_s, n)
        ids = rng.integers(0, len(pool), size=n)
        return [names[m] for m in models], ids

    # Warm-up, not timed: every worker thread runs full batches of every
    # model once, so per-thread lazy set-up (BLAS buffers, kernel
    # workspaces) is done before the first timed request.
    warm_d = [d for d in names for _ in range(wl.WARMUP_PER_MODEL)]
    warm_ids = rng.integers(0, len(pool), size=len(warm_d))
    warm = loadgen.run_phase(server, "warmup", warm_d, pool[warm_ids], None,
                             wl.REQUEST_TIMEOUT_S, wl.REQUEST_TIMEOUT_S)
    open_d, open_ids = requests(load.requests)
    offsets = loadgen.poisson_offsets(rng, load.rate_rps, load.requests)
    open_loop = loadgen.run_phase(server, "poisson", open_d, pool[open_ids], offsets,
                                  wl.REQUEST_TIMEOUT_S, load.drain_limit_s, batch_start)
    runs = [(warm, warm_d, warm_ids), (open_loop, open_d, open_ids)]
    # The burst is cut into a few back-to-back bursts; capacity is their
    # median, since one burst's rate depends on how the generator and the
    # workers happen to share the interpreter lock.
    for _ in range(wl.BURSTS):
        burst_d, burst_ids = requests(load.burst // wl.BURSTS)
        burst = loadgen.run_phase(server, "burst", burst_d, pool[burst_ids], None,
                                  wl.REQUEST_TIMEOUT_S, wl.REQUEST_TIMEOUT_S)
        runs.append((burst, burst_d, burst_ids))
    bursts = [phase for phase, _, _ in runs[2:]]
    phases = {}
    for phase, _, _ in runs:
        tally.attempted += phase.attempted
        tally.failed += phase.failed
        for error in phase.errors:
            tally.note(f"{phase.name}: {error}")
        if not phase.drained:
            tally.note(f"{phase.name}: queue not drained {load.drain_limit_s}s "
                       "after the last due time (backlog still growing)")
        row = phases.setdefault(phase.name, {"attempted": 0, "failed": 0, "drained": True})
        row["attempted"] += phase.attempted
        row["failed"] += phase.failed
        row["drained"] = row["drained"] and phase.drained
    # Not timed: the reference forwards run after the server has answered.
    with span(tracer, "bench.check"):
        check_served(runs, entries, pool, tally)
    stats = server.stats
    return {
        "latencies_ms": open_loop.latencies_ms.tolist(),
        "late_ms_max": open_loop.late_ms_max,
        "capacity_rps": float(np.median([b.attempted / b.seconds for b in bursts])),
        "phases": phases,
        "queue_waits_ms": open_loop.queue_waits_ms,
        "batches": stats.batches,
        "batch_size_mean": stats.mean_batch_size,
        "requests": sum(p["attempted"] for p in phases.values()),
        "failed_requests": sum(p["failed"] for p in phases.values()),
        "registry": server.registry.stats.to_dict(),
    }


def start_server(entries: dict, byte_budget: int | None, tracer=None):
    """Register every checkpoint and start accepting requests."""
    registry = ModelRegistry(byte_budget=byte_budget)
    for name, entry in entries.items():
        factory = entry["factory"]
        if tracer is not None:  # model construction inside a materialization
            factory = tracer.wrap(factory, "nn.construct")
        digest = registry.register(name, factory, entry["path"], packed=entry["packed"])
        entry.update(digest=digest, name=name)
    server = InferenceServer(registry, max_batch_size=wl.MAX_BATCH,
                             max_wait_ms=wl.MAX_WAIT_MS, workers=wl.SERVER_WORKERS)
    return server.start(), {e["digest"]: e for e in entries.values()}


def span(tracer, name: str):
    """A span of the benchmark's own work in a traced child; nothing otherwise."""
    return tracer.own_work(name) if tracer is not None else nullcontext()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# roles
# ---------------------------------------------------------------------- #


def role_train(spec: dict, work: wl.Workload, tally: Tally, tracer) -> dict:
    tr = work.training
    seed, rep = spec["seed"], spec["rep"]
    data = synth(tr, sub_seed(seed, rep, 0))
    run = train_one(tr, data, seed, rep, os.path.abspath("model.npz"))
    out = {
        "setup_s": run["t_fit"] - spec["t0"],
        "wall_s": run["t_saved"] - spec["t0"],
        "train_samples_per_s": run["samples"] / run["fit_s"],
        "val_error": run["val_error"],
        "checkpoint_bytes": run["checkpoint_bytes"],
        "peak_rss_mb": peak_rss_mb(),
        "swaps_total": run["swaps_total"],
    }
    with span(tracer, "bench.check"):
        out["fingerprint"] = check_training(tr, run, data[1], tally)
    # The trained checkpoint is then served, in the same process.
    entries = {"model": {"factory": FACTORIES[tr.model], "path": run["path"], "packed": False}}
    server, by_digest = start_server(entries, None, tracer)
    try:
        pool = data[1].images[: wl.SAMPLE_POOL]
        out["serve"] = serve(server, by_digest, work.load, pool, seed, rep, tally, tracer)
    finally:
        server.stop()
    return out


def role_generate(spec: dict, work: wl.Workload, tally: Tally, tracer) -> dict:
    """Train the serving workload's checkpoints into ``inputs``.

    They are inputs: no serving metric includes this process.  Its training
    numbers stand for the training metrics of the serving workloads.
    """
    tr, seed = work.training, spec["seed"]
    data = synth(tr, sub_seed(seed, 0, 0))
    configs = [replace(tr, zero_untracked=packed) for packed in work.packed]
    runs = [train_one(cfg, data, seed, i, os.path.join(spec["inputs"], f"model{i}.npz"))
            for i, cfg in enumerate(configs)]
    wall_s = time.monotonic() - spec["t0"]
    fingerprints = [check_training(cfg, run, data[1], tally) for cfg, run in zip(configs, runs)]
    pinned = sum(rio.read_sparse_payload(run["path"]).nbytes for run in runs)
    plane_bytes = runs[0]["model"].weight_plane.nbytes
    budget = work.load.dense_planes_budget
    manifest = {
        "checkpoints": [{"path": run["path"], "packed": packed}
                        for run, packed in zip(runs, work.packed)],
        "byte_budget": None if budget is None else int(pinned + budget * plane_bytes),
    }
    np.save(os.path.join(spec["inputs"], "pool.npy"), data[1].images[: wl.SAMPLE_POOL])
    with open(os.path.join(spec["inputs"], "manifest.json"), "w") as f:
        json.dump(manifest, f)
    return {
        "wall_s": wall_s,
        "train_samples_per_s": sum(r["samples"] for r in runs) / sum(r["fit_s"] for r in runs),
        "val_error": float(np.mean([r["val_error"] for r in runs])),
        "checkpoint_bytes": sum(r["checkpoint_bytes"] for r in runs),
        "fingerprint": fingerprints,
    }


def role_serve(spec: dict, work: wl.Workload, tally: Tally, tracer) -> dict:
    with open(os.path.join(spec["inputs"], "manifest.json")) as f:
        manifest = json.load(f)
    model = work.training.model
    entries = {f"model{i}": {"factory": FACTORIES[model], "path": c["path"], "packed": c["packed"]}
               for i, c in enumerate(manifest["checkpoints"])}
    server, by_digest = start_server(entries, manifest["byte_budget"], tracer)
    setup_s = time.monotonic() - spec["t0"]
    try:
        pool = np.load(os.path.join(spec["inputs"], "pool.npy"))
        result = serve(server, by_digest, work.load, pool, spec["seed"], spec["rep"], tally,
                       tracer)
    finally:
        server.stop()
    return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(), "serve": result}


ROLES = {"train": role_train, "generate": role_generate, "serve": role_serve}


def main() -> int:
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    spec["t0"] = float(sys.argv[2])
    refuse_instrumented()
    work = wl.WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.record("proc.imports", spec["t0"], T_IMPORTED)
        tracing.install(tracer)
    tally = Tally()
    result = ROLES[spec["role"]](spec, work, tally, tracer)
    t_end = time.monotonic()
    result.update(attempted=tally.attempted, failed=tally.failed, wrong=tally.wrong,
                  messages=tally.messages, environment=environment())
    if tracer is not None:
        import tracer as tracing

        tracer.dump("spans.jsonl")
        result["layers"] = tracing.layer_metrics(tracer, result, spec["t0"], t_end)
    with open(spec["out"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
