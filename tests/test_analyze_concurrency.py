"""Meta-tests for the interprocedural concurrency rules (RPA010-013).

Each rule gets (a) a fixture tree with one seeded bug that must produce
exactly that finding, (b) a corrected fixture that must run clean, and
(c) the acceptance check that the real package has zero findings.  The
fixtures are tiny packages written into tmp_path — the engine sees them
exactly as it sees ``src/repro``.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analyze import LintEngine
from repro.analyze.callgraph import build_index
from repro.analyze.facts import collect_module_facts, module_name_for

REPO = Path(__file__).resolve().parent.parent

CONCURRENCY = ["RPA010", "RPA011", "RPA012", "RPA013"]


def lint_tree(tmp_path: Path, files: dict[str, str], select=None):
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text))
    engine = LintEngine(select=select or CONCURRENCY, root=tmp_path)
    return engine.lint_paths([tmp_path])


# ---------------------------------------------------------------------- #
# pass-1 building blocks
# ---------------------------------------------------------------------- #


class TestFacts:
    def test_module_name_for(self):
        assert module_name_for("src/repro/serve/registry.py") == "repro.serve.registry"
        assert module_name_for("src/repro/analyze/__init__.py") == "repro.analyze"

    def test_with_lock_held_tracking(self):
        import ast

        tree = ast.parse(
            textwrap.dedent(
                """
                import threading
                A_LOCK = threading.Lock()
                B_LOCK = threading.Lock()
                def f():
                    with A_LOCK:
                        with B_LOCK:
                            pass
                """
            )
        )
        mf = collect_module_facts(tree, "src/pkg/m.py")
        acquires = mf.functions["f"].acquires
        assert [a.lock for a in acquires] == ["pkg.m.A_LOCK", "pkg.m.B_LOCK"]
        assert acquires[1].held == ("pkg.m.A_LOCK",)

    def test_self_lock_normalizes_to_class_attr(self):
        import ast

        tree = ast.parse(
            textwrap.dedent(
                """
                import threading
                class R:
                    def __init__(self):
                        self._lock = threading.RLock()
                    def go(self):
                        with self._lock:
                            self.x = 1
                """
            )
        )
        mf = collect_module_facts(tree, "src/pkg/m.py")
        assert mf.classes["R"].lock_attrs == {"_lock": 5}
        go = mf.functions["R.go"]
        assert go.acquires[0].lock == "R._lock"
        assert go.mutations[0].held == ("R._lock",)


class TestCallGraph:
    def _index(self, files: dict[str, str]):
        import ast

        return build_index(
            {rel: ast.parse(textwrap.dedent(text)) for rel, text in files.items()}
        )

    def test_cross_module_call_resolution(self):
        idx = self._index(
            {
                "src/pkg/a.py": """
                    def helper():
                        pass
                """,
                "src/pkg/b.py": """
                    from pkg.a import helper
                    def top():
                        helper()
                """,
            }
        )
        edges = idx.call_edges("pkg.b:top")
        assert [c for c, _l, _h in edges] == ["pkg.a:helper"]
        assert idx.reachable(["pkg.b:top"]) == {"pkg.b:top", "pkg.a:helper"}

    def test_nested_functions_are_reachable(self):
        idx = self._index(
            {
                "src/pkg/a.py": """
                    def outer():
                        def inner():
                            pass
                        return inner
                """,
            }
        )
        assert "pkg.a:outer.inner" in idx.reachable(["pkg.a:outer"])

    def test_locks_below_is_transitive(self):
        idx = self._index(
            {
                "src/pkg/a.py": """
                    import threading
                    DEEP_LOCK = threading.Lock()
                    def bottom():
                        with DEEP_LOCK:
                            pass
                    def top():
                        bottom()
                """,
            }
        )
        assert idx.locks_below("pkg.a:top") == {"pkg.a.DEEP_LOCK"}


# ---------------------------------------------------------------------- #
# RPA010: lock-order cycles
# ---------------------------------------------------------------------- #


_LOCKS_MODULE = """
    import threading
    REGISTRY_LOCK = threading.Lock()
    BATCH_LOCK = threading.Lock()
"""


class TestLockOrderCycle:
    def test_reversed_lock_order_across_modules_fires(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/serve/locks.py": _LOCKS_MODULE,
                "src/pkg/serve/one.py": """
                    from pkg.serve.locks import REGISTRY_LOCK, BATCH_LOCK
                    def forward():
                        with REGISTRY_LOCK:
                            with BATCH_LOCK:
                                pass
                """,
                "src/pkg/parallel/two.py": """
                    from pkg.serve.locks import REGISTRY_LOCK, BATCH_LOCK
                    def backward():
                        with BATCH_LOCK:
                            with REGISTRY_LOCK:
                                pass
                """,
            },
        )
        assert [v.code for v in violations] == ["RPA010"]
        assert "lock-order cycle" in violations[0].message

    def test_consistent_order_is_clean(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/serve/locks.py": _LOCKS_MODULE,
                "src/pkg/serve/one.py": """
                    from pkg.serve.locks import REGISTRY_LOCK, BATCH_LOCK
                    def forward():
                        with REGISTRY_LOCK:
                            with BATCH_LOCK:
                                pass
                """,
                "src/pkg/parallel/two.py": """
                    from pkg.serve.locks import REGISTRY_LOCK, BATCH_LOCK
                    def backward():
                        with REGISTRY_LOCK:
                            with BATCH_LOCK:
                                pass
                """,
            },
        )
        assert violations == []

    def test_inversion_through_callee_fires(self, tmp_path):
        """The cycle only exists through the call graph: g() acquires the
        registry lock *inside* a call made while the batch lock is held."""
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/serve/locks.py": _LOCKS_MODULE,
                "src/pkg/serve/one.py": """
                    from pkg.serve.locks import REGISTRY_LOCK, BATCH_LOCK
                    def forward():
                        with REGISTRY_LOCK:
                            with BATCH_LOCK:
                                pass
                """,
                "src/pkg/serve/two.py": """
                    from pkg.serve.locks import REGISTRY_LOCK, BATCH_LOCK
                    def helper():
                        with REGISTRY_LOCK:
                            pass
                    def backward():
                        with BATCH_LOCK:
                            helper()
                """,
            },
        )
        assert [v.code for v in violations] == ["RPA010"]

    def test_reentrant_same_lock_is_not_a_cycle(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/serve/one.py": """
                    import threading
                    A_LOCK = threading.RLock()
                    def f():
                        with A_LOCK:
                            with A_LOCK:
                                pass
                """,
            },
        )
        assert violations == []

    def test_outside_concurrent_dirs_is_ignored(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/util/one.py": """
                    import threading
                    A_LOCK = threading.Lock()
                    B_LOCK = threading.Lock()
                    def f():
                        with A_LOCK:
                            with B_LOCK:
                                pass
                    def g():
                        with B_LOCK:
                            with A_LOCK:
                                pass
                """,
            },
        )
        assert violations == []


# ---------------------------------------------------------------------- #
# RPA011: unfenced arena writes
# ---------------------------------------------------------------------- #


class TestBarrierPhaseWrite:
    def test_unfenced_arena_write_fires(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/parallel/trainer.py": """
                    def child(arena, barrier, rank):
                        arena.grads[rank] = 1.0
                        return arena.losses[rank]
                """,
            },
        )
        assert [v.code for v in violations] == ["RPA011"]
        assert "grads" in violations[0].message

    def test_barrier_after_write_is_clean(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/parallel/trainer.py": """
                    def child(arena, barrier, rank):
                        arena.grads[rank] = 1.0
                        barrier.wait()
                """,
            },
        )
        assert violations == []

    def test_fence_in_caller_is_clean(self, tmp_path):
        """The write sits in a helper; the barrier lives after the call
        site in the only caller — interprocedural fencing."""
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/parallel/trainer.py": """
                    def write_partial(arena, rank):
                        arena.grads[rank] = 1.0
                    def child(arena, barrier, rank):
                        write_partial(arena, rank)
                        barrier.wait()
                """,
            },
        )
        assert violations == []

    def test_fence_through_sync_helper_is_clean(self, tmp_path):
        """The fence point is itself a call into a barrier-awaiting helper
        (the real trainer's `self._sync`)."""
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/parallel/trainer.py": """
                    def sync(barrier):
                        barrier.wait()
                    def child(arena, barrier, rank):
                        arena.losses[rank] = 2.0
                        sync(barrier)
                """,
            },
        )
        assert violations == []

    def test_monitoring_regions_exempt(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/parallel/trainer.py": """
                    def child(arena, rank):
                        arena.timers[rank, 0] = 1.0
                        arena.control[0] = 1
                """,
            },
        )
        assert violations == []

    def test_out_kwarg_write_fires(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/parallel/trainer.py": """
                    import numpy as np
                    def child(arena, rank, parts):
                        np.sum(parts, axis=0, out=arena.grads[rank])
                """,
            },
        )
        assert [v.code for v in violations] == ["RPA011"]


# ---------------------------------------------------------------------- #
# RPA012: fork-tainted RNG
# ---------------------------------------------------------------------- #


class TestForkTaintedRng:
    def test_post_spawn_unseeded_draw_fires(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/parallel/worker.py": """
                    import multiprocessing
                    import numpy as np
                    def worker(rank):
                        return np.random.default_rng().normal()
                    def fit():
                        p = multiprocessing.Process(target=worker, args=(0,))
                        p.start()
                """,
            },
        )
        assert [v.code for v in violations] == ["RPA012"]
        assert "unseeded" in violations[0].message

    def test_seeded_draw_after_spawn_is_clean(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/parallel/worker.py": """
                    import multiprocessing
                    import numpy as np
                    def worker(rank):
                        rng = np.random.default_rng((123, rank))
                        return rng.normal()
                    def fit():
                        p = multiprocessing.Process(target=worker, args=(0,))
                        p.start()
                """,
            },
        )
        assert violations == []

    def test_global_draw_after_fork_fires(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/parallel/worker.py": """
                    import os
                    import numpy as np
                    def spawn_and_draw():
                        pid = os.fork()
                        if pid == 0:
                            return np.random.rand(4)
                        return None
                """,
            },
        )
        assert [v.code for v in violations] == ["RPA012"]
        assert "global" in violations[0].message

    def test_draw_before_fork_is_clean(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/parallel/worker.py": """
                    import os
                    import numpy as np
                    def spawn_after_draw():
                        x = np.random.rand(4)
                        pid = os.fork()
                        return pid, x
                """,
            },
        )
        assert violations == []

    def test_taint_follows_calls_below_spawn_target(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/parallel/worker.py": """
                    import multiprocessing
                    from pkg.parallel.aug import draw
                    def worker(rank):
                        return draw()
                    def fit():
                        p = multiprocessing.Process(target=worker, args=(0,))
                        p.start()
                """,
                "src/pkg/parallel/aug.py": """
                    import numpy as np
                    def draw():
                        return np.random.default_rng().normal()
                """,
            },
        )
        assert [v.code for v in violations] == ["RPA012"]
        assert violations[0].path == "src/pkg/parallel/aug.py"


# ---------------------------------------------------------------------- #
# RPA013: unguarded shared mutation
# ---------------------------------------------------------------------- #


_REGISTRY_BUGGY = """
    import threading
    class Registry:
        def __init__(self):
            self._lock = threading.RLock()
            self._entries = {}
        def register(self, key, value):
            with self._lock:
                self._entries[key] = value
        def evict(self, key):
            self._entries.pop(key)
"""

_REGISTRY_CLEAN = """
    import threading
    class Registry:
        def __init__(self):
            self._lock = threading.RLock()
            self._entries = {}
        def register(self, key, value):
            with self._lock:
                self._entries[key] = value
        def evict(self, key):
            with self._lock:
                self._entries.pop(key)
"""


class TestUnguardedSharedMutation:
    def test_lockless_mutation_of_guarded_attr_fires(self, tmp_path):
        violations = lint_tree(
            tmp_path, {"src/pkg/serve/registry.py": _REGISTRY_BUGGY}
        )
        assert [v.code for v in violations] == ["RPA013"]
        assert "Registry._entries" in violations[0].message
        assert violations[0].scope == "Registry.evict"

    def test_locked_mutation_is_clean(self, tmp_path):
        violations = lint_tree(
            tmp_path, {"src/pkg/serve/registry.py": _REGISTRY_CLEAN}
        )
        assert violations == []

    def test_lock_propagates_through_private_helper(self, tmp_path):
        """_drop is only ever called with the lock held, so its lockless
        body is fine — the call-site lock-propagation fixpoint proves it."""
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/serve/registry.py": """
                    import threading
                    class Registry:
                        def __init__(self):
                            self._lock = threading.RLock()
                            self._entries = {}
                        def register(self, key, value):
                            with self._lock:
                                self._entries[key] = value
                        def evict(self, key):
                            with self._lock:
                                self._drop(key)
                        def _drop(self, key):
                            self._entries.pop(key)
                """,
            },
        )
        assert violations == []

    def test_never_locked_attr_is_not_flagged(self, tmp_path):
        """Attributes never mutated under the lock (owner-thread-only
        state, e.g. a worker-thread list) stay unguarded."""
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/serve/batcher.py": """
                    import threading
                    class Batcher:
                        def __init__(self):
                            self._cond = threading.Condition()
                            self._queues = {}
                            self._threads = []
                        def submit(self, item):
                            with self._cond:
                                self._queues.setdefault("m", []).append(item)
                        def start(self):
                            self._threads.append(object())
                """,
            },
        )
        assert violations == []

    def test_init_is_exempt(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/serve/registry.py": """
                    import threading
                    class Registry:
                        def __init__(self):
                            self._lock = threading.RLock()
                            self._entries = {}
                        def register(self, key, value):
                            with self._lock:
                                self._entries[key] = value
                """,
            },
        )
        assert violations == []

    def test_kernel_registry_mutation_from_serve_fires(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/serve/handler.py": """
                    from pkg.tensor import kernels
                    def setup():
                        kernels.set_backend("fast")
                """,
            },
        )
        assert [v.code for v in violations] == ["RPA013"]
        assert "kernel-dispatch" in violations[0].message

    def test_kernel_mutation_outside_serve_is_clean(self, tmp_path):
        violations = lint_tree(
            tmp_path,
            {
                "src/pkg/cli.py": """
                    from pkg.tensor import kernels
                    def setup():
                        kernels.set_backend("fast")
                """,
            },
        )
        assert violations == []

    def test_noqa_suppresses_project_rule_finding(self, tmp_path):
        buggy = _REGISTRY_BUGGY.replace(
            "self._entries.pop(key)",
            "self._entries.pop(key)  # repro: noqa[RPA013] owner-thread only",
        )
        violations = lint_tree(tmp_path, {"src/pkg/serve/registry.py": buggy})
        assert violations == []


# ---------------------------------------------------------------------- #
# acceptance: the real package is clean
# ---------------------------------------------------------------------- #


class TestRealPackageIsClean:
    def test_concurrency_rules_zero_findings_on_src(self):
        engine = LintEngine(select=CONCURRENCY, root=REPO)
        violations = engine.lint_paths([REPO / "src"])
        assert not engine.errors
        assert violations == [], "\n".join(v.format() for v in violations)
