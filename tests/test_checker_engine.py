"""Tests for the static-analysis engine: the ASYNC/RES/ERR/COST rule
families, selection, inline suppression, and the baseline machinery.

One positive and one negative case per rule, plus the two regression
fixtures required by the issue: ASYNC102 and RES201 must each fire on
a reconstruction of the actual pre-fix PR 4/5 bug shapes and stay
silent on the fixed shapes now in the tree.
"""

import textwrap
from pathlib import Path

import pytest

from repro.checker.engine import (
    analyze_paths,
    analyze_source,
    apply_baseline,
    baseline_from,
    expand_selection,
    load_baseline,
    save_baseline,
)
from repro.checker.rules import RULES, format_catalog, rule_family
from repro.utils.errors import ReproError

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(diags):
    return sorted({d.rule for d in diags})


def analyze(snippet, **kw):
    return analyze_source(textwrap.dedent(snippet), "probe.py", **kw)


class TestAsync101Blocking:
    def test_time_sleep_in_async_def_flagged(self):
        diags = analyze(
            """
            import time

            async def handler():
                time.sleep(1)
            """
        )
        assert rules_of(diags) == ["ASYNC101"]

    def test_pool_map_and_run_tasks_flagged(self):
        diags = analyze(
            """
            async def dispatch(pool, supervisor, fn, payloads):
                a = pool.map(fn, payloads)
                b = run_tasks(supervisor, fn, payloads, site="x")
                return a, b
            """
        )
        assert [d.rule for d in diags] == ["ASYNC101", "ASYNC101"]

    def test_executor_dispatch_is_clean(self):
        diags = analyze(
            """
            async def dispatch(loop, pool, fn, payloads):
                return await loop.run_in_executor(None, pool.map, fn, payloads)
            """
        )
        assert diags == []

    def test_sync_function_not_flagged(self):
        diags = analyze(
            """
            import time

            def backoff():
                time.sleep(1)
            """
        )
        assert diags == []


class TestAsync102StreamLimit:
    """Regression fixture for the PR 5 bug: request_over_socket and the
    server both created streams with the 64 KiB default limit, so any
    real-image request died mid-read."""

    PRE_FIX_SHAPE = """
        import asyncio

        async def request_over_socket(path, request):
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(request)
            return await reader.readline()

        async def start(self):
            self._server = await asyncio.start_unix_server(
                self._on_connect, path=self._path
            )
        """

    FIXED_SHAPE = """
        import asyncio

        MAX_REQUEST_BYTES = 64 << 20

        async def request_over_socket(path, request):
            reader, writer = await asyncio.open_unix_connection(
                path, limit=MAX_REQUEST_BYTES
            )
            writer.write(request)
            return await reader.readline()

        async def start(self):
            self._server = await asyncio.start_unix_server(
                self._on_connect, path=self._path, limit=MAX_REQUEST_BYTES
            )
        """

    def test_fires_on_pre_fix_shape(self):
        diags = analyze(self.PRE_FIX_SHAPE)
        assert [d.rule for d in diags] == ["ASYNC102", "ASYNC102"]
        assert "limit" in diags[0].message

    def test_silent_on_fixed_shape(self):
        assert analyze(self.FIXED_SHAPE) == []

    def test_tcp_twins_flagged_only_off_asyncio(self):
        diags = analyze(
            """
            import asyncio

            async def connect(host):
                return await asyncio.open_connection(host, 80)

            class NotAStream:
                def start_server(self):
                    return 7

            def other(obj):
                return obj.start_server()
            """
        )
        assert [d.rule for d in diags] == ["ASYNC102"]

    def test_current_service_module_is_clean(self):
        src = (REPO_ROOT / "src/repro/service/server.py").read_text()
        diags = analyze_source(src, "server.py")
        assert [d.format() for d in diags if d.rule == "ASYNC102"] == []


class TestAsync103DroppedTask:
    def test_bare_create_task_flagged(self):
        diags = analyze(
            """
            import asyncio

            def kick(loop, coro):
                loop.create_task(coro)
            """
        )
        assert rules_of(diags) == ["ASYNC103"]

    def test_retained_task_clean(self):
        diags = analyze(
            """
            import asyncio

            def kick(self, coro):
                task = asyncio.ensure_future(coro)
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
                return task
            """
        )
        assert diags == []


class TestAsync104AwaitUnderLock:
    def test_unbounded_await_under_lock_flagged(self):
        diags = analyze(
            """
            async def update(self, peer):
                async with self._lock:
                    await peer.push(self.state)
            """
        )
        assert rules_of(diags) == ["ASYNC104"]

    def test_wait_for_under_lock_clean(self):
        diags = analyze(
            """
            import asyncio

            async def update(self, peer):
                async with self._lock:
                    await asyncio.wait_for(peer.push(self.state), timeout=5)
            """
        )
        assert diags == []

    def test_non_lock_context_clean(self):
        diags = analyze(
            """
            async def fetch(self, client):
                async with client.session() as s:
                    return await s.get("/x")
            """
        )
        assert diags == []


class TestRes200UnreleasedPool:
    def test_unguarded_pool_flagged(self):
        diags = analyze(
            """
            def run(ctx, fn, payloads):
                pool = ctx.Pool(4)
                return pool.map(fn, payloads)
            """
        )
        assert rules_of(diags) == ["RES200"]

    def test_with_block_clean(self):
        diags = analyze(
            """
            def run(ctx, fn, payloads):
                with ctx.Pool(4) as pool:
                    return pool.map(fn, payloads)
            """
        )
        assert diags == []

    def test_self_attribute_is_object_lifetime(self):
        diags = analyze(
            """
            class Executor:
                def start(self, workers):
                    self._supervisor = PoolSupervisor(workers=workers)
            """
        )
        assert diags == []


class TestRes201ShmLeak:
    """Regression fixture for the PR 4 bug: both segments were created
    before any teardown guard was registered, so a failure creating the
    second (or any later exception) leaked the first in /dev/shm."""

    PRE_FIX_SHAPE = """
        import numpy as np

        def components_process(image, shape, p):
            shm_img = SharedNDArray.from_array(image)
            shm_lab = SharedNDArray.create(shape, np.int64)
            try:
                return _dispatch(shm_img.meta, shm_lab.meta, p)
            finally:
                for shm in (shm_img, shm_lab):
                    shm.close()
                    shm.unlink()
        """

    FIXED_SHAPE = """
        import contextlib
        import numpy as np

        def components_process(image, shape, p):
            with contextlib.ExitStack() as stack:
                shm_img = stack.enter_context(SharedNDArray.from_array(image))
                shm_lab = stack.enter_context(SharedNDArray.create(shape, np.int64))
                return _dispatch(shm_img.meta, shm_lab.meta, p)
        """

    def test_fires_on_pre_fix_shape(self):
        diags = analyze(self.PRE_FIX_SHAPE)
        assert [d.rule for d in diags] == ["RES201", "RES201"]
        assert "/dev/shm" in diags[0].message

    def test_silent_on_fixed_shape(self):
        assert analyze(self.FIXED_SHAPE) == []

    def test_try_finally_with_unlink_is_a_guard(self):
        diags = analyze(
            """
            def run(image):
                try:
                    shm = SharedNDArray.from_array(image)
                    return work(shm)
                finally:
                    shm.close()
                    shm.unlink()
            """
        )
        assert diags == []

    def test_close_without_unlink_still_leaks(self):
        diags = analyze(
            """
            def run(image):
                try:
                    shm = SharedNDArray.from_array(image)
                    return work(shm)
                finally:
                    shm.close()
            """
        )
        assert rules_of(diags) == ["RES201"]

    def test_raw_shared_memory_create_true_flagged(self):
        diags = analyze(
            """
            from multiprocessing.shared_memory import SharedMemory

            def grab(n):
                seg = SharedMemory(create=True, size=n)
                return seg.name
            """
        )
        assert rules_of(diags) == ["RES201"]

    def test_attach_is_not_a_creation(self):
        diags = analyze(
            """
            def worker(meta):
                shm = SharedNDArray.attach(meta)
                return shm.array.sum()
            """
        )
        assert diags == []

    def test_current_runtime_module_is_clean(self):
        # the multiprocess engine: darray's shared-memory shard transport
        src = (REPO_ROOT / "src/repro/darray/shmem_transport.py").read_text()
        diags = analyze_source(src, "shmem_transport.py")
        assert [d.format() for d in diags if d.rule.startswith("RES")] == []


class TestRes202StraightLineRelease:
    def test_straight_line_terminate_flagged(self):
        diags = analyze(
            """
            def run(ctx, fn, payloads):
                pool = ctx.Pool(4)
                out = pool.map(fn, payloads)
                pool.terminate()
                return out
            """
        )
        assert rules_of(diags) == ["RES202"]

    def test_release_in_finally_clean(self):
        diags = analyze(
            """
            def run(ctx, fn, payloads):
                pool = ctx.Pool(4)
                try:
                    return pool.map(fn, payloads)
                finally:
                    pool.terminate()
            """
        )
        assert diags == []


class TestRes203ChildProcessReap:
    """Fixture for the shard-respawn shape (PR 9): a spawned shard
    process whose reap sits in straight-line code, so the exception
    edge between spawn and reap (a failed readiness wait, a routing
    error) leaves a zombie -- and, with ``start_new_session``, a whole
    orphaned process group -- behind."""

    PRE_FIX_SHAPE = """
        import subprocess
        import sys

        def respawn_shard(argv, socket_path):
            proc = subprocess.Popen(argv, start_new_session=True)
            wait_until_ready(socket_path)
            proc.kill()
            proc.wait()
        """

    FIXED_SHAPE = """
        import subprocess
        import sys

        def respawn_shard(argv, socket_path):
            proc = subprocess.Popen(argv, start_new_session=True)
            try:
                wait_until_ready(socket_path)
            finally:
                proc.kill()
                proc.wait()
        """

    def test_fires_on_pre_fix_shape(self):
        diags = analyze(self.PRE_FIX_SHAPE)
        assert rules_of(diags) == ["RES203"]
        assert "zombie" in diags[0].message

    def test_silent_on_fixed_shape(self):
        assert analyze(self.FIXED_SHAPE) == []

    def test_never_reaped_is_res200(self):
        diags = analyze(
            """
            import subprocess

            def spawn(argv):
                proc = subprocess.Popen(argv)
                return proc.pid
            """
        )
        assert rules_of(diags) == ["RES200"]

    def test_multiprocessing_process_flagged(self):
        diags = analyze(
            """
            def run(ctx, fn):
                worker = ctx.Process(target=fn)
                worker.start()
                out = collect()
                worker.join()
                return out
            """
        )
        assert rules_of(diags) == ["RES203"]

    def test_owned_handle_is_object_lifetime(self):
        diags = analyze(
            """
            import subprocess

            class ShardProcess:
                def spawn(self, argv):
                    self.proc = subprocess.Popen(argv, start_new_session=True)
            """
        )
        assert diags == []


class TestErr301BroadExcept:
    def test_swallowing_broad_except_flagged(self):
        diags = analyze(
            """
            def load(path):
                try:
                    return parse(path)
                except Exception:
                    return None
            """
        )
        assert rules_of(diags) == ["ERR301"]

    def test_reraise_is_clean(self):
        diags = analyze(
            """
            def load(path):
                try:
                    return parse(path)
                except Exception:
                    cleanup()
                    raise
            """
        )
        assert diags == []

    def test_using_the_exception_is_clean(self):
        diags = analyze(
            """
            def respond(line):
                try:
                    return handle(line)
                except Exception as exc:
                    return error_reply(type(exc).__name__, str(exc))
            """
        )
        assert diags == []

    def test_typed_except_is_clean(self):
        diags = analyze(
            """
            def scan(path):
                try:
                    return list_dir(path)
                except OSError:
                    return []
            """
        )
        assert diags == []


class TestErr302BuiltinRaise:
    def test_raise_valueerror_flagged(self):
        diags = analyze(
            """
            def parse(payload):
                if not payload:
                    raise ValueError("empty payload")
            """
        )
        assert rules_of(diags) == ["ERR302"]

    def test_repro_error_clean(self):
        diags = analyze(
            """
            from repro.utils.errors import ValidationError

            def parse(payload):
                if not payload:
                    raise ValidationError("empty payload")
            """
        )
        assert diags == []

    def test_not_implemented_allowed(self):
        diags = analyze(
            """
            def visit(node):
                raise NotImplementedError
            """
        )
        assert diags == []


class TestCost400UnchargedPrimitive:
    def test_proc_touching_blocks_without_charge_flagged(self):
        diags = analyze(
            """
            class GlobalArrayish:
                def read_free(self, proc, owner):
                    return self._blocks[owner].copy()
            """
        )
        assert "COST400" in rules_of(diags)

    def test_charged_primitive_clean(self):
        diags = analyze(
            """
            class GlobalArrayish:
                def read(self, proc, owner, start, stop):
                    proc._charge_comm(stop - start, from_pid=owner)
                    return self._blocks[owner][start:stop].copy()
            """,
        )
        assert "COST400" not in rules_of(diags)


class TestCost401DirectBlocks:
    def test_foreign_blocks_access_flagged(self):
        diags = analyze(
            """
            def seed(arr, values):
                arr._blocks[0][:] = values
            """
        )
        assert rules_of(diags) == ["COST401"]

    def test_self_blocks_is_fine(self):
        diags = analyze(
            """
            class ShadowMemory:
                def clear(self):
                    self._blocks = []
            """
        )
        assert diags == []

    def test_memory_module_exempt(self):
        src = "def seed(arr, values):\n    arr._blocks[0][:] = values\n"
        assert analyze_source(src, "src/repro/bdm/memory.py") == []
        assert rules_of(analyze_source(src, "elsewhere.py")) == ["COST401"]

    def test_repo_uses_place_not_blocks(self):
        """The 4 old initial-placement sites now go through place()."""
        diags = analyze_paths([str(REPO_ROOT / "src")])
        assert [d.format() for d in diags if d.rule == "COST401"] == []


class TestCost402DirectCounterMutation:
    def test_direct_mutation_flagged(self):
        diags = analyze(
            """
            def sneak(proc, n):
                proc.cost.comm_s += n
            """
        )
        assert rules_of(diags) == ["COST402"]

    def test_machine_module_exempt(self):
        src = "def charge(proc, n):\n    proc.cost.comm_s += n\n"
        assert analyze_source(src, "src/repro/bdm/machine.py") == []


class TestObs501SpanLifetime:
    def test_fires_on_pre_fix_shape(self):
        """The bug shape the rule exists for: straight-line finish()."""
        diags = analyze(
            """
            async def submit(self, op, image):
                handle = self.recorder.begin("service:request", op=op)
                result = await self._serve_request(op, image)
                handle.finish(via="batched")
                return result
            """
        )
        assert rules_of(diags) == ["OBS501"]

    def test_silent_on_fixed_shape(self):
        diags = analyze(
            """
            async def submit(self, op, image):
                handle = self.recorder.begin("service:request", op=op)
                try:
                    return await self._serve_request(op, image)
                finally:
                    handle.finish(via="batched")
            """
        )
        assert diags == []

    def test_never_finished_flagged(self):
        diags = analyze(
            """
            def measure(recorder):
                h = recorder.begin("round")
                return compute()
            """
        )
        assert rules_of(diags) == ["OBS501"]

    def test_finish_in_except_handler_is_a_guard(self):
        diags = analyze(
            """
            def measure(recorder):
                h = recorder.begin("round")
                try:
                    out = compute()
                except Exception:
                    h.finish(failed=True)
                    raise
                h.finish()
                return out
            """
        )
        assert diags == []

    def test_escaping_handle_not_flagged(self):
        diags = analyze(
            """
            def open_span(recorder, pending):
                h = recorder.begin("round")
                pending.append(h)
            """
        )
        assert diags == []

    def test_conditional_begin_with_guarded_finish_clean(self):
        diags = analyze(
            """
            def serve(recorder, traced):
                handle = recorder.begin("req") if traced else None
                try:
                    return compute()
                finally:
                    if handle is not None:
                        handle.finish()
            """
        )
        assert diags == []

    def test_service_tier_is_clean(self):
        diags = analyze_paths([str(REPO_ROOT / "src" / "repro" / "service")])
        assert [d.format() for d in diags if d.rule.startswith("OBS")] == []


class TestObs502EmitGuard:
    def test_fires_on_pre_fix_shape(self):
        """An emit on recorder=None crashes every untraced call."""
        diags = analyze(
            """
            def absorb(req, recorder=None):
                recorder.count("svc:queue_wait", req.waited)
            """
        )
        assert rules_of(diags) == ["OBS502"]

    def test_silent_with_none_guard(self):
        diags = analyze(
            """
            def absorb(req, recorder=None):
                if recorder is not None:
                    recorder.count("svc:queue_wait", req.waited)
            """
        )
        assert diags == []

    def test_early_return_guard_accepted(self):
        diags = analyze(
            """
            def absorb(req, recorder=None):
                if recorder is None:
                    return
                recorder.count("svc:queue_wait", req.waited)
            """
        )
        assert diags == []

    def test_boolop_short_circuit_accepted(self):
        diags = analyze(
            """
            def absorb(req, recorder=None):
                recorder and recorder.count("x", req.waited)
            """
        )
        assert diags == []

    def test_reassigned_parameter_not_tracked(self):
        diags = analyze(
            """
            def absorb(req, recorder=None):
                recorder = recorder or make_recorder()
                recorder.count("x", req.waited)
            """
        )
        assert diags == []

    def test_required_parameter_not_flagged(self):
        diags = analyze(
            """
            def absorb(req, recorder):
                recorder.count("x", req.waited)
            """
        )
        assert diags == []

    def test_obs_package_is_clean(self):
        diags = analyze_paths([str(REPO_ROOT / "src" / "repro" / "obs")])
        assert [d.format() for d in diags if d.rule.startswith("OBS")] == []


class TestSelectionAndSuppression:
    BAD = """
        import time

        async def handler():
            time.sleep(1)

        def parse(payload):
            raise ValueError(payload)
        """

    def test_select_by_family(self):
        sel = expand_selection(["ASYNC"])
        assert rules_of(analyze(self.BAD, select=sel)) == ["ASYNC101"]

    def test_select_by_rule_id(self):
        sel = expand_selection(["ERR302"])
        assert rules_of(analyze(self.BAD, select=sel)) == ["ERR302"]

    def test_ignore_wins_over_select(self):
        sel = expand_selection(["ASYNC", "ERR"])
        ign = expand_selection(["ERR302"])
        assert rules_of(analyze(self.BAD, select=sel, ignore=ign)) == ["ASYNC101"]

    def test_unknown_token_raises(self):
        with pytest.raises(ReproError):
            expand_selection(["NOSUCH999"])

    def test_parse_failure_reported_despite_selection(self):
        sel = expand_selection(["ASYNC"])
        diags = analyze_source("def broken(:\n", "bad.py", select=sel)
        assert rules_of(diags) == ["SPMD000"]

    def test_inline_ignore_by_rule(self):
        diags = analyze(
            """
            def parse(payload):
                raise ValueError(payload)  # check: ignore[ERR302]
            """
        )
        assert diags == []

    def test_inline_ignore_by_family(self):
        diags = analyze(
            """
            def parse(payload):
                raise ValueError(payload)  # check: ignore[ERR]
            """
        )
        assert diags == []

    def test_inline_ignore_other_rule_does_not_apply(self):
        diags = analyze(
            """
            def parse(payload):
                raise ValueError(payload)  # check: ignore[ASYNC101]
            """
        )
        assert rules_of(diags) == ["ERR302"]

    def test_catalog_covers_all_families(self):
        text = format_catalog()
        for rule_id in RULES:
            assert rule_id in text
        families = {rule_family(r) for r in RULES}
        assert families == {"SPMD", "ASYNC", "RES", "ERR", "COST", "OBS"}
        for rule in RULES.values():
            assert rule.severity in ("error", "warning")


class TestBaseline:
    def _diags(self):
        return analyze(self.__class__.SOURCE)

    SOURCE = """
        def parse(payload):
            raise ValueError(payload)
        """

    def test_round_trip_suppresses(self, tmp_path):
        diags = self._diags()
        assert diags
        path = tmp_path / "baseline.json"
        save_baseline(path, baseline_from(diags))
        result = apply_baseline(diags, load_baseline(path))
        assert result.diags == []
        assert result.suppressed == len(diags)
        assert result.stale == {}

    def test_new_finding_surfaces(self, tmp_path):
        diags = self._diags()
        path = tmp_path / "baseline.json"
        save_baseline(path, baseline_from(diags))
        more = analyze(
            """
            def parse(payload):
                raise ValueError(payload)

            def encode(payload):
                raise TypeError(payload)
            """
        )
        result = apply_baseline(more, load_baseline(path))
        assert len(result.diags) == 1  # only the new TypeError raise
        assert result.suppressed == 1

    def test_fixed_finding_reported_stale(self, tmp_path):
        diags = self._diags()
        path = tmp_path / "baseline.json"
        save_baseline(path, baseline_from(diags))
        result = apply_baseline([], load_baseline(path))
        assert result.stale == {"probe.py": {"ERR302": 1}}

    def test_stale_restricted_to_scanned_files(self, tmp_path):
        diags = self._diags()
        path = tmp_path / "baseline.json"
        save_baseline(path, baseline_from(diags))
        result = apply_baseline([], load_baseline(path), scanned={"other.py"})
        assert result.stale == {}

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"schema": "something-else", "entries": {}}')
        with pytest.raises(ReproError):
            load_baseline(path)

    def test_checked_in_baseline_matches_repo(self):
        """The repo's own baseline stays in sync with its findings."""
        entries = load_baseline(REPO_ROOT / ".repro-checker-baseline.json")
        diags = analyze_paths(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")]
        )
        keyed = baseline_from(diags)
        rel = {
            str(Path(f).relative_to(REPO_ROOT).as_posix()): rules
            for f, rules in keyed.items()
        }
        assert rel == entries
