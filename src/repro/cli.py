"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``    write one of the Figure-1 test patterns (or the
                DARPA-like scene) as a PBM/PGM file.
``histogram``   histogram a PGM/PBM image with the parallel algorithm
                on a simulated machine; optionally equalize.
``components``  label connected components; print statistics, optionally
                write the label map / an ASCII rendering.
``machines``    list the available machine models.
``check``       run the static-analysis engine over the repo: SPMD
                split-phase lint plus the ASYNC/RES/ERR/COST rule
                families, with ``--select``/``--ignore``, JSON/SARIF
                output, a findings baseline, and an optional dynamic
                smoke-run under the shadow-memory race detector.
``trace``       run a workload under the observability layer and export
                a Chrome trace-event JSON (open in Perfetto /
                ``chrome://tracing``) plus a metrics snapshot, on either
                the simulated machine or the darray engine's shared-memory
                worker processes; ``--follow TRACE_ID`` instead prints one
                request's cross-process span tree from a live server's
                ``trace`` control op or an exported trace file.
``chaos``       run the seeded single-fault chaos matrix against a
                workload and report each plan's recovery outcome
                (``histogram``/``components`` also accept a
                ``--fault-plan`` JSON for one specific plan).
``serve``       run the async batch-serving layer on a unix socket:
                micro-batched dispatch onto a shared worker pool,
                content-addressed result caching, bounded queues with
                load shedding, per-request tracing (``--trace-out``),
                and a Prometheus-style metrics plane
                (``--metrics-interval`` writes a JSON time series;
                ``--selftest`` runs an in-process round-trip and exits).
``top``         live terminal dashboard over a running server: request
                rates, queue depth, cache hit-rate, and per-op
                p50/p95/p99 latency, refreshed from the ``stats`` and
                ``metrics`` control ops.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.analysis.regions import region_table
from repro.core.connected_components import parallel_components
from repro.core.equalization import parallel_equalize
from repro.core.histogram import parallel_histogram
from repro.images import binary_test_image, darpa_like
from repro.images.io import read_pnm, write_pbm, write_pgm
from repro.machines import MACHINES, load_machine
from repro.utils.errors import ReproError
from repro.utils.render import ascii_labels


def _package_version() -> str:
    """The installed distribution's version, else the in-tree fallback."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from repro import __version__

        return __version__


def _load_image(args) -> np.ndarray:
    if args.pattern is not None:
        if args.pattern == 0:
            return darpa_like(args.size, 256)
        return binary_test_image(args.pattern, args.size)
    if not args.image:
        raise ReproError("provide an image file or --pattern")
    return read_pnm(args.image)


def _add_input_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("image", nargs="?", help="PGM/PBM input file")
    sub.add_argument(
        "--pattern",
        type=int,
        choices=range(0, 10),
        help="generate input: 1-9 = Figure 1 test images, 0 = DARPA-like scene",
    )
    sub.add_argument("--size", type=int, default=512, help="pattern size (default 512)")
    sub.add_argument("-p", "--processors", type=int, default=16)
    sub.add_argument(
        "--machine",
        default="cm5",
        help=f"machine model ({', '.join(sorted(MACHINES))}) or a JSON spec file",
    )
    sub.add_argument(
        "--report", action="store_true", help="print the per-phase cost breakdown"
    )
    sub.add_argument(
        "--kernel",
        choices=("python", "numpy", "numba"),
        default=None,
        help="local-step kernel backend (default: $REPRO_KERNEL_BACKEND or numpy); "
        "python = per-pixel reference, numpy = vectorized (bit-identical), "
        "numba = JIT-compiled (requires the optional numba package)",
    )
    sub.add_argument(
        "--trace-out",
        metavar="OUT.json",
        help="write a Chrome trace-event JSON of the run (Perfetto-loadable)",
    )
    sub.add_argument(
        "--metrics-out",
        metavar="OUT.json",
        help="write a metrics snapshot (per-phase counters/gauges) as JSON",
    )


def _add_darray_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--engine",
        choices=("sim", "runtime", "darray"),
        default="sim",
        help="execution engine: sim = BDM cost simulator (default), "
        "darray = DistributedArray over a pluggable transport, "
        "runtime = darray over shmem (same as --runtime)",
    )
    sub.add_argument(
        "--transport",
        choices=("local", "shmem", "mmap"),
        default="local",
        help="darray tile placement: local = in-process, shmem = "
        "shared-memory shards on a supervised pool, mmap = out-of-core "
        "spill files over a memory-mapped PGM (--engine darray only)",
    )
    sub.add_argument(
        "--resident-tiles",
        type=int,
        default=1,
        metavar="N",
        help="out-of-core working-set budget: max label tiles resident "
        "at once (mmap transport, default 1)",
    )
    sub.add_argument(
        "--spill-dir",
        metavar="DIR",
        help="out-of-core spill directory (mmap transport; default: a "
        "private temp dir removed on exit)",
    )


def _resolve_engine(args) -> str:
    """The selected engine: ``sim`` or ``darray``.

    The multiprocess spellings -- ``--runtime``, ``--engine runtime``
    and ``repro chaos --engine process`` -- all select the darray
    engine over the ``shmem`` transport.
    """
    if getattr(args, "runtime", False) or args.engine in ("runtime", "process"):
        args.engine, args.transport = "darray", "shmem"
    return args.engine


def _darray_source(args):
    """Image source for the darray engine.

    A file path is handed through untouched so the ``mmap`` transport
    can map it instead of reading it; generated patterns come back as
    arrays (``mmap`` stages them to its spill directory).
    """
    if args.pattern is None and args.image:
        return args.image
    return _load_image(args)


def _print_darray_stats(stats) -> None:
    print(
        f"darray stats: border {stats.border_bytes} B, "
        f"changes {stats.change_bytes} B, "
        f"spills {stats.spill_reads}r/{stats.spill_writes}w, "
        f"resident highwater {stats.resident_highwater}"
    )


def cmd_generate(args) -> int:
    if args.pattern == 0:
        img = darpa_like(args.size, 256)
        write_pgm(args.output, img)
    else:
        img = binary_test_image(args.pattern, args.size)
        if args.output.endswith(".pgm"):
            write_pgm(args.output, img)
        else:
            write_pbm(args.output, img)
    print(f"wrote {args.output} ({args.size}x{args.size})")
    return 0


def _sim_recorder(args, params, *, force: bool = False):
    """Machine + attached recorder when trace/metrics output is requested.

    ``force=True`` builds them regardless (used when a fault plan is
    active, so recovery events can be reported even without exports).
    """
    wanted = getattr(args, "trace_out", None) or getattr(args, "metrics_out", None)
    if not (wanted or force):
        return None, None
    from repro.bdm.machine import Machine
    from repro.obs import MachineRecorder

    machine = Machine(args.processors, params)
    return machine, MachineRecorder(machine)


def _load_fault_plan(args):
    """Load and announce the ``--fault-plan`` JSON, if given."""
    path = getattr(args, "fault_plan", None)
    if not path:
        return None
    from repro.faults import FaultPlan

    plan = FaultPlan.load(path)
    print(f"fault plan: {plan.describe()} (seed {plan.seed})")
    return plan


def _print_fault_events(rec) -> None:
    """Summarize recorded ``fault:*`` instants (wall or sim recorder)."""
    if rec is None:
        return
    events = rec.fault_events()
    if events:
        print(f"fault events: {', '.join(i.name for i in events)}")
    else:
        print("fault events: none")


def _export_sim(args, rec) -> None:
    if rec is None:
        return
    from repro.obs import sim_metrics, write_chrome_trace, write_metrics

    if args.trace_out:
        write_chrome_trace(args.trace_out, rec.log)
        print(
            f"trace written to {args.trace_out} "
            f"({len(rec.log.spans)} spans; open in Perfetto)"
        )
    if args.metrics_out:
        write_metrics(args.metrics_out, sim_metrics(rec))
        print(f"metrics written to {args.metrics_out}")


def _export_wall(args, rec) -> None:
    if rec is None:
        return
    from repro.obs import wall_metrics, write_chrome_trace, write_metrics

    if args.trace_out:
        write_chrome_trace(args.trace_out, rec.log)
        print(
            f"trace written to {args.trace_out} "
            f"({len(rec.log.spans)} spans; open in Perfetto)"
        )
    if args.metrics_out:
        write_metrics(
            args.metrics_out, wall_metrics(rec.log, workers=len(rec.worker_lanes))
        )
        print(f"metrics written to {args.metrics_out}")


def _wall_recorder(args, plan):
    if args.trace_out or args.metrics_out or plan is not None:
        from repro.obs import WallRecorder

        return WallRecorder()
    return None


def _histogram_darray(args, plan) -> np.ndarray:
    from repro.darray import darray_histogram

    rec = _wall_recorder(args, plan)
    hist = darray_histogram(
        _darray_source(args),
        args.levels,
        p=args.processors,
        transport=args.transport,
        kernel=args.kernel,
        recorder=rec,
        fault_plan=plan,
        spill_dir=args.spill_dir,
        resident_tiles=args.resident_tiles,
    )
    print(
        f"histogram k={args.levels} via darray/{args.transport}, "
        f"p={args.processors}"
    )
    if plan is not None:
        _print_fault_events(rec)
    _export_wall(args, rec)
    return hist


def cmd_histogram(args) -> int:
    engine = _resolve_engine(args)
    params = load_machine(args.machine)
    plan = _load_fault_plan(args)
    if engine == "darray":
        hist = _histogram_darray(args, plan)
        image = None
    else:
        image = _load_image(args)
        if plan is not None and not plan.is_empty:
            raise ReproError(
                "the simulator fault model covers components only; "
                "use --runtime (darray over shmem) for histogram fault injection"
            )
        machine, rec = _sim_recorder(args, params)
        res = parallel_histogram(
            image, args.levels, args.processors, params, machine=machine,
            kernel=args.kernel,
        )
        hist = res.histogram
        print(
            f"histogram of {image.shape[0]}x{image.shape[1]} image, k={args.levels}, "
            f"p={args.processors} on simulated {params.name}"
        )
        print(f"simulated time: {res.elapsed_s * 1e3:.3f} ms")
        if args.report:
            print(res.report.summary())
        _export_sim(args, rec)
    occupied = np.flatnonzero(hist)
    print(f"occupied levels: {len(occupied)}/{args.levels}")
    top = np.argsort(hist)[::-1][:8]
    for level in top:
        if hist[level]:
            bar = "#" * max(1, int(40 * hist[level] / hist.max()))
            print(f"  level {level:>4}: {hist[level]:>9}  {bar}")
    if args.equalize:
        if image is None:
            image = _load_image(args)
        eq = parallel_equalize(image, args.levels, args.processors, params)
        write_pgm(args.equalize, eq.image)
        print(f"equalized image written to {args.equalize}")
    return 0


def _write_label_map(args, labels) -> None:
    """The ``--ascii`` / ``--output`` tail shared by both engines."""
    labels = np.asarray(labels)
    if args.ascii:
        print(ascii_labels(labels, width=args.ascii))
    if args.output:
        from repro.analysis.regions import compact_labels

        compacted = compact_labels(labels)
        n_regions = int(compacted.max(initial=0))
        if n_regions > 255:
            raise ReproError(
                f"label map has {n_regions} components, which does not fit an "
                f"8-bit PGM (max 255); use a smaller image or coarser levels"
            )
        write_pgm(args.output, compacted)
        print(f"label map written to {args.output} (compacted labels)")


def _components_darray(args, plan) -> int:
    from repro.darray import darray_components

    rec = _wall_recorder(args, plan)
    res = darray_components(
        _darray_source(args),
        p=args.processors,
        transport=args.transport,
        connectivity=args.connectivity,
        grey=args.grey,
        kernel=args.kernel,
        recorder=rec,
        fault_plan=plan,
        spill_dir=args.spill_dir,
        resident_tiles=args.resident_tiles,
    )
    labels = res.labels
    print(
        f"darray/{args.transport}: {labels.shape[0]}x{labels.shape[1]}, "
        f"p={args.processors} ({res.grid.v}x{res.grid.w} tiles)"
    )
    print(
        f"{res.n_components} components ({args.connectivity}-connectivity, "
        f"{'grey' if args.grey else 'binary'})"
    )
    _print_darray_stats(res.stats)
    if plan is not None:
        _print_fault_events(rec)
    _export_wall(args, rec)
    _write_label_map(args, labels)
    return 0


def cmd_components(args) -> int:
    plan = _load_fault_plan(args)
    if _resolve_engine(args) == "darray":
        return _components_darray(args, plan)
    image = _load_image(args)
    params = load_machine(args.machine)
    machine, rec = _sim_recorder(args, params, force=plan is not None)
    res = parallel_components(
        image,
        args.processors,
        params,
        connectivity=args.connectivity,
        grey=args.grey,
        machine=machine,
        kernel=args.kernel,
        fault_plan=plan,
    )
    print(
        f"simulated {params.name}, p={args.processors}: "
        f"{res.elapsed_s * 1e3:.3f} ms"
    )
    if plan is not None:
        nf = sum(s.n_failovers for s in res.step_stats)
        print(f"merge-round failovers: {nf}")
        _print_fault_events(rec)
    if args.report:
        print(res.report.summary(top=8))
    _export_sim(args, rec)
    table = region_table(res.labels, image)
    print(
        f"{len(table)} components ({args.connectivity}-connectivity, "
        f"{'grey' if args.grey else 'binary'})"
    )
    for rank, idx in enumerate(np.argsort(table.areas)[::-1][:5], start=1):
        r0, c0, r1, c1 = table.bbox[idx]
        print(
            f"  #{rank}: area {table.areas[idx]:>8}, level {table.colors[idx]:>4}, "
            f"bbox ({r0},{c0})-({r1},{c1})"
        )
    _write_label_map(args, res.labels)
    return 0


def cmd_verify(args) -> int:
    from repro.analysis.verification import VerificationError, verify_labels

    image = read_pnm(args.image)
    labels = read_pnm(args.labels)
    try:
        # Label maps written by this CLI are compacted, so verify the
        # partition up to renaming.
        verify_labels(
            image,
            labels.astype("int64"),
            connectivity=args.connectivity,
            grey=args.grey,
            reference_engine=args.reference,
            canonical=False,
        )
    except VerificationError as exc:
        print(f"FAILED: {exc}")
        return 1
    print(
        f"OK: {args.labels} is a correct "
        f"{args.connectivity}-connectivity {'grey' if args.grey else 'binary'} "
        f"labeling of {args.image}"
    )
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import assemble_report

    text = assemble_report(args.results)
    if args.output:
        import pathlib as _pathlib

        _pathlib.Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _check_dynamic() -> list[str]:
    """Smoke-run the packaged SPMD programs under full shadow checking."""
    from repro.bdm.machine import Machine
    from repro.core.spmd_programs import spmd_broadcast, spmd_histogram, spmd_transpose

    ran = []
    machine = Machine(4, check_hazards=True)
    spmd_transpose(machine, np.arange(4 * 16).reshape(4, 16))
    ran.append("spmd_transpose")
    machine = Machine(4, check_hazards=True)
    spmd_broadcast(machine, np.arange(16))
    ran.append("spmd_broadcast")
    machine = Machine(4, check_hazards=True)
    rng = np.random.default_rng(0)
    spmd_histogram(rng.integers(0, 16, size=(16, 16)), 16, 4)
    ran.append("spmd_histogram")
    return ran


def cmd_check(args) -> int:
    from repro.checker import engine
    from repro.checker.emitters import dump_json, to_json_payload, to_sarif
    from repro.checker.lint import iter_python_files
    from repro.checker.rules import format_catalog

    if args.list_rules:
        print(format_catalog())
        return 0
    paths = args.paths or [p for p in ("src", "examples") if os.path.isdir(p)] or ["."]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise ReproError(f"no such path(s): {', '.join(missing)}")
    select = engine.expand_selection(
        args.select.split(",") if args.select else None, flag="--select"
    )
    ignore = engine.expand_selection(
        args.ignore.split(",") if args.ignore else None, flag="--ignore"
    )
    scanned = {p.as_posix() for p in iter_python_files(paths)}
    n_files = len(scanned)
    diags = engine.analyze_paths(paths, select=select, ignore=ignore)

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        if os.path.exists(engine.DEFAULT_BASELINE):
            baseline_path = engine.DEFAULT_BASELINE
    if args.update_baseline:
        target = baseline_path or engine.DEFAULT_BASELINE
        engine.save_baseline(target, engine.baseline_from(diags))
        print(f"baseline: wrote {len(diags)} finding(s) to {target}")
        return 0
    suppressed = 0
    if baseline_path is not None:
        result = engine.apply_baseline(
            diags, engine.load_baseline(baseline_path), scanned=scanned
        )
        diags, suppressed = result.diags, result.suppressed
        for file, rules in sorted(result.stale.items()):
            # Judge staleness only for rules the current selection ran.
            rules = {
                r: n
                for r, n in rules.items()
                if (select is None or select.matches(r))
                and not (ignore is not None and ignore.matches(r))
            }
            if not rules:
                continue
            listed = ", ".join(f"{r}x{n}" for r, n in sorted(rules.items()))
            print(
                f"baseline: stale allowance for {file} ({listed}); "
                f"run --update-baseline to expire it"
            )

    n_errors = sum(1 for d in diags if d.severity == "error")
    n_warnings = len(diags) - n_errors
    if args.format == "text":
        for diag in diags:
            print(diag.format())
        summary = f"checked {n_files} file(s): {n_errors} error(s), " f"{n_warnings} warning(s)"
        if suppressed:
            summary += f", {suppressed} baselined"
        print(summary)
    else:
        if args.format == "json":
            payload = to_json_payload(diags, files_checked=n_files, suppressed=suppressed)
        else:
            payload = to_sarif(diags, tool_version=_package_version())
        text = dump_json(payload)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
            print(
                f"wrote {args.format} report ({len(diags)} finding(s), "
                f"{suppressed} baselined) to {args.output}"
            )
        else:
            print(text, end="")
    if args.dynamic:
        ran = _check_dynamic()
        print(
            f"dynamic: {len(ran)} built-in SPMD program(s) ran clean under "
            f"the shadow-memory race detector ({', '.join(ran)})"
        )
    return 1 if n_errors else 0


def _follow_trace(args) -> int:
    """Print one trace's span tree from a trace file or a live server."""
    import json as _json

    if args.socket:
        import asyncio

        from repro.service import request_over_socket

        resp = asyncio.run(request_over_socket(args.socket, {"op": "trace"}))
        if not resp.get("ok"):
            err = resp.get("error", {})
            raise ReproError(f"trace op failed: {err.get('message', err)}")
        obj = resp["result"]
        source = args.socket
    else:
        path = args.trace_file or args.trace_out
        try:
            with open(path) as fh:
                obj = _json.load(fh)
        except OSError as exc:
            raise ReproError(
                f"cannot read trace file {path!r} ({exc}); "
                f"use --socket for a live server or --trace-file for an export"
            ) from None
        source = path
    events = obj.get("traceEvents", [])
    lanes = {
        (e.get("pid"), e.get("tid")): e.get("args", {}).get("name")
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    spans = [
        e for e in events
        if e.get("ph") == "X"
        and str(e.get("args", {}).get("trace", "")).startswith(args.follow)
    ]
    if not spans:
        known = sorted({
            str(e["args"]["trace"])[:8]
            for e in events
            if e.get("ph") == "X" and e.get("args", {}).get("trace")
        })
        raise ReproError(
            f"no spans for trace {args.follow!r} in {source}; "
            f"known trace(s): {', '.join(known) or 'none'}"
        )
    by_id = {e["args"]["span"]: e for e in spans if e["args"].get("span")}
    children: dict = {}
    roots = []
    for e in sorted(spans, key=lambda e: e.get("ts", 0.0)):
        parent = e["args"].get("parent")
        if parent in by_id:
            children.setdefault(parent, []).append(e)
        else:
            roots.append(e)
    t_base = min(e.get("ts", 0.0) for e in spans)
    trace_id = spans[0]["args"]["trace"]
    total_ms = max(
        e.get("ts", 0.0) + e.get("dur", 0.0) for e in spans
    ) / 1e3 - t_base / 1e3
    print(f"trace {trace_id}: {len(spans)} span(s), {total_ms:.2f} ms ({source})")

    def _print(e, prefix: str, last: bool) -> None:
        lane = lanes.get((e.get("pid"), e.get("tid")), "")
        extra = f"  links={len(e['args']['links'])}" if e["args"].get("links") else ""
        if e["args"].get("coalesced_onto"):
            extra += f"  coalesced_onto={e['args']['coalesced_onto']}"
        branch = "`- " if last else "|- "
        print(
            f"{prefix}{branch}{e['name']}  [{lane}]  "
            f"{e.get('dur', 0.0) / 1e3:.2f} ms @ "
            f"{(e.get('ts', 0.0) - t_base) / 1e3:+.2f} ms{extra}"
        )
        kids = children.get(e["args"].get("span"), [])
        for i, kid in enumerate(kids):
            _print(kid, prefix + ("   " if last else "|  "), i == len(kids) - 1)

    for i, root in enumerate(roots):
        _print(root, "", i == len(roots) - 1)
    return 0


def cmd_trace(args) -> int:
    if args.follow:
        return _follow_trace(args)
    image = _load_image(args)
    if _resolve_engine(args) == "sim":
        from repro.bdm.machine import Machine
        from repro.obs import MachineRecorder, comm_heatmap

        params = load_machine(args.machine)
        machine = Machine(args.processors, params)
        rec = MachineRecorder(machine)
        if args.workload == "histogram":
            parallel_histogram(
                image, args.levels, args.processors, params, machine=machine,
                kernel=args.kernel,
            )
        else:
            parallel_components(
                image,
                args.processors,
                params,
                connectivity=args.connectivity,
                grey=args.grey,
                machine=machine,
                kernel=args.kernel,
            )
        report = machine.report()
        print(
            f"traced {args.workload} on simulated {params.name}, "
            f"p={machine.p}: {len(report.phases)} phases, "
            f"{report.words_moved} words moved, "
            f"{report.elapsed_s * 1e3:.3f} ms simulated"
        )
        if args.report:
            print(report.summary(top=8))
        if args.heatmap:
            print(comm_heatmap(rec.comm_matrix))
        _export_sim(args, rec)
    else:
        from repro.darray import darray_components, darray_histogram
        from repro.obs import WallRecorder

        rec = WallRecorder()
        opts = dict(p=args.processors, transport="shmem", kernel=args.kernel,
                    recorder=rec)
        if args.workload == "histogram":
            darray_histogram(image, args.levels, **opts)
        else:
            darray_components(
                image, connectivity=args.connectivity, grey=args.grey, **opts
            )
        print(
            f"traced {args.workload} on darray/shmem, p={args.processors} "
            f"({len(rec.worker_lanes)} workers): "
            f"{rec.log.end_s * 1e3:.2f} ms wall, {len(rec.log.spans)} spans"
        )
        _export_wall(args, rec)
    return 0


def _chaos_runner(args, image, n_tasks):
    """Baseline result + a ``run_one(plan) -> (result, event_names)`` closure."""
    if args.engine == "darray":
        from repro.darray import darray_components, darray_histogram
        from repro.obs import WallRecorder

        def run(transport, plan=None):
            rec = WallRecorder()
            opts = dict(
                p=n_tasks, transport=transport, kernel=args.kernel, recorder=rec,
                fault_plan=plan, timeout=args.timeout, max_retries=args.retries,
            )
            if args.workload == "histogram":
                res = darray_histogram(image, args.levels, **opts)
            else:
                res = darray_components(
                    image, connectivity=args.connectivity, grey=args.grey, **opts
                ).labels
            return res, [i.name for i in rec.fault_events()]

        return run("local")[0], lambda plan: run("shmem", plan)

    from repro.bdm.machine import Machine
    from repro.obs import MachineRecorder

    params = load_machine(args.machine)
    baseline = parallel_components(
        image, n_tasks, params, connectivity=args.connectivity,
        grey=args.grey, kernel=args.kernel,
    ).labels

    def run_one(plan):
        machine = Machine(n_tasks, params)
        rec = MachineRecorder(machine)
        res = parallel_components(
            image, n_tasks, params, connectivity=args.connectivity,
            grey=args.grey, machine=machine, kernel=args.kernel,
            fault_plan=plan,
        )
        return res.labels, [i.name for i in rec.fault_events()]

    return baseline, run_one


def _chaos_case(run_one, plan, baseline) -> tuple[str, list[str], bool]:
    """One plan's verdict: (outcome text, fault event names, ok?)."""
    import warnings

    from repro.utils.errors import DegradedRunWarning, FaultError

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result, events = run_one(plan)
    except FaultError as exc:
        # A typed, prompt failure is an acceptable outcome: the run did
        # not hang and did not return wrong labels.
        return f"typed {type(exc).__name__}", [], True
    degraded = any(isinstance(w.message, DegradedRunWarning) for w in caught)
    if not np.array_equal(result, baseline):
        return "MISMATCH vs unfaulted baseline", events, False
    return ("recovered, identical (degraded)" if degraded
            else "recovered, identical"), events, True


def cmd_chaos(args) -> int:
    from repro.core.merge import merge_schedule
    from repro.core.tiles import ProcessorGrid
    from repro.faults import assert_no_shm_leak, single_fault_plans

    if args.tier == "service":
        return _chaos_service(args)
    image = _load_image(args)
    engine = _resolve_engine(args)
    if engine == "sim" and args.workload == "histogram":
        raise ReproError("the simulator fault model covers components only")
    n_tasks = args.processors
    n_rounds = 0
    if args.workload == "components":
        grid = ProcessorGrid(n_tasks, image.shape, strict=engine == "sim")
        n_rounds = len(merge_schedule(grid))
    plans = single_fault_plans(
        workload=args.workload, engine=engine,
        n_rounds=n_rounds, n_tasks=n_tasks, seed=args.seed,
    )
    print(
        f"chaos matrix: {len(plans)} single-fault plan(s) for {args.workload} "
        f"on the {engine} engine ({n_tasks} tasks, {n_rounds} merge rounds)"
    )
    if args.list:
        for plan in plans:
            print(f"  {plan.describe()}")
        return 0

    baseline, run_one = _chaos_runner(args, image, n_tasks)
    failures = 0
    with assert_no_shm_leak():
        for i, plan in enumerate(plans, start=1):
            outcome, events, ok = _chaos_case(run_one, plan, baseline)
            if not ok:
                failures += 1
            suffix = f"  [{', '.join(events)}]" if events else ""
            print(f"  [{i:>2}/{len(plans)}] {plan.describe():<32} {outcome}{suffix}")
    if failures:
        print(f"{failures} plan(s) FAILED")
        return 1
    print("all plans recovered (no hangs, no mismatches, no leaked shm segments)")
    return 0


def _serve_selftest(config, recorder=None, trace_out=None, wire="ndjson") -> int:
    """In-process round-trip: batched requests, then a cache hit on repeat.

    A live-socket leg follows in the requested ``wire`` mode (ndjson or
    the zero-copy shmem descriptors) and must agree bit-for-bit with
    the in-process answer, with no shared-memory segment left behind.
    """
    import asyncio
    import tempfile

    from repro.faults.leakcheck import assert_no_shm_leak
    from repro.images import darpa_like
    from repro.service import (
        BatchService,
        Client,
        ServiceServer,
        compute_over_socket,
    )

    with Client(config, recorder=recorder) as client:
        image = darpa_like(64, 256)
        first = client.submit("histogram", image, k=256)
        again = client.submit("histogram", image, k=256)
        if not np.array_equal(first, again):
            raise ReproError("selftest: cache returned a different histogram")
        labels = client.submit("components", image, grey=True)
        if labels.shape != image.shape:
            raise ReproError("selftest: bad label-map shape")
        snap = client.stats()
    cache = snap.get("cache", {})
    if config.cache and not cache.get("hits"):
        raise ReproError("selftest: repeated request did not hit the cache")

    async def _socket_leg() -> np.ndarray:
        sock = os.path.join(tempfile.mkdtemp(prefix="repro-selftest-"), "svc.sock")
        server = ServiceServer(BatchService(config), sock)
        await server.start()
        try:
            return await compute_over_socket(
                sock, "histogram", image, wire=wire, k=256
            )
        finally:
            await server.stop()

    with assert_no_shm_leak():
        wired = asyncio.run(_socket_leg())
    if not np.array_equal(first, wired):
        raise ReproError(f"selftest: {wire} socket round trip diverged")
    if recorder is not None and trace_out:
        from repro.obs import write_chrome_trace

        recorder.drain()
        write_chrome_trace(trace_out, recorder.log)
        print(f"trace written to {trace_out} ({len(recorder.log.spans)} spans)")
    print(
        f"selftest OK: {snap['service']['completed']} request(s) served, "
        f"{snap['batcher']['batches']} batch(es), "
        f"{cache.get('hits', 0)} cache hit(s), "
        f"socket round trip via {wire} wire"
    )
    return 0


def _shard_passthrough(args) -> list[str]:
    """The ``repro serve`` argv forwarded to every spawned shard."""
    argv = [
        "--batch-size", str(args.batch_size),
        "--max-delay", str(args.max_delay),
        "--queue-depth", str(args.queue_depth),
        "--cache-entries", str(args.cache_entries),
        "--cache-bytes", str(args.cache_bytes),
        "--drain-deadline", str(args.drain_deadline),
    ]
    if args.no_cache:
        argv.append("--no-cache")
    if args.no_metrics:
        argv.append("--no-metrics")
    if args.kernel:
        argv.extend(["--kernel", args.kernel])
    if args.timeout is not None:
        argv.extend(["--timeout", str(args.timeout)])
    if args.retries is not None:
        argv.extend(["--retries", str(args.retries)])
    return argv


def _serve_router(args) -> int:
    """``repro serve --shards N``: spawn N shards, route on --socket."""
    import asyncio

    from repro.service import RouterConfig, ShardRouter

    config = RouterConfig(
        shards=args.shards,
        workers_per_shard=args.workers,
        shard_args=_shard_passthrough(args),
        drain_deadline_s=args.drain_deadline,
    )

    async def _run() -> None:
        router = ShardRouter(args.socket, config)
        await router.start()
        print(
            f"routing on {args.socket}: {args.shards} shard(s) x "
            f"{args.workers} worker(s), vnodes={config.vnodes}, "
            f"hedge after {config.hedge_s * 1e3:.0f}ms",
            flush=True,
        )
        try:
            await router.serve_until_shutdown()
        finally:
            rt = router.snapshot()["router"]
            print(
                f"routed {rt['completed']} request(s); "
                f"{rt['reroutes']} reroute(s), {rt['hedges']} hedge(s), "
                f"{rt['respawns']} respawn(s)",
                flush=True,
            )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted", flush=True)
    finally:
        if args.socket and os.path.exists(args.socket):
            os.unlink(args.socket)
    return 0


def _serve_router_selftest(args) -> int:
    """Routed-tier round trip: N spawned shards behind one router socket.

    Two passes of a distinct-image workload go through the router in
    the requested wire mode.  Every reply must be bit-identical to the
    serial reference; the repeat pass must be answered from the shard
    caches (digest affinity pins each image to one shard, so aggregate
    cache capacity is the *sum* of the shards'); traffic must actually
    spread across shards; and nothing may leak in ``/dev/shm``.
    """
    import asyncio
    import json as _json
    import tempfile

    from repro.faults.leakcheck import assert_no_shm_leak
    from repro.kernels import resolve_backend
    from repro.service import RouterConfig, ShardRouter, WireClient
    from repro.service.ops import canonical_params, compute

    kernel = resolve_backend(args.kernel)
    rng = np.random.default_rng(0)
    images = [
        rng.integers(0, 256, size=(48, 48), dtype=np.uint8) for _ in range(6)
    ]
    refs = [
        compute("histogram", im,
                canonical_params("histogram", im, {"k": 256}), kernel)
        for im in images
    ]

    async def _run() -> tuple[dict, int]:
        base = tempfile.mkdtemp(prefix="repro-router-")
        config = RouterConfig(
            shards=args.shards,
            runtime_dir=base,
            workers_per_shard=args.workers,
            shard_args=_shard_passthrough(args),
            drain_deadline_s=args.drain_deadline,
        )
        router = ShardRouter(os.path.join(base, "router.sock"), config)
        await router.start()
        try:
            async with WireClient(router.socket_path, wire=args.wire) as client:
                for _pass in range(2):
                    for im, ref in zip(images, refs):
                        out = await client.compute("histogram", im, k=256)
                        if not np.array_equal(out, ref):
                            raise ReproError(
                                "router selftest: reply diverged from the "
                                "serial reference"
                            )
            cache_hits = 0
            for sid in router.shard_ids:
                reply = _json.loads(await router._one_shot(
                    sid, b'{"op": "stats"}\n', timeout_s=5.0
                ))
                cache_hits += reply["result"].get("cache", {}).get("hits", 0)
            return router.snapshot(), cache_hits
        finally:
            await router.stop()

    with assert_no_shm_leak():
        snap, cache_hits = asyncio.run(_run())
    rt = snap["router"]
    shards_hit = sum(1 for s in snap["shards"].values() if s["forwards"])
    expect = 2 * len(images)
    if rt["completed"] != expect or rt["errors"]:
        raise ReproError(
            f"router selftest: {rt['completed']}/{expect} request(s) completed, "
            f"{rt['errors']} error(s)"
        )
    if args.shards > 1 and shards_hit < 2:
        raise ReproError(
            "router selftest: all traffic landed on one shard "
            "(consistent-hash affinity is not spreading)"
        )
    if not args.no_cache and cache_hits < len(images):
        raise ReproError(
            f"router selftest: repeat pass hit the partitioned cache only "
            f"{cache_hits}x (expected >= {len(images)})"
        )
    print(
        f"router selftest OK: {rt['completed']} request(s) over {args.wire} "
        f"wire across {shards_hit}/{args.shards} shard(s), "
        f"{cache_hits} partitioned cache hit(s), "
        f"{rt['reroutes']} reroute(s), healthy={rt['healthy']}"
    )
    return 0


def _chaos_service(args) -> int:
    """The service-tier chaos drill: SIGKILL one of N shards mid-load.

    A seeded repeated-image workload streams through the router over
    the ndjson wire while one shard -- the home shard of the *next*
    request, so the failure sits on the critical path -- is killed with
    SIGKILL.  Acceptance: every request completes bit-identical to the
    serial reference, the killed shard's breaker walks open ->
    half-open -> closed against the respawned process, at least one
    respawn happened, and ``/dev/shm`` ends clean.
    """
    import asyncio
    import base64 as _b64
    import hashlib as _hashlib
    import tempfile
    import time as _time

    from repro.faults import assert_no_shm_leak
    from repro.kernels import resolve_backend
    from repro.service import RouterConfig, ShardRouter, WireClient
    from repro.service.ops import canonical_params, compute

    if args.requests < 2:
        raise ReproError("--tier service needs at least 2 requests")
    kill_at = (
        args.kill_after if args.kill_after is not None
        else max(1, args.requests // 3)
    )
    if not 0 < kill_at < args.requests:
        raise ReproError(
            f"--kill-after must be in 1..{args.requests - 1} "
            f"(the kill must land mid-load)"
        )
    kernel = resolve_backend(args.kernel)
    rng = np.random.default_rng(args.seed)
    images = [
        rng.integers(0, 256, size=(48, 48), dtype=np.uint8)
        for _ in range(min(8, args.requests))
    ]
    refs = [
        compute("histogram", im,
                canonical_params("histogram", im, {"k": args.levels}), kernel)
        for im in images
    ]

    def _ndjson_key(im: np.ndarray) -> bytes:
        # The router's affinity key for an ndjson request: sha256 of
        # the base64 pixel span (repro.service.router.routing_key).
        return _hashlib.sha256(
            _b64.b64encode(np.ascontiguousarray(im).tobytes())
        ).digest()

    async def _run() -> dict:
        base = tempfile.mkdtemp(prefix="repro-chaos-svc-")
        shard_args = ["--timeout", str(args.timeout),
                      "--retries", str(args.retries)]
        if args.kernel:
            shard_args.extend(["--kernel", args.kernel])
        config = RouterConfig(
            shards=args.shards,
            runtime_dir=base,
            workers_per_shard=1,
            open_s=0.2,
            probe_interval_s=0.05,
            hedge_s=0.5,
            shard_args=shard_args,
        )
        router = ShardRouter(os.path.join(base, "router.sock"), config)
        await router.start()
        outcome = {"served": 0, "mismatches": 0, "killed": None}
        try:
            async with WireClient(router.socket_path, wire="ndjson") as client:
                for i in range(args.requests):
                    idx = i % len(images)
                    if i == kill_at:
                        sid = router.ring.route(_ndjson_key(images[idx]))
                        outcome["killed"] = sid
                        router.kill_shard(sid)
                        print(f"  [kill] SIGKILL shard {sid} "
                              f"before request {i}", flush=True)
                    out = await client.compute(
                        "histogram", images[idx], k=args.levels
                    )
                    outcome["served"] += 1
                    if not np.array_equal(out, refs[idx]):
                        outcome["mismatches"] += 1
            # Load is done; let the breaker finish its open -> half-open
            # -> closed walk against the respawned shard.
            breaker = router.breakers[outcome["killed"]]
            deadline = _time.monotonic() + 30.0
            while not breaker.recovered() and _time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            outcome["breaker"] = breaker.snapshot()
            outcome["snapshot"] = router.snapshot()
        finally:
            await router.stop()
        return outcome

    print(
        f"service chaos: {args.shards} shard(s), {args.requests} request(s), "
        f"SIGKILL before request {kill_at} (seed {args.seed})"
    )
    with assert_no_shm_leak(grace_s=2.0):
        outcome = asyncio.run(_run())
    rt = outcome["snapshot"]["router"]
    br = outcome["breaker"]
    print(
        f"  {outcome['served']}/{args.requests} request(s) served, "
        f"{outcome['mismatches']} mismatch(es) vs the serial reference"
    )
    print(
        f"  shard {outcome['killed']}: breaker opened {br['opened']}x, "
        f"half-opened {br['half_opened']}x, closed {br['closed']}x "
        f"(recovered={br['recovered']}); {rt['respawns']} respawn(s), "
        f"{rt['reroutes']} reroute(s), {rt['hedges']} hedge(s)"
    )
    ok = (
        outcome["served"] == args.requests
        and outcome["mismatches"] == 0
        and br["recovered"]
        and rt["respawns"] >= 1
    )
    if not ok:
        print("service chaos FAILED")
        return 1
    print(
        "service chaos OK: kill absorbed, replies bit-identical, "
        "breaker recovered, no leaked shm segments"
    )
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import contextlib

    from repro.obs import WallRecorder, wall_metrics, write_metrics
    from repro.service import ServiceConfig, ServiceServer

    plan = _load_fault_plan(args)
    recorder = (
        WallRecorder(source="repro-serve")
        if (args.metrics_out or args.trace_out or plan is not None)
        else None
    )
    config = ServiceConfig(
        workers=args.workers,
        kernel=args.kernel,
        max_batch=args.batch_size,
        max_delay_s=args.max_delay,
        queue_depth=args.queue_depth,
        cache=not args.no_cache,
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_bytes,
        timeout_s=args.timeout,
        retries=args.retries,
        fault_plan=plan,
        metrics=not args.no_metrics,
        drain_deadline_s=args.drain_deadline,
    )
    if args.shards > 1:
        if args.selftest:
            return _serve_router_selftest(args)
        if not args.socket:
            raise ReproError("provide --socket PATH (or use --selftest)")
        return _serve_router(args)
    if args.selftest:
        return _serve_selftest(config, recorder, args.trace_out, args.wire)
    if not args.socket:
        raise ReproError("provide --socket PATH (or use --selftest)")

    async def _serve() -> None:
        from repro.service import BatchService

        service = BatchService(config, recorder=recorder)
        server = ServiceServer(service, args.socket, shard_id=args.shard_id)
        await server.start()
        print(
            f"serving on {args.socket} "
            f"({config.workers} worker(s), kernel={config.kernel}, "
            f"batch<={config.max_batch}, window={config.max_delay_s * 1e3:.1f}ms, "
            f"queue depth {config.queue_depth}, "
            f"cache={'on' if config.cache else 'off'}, "
            f"metrics={'on' if config.metrics else 'off'})",
            flush=True,
        )
        samples: list[dict] = []
        writer_task = None
        if args.metrics_interval and service.metrics is not None:
            from repro.obs import write_timeseries

            async def _write_series() -> None:
                while True:
                    await asyncio.sleep(args.metrics_interval)
                    samples.append(service.metrics.snapshot())
                    write_timeseries(args.metrics_series, samples)

            writer_task = asyncio.ensure_future(_write_series())
        try:
            await server.serve_until_shutdown()
        finally:
            if writer_task is not None:
                writer_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await writer_task
            snap = service.snapshot()
            print(
                f"served {snap['service']['completed']} request(s) in "
                f"{snap.get('batcher', {}).get('batches', 0)} batch(es); "
                f"shed {snap.get('admission', {}).get('shed', 0)}",
                flush=True,
            )
            if args.metrics_interval and service.metrics is not None:
                from repro.obs import write_timeseries

                samples.append(service.metrics.snapshot())
                write_timeseries(args.metrics_series, samples)
                print(
                    f"metrics time series ({len(samples)} sample(s)) "
                    f"written to {args.metrics_series}",
                    flush=True,
                )
            if recorder is not None and args.metrics_out:
                write_metrics(
                    args.metrics_out,
                    wall_metrics(recorder.log, workers=len(recorder.worker_lanes)),
                )
                print(f"metrics written to {args.metrics_out}", flush=True)
            if recorder is not None and args.trace_out:
                from repro.obs import write_chrome_trace

                recorder.drain()
                write_chrome_trace(args.trace_out, recorder.log)
                print(
                    f"trace written to {args.trace_out} "
                    f"({len(recorder.log.spans)} spans; open in Perfetto, or "
                    f"follow one request with "
                    f"'repro trace --follow <trace_id> --trace-file {args.trace_out}')",
                    flush=True,
                )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted", flush=True)
    finally:
        if os.path.exists(args.socket):
            os.unlink(args.socket)
    return 0


def _gauge_value(families: dict, name: str) -> float:
    fam = families.get(name)
    if not fam:
        return 0.0
    return sum(s["value"] for s in fam["samples"])


def _render_top(snap: dict, families: dict, *, clear: bool) -> None:
    """One frame of the live dashboard from a stats + metrics sample."""
    svc = snap.get("service", {})
    adm = snap.get("admission", {})
    bat = snap.get("batcher", {})
    cache = snap.get("cache", {})
    execu = snap.get("executor", {})
    if clear:
        print("\x1b[2J\x1b[H", end="")
    print(
        f"requests {svc.get('requests', 0)}  "
        f"(ok {svc.get('completed', 0)}, err {svc.get('errors', 0)})   "
        f"in-flight {_gauge_value(families, 'repro_inflight_requests'):.0f}   "
        f"queue depth {_gauge_value(families, 'repro_queue_depth'):.0f} "
        f"(hwm {adm.get('depth_highwater', 0)})"
    )
    print(
        f"cache: hits {cache.get('hits', 0)} misses {cache.get('misses', 0)} "
        f"hit-rate {cache.get('hit_rate', 0.0) * 100:.1f}%   "
        f"coalesced {svc.get('coalesced', 0)}   "
        f"shed {adm.get('shed', 0)}   expired {adm.get('expired', 0)}"
    )
    print(
        f"batches {bat.get('batches', 0)} "
        f"(mean {bat.get('mean_batch', 0.0):.1f}, max {bat.get('max_batch', 0)})   "
        f"degraded {execu.get('degraded', 0)}   "
        f"respawns {execu.get('respawns', 0)}"
    )
    latency = snap.get("latency", {})
    if latency:
        print(f"{'latency (ms)':<16} {'count':>8} {'p50':>8} {'p95':>8} {'p99':>8}")
        for op, row in sorted(latency.items()):
            print(
                f"  {op:<14} {row['count']:>8} {row['p50_ms']:>8.2f} "
                f"{row['p95_ms']:>8.2f} {row['p99_ms']:>8.2f}"
            )


def cmd_top(args) -> int:
    import asyncio
    import time as _time

    from repro.obs import parse_prometheus_text
    from repro.service import request_over_socket

    async def _sample() -> tuple[dict, dict]:
        stats = await request_over_socket(args.socket, {"op": "stats"})
        metrics = await request_over_socket(args.socket, {"op": "metrics"})
        for resp, what in ((stats, "stats"), (metrics, "metrics")):
            if not resp.get("ok"):
                err = resp.get("error", {})
                raise ReproError(f"{what} op failed: {err.get('message', err)}")
        return stats["result"], parse_prometheus_text(metrics["result"])

    frames = args.count if args.count > 0 else None
    i = 0
    try:
        while True:
            snap, families = asyncio.run(_sample())
            clear = frames != 1 and not args.no_clear
            _render_top(snap, families, clear=clear)
            print(
                f"-- {args.socket}  interval {args.interval:g}s  "
                f"frame {i + 1}{f'/{frames}' if frames else ''}",
                flush=True,
            )
            i += 1
            if frames is not None and i >= frames:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


def cmd_machines(args) -> int:
    print(f"{'key':<9} {'name':<16} {'latency':>9} {'bandwidth':>12} {'op':>8}")
    for key in sorted(MACHINES):
        m = MACHINES[key]
        print(
            f"{key:<9} {m.name:<16} {m.latency_s * 1e6:>7.1f}us "
            f"{m.bandwidth_Bps / 1e6:>9.2f}MB/s {m.op_ns:>6.0f}ns"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel image histogramming and connected components "
        "(Bader & JaJa, PPoPP 1995 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a test image")
    gen.add_argument("--pattern", type=int, choices=range(0, 10), required=True)
    gen.add_argument("--size", type=int, default=512)
    gen.add_argument("output")
    gen.set_defaults(func=cmd_generate)

    hist = subs.add_parser("histogram", help="parallel histogramming")
    _add_input_args(hist)
    hist.add_argument("-k", "--levels", type=int, default=256)
    hist.add_argument("--equalize", metavar="OUT.pgm", help="write equalized image")
    hist.add_argument(
        "--runtime", action="store_true",
        help="use the real-parallel engine (same as --engine darray --transport shmem)",
    )
    _add_darray_args(hist)
    hist.add_argument(
        "--fault-plan",
        metavar="PLAN.json",
        help="inject faults from a repro-faults/v1 plan (darray:* sites; "
        "requires --runtime or --engine darray --transport shmem)",
    )
    hist.set_defaults(func=cmd_histogram)

    comp = subs.add_parser("components", help="parallel connected components")
    _add_input_args(comp)
    comp.add_argument("--grey", action="store_true", help="grey-scale CC (Section 6)")
    comp.add_argument("--connectivity", type=int, choices=(4, 8), default=8)
    comp.add_argument(
        "--runtime", action="store_true",
        help="use the real-parallel engine (same as --engine darray --transport shmem)",
    )
    _add_darray_args(comp)
    comp.add_argument(
        "--fault-plan",
        metavar="PLAN.json",
        help="inject faults from a repro-faults/v1 plan (darray:* sites with "
        "--runtime or --engine darray --transport shmem, sim:merge "
        "shadow-manager failover without)",
    )
    comp.add_argument("--ascii", type=int, metavar="WIDTH", help="print an ASCII label map")
    comp.add_argument("-o", "--output", metavar="OUT.pgm", help="write the label map")
    comp.set_defaults(func=cmd_components)

    ver = subs.add_parser("verify", help="verify a label map against an image")
    ver.add_argument("image", help="PGM/PBM input image")
    ver.add_argument("labels", help="PGM label map to verify")
    ver.add_argument("--grey", action="store_true")
    ver.add_argument("--connectivity", type=int, choices=(4, 8), default=8)
    ver.add_argument("--reference", default="sv", help="independent engine for the canonical labeling")
    ver.set_defaults(func=cmd_verify)

    rep = subs.add_parser("report", help="assemble the reproduction report")
    rep.add_argument(
        "--results", default="benchmarks/results", help="artifact directory"
    )
    rep.add_argument("-o", "--output", help="write the report to a file")
    rep.set_defaults(func=cmd_report)

    chk = subs.add_parser(
        "check",
        help="run the static-analysis engine (SPMD/ASYNC/RES/ERR/COST) "
        "and optionally smoke-run the race detector",
    )
    chk.add_argument(
        "paths",
        nargs="*",
        help="files/directories to scan (default: src and examples, else .)",
    )
    chk.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated families or rule IDs to report "
        "(e.g. ASYNC,RES or SPMD001,SPMD003)",
    )
    chk.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated families or rule IDs to suppress",
    )
    chk.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default text)",
    )
    chk.add_argument(
        "-o",
        "--output",
        help="write json/sarif output to a file instead of stdout",
    )
    chk.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file of grandfathered findings "
        "(default: .repro-checker-baseline.json when it exists)",
    )
    chk.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    chk.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings and exit",
    )
    chk.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    chk.add_argument(
        "--dynamic",
        action="store_true",
        help="also execute the built-in SPMD programs under the "
        "shadow-memory race detector",
    )
    chk.set_defaults(func=cmd_check)

    trc = subs.add_parser(
        "trace",
        help="run a workload under the observability layer and export "
        "a Chrome trace + metrics snapshot",
    )
    _add_input_args(trc)
    trc.add_argument(
        "--workload",
        choices=("components", "histogram"),
        default="components",
        help="workload to trace (default components)",
    )
    trc.add_argument(
        "--engine",
        choices=("sim", "runtime"),
        default="sim",
        help="sim = BDM simulator (simulated clock), "
        "runtime = darray over shmem worker processes (wall clock)",
    )
    trc.add_argument("-k", "--levels", type=int, default=256)
    trc.add_argument("--grey", action="store_true", help="grey-scale CC workload")
    trc.add_argument("--connectivity", type=int, choices=(4, 8), default=8)
    trc.add_argument(
        "--heatmap",
        action="store_true",
        help="print the (server, mover) communication matrix (sim engine)",
    )
    trc.add_argument(
        "--follow",
        metavar="TRACE_ID",
        help="print one request's span tree (id or unique prefix) instead of "
        "running a workload; reads spans from --socket or --trace-file",
    )
    trc.add_argument(
        "--socket", metavar="PATH",
        help="with --follow: fetch the span log from a live server's "
        "'trace' control op",
    )
    trc.add_argument(
        "--trace-file", metavar="TRACE.json",
        help="with --follow: read spans from a Chrome-trace export "
        "(default: the --trace-out path)",
    )
    trc.set_defaults(func=cmd_trace, trace_out="trace.json")

    cha = subs.add_parser(
        "chaos",
        help="run the seeded single-fault chaos matrix and report recovery",
    )
    cha.add_argument("image", nargs="?", help="PGM/PBM input file")
    cha.add_argument(
        "--pattern",
        type=int,
        choices=range(0, 10),
        help="generate input: 1-9 = Figure 1 test images, 0 = DARPA-like scene",
    )
    cha.add_argument("--size", type=int, default=128, help="pattern size (default 128)")
    cha.add_argument("-p", "--processors", type=int, default=16)
    cha.add_argument(
        "--workload", choices=("components", "histogram"), default="components"
    )
    cha.add_argument(
        "--engine",
        choices=("process", "sim"),
        default="process",
        help="process = darray over shmem worker processes, "
        "sim = BDM simulator (shadow-manager failover; components only)",
    )
    cha.add_argument(
        "--machine",
        default="cm5",
        help=f"machine model for --engine sim ({', '.join(sorted(MACHINES))})",
    )
    cha.add_argument("-k", "--levels", type=int, default=256)
    cha.add_argument("--grey", action="store_true")
    cha.add_argument("--connectivity", type=int, choices=(4, 8), default=8)
    cha.add_argument(
        "--kernel", choices=("python", "numpy", "numba"), default=None,
        help="local-step kernel backend",
    )
    cha.add_argument(
        "--tier",
        choices=("engine", "service"),
        default="engine",
        help="engine = seeded single-fault matrix inside one run (default); "
        "service = SIGKILL a live shard process mid-load behind the router "
        "and require bit-identical replies, breaker recovery, a respawn, "
        "and zero /dev/shm leaks",
    )
    cha.add_argument(
        "--shards", type=int, default=3,
        help="shard count for --tier service (default 3)",
    )
    cha.add_argument(
        "--requests", type=int, default=30,
        help="requests to drive for --tier service (default 30)",
    )
    cha.add_argument(
        "--kill-after", type=int, default=None,
        help="kill the target shard before this request index "
        "(default: a third of the way in)",
    )
    cha.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    cha.add_argument(
        "--timeout", type=float, default=2.0,
        help="per-task deadline in seconds (default 2.0; crash/hang plans "
        "recover via deadline expiry, so this bounds each plan's cost)",
    )
    cha.add_argument(
        "--retries", type=int, default=2, help="retry budget per task (default 2)"
    )
    cha.add_argument(
        "--list", action="store_true", help="print the matrix and exit without running"
    )
    cha.set_defaults(func=cmd_chaos)

    srv = subs.add_parser(
        "serve",
        help="run the async batch-serving layer on a unix socket",
    )
    srv.add_argument(
        "--socket", metavar="PATH", help="unix-domain socket path to listen on"
    )
    srv.add_argument(
        "--selftest",
        action="store_true",
        help="serve a short in-process workload (batched + cached) and exit; "
        "with --shards N, spin a routed shard tier and check affinity instead",
    )
    srv.add_argument("--workers", type=int, default=2, help="pool workers (default 2)")
    srv.add_argument(
        "--shards", type=int, default=1,
        help="front N shard processes with a consistent-hash router on "
        "--socket (default 1 = a single plain server, no router)",
    )
    srv.add_argument(
        "--shard-id", type=int, default=None,
        help="identity of this server inside a sharded tier (set by the "
        "router when it spawns shards; echoed in ping/stats replies)",
    )
    srv.add_argument(
        "--drain-deadline", type=float, default=5.0,
        help="seconds graceful shutdown waits for in-flight requests "
        "before cancelling them (default 5.0)",
    )
    srv.add_argument(
        "--batch-size", type=int, default=8,
        help="max requests coalesced per dispatch (default 8)",
    )
    srv.add_argument(
        "--max-delay", type=float, default=0.002,
        help="batching window in seconds (default 0.002)",
    )
    srv.add_argument(
        "--queue-depth", type=int, default=64,
        help="admission bound; beyond it requests are shed (default 64)",
    )
    srv.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    srv.add_argument(
        "--cache-entries", type=int, default=256,
        help="result-cache entry bound (default 256)",
    )
    srv.add_argument(
        "--cache-bytes", type=int, default=64 << 20,
        help="result-cache byte bound (default 64 MiB)",
    )
    srv.add_argument(
        "--timeout", type=float, default=None,
        help="per-request deadline in seconds (default $REPRO_TASK_TIMEOUT or 300)",
    )
    srv.add_argument(
        "--retries", type=int, default=None,
        help="per-task retry budget (default $REPRO_TASK_RETRIES or 2)",
    )
    srv.add_argument(
        "--kernel", choices=("python", "numpy", "numba"), default=None,
        help="local-step kernel backend",
    )
    srv.add_argument(
        "--wire", choices=("ndjson", "shmem"), default="ndjson",
        help="wire mode for the --selftest socket round trip: ndjson = "
        "base64 pixels inline, shmem = zero-copy shared-memory descriptors",
    )
    srv.add_argument(
        "--fault-plan",
        metavar="PLAN.json",
        help="inject faults from a repro-faults/v1 plan (site svc:exec) so "
        "degraded serving can be exercised",
    )
    srv.add_argument(
        "--metrics-out",
        metavar="OUT.json",
        help="write a metrics snapshot (service:* counters) on shutdown",
    )
    srv.add_argument(
        "--trace-out",
        metavar="TRACE.json",
        help="export the request span tree as Chrome trace-event JSON on "
        "shutdown (also enables tracing for --selftest)",
    )
    srv.add_argument(
        "--no-metrics",
        action="store_true",
        help="disable the metrics registry (the 'metrics' control op will "
        "return an error)",
    )
    srv.add_argument(
        "--metrics-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="append a metrics snapshot to --metrics-series every SECONDS "
        "(default 0 = off)",
    )
    srv.add_argument(
        "--metrics-series",
        metavar="OUT.json",
        default="metrics_series.json",
        help="JSON time-series file for --metrics-interval "
        "(default metrics_series.json)",
    )
    srv.set_defaults(func=cmd_serve)

    top = subs.add_parser(
        "top",
        help="live terminal dashboard over a running server's stats + metrics",
    )
    top.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix-domain socket of the server to watch",
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh period in seconds (default 1.0)",
    )
    top.add_argument(
        "--count", type=int, default=0,
        help="number of frames to render, 0 = until interrupted (default 0)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (pipe-friendly)",
    )
    top.set_defaults(func=cmd_top)

    mach = subs.add_parser("machines", help="list machine models")
    mach.set_defaults(func=cmd_machines)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
