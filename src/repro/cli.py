"""Command-line entry point: run any experiment from the registry.

Usage::

    python -m repro list                  # show available experiments
    python -m repro run fig09             # regenerate one table/figure
    python -m repro run fig02 --seed 7
    python -m repro run all               # the whole battery
    python -m repro run all --jobs 4      # ... on a process pool
    python -m repro run all --json        # machine-readable metrics
    python -m repro run all --out bench/  # write BENCH_*.json files
    python -m repro cache clear           # drop the on-disk result cache

    # out-of-core streaming analytics (repro.stream):
    python -m repro stream synth big.txt.gz --packets 2000000 --seed 1
    python -m repro stream scan big.txt.gz --jobs 4 --bin-width 0.01
    python -m repro stream scan day1.txt day2.txt.gz   # merged in order

    # declarative scenario specs: flowsim, monitor, shaping, superpose,
    # synth, or any registry experiment (repro.scenario):
    python -m repro scenario validate examples/specs/*.toml
    python -m repro scenario run examples/specs/flowsim_line.toml --json
    python -m repro scenario run examples/specs/monitor_battery.toml --out bench/
    python -m repro scenario run examples/specs/shaping_smoke.toml --seed 3

    # live traffic replay & load generation (repro.replay):
    python -m repro replay loopback --packets 100000 --validate
    python -m repro replay loopback --packets 50000 --police-rate 30000
    python -m repro replay loopback --trace big.txt --speed 60 --flows 4
    python -m repro replay recv --port 9900 --capture cap.txt
    python -m repro replay send big.txt --port 9900 --speed 0
    python -m repro replay validate big.txt cap.txt

``-v`` on any subcommand turns on structured progress logging (per-
experiment start/finish with wall time and cache hit/miss, per-chunk scan
throughput); the default output stays byte-identical to the quiet path.

Each experiment prints the rows/series the paper's table or figure reports
(see EXPERIMENTS.md for the paper-vs-measured record).  Runs go through
:mod:`repro.engine`: results are cached on disk keyed on (experiment, seed,
source digest), so an unchanged experiment replays instantly; the per-
experiment footer always shows *compute* time, making a warm replay
byte-identical to the cold run that produced it.  ``--no-cache`` forces
recomputation, ``--jobs N`` spreads cache misses over N worker processes
(outputs are independent of N), and ``--spawn-seeds`` derives statistically
independent per-experiment streams from the master seed instead of handing
every experiment the same integer.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import repro
from repro.engine import ResultCache, run_experiments, write_bench_files
from repro.experiments import REGISTRY


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures of Paxson & Floyd (1994).",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {repro.__version__}",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true",
                        help="structured progress logging on stderr "
                             "(off by default)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments", parents=[common])
    cache = sub.add_parser("cache", help="manage the on-disk result cache",
                           parents=[common])
    cache.add_argument("action", choices=["clear", "dir"],
                       help="clear entries or print the cache directory")
    cache.add_argument("--cache-dir", default=None,
                       help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    run = sub.add_parser("run", help="run one experiment (or 'all')",
                         parents=[common])
    run.add_argument("experiment", help="registry name, e.g. fig09, or 'all'")
    run.add_argument("--seed", type=int, default=0, help="master RNG seed")
    run.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                     help="worker processes for cache misses (default 1)")
    run.add_argument("--json", action="store_true", dest="as_json",
                     help="print BENCH-shaped JSON metrics instead of tables")
    run.add_argument("--no-cache", action="store_true",
                     help="recompute everything; skip cache reads and writes")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="write per-experiment BENCH_*.json files into DIR")
    run.add_argument("--cache-dir", default=None,
                     help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    run.add_argument("--spawn-seeds", action="store_true",
                     help="independent per-experiment streams spawned from "
                          "the master seed (changes outputs vs. the legacy "
                          "same-integer-everywhere seeding)")

    stream = sub.add_parser(
        "stream", help="out-of-core streaming trace analytics"
    )
    stream_sub = stream.add_subparsers(dest="stream_command", required=True)
    scan = stream_sub.add_parser(
        "scan", help="sharded bounded-memory scan of a v1 trace file",
        parents=[common],
    )
    scan.add_argument("paths", nargs="+", metavar="path",
                      help="trace file(s) (.gz transparently handled); "
                           "several files are scanned separately and their "
                           "sketches merged in argument order")
    scan.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                      help="worker processes for chunk scans (default 1; "
                           "results are independent of N)")
    scan.add_argument("--bin-width", type=_positive_float, default=0.01,
                      metavar="SECONDS",
                      help="count-process bin width (default 0.01s, the "
                           "paper's aggregate-traffic resolution)")
    scan.add_argument("--chunk-mb", type=_positive_int, default=32,
                      metavar="MB", help="target shard chunk size (default 32)")
    scan.add_argument("--quantile-k", type=_positive_int, default=1024,
                      help="quantile sketch capacity (default 1024)")
    scan.add_argument("--tail-k", type=_positive_int, default=4096,
                      help="tail reservoir capacity (default 4096)")
    scan.add_argument("--tail-fraction", type=_positive_float, default=0.03,
                      help="upper tail fraction for the β fit (default 0.03)")
    scan.add_argument("--per-protocol", action="store_true",
                      help="also keep one summary per protocol")
    scan.add_argument("--json", action="store_true", dest="as_json",
                      help="print the BENCH-shaped scan metrics as JSON")
    scan.add_argument("--out", default=None, metavar="DIR",
                      help="write BENCH_stream_scan.json into DIR")
    synth = stream_sub.add_parser(
        "synth", help="generate a large synthetic packet trace out-of-core",
        parents=[common],
    )
    synth.add_argument("path", help="output file (.gz compresses on the fly)")
    synth.add_argument("--packets", type=_positive_int, required=True,
                       help="number of packet records to write")
    synth.add_argument("--seed", type=int, default=0, help="master RNG seed")
    synth.add_argument("--base", default="LBL PKT-1",
                       help="Table-II recipe per window (default 'LBL PKT-1')")
    synth.add_argument("--hours", type=_positive_float, default=2.0,
                       help="nominal trace span in hours (default 2)")
    synth.add_argument("--window-hours", type=_positive_float, default=0.25,
                       help="synthesis window granularity (default 0.25)")
    synth.add_argument("--scale", type=_positive_float, default=None,
                       help="traffic intensity multiplier (default: "
                            "auto-calibrated to hit --packets)")

    replay = sub.add_parser(
        "replay", help="live traffic replay & load generation"
    )
    replay_sub = replay.add_subparsers(dest="replay_command", required=True)

    pacing_common = argparse.ArgumentParser(add_help=False)
    pacing_common.add_argument(
        "--speed", type=_nonnegative_float, default=0.0, metavar="X",
        help="time-compression factor: 1 is real time, 60 is a minute per "
             "second, 0 (default) is as fast as possible")
    pacing_common.add_argument(
        "--rate-cap", type=_positive_float, default=None, metavar="PPS",
        help="token-bucket packet-rate ceiling (default: uncapped)")
    pacing_common.add_argument(
        "--bucket-depth", type=_positive_float, default=64.0, metavar="PKTS",
        help="token-bucket burst allowance in packets (default 64)")
    pacing_common.add_argument(
        "--flows", type=_positive_int, default=1, metavar="N",
        help="concurrent multiplexed flows, records routed by "
             "connection id (default 1)")
    pacing_common.add_argument(
        "--transport", choices=["tcp", "udp"], default="tcp",
        help="wire transport (default tcp)")

    source_common = argparse.ArgumentParser(add_help=False)
    source_common.add_argument(
        "--trace", default=None, metavar="PATH",
        help="replay a v1/gz packet trace file (out-of-core)")
    source_common.add_argument(
        "--packets", type=_positive_int, default=None, metavar="N",
        help="synthesize N packets live instead of reading a trace")
    source_common.add_argument(
        "--model", default="fulltel",
        help="synthesis model for --packets: fulltel, ftp, poisson, "
             "pareto, or mix (default fulltel)")
    source_common.add_argument(
        "--seed", type=int, default=0, help="synthesis RNG seed")
    source_common.add_argument(
        "--rate", type=_positive_float, default=None,
        help="synthesis arrival rate override (model-dependent)")

    collector_common = argparse.ArgumentParser(add_help=False)
    collector_common.add_argument(
        "--policy", choices=["block", "drop"], default="block",
        help="backpressure policy when the capture queue fills: block the "
             "sender (lossless, default) or drop records (lossy, counted)")
    collector_common.add_argument(
        "--queue-depth", type=_positive_int, default=256, metavar="BATCHES",
        help="bounded capture-queue depth (default 256)")

    loop = replay_sub.add_parser(
        "loopback",
        help="send through localhost and capture on the same process",
        parents=[common, pacing_common, source_common, collector_common],
    )
    loop.add_argument("--capture", default=None, metavar="PATH",
                      help="capture file (default: temp file, deleted)")
    loop.add_argument("--validate", action="store_true",
                      help="run the closed-loop statistical battery "
                           "(Poisson sessions, Pareto tail, variance-time) "
                           "on source vs. capture")
    loop.add_argument("--json", action="store_true", dest="as_json",
                      help="print BENCH-shaped replay metrics as JSON")
    loop.add_argument("--out", default=None, metavar="DIR",
                      help="write BENCH_replay.json into DIR")
    loop.add_argument("--police-rate", type=_positive_float, default=None,
                      metavar="BPS",
                      help="in-path token-bucket policer: byte rate; "
                           "non-conforming records are dropped before "
                           "they reach the wire")
    loop.add_argument("--police-burst", type=_positive_float, default=None,
                      metavar="BYTES",
                      help="policer bucket depth in bytes "
                           "(default: 0.25s of credit at --police-rate)")
    loop.add_argument("--shape-rate", type=_positive_float, default=None,
                      metavar="BPS",
                      help="in-path leaky-bucket shaper: byte rate; "
                           "record timestamps are re-paced losslessly")
    loop.add_argument("--shape-burst", type=_positive_float, default=None,
                      metavar="BYTES",
                      help="shaper bucket depth in bytes "
                           "(default: 0.25s of credit at --shape-rate)")

    send = replay_sub.add_parser(
        "send", help="replay a source to a remote collector",
        parents=[common, pacing_common, source_common],
    )
    send.add_argument("--host", default="127.0.0.1")
    send.add_argument("--port", type=_positive_int, required=True)
    send.add_argument("--json", action="store_true", dest="as_json",
                      help="print per-flow send metrics as JSON")

    recv = replay_sub.add_parser(
        "recv", help="collect replayed traffic into a capture file",
        parents=[common, collector_common],
    )
    recv.add_argument("--host", default="127.0.0.1")
    recv.add_argument("--port", type=_positive_int, default=0,
                      help="listen port (default: ephemeral, printed)")
    recv.add_argument("--transport", choices=["tcp", "udp"], default="tcp")
    recv.add_argument("--capture", required=True, metavar="PATH",
                      help="capture file to write")
    recv.add_argument("--json", action="store_true", dest="as_json",
                      help="print collector metrics as JSON")

    val = replay_sub.add_parser(
        "validate",
        help="statistically compare a capture against its source trace",
        parents=[common],
    )
    val.add_argument("source", help="source trace file")
    val.add_argument("capture", help="capture file from a replay run")
    val.add_argument("--json", action="store_true", dest="as_json",
                     help="print the validation report as JSON")

    scenario = sub.add_parser(
        "scenario", help="declarative TOML scenario specs"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command",
                                           required=True)
    scrun = scenario_sub.add_parser(
        "run", help="execute scenario spec file(s) through the cached engine",
        parents=[common],
    )
    scrun.add_argument("specs", nargs="+", metavar="spec.toml",
                       help="scenario spec file(s), executed in order")
    scrun.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                       help="shard workers (default 1; sketch-merge algebra "
                            "keeps results independent of N)")
    scrun.add_argument("--seed", type=int, default=None,
                       help="override the spec's [scenario].seed")
    scrun.add_argument("--json", action="store_true", dest="as_json",
                       help="print BENCH-shaped scenario payloads as JSON")
    scrun.add_argument("--out", default=None, metavar="DIR",
                       help="write per-scenario BENCH_scenario_*.json into DIR")
    scrun.add_argument("--no-cache", action="store_true",
                       help="recompute; skip cache reads and writes")
    scrun.add_argument("--cache-dir", default=None,
                       help="cache root (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro)")
    scval = scenario_sub.add_parser(
        "validate", help="strictly resolve spec file(s); print normalized form",
        parents=[common],
    )
    scval.add_argument("specs", nargs="+", metavar="spec.toml",
                       help="scenario spec file(s) to validate")
    return parser


def _print_runs(report, *, headers: bool = False) -> None:
    for run in report.runs:
        if headers:
            print(f"=== {run.name} ===")
        if run.ok:
            print(run.rendered)
            print(f"[{run.name}: {run.metrics.compute_time_s:.1f}s]")
        else:
            print(f"{run.name} failed: {run.metrics.error}", file=sys.stderr)
        if headers:
            print()


def _run_command(args) -> int:
    names = sorted(REGISTRY) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(f"unknown experiment {unknown[0]!r}; try 'list'", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    report = run_experiments(
        names,
        master_seed=args.seed,
        jobs=args.jobs,
        cache=cache,
        use_cache=not args.no_cache,
        derive_seeds=args.spawn_seeds,
    )
    summary = report.summary()
    if args.out:
        write_bench_files(summary, args.out)
    if args.as_json:
        print(json.dumps(summary, indent=2))
        for run in report.runs:
            if not run.ok:
                print(f"{run.name} failed: {run.metrics.error}",
                      file=sys.stderr)
    else:
        _print_runs(report, headers=args.experiment == "all")
    return 0 if report.ok else 1


def _stream_command(args) -> int:
    from repro.stream import ScanReport, SummaryConfig, scan_traces
    from repro.stream import write_stream_trace

    if args.stream_command == "synth":
        info = write_stream_trace(
            args.path,
            n_packets=args.packets,
            seed=args.seed,
            base=args.base,
            hours=args.hours,
            window_hours=args.window_hours,
            scale=args.scale,
        )
        print(
            f"wrote {info.n_packets:,d} packets to {info.path} "
            f"({info.file_bytes:,d} bytes, {info.duration:.1f}s span, "
            f"scale {info.scale:.3g}, {info.n_windows} windows)"
        )
        return 0
    report: ScanReport = scan_traces(
        args.paths,
        jobs=args.jobs,
        config=SummaryConfig(
            bin_width=args.bin_width,
            quantile_capacity=args.quantile_k,
            tail_capacity=args.tail_k,
        ),
        per_protocol=args.per_protocol,
        target_chunk_bytes=args.chunk_mb * 1024 * 1024,
    )
    if args.out:
        report.write_bench(args.out)
    if args.as_json:
        print(json.dumps(report.bench_payload(), indent=2))
    else:
        print(report.render(tail_fraction=args.tail_fraction))
    return 0


def _write_bench_json(payload: dict, out_dir: str, name: str) -> str:
    import os

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def _build_replay_source(args):
    """``--trace PATH`` (streamed from disk) or ``--packets N --model M``."""
    from repro.replay import model_help, synthesize_packets

    if args.trace is not None and args.packets is not None:
        raise SystemExit("--trace and --packets are mutually exclusive")
    if args.trace is not None:
        return args.trace
    if args.packets is None:
        raise SystemExit("one of --trace PATH or --packets N is required")
    try:
        return synthesize_packets(
            args.model, args.packets, seed=args.seed, rate=args.rate
        )
    except KeyError:
        raise SystemExit(
            f"unknown model {args.model!r}; available:\n{model_help()}"
        ) from None


def _replay_pacing(args):
    from repro.replay import PacingConfig

    return PacingConfig(
        speed=args.speed,
        rate_cap=args.rate_cap,
        bucket_depth=args.bucket_depth,
    )


def _loopback_element(args):
    """Optional in-path conditioning element from the loopback flags."""
    if args.police_rate is not None and args.shape_rate is not None:
        raise SystemExit("--police-rate and --shape-rate are mutually "
                         "exclusive (chain elements via the API)")
    from repro.shaping import LeakyBucketShaper, TokenBucketPolicer

    if args.police_rate is not None:
        burst = args.police_burst or 0.25 * args.police_rate
        return TokenBucketPolicer(args.police_rate, burst)
    if args.shape_rate is not None:
        burst = args.shape_burst or 0.25 * args.shape_rate
        return LeakyBucketShaper(args.shape_rate, burst)
    return None


def _replay_loopback_command(args) -> int:
    import os
    import tempfile

    from repro.replay import run_loopback

    source = _build_replay_source(args)
    capture = args.capture
    tmp_dir = None
    if capture is None:
        tmp_dir = tempfile.mkdtemp(prefix="repro-replay-")
        capture = os.path.join(tmp_dir, "capture.txt")
    try:
        result = run_loopback(
            source,
            capture_path=capture,
            pacing=_replay_pacing(args),
            flows=args.flows,
            transport=args.transport,
            policy=args.policy,
            queue_depth=args.queue_depth,
            validate=args.validate,
            element=_loopback_element(args),
        )
    finally:
        if tmp_dir is not None:
            import shutil

            shutil.rmtree(tmp_dir, ignore_errors=True)
    if args.out:
        _write_bench_json(result.bench_payload(), args.out,
                          "BENCH_replay.json")
    if args.as_json:
        print(json.dumps(result.bench_payload(), indent=2))
    else:
        print(result.render())
    ok = result.zero_loss if args.policy == "block" else True
    if args.validate and result.validation is not None:
        ok = ok and result.validation.ok
    return 0 if ok else 1


def _replay_send_command(args) -> int:
    import asyncio

    from repro.replay import (
        file_source,
        merged_pacing,
        replay_source,
        trace_source,
    )
    from repro.traces.trace import PacketTrace

    source = _build_replay_source(args)
    batches = (
        trace_source(source) if isinstance(source, PacketTrace)
        else file_source(source)
    )
    results = asyncio.run(replay_source(
        batches, args.host, args.port,
        flows=args.flows,
        pacing=_replay_pacing(args),
        transport=args.transport,
    ))
    payload = {
        "n_flows": len(results),
        "n_sent": sum(f.n_packets for f in results),
        "wire_bytes": sum(f.wire_bytes for f in results),
        "pacing": merged_pacing(results),
        "flows": [f.payload() for f in results],
    }
    if args.as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"sent {payload['n_sent']:,d} packets "
              f"({payload['wire_bytes']:,d} wire bytes) over "
              f"{payload['n_flows']} {args.transport.upper()} flow(s) "
              f"to {args.host}:{args.port}")
        pacing = payload["pacing"]
        if pacing.get("n_paced"):
            print(f"pacing error p50={pacing['error_p50_s'] * 1e3:.3f}ms "
                  f"p99={pacing['error_p99_s'] * 1e3:.3f}ms "
                  f"({pacing['n_late']:,d} late)")
    return 0


def _replay_recv_command(args) -> int:
    import asyncio

    from repro.replay import Collector

    async def _serve():
        collector = Collector(
            capture_path=args.capture,
            policy=args.policy,
            queue_depth=args.queue_depth,
        )
        port = await collector.start(
            host=args.host, port=args.port, transport=args.transport
        )
        print(f"listening on {args.host}:{port} ({args.transport}); "
              f"capture -> {args.capture}", flush=True)
        # Wait for the first sender, then drain to completion and stop.
        while not collector.flows:
            await asyncio.sleep(0.05)
        return await collector.stop()

    report = asyncio.run(_serve())
    if args.as_json:
        print(json.dumps(report.payload(), indent=2))
    else:
        print(f"captured {report.n_packets:,d} packets "
              f"({report.trace_bytes:,d} trace bytes) from "
              f"{len(report.flows)} flow(s); "
              f"dropped {report.dropped_records:,d}")
    return 0 if report.dropped_records == 0 else 1


def _replay_validate_command(args) -> int:
    from repro.replay import validate_replay

    report = validate_replay(args.source, args.capture)
    if args.as_json:
        print(json.dumps(report.payload(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _replay_command(args) -> int:
    handler = {
        "loopback": _replay_loopback_command,
        "send": _replay_send_command,
        "recv": _replay_recv_command,
        "validate": _replay_validate_command,
    }[args.replay_command]
    return handler(args)


def _scenario_command(args) -> int:
    from repro.scenario import SpecError, dump_spec, load_spec

    if args.scenario_command == "validate":
        status = 0
        for path in args.specs:
            try:
                text = dump_spec(load_spec(path))
            except (OSError, SpecError) as exc:
                print(f"{path}: {exc}", file=sys.stderr)
                status = 2
                continue
            print(f"# {path}: valid")
            print(text)
        return status

    from repro.scenario import run_spec_cached

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    failures = 0
    for path in args.specs:
        try:
            doc = load_spec(path)
        except (OSError, SpecError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 2
        try:
            outcome, status = run_spec_cached(
                doc, jobs=args.jobs, seed=args.seed,
                cache=cache, use_cache=not args.no_cache,
            )
        except SpecError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # noqa: BLE001 - report, keep batch going
            print(f"{path}: {outcome_name(doc)} failed: {exc}",
                  file=sys.stderr)
            failures += 1
            continue
        if args.out:
            _write_bench_json(outcome.payload(), args.out,
                              f"BENCH_scenario_{outcome.name}.json")
        if args.as_json:
            print(json.dumps(outcome.payload(), indent=2))
        else:
            print(outcome.rendered)
            print(f"[{outcome.name} ({outcome.kind}): "
                  f"{outcome.compute_time_s:.1f}s, cache {status}]")
    return 1 if failures else 0


def outcome_name(doc: dict) -> str:
    scenario = doc.get("scenario")
    if isinstance(scenario, dict):
        return str(scenario.get("name", "<unnamed>"))
    return "<unnamed>"


#: ``repro list`` groups, matched against the registry entry's module
#: basename.  Every family with a spec kind carries the [spec] marker:
#: those experiments are expressible as ``repro scenario run`` documents.
_LIST_GROUPS: tuple[tuple[str, str], ...] = (
    ("fig", "paper tables & figures"),
    ("tables", "paper tables & figures"),
    ("appendix_b", "appendices"),
    ("appendices", "appendices"),
    ("implications", "modeling implications"),
    ("sessions", "session structure"),
    ("telnet_scales", "session structure"),
    ("flowsim_exp", "subsystem scenarios"),
    ("monitor_exp", "subsystem scenarios"),
    ("shaping_exp", "subsystem scenarios"),
    ("superpose_exp", "subsystem scenarios"),
)
_SPEC_KINDS = {"flowsim_exp": "flowsim", "monitor_exp": "monitor",
               "shaping_exp": "shaping", "superpose_exp": "superpose"}


def _list_command() -> int:
    from repro.experiments import registry_modules

    modules = registry_modules()
    groups: dict[str, list[str]] = {}
    for name in sorted(REGISTRY):
        base = modules[name].rpartition(".")[2]
        group = next((g for prefix, g in _LIST_GROUPS
                      if base.startswith(prefix)), "other experiments")
        groups.setdefault(group, []).append(name)
    width = max(len(name) for name in REGISTRY) + 2
    order = ["paper tables & figures", "appendices",
             "modeling implications", "session structure",
             "subsystem scenarios", "other experiments"]
    first = True
    for group in order:
        if group not in groups:
            continue
        if not first:
            print()
        first = False
        print(f"# {group}")
        for name in groups[group]:
            doc = (REGISTRY[name].__doc__ or "").strip().splitlines()
            summary = doc[0].strip() if doc and doc[0].strip() else (
                "(no description)"
            )
            base = modules[name].rpartition(".")[2]
            if base in _SPEC_KINDS:
                summary = f"[spec:{_SPEC_KINDS[base]}] {summary}"
            print(f"{name:<{width}} {summary}")
    print()
    print('# every entry also runs as a kind="experiment" scenario spec; '
          "see examples/specs/")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "verbose", False):
        logging.basicConfig(
            level=logging.INFO,
            format="%(asctime)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
    if args.command == "stream":
        return _stream_command(args)
    if args.command == "replay":
        return _replay_command(args)
    if args.command == "scenario":
        return _scenario_command(args)
    if args.command == "list":
        return _list_command()
    if args.command == "cache":
        cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
        if args.action == "dir":
            print(cache.root)
        else:
            print(f"removed {cache.clear()} cached results from {cache.root}")
        return 0
    return _run_command(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
