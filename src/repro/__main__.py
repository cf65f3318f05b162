"""Command-line interface: ``python -m repro <command>``.

Every subcommand is a thin argparse -> :class:`ScenarioSpec` adapter
over the :func:`repro.run` facade: flags build a declarative scenario,
``--config scenario.json`` loads one from disk instead, and ``--json``
prints the structured :class:`ScenarioResult` rather than the rendered
text.  ``python -m repro serve --config spec.json --json`` and
``repro.run(ServeScenario(...))`` are the same computation.

Commands:

* ``profile <app>``     -- compile any registered workload (Table 1 six
  or a transformer extension) and print its cycle breakdown (Table 3
  style);
* ``experiment <id>``   -- regenerate one table/figure (e.g. ``table6``);
  ``--spec`` introspects its default scenario;
* ``report [path]``     -- regenerate every experiment into a markdown
  report (defaults to EXPERIMENTS.md); failures are isolated per
  experiment, ``--jobs N`` runs across processes, ``--only`` subsets;
* ``serve``             -- run the fleet serving simulator: sweep offered
  load on N replicas under a p99 SLO and print the p99-vs-throughput
  operating curve (the Table 4 mechanism, generalized);
* ``datacenter``        -- energy-aware capacity planning: provision the
  cheapest SLO-feasible fleet per platform under diurnal traffic, price
  it (Watts, joules/request, $/Mreq), and race autoscaling policies;
* ``globe``             -- planet-scale multi-region serving: route each
  region's phase-offset diurnal demand across the world's clusters and
  price it with the hybrid queueing/event backend (millions of requests
  in seconds; ``--backend exact`` event-simulates small traces);
* ``llm``               -- iteration-level transformer decode serving:
  continuous vs fixed batching under the KV-cache capacity budget,
  optionally disaggregated into prefill/decode pools with per-pool
  autoscaling, emitting tokens/sec-per-chip vs p99 time-per-token;
* ``trace <command>``   -- run any subcommand with span tracing on and
  write a Chrome trace-event JSON (open it in Perfetto), defaulting to
  ``trace.json`` when the inner command sets no ``--trace-out``;
* ``list``              -- list workloads, experiment ids, and scenario
  kinds (``--json`` for the introspectable registry).

``profile``/``report``/``serve``/``datacenter``/``globe``/``llm``
additionally take
``--trace-out TRACE.json`` (Chrome trace export), ``--trace-jsonl``
(one span object per line), and ``--profile`` (span-time summary table
on stderr); ``REPRO_TRACE_OUT=trace.json`` in the environment does the
same without touching the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: ``serve`` flag defaults, resolved after parsing so the CLI can tell
#: "flag left alone" from "flag explicitly set" (the --trace warning).
_SERVE_DEFAULT_TRAFFIC = "poisson"
_SERVE_DEFAULT_LOADS = "0.3,0.5,0.7,0.8,0.9,0.95"


def _parse_loads(text: str) -> tuple[float, ...]:
    """The comma-separated ``--loads`` fractions; blank entries are skipped."""
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(
            f"--loads expects comma-separated numbers, got {text!r}"
        ) from None


def _print_result(result, as_json: bool) -> None:
    """Shared result printing: notes to stderr, body (or JSON) to stdout."""
    if as_json:
        print(json.dumps(result.to_dict(), indent=2))
        return
    for note in result.notes:
        print(note, file=sys.stderr)
    rendered = result.render()
    if rendered:
        print(rendered)


def _load_config(path: str, command: str, kinds: tuple[str, ...]):
    """Load a scenario config and check it fits the invoking subcommand."""
    from repro.api import SpecError, SweepSpec, load_scenario

    scenario = load_scenario(path)
    kind = scenario.base.kind if isinstance(scenario, SweepSpec) else scenario.kind
    if kind not in kinds:
        raise SpecError(
            f"{path} holds a {kind!r} scenario; run it with "
            f"`python -m repro {kind} --config {path}`"
        )
    return scenario


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.analysis import EXPERIMENTS
    from repro.api.spec import scenario_kinds
    from repro.nn.workloads import EXTENSION_WORKLOAD_NAMES, PAPER_WORKLOAD_NAMES

    if args.json:
        print(json.dumps({
            "workloads": list(PAPER_WORKLOAD_NAMES) + list(EXTENSION_WORKLOAD_NAMES),
            "paper_workloads": list(PAPER_WORKLOAD_NAMES),
            "extension_workloads": list(EXTENSION_WORKLOAD_NAMES),
            "experiments": {
                exp_id: exp.describe() for exp_id, exp in EXPERIMENTS.items()
            },
            "scenario_kinds": list(scenario_kinds()),
        }, indent=2))
        return 0
    print("paper workloads (Table 1): " + ", ".join(PAPER_WORKLOAD_NAMES))
    print("extension workloads:       " + ", ".join(EXTENSION_WORKLOAD_NAMES)
          + "  (see docs/WORKLOADS.md)")
    print("experiments: " + ", ".join(EXPERIMENTS))
    print("scenarios:  " + ", ".join(scenario_kinds())
          + "  (see `--config`/`--json` on profile/serve/datacenter)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.api import ProfileScenario, SpecError, run

    try:
        if args.config:
            scenario = _load_config(args.config, "profile", ("profile",))
        elif args.app is not None:
            scenario = ProfileScenario(
                workload=args.app,
                weight_bits=args.weight_bits,
                activation_bits=args.activation_bits,
            )
        else:
            print("profile: give a workload (see `python -m repro list`) "
                  "or --config scenario.json", file=sys.stderr)
            return 2
        result = run(scenario)
    except (SpecError, OSError) as exc:
        print(f"profile: {exc}", file=sys.stderr)
        return 2
    _print_result(result, args.json)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis import EXPERIMENTS

    exp = EXPERIMENTS.get(args.exp_id)
    if exp is None:
        print(f"unknown experiment {args.exp_id!r}; try: "
              + ", ".join(EXPERIMENTS), file=sys.stderr)
        return 2
    if args.spec:
        print(json.dumps(exp.describe(), indent=2))
        return 0
    result = exp()
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import report_cli

    return report_cli(args.output, only=args.only, jobs=args.jobs)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Re-parse the wrapped command with tracing forced on.

    ``repro trace serve --workload mlp0`` == ``repro serve --workload
    mlp0 --trace-out trace.json``; an explicit ``--trace-out`` after the
    inner subcommand overrides the default path.
    """
    rest = [token for token in args.rest if token != "--"]
    if not rest:
        print("trace: give a command to trace, e.g. "
              "`python -m repro trace serve --workload mlp0`", file=sys.stderr)
        return 2
    if rest[0] == "trace":
        print("trace: cannot nest trace inside trace", file=sys.stderr)
        return 2
    inner = build_parser().parse_args(rest)
    if getattr(inner, "trace_out", None) is None:
        inner.trace_out = args.trace_out
    return _with_obs(inner)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import ServeScenario, SpecError, run

    try:
        if args.config:
            scenario = _load_config(args.config, "serve", ("serve",))
        else:
            if args.trace and (args.traffic is not None or args.loads is not None):
                ignored = [
                    flag for flag, value in
                    (("--traffic", args.traffic), ("--loads", args.loads))
                    if value is not None
                ]
                print(f"serve: --trace replays recorded arrivals; ignoring "
                      f"{'/'.join(ignored)}", file=sys.stderr)
            scenario = ServeScenario(
                workload=args.workload,
                platform=args.platform,
                replicas=args.replicas,
                slo_ms=args.slo_ms,
                policy=args.policy,
                batch=args.batch,
                timeout_ms=args.timeout_ms,
                router=args.router,
                loads=_parse_loads(args.loads or _SERVE_DEFAULT_LOADS),
                requests=args.requests,
                seed=args.seed,
                traffic=args.traffic or _SERVE_DEFAULT_TRAFFIC,
                diurnal_swing=args.diurnal_swing,
                diurnal_period_s=args.diurnal_period_s,
                trace=args.trace,
            )
        result = run(scenario)
    except (SpecError, ValueError, OSError) as exc:
        # Bad loads/SLO/trace inputs carry their own message; surface it
        # as a CLI error, not a traceback.
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    _print_result(result, args.json)
    return 0


def _cmd_datacenter(args: argparse.Namespace) -> int:
    from repro.api import DatacenterScenario, SpecError, run

    try:
        if args.config:
            scenario = _load_config(args.config, "datacenter", ("datacenter",))
        else:
            scenario = DatacenterScenario(
                workload=args.workload,
                slo_ms=args.slo_ms,
                platforms=tuple(
                    k.strip() for k in args.platforms.split(",") if k.strip()
                ),
                rate=args.rate,
                swing=args.swing,
                requests=args.requests,
                max_replicas=args.max_replicas,
                router=args.router,
                seed=args.seed,
                usd_per_kwh=args.usd_per_kwh,
                pue=args.pue,
                capex_per_watt=args.capex_per_watt,
            )
        result = run(scenario)
    except (SpecError, ValueError, OSError) as exc:
        print(f"datacenter: {exc}", file=sys.stderr)
        return 2
    _print_result(result, args.json)
    return 0


def _cmd_globe(args: argparse.Namespace) -> int:
    from repro.api import GlobalScenario, SpecError, run

    try:
        if args.config:
            scenario = _load_config(args.config, "globe", ("globe",))
        else:
            import dataclasses

            from repro.api.spec import DEFAULT_REGIONS

            regions = DEFAULT_REGIONS
            if args.rate is not None:
                regions = tuple(
                    dataclasses.replace(r, rate_rps=args.rate)
                    for r in DEFAULT_REGIONS
                )
            scenario = GlobalScenario(
                workload=args.workload,
                slo_ms=args.slo_ms,
                policy=args.policy,
                batch=args.batch,
                timeout_ms=args.timeout_ms,
                router=args.router,
                routing=args.routing,
                regions=regions,
                period_s=args.period_s,
                duration_s=args.duration_s,
                bins=args.bins,
                backend=args.backend,
                spill_threshold=args.spill_threshold,
                default_rtt_ms=args.default_rtt_ms,
                event_requests=args.event_requests,
                seed=args.seed,
            )
        result = run(scenario)
    except (SpecError, ValueError, OSError) as exc:
        print(f"globe: {exc}", file=sys.stderr)
        return 2
    _print_result(result, args.json)
    return 0


def _cmd_llm(args: argparse.Namespace) -> int:
    from repro.api import LLMServeScenario, SpecError, run

    try:
        if args.config:
            scenario = _load_config(args.config, "llm", ("llm",))
        else:
            scenario = LLMServeScenario(
                workload=args.workload,
                scheduler=args.scheduler,
                mode=args.mode,
                chips=args.chips,
                prefill_chips=args.prefill_chips,
                max_batch=args.max_batch,
                prefill_batch=args.prefill_batch,
                prompt_tokens=args.prompt_tokens,
                decode_tokens=args.decode_tokens,
                requests=args.requests,
                loads=_parse_loads(args.loads),
                slo_tpot_ms=args.slo_tpot_ms,
                slo_ttft_ms=args.slo_ttft_ms,
                transfer_ms=args.transfer_ms,
                link_gbps=args.link_gbps,
                autoscale=args.autoscale,
                seed=args.seed,
            )
        result = run(scenario)
    except (SpecError, ValueError, OSError) as exc:
        print(f"llm: {exc}", file=sys.stderr)
        return 2
    _print_result(result, args.json)
    return 0


def _add_scenario_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, metavar="SCENARIO.json",
                        help="load the scenario from a JSON config file "
                             "(other scenario flags are ignored)")
    parser.add_argument("--json", action="store_true",
                        help="print the structured ScenarioResult as JSON")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="TRACE.json",
                        help="record spans and write a Chrome trace-event "
                             "JSON (open in Perfetto / chrome://tracing)")
    parser.add_argument("--trace-jsonl", default=None, metavar="SPANS.jsonl",
                        help="also write the spans as JSON lines")
    parser.add_argument("--profile", action="store_true",
                        help="print a span-time summary table to stderr "
                             "after the run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TPU ISCA-2017 reproduction: simulate, analyze, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="list workloads, experiments, "
                                         "and scenario kinds")
    lister.add_argument("--json", action="store_true",
                        help="dump the registries (with default specs) as JSON")
    lister.set_defaults(fn=_cmd_list)

    profile = sub.add_parser("profile", help="simulate one workload")
    profile.add_argument("app", nargs="?", default=None,
                         help="a workload name, e.g. mlp0|lstm1|cnn0|bert_s|gpt_s "
                              "(`repro list` shows all)")
    profile.add_argument("--weight-bits", type=int, default=8, choices=(8, 16))
    profile.add_argument("--activation-bits", type=int, default=8, choices=(8, 16))
    _add_scenario_io(profile)
    _add_obs_flags(profile)
    profile.set_defaults(fn=_cmd_profile)

    experiment = sub.add_parser("experiment", help="regenerate one table/figure")
    experiment.add_argument("exp_id", help="e.g. table6, figure9, tpu_prime")
    experiment.add_argument("--spec", action="store_true",
                            help="print the experiment's default scenario "
                                 "spec instead of running it")
    experiment.add_argument("--json", action="store_true",
                            help="print the ExperimentResult (text + "
                                 "measured + paper dicts) as JSON")
    experiment.set_defaults(fn=_cmd_experiment)

    report = sub.add_parser("report", help="regenerate the full report")
    report.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    report.add_argument("--only", default=None, metavar="IDS",
                        help="comma-separated experiment ids (default: all)")
    report.add_argument("--jobs", type=int, default=1,
                        help="run experiments across N processes (default 1; "
                             "traced spans stay in-process, so trace with 1)")
    _add_obs_flags(report)
    report.set_defaults(fn=_cmd_report)

    serve = sub.add_parser(
        "serve",
        help="simulate a serving fleet under a p99 SLO (Table 4 at scale)",
        description="Event-driven fleet serving simulation: sweep offered "
        "load across N replicas and print the p99-vs-throughput operating "
        "curve plus the max sustainable throughput under the SLO.",
    )
    serve.add_argument("--workload", default="mlp0",
                       help="any workload from `repro list`, e.g. mlp0 or "
                            "bert_s (default mlp0)")
    serve.add_argument("--platform", default="tpu", choices=("cpu", "gpu", "tpu"))
    serve.add_argument("--replicas", type=int, default=1,
                       help="number of accelerator replicas (default 1)")
    serve.add_argument("--slo-ms", type=float, default=7.0,
                       help="p99 response-time limit in ms (paper: 7)")
    serve.add_argument("--policy", default="adaptive",
                       choices=("adaptive", "fixed", "timeout"),
                       help="batching policy (default: SLO-adaptive)")
    serve.add_argument("--batch", type=int, default=None,
                       help="batch size for fixed/timeout policies")
    serve.add_argument("--timeout-ms", type=float, default=None,
                       help="batch collection timeout for the timeout policy")
    serve.add_argument("--router", default="round_robin",
                       choices=("round_robin", "jsq"))
    serve.add_argument("--loads", default=None,
                       help="offered loads as fractions of fleet capacity "
                            f"(default {_SERVE_DEFAULT_LOADS})")
    serve.add_argument("--requests", type=int, default=20000,
                       help="requests simulated per operating point")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--traffic", default=None,
                       choices=("poisson", "diurnal", "uniform"),
                       help="arrival process for the load sweep "
                            f"(default {_SERVE_DEFAULT_TRAFFIC})")
    serve.add_argument("--diurnal-swing", type=float, default=0.5,
                       help="diurnal load swing in [0, 1) around the mean "
                            "(default 0.5)")
    serve.add_argument("--diurnal-period-s", type=float, default=None,
                       help="diurnal period in seconds (default: one full "
                            "cycle per operating point)")
    serve.add_argument("--trace", default=None,
                       help="replay an arrival trace file (one timestamp/line) "
                            "instead of sweeping Poisson loads")
    _add_scenario_io(serve)
    _add_obs_flags(serve)
    serve.set_defaults(fn=_cmd_serve)

    datacenter = sub.add_parser(
        "datacenter",
        help="provision, autoscale, and price an SLO-bound fleet "
        "(Figure 10's energy penalty at datacenter load)",
        description="Energy-aware capacity planning: find the smallest "
        "fleet of each platform meeting the p99 SLO under diurnal traffic, "
        "integrate its busy/idle timeline through the calibrated power "
        "curves (average vs peak Watts, energy per request), price it with "
        "a CapEx+energy TCO model, and compare static, reactive, and "
        "predictive autoscaling on the largest fleet.",
    )
    datacenter.add_argument("--workload", default="mlp0",
                            help="any workload from `repro list` (default mlp0)")
    datacenter.add_argument("--slo-ms", type=float, default=7.0,
                            help="p99 response-time limit in ms (paper: 7)")
    datacenter.add_argument("--platforms", default="cpu,gpu,tpu",
                            help="comma-separated subset of cpu,gpu,tpu")
    datacenter.add_argument("--rate", type=float, default=20000.0,
                            help="mean offered load, requests/s (default 20000)")
    datacenter.add_argument("--swing", type=float, default=0.6,
                            help="diurnal swing in [0, 1) (default 0.6)")
    datacenter.add_argument("--requests", type=int, default=20000,
                            help="requests simulated (one diurnal cycle)")
    datacenter.add_argument("--max-replicas", type=int, default=32,
                            help="provisioning search ceiling per platform")
    datacenter.add_argument("--router", default="jsq",
                            choices=("round_robin", "jsq"))
    datacenter.add_argument("--seed", type=int, default=0)
    datacenter.add_argument("--usd-per-kwh", type=float, default=0.10,
                            help="electricity price (default 0.10)")
    datacenter.add_argument("--pue", type=float, default=1.5,
                            help="power usage effectiveness (default 1.5)")
    datacenter.add_argument("--capex-per-watt", type=float, default=12.0,
                            help="CapEx per provisioned TDP Watt (default 12)")
    _add_scenario_io(datacenter)
    _add_obs_flags(datacenter)
    datacenter.set_defaults(fn=_cmd_datacenter)

    globe = sub.add_parser(
        "globe",
        help="planet-scale multi-region serving on the hybrid "
        "queueing/event backend",
        description="Simulate a multi-region fleet: phase-offset diurnal "
        "demand per region, a global routing policy (latency, cost, or "
        "spillover-on-saturation), and a hybrid backend that prices each "
        "(cluster, time-bin) cell with closed-form queueing, the exact "
        "event engine, or a fluid backlog depending on its distance from "
        "the SLO knee.  The default world is three regions a third of a "
        "cycle apart; region/cluster trees beyond the defaults come from "
        "--config.",
    )
    globe.add_argument("--workload", default="mlp0",
                       help="any workload from `repro list` (default mlp0)")
    globe.add_argument("--slo-ms", type=float, default=7.0,
                       help="p99 response-time limit in ms (paper: 7)")
    globe.add_argument("--policy", default="adaptive",
                       choices=("adaptive", "fixed", "timeout"),
                       help="cluster batching policy (default: SLO-adaptive)")
    globe.add_argument("--batch", type=int, default=None,
                       help="batch size for fixed/timeout policies")
    globe.add_argument("--timeout-ms", type=float, default=None,
                       help="batch collection timeout for the timeout policy")
    globe.add_argument("--router", default="round_robin",
                       choices=("round_robin", "jsq"))
    globe.add_argument("--routing", default="latency",
                       choices=("latency", "cost", "spillover"),
                       help="global routing policy (default latency)")
    globe.add_argument("--rate", type=float, default=None,
                       help="override every default region's mean req/s "
                            "(default world: 3 x 120000)")
    globe.add_argument("--period-s", type=float, default=120.0,
                       help="diurnal period in seconds (default 120)")
    globe.add_argument("--duration-s", type=float, default=120.0,
                       help="simulated horizon in seconds (default 120)")
    globe.add_argument("--bins", type=int, default=24,
                       help="time bins over the horizon (default 24)")
    globe.add_argument("--backend", default="hybrid",
                       choices=("hybrid", "exact"),
                       help="hybrid prices rates; exact event-simulates "
                            "every request (small traces only)")
    globe.add_argument("--spill-threshold", type=float, default=0.9,
                       help="fill clusters to this utilization before "
                            "spilling demand (default 0.9)")
    globe.add_argument("--default-rtt-ms", type=float, default=80.0,
                       help="inter-region round trip in ms (default 80)")
    globe.add_argument("--event-requests", type=int, default=4000,
                       help="trace length of each memoized event-regime "
                            "sample (default 4000)")
    globe.add_argument("--seed", type=int, default=0)
    _add_scenario_io(globe)
    _add_obs_flags(globe)
    globe.set_defaults(fn=_cmd_globe)

    llm = sub.add_parser(
        "llm",
        help="iteration-level (continuous) transformer decode serving "
             "under the KV-cache capacity budget",
        description="Sweep offered load over an iteration-level decode "
        "fleet: requests join/leave the running batch per token, the KV "
        "cache is charged against the Unified Buffer, and a full cache "
        "evicts to the head of the queue.  --scheduler fixed is the "
        "request-level gang baseline; --mode disaggregated splits "
        "prefill and decode pools with a KV transfer hop.",
    )
    llm.add_argument("--workload", default="gpt_s",
                     help="transformer extension workload (default gpt_s)")
    llm.add_argument("--scheduler", default="continuous",
                     choices=["continuous", "fixed"],
                     help="iteration-level vs request-level gang batching")
    llm.add_argument("--mode", default="aggregated",
                     choices=["aggregated", "disaggregated"],
                     help="one pool, or split prefill/decode pools")
    llm.add_argument("--chips", type=int, default=2,
                     help="decode-pool chips (the whole fleet when "
                          "aggregated; default 2)")
    llm.add_argument("--prefill-chips", type=int, default=1,
                     help="prefill-pool chips in disaggregated mode")
    llm.add_argument("--max-batch", type=int, default=32,
                     help="decode batch-slot cap per chip (default 32)")
    llm.add_argument("--prefill-batch", type=int, default=8,
                     help="prompts per batched prefill pass (default 8)")
    llm.add_argument("--prompt-tokens", type=int, default=96,
                     help="mean prompt length (default 96)")
    llm.add_argument("--decode-tokens", type=int, default=48,
                     help="mean generated length (default 48)")
    llm.add_argument("--requests", type=int, default=2000,
                     help="requests per load point (default 2000)")
    llm.add_argument("--loads", default="0.3,0.5,0.7,0.85,0.95",
                     help="offered loads as fractions of ideal decode "
                          "capacity (default 0.3,0.5,0.7,0.85,0.95)")
    llm.add_argument("--slo-tpot-ms", type=float, default=1.5,
                     help="p99 time-per-token SLO in ms (default 1.5)")
    llm.add_argument("--slo-ttft-ms", type=float, default=100.0,
                     help="time-to-first-token SLO in ms (default 100)")
    llm.add_argument("--transfer-ms", type=float, default=0.2,
                     help="prefill->decode KV hop RTT in ms (default 0.2)")
    llm.add_argument("--link-gbps", type=float, default=100.0,
                     help="pool interconnect bandwidth (default 100 Gb/s)")
    llm.add_argument("--autoscale", action="store_true",
                     help="per-pool reactive autoscaling "
                          "(disaggregated mode only)")
    llm.add_argument("--seed", type=int, default=0)
    _add_scenario_io(llm)
    _add_obs_flags(llm)
    llm.set_defaults(fn=_cmd_llm)

    trace = sub.add_parser(
        "trace",
        help="run any subcommand with span tracing on "
             "(writes a Perfetto-loadable trace.json)",
        description="Wrapper: `repro trace serve --workload mlp0` runs the "
        "serve command with tracing enabled and writes the spans as Chrome "
        "trace-event JSON.  Put trace flags after the inner subcommand.",
    )
    trace.add_argument("--trace-out", default="trace.json",
                       help="where the wrapped command writes its trace "
                            "(default trace.json)")
    trace.add_argument("rest", nargs=argparse.REMAINDER,
                       help="the command to trace, with its own flags")
    trace.set_defaults(fn=_cmd_trace)
    return parser


def _with_obs(args: argparse.Namespace) -> int:
    """Dispatch a parsed command, honoring its observability flags.

    Enables the tracer (and, for ``--profile``, the metrics registry)
    around the command, then exports: Chrome trace JSON to
    ``--trace-out`` (or ``REPRO_TRACE_OUT``), JSONL to ``--trace-jsonl``,
    and the span-time summary table to stderr for ``--profile``.
    """
    from repro import obs

    if args.command == "trace":  # the wrapper re-dispatches its inner command
        return args.fn(args)
    trace_out = getattr(args, "trace_out", None)
    if trace_out is None:
        trace_out = os.environ.get("REPRO_TRACE_OUT") or None
    trace_jsonl = getattr(args, "trace_jsonl", None)
    profiling = getattr(args, "profile", False)
    if not (trace_out or trace_jsonl or profiling):
        return args.fn(args)

    previous_trace = obs.TRACER.enabled
    previous_metrics = obs.REGISTRY.enabled
    obs.TRACER.clear()
    obs.TRACER.enabled = True
    if profiling:
        obs.REGISTRY.enabled = True
    try:
        code = args.fn(args)
    finally:
        obs.TRACER.enabled = previous_trace
        obs.REGISTRY.enabled = previous_metrics
        if trace_out:
            n = obs.TRACER.write_chrome(trace_out)
            print(f"wrote {trace_out} ({n} spans); load it in "
                  f"https://ui.perfetto.dev", file=sys.stderr)
        if trace_jsonl:
            obs.TRACER.write_jsonl(trace_jsonl)
            print(f"wrote {trace_jsonl}", file=sys.stderr)
        if profiling:
            print(obs.span_summary(obs.TRACER.snapshot()).render(),
                  file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _with_obs(args)


if __name__ == "__main__":
    raise SystemExit(main())
