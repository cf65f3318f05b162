"""Command-line interface: ``python -m repro <command>``.

Every scenario subcommand is one argparse -> :class:`ScenarioSpec`
adapter over the :func:`repro.run` facade.  Its flags are derived from
the spec's flat fields (``slo_ms`` -> ``--slo-ms``, help text from the
field metadata, defaults from the spec alone); ``--config
scenario.json`` loads the whole scenario from disk instead (so it takes
no scenario flags, and it is the only way to set the globe's nested
regions and RTT overrides), and ``--json`` prints the structured
:class:`ScenarioResult` rather than the rendered text.  ``python -m
repro serve --config spec.json --json`` and
``repro.run(ServeScenario(...))`` are the same computation.

Commands:

* ``profile <app>``, ``serve``, ``datacenter``, ``globe``, ``llm`` --
  run one scenario each; ``<command> --help`` prints the spec's
  docstring and one flag per flat field;
* ``experiment <id>``   -- regenerate one table/figure (e.g. ``table6``);
  ``--spec`` introspects its default scenario;
* ``report [path]``     -- regenerate every experiment into a markdown
  report (defaults to EXPERIMENTS.md); failures are isolated per
  experiment, ``--jobs N`` runs across processes, ``--only`` subsets;
* ``trace <command>``   -- run any subcommand with span tracing on and
  write a Chrome trace-event JSON (open it in Perfetto), defaulting to
  ``trace.json`` when the inner command sets no ``--trace-out``;
* ``list``              -- list workloads, experiment ids, and scenario
  kinds (``--json`` for the introspectable registry).

``report`` and the scenario commands additionally take
``--trace-out TRACE.json`` (Chrome trace export), ``--trace-jsonl``
(one span object per line), and ``--profile`` (span-time summary table
on stderr); ``REPRO_TRACE_OUT=trace.json`` in the environment does the
same without touching the command line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import os
import sys
import typing

from repro.api import run
from repro.api.spec import (
    DEFAULT_REGIONS,
    DatacenterScenario,
    GlobalScenario,
    LLMServeScenario,
    ProfileScenario,
    ServeScenario,
    SpecError,
    SweepSpec,
    load_scenario,
    scenario_kinds,
)

#: The scenario subcommands: each one's flags are its spec's flat fields.
SCENARIO_COMMANDS = (
    ProfileScenario, ServeScenario, DatacenterScenario, GlobalScenario,
    LLMServeScenario,
)

#: Scenario-command namespace entries that are not scenario arguments.
#: Scenario arguments default to ``argparse.SUPPRESS``, so every other
#: entry is one the command line gave.
_NOT_SCENARIO_ARGS = frozenset(
    {"command", "fn", "config", "json", "trace_out", "trace_jsonl", "profile"}
)

_SCALARS = (str, int, float, bool)


def _flag_fields(cls) -> list[tuple[dataclasses.Field, type, bool]]:
    """``(field, scalar type, comma list?)`` for each field a flag can set.

    A flat field is a scalar (``X | None`` counts as ``X``) or a tuple of
    one scalar type, given as a comma-separated list.  Nested fields (the
    globe's ``regions`` and ``rtt_ms``) have no flag; ``--config`` sets
    them.
    """
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        comma = typing.get_origin(hint) is tuple
        kinds = set(typing.get_args(hint) or (hint,)) - {type(None), Ellipsis}
        if len(kinds) == 1 and kinds <= set(_SCALARS):
            out.append((f, kinds.pop(), comma))
    return out


def _given(args: argparse.Namespace) -> dict:
    """The scenario arguments the command line set."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_SCENARIO_ARGS}


def _flag(dest: str) -> str:
    """How the command line spells a scenario argument."""
    return dest if dest == "app" else "--" + dest.replace("_", "-")


def _split(dest: str, text: str, item: type) -> tuple:
    """A comma-separated flag value; blank entries are skipped."""
    try:
        return tuple(item(x.strip()) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(
            f"{_flag(dest)} expects comma-separated {item.__name__} values, "
            f"got {text!r}"
        ) from None


def scenario_from_args(cls, args: argparse.Namespace):
    """The ``cls`` scenario the parsed flags describe (``--config`` aside).

    Comma-separated flags are split here, not by argparse, so a bad value
    is a ``<command>: ...`` error rather than a usage dump.  Three
    arguments are not spec fields: ``profile``'s positional ``app``,
    ``globe --rate`` (every default region's ``rate_rps``) and the
    ``serve --trace`` warning about flags a replay ignores.
    """
    kwargs = _given(args)
    for f, scalar, comma in _flag_fields(cls):
        if comma and f.name in kwargs:
            kwargs[f.name] = _split(f.name, kwargs[f.name], scalar)
    if cls is ProfileScenario:
        if "app" not in kwargs:
            raise SpecError("give a workload (see `python -m repro list`) "
                            "or --config scenario.json")
        kwargs["workload"] = kwargs.pop("app")
    if cls is GlobalScenario and "rate" in kwargs:
        rate = kwargs.pop("rate")
        kwargs["regions"] = tuple(
            dataclasses.replace(r, rate_rps=rate) for r in DEFAULT_REGIONS
        )
    if cls is ServeScenario and kwargs.get("trace"):
        ignored = [_flag(k) for k in ("traffic", "loads") if k in kwargs]
        if ignored:
            print(f"serve: --trace replays recorded arrivals; ignoring "
                  f"{'/'.join(ignored)}", file=sys.stderr)
    return cls(**kwargs)


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


def _load_config(path: str, kind: str):
    """Load a scenario config and check it fits the invoking subcommand."""
    scenario = load_scenario(path)
    loaded = scenario.base.kind if isinstance(scenario, SweepSpec) else scenario.kind
    if loaded != kind:
        raise SpecError(
            f"{path} holds a {loaded!r} scenario; run it with "
            f"`python -m repro {loaded} --config {path}`"
        )
    return scenario


def _cmd_scenario(cls, args: argparse.Namespace) -> int:
    """Run the scenario from ``--config`` or from the flags, via ``repro.run``."""
    try:
        if args.config:
            given = _given(args)
            if given:
                raise SpecError(
                    f"--config cannot be combined with "
                    f"{', '.join(_flag(k) for k in given)}; set "
                    f"{'them' if len(given) > 1 else 'it'} in {args.config}"
                )
            scenario = _load_config(args.config, cls.kind)
        else:
            scenario = scenario_from_args(cls, args)
        result = run(scenario)
    except (SpecError, ValueError, OSError) as exc:
        # Bad flags, configs and trace files carry their own message;
        # surface it as a CLI error, not a traceback.
        print(f"{cls.kind}: {exc}", file=sys.stderr)
        return 2
    _print_result(result, args.json)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.analysis import EXPERIMENTS
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
          + "  (see `--config`/`--json` on "
          + "/".join(cls.kind for cls in SCENARIO_COMMANDS) + ")")
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


def _add_scenario_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, metavar="SCENARIO.json",
                        help="load the scenario from a JSON config file "
                             "(set every scenario field there, not by flag)")
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


def _add_scenario_command(sub, cls, skip: str = "") -> argparse.ArgumentParser:
    """A subcommand with one flag per flat field of the ``cls`` spec.

    The flag is the field name with ``-`` for ``_``; its type comes from
    the annotation (``bool`` is a switch, tuples are comma-separated),
    its help from the field's metadata plus the spec default, and the
    command's description from the class docstring.  Flags default to
    ``argparse.SUPPRESS``, so the spec's defaults are the only ones.
    """
    doc = inspect.getdoc(cls)
    parser = sub.add_parser(cls.kind, help=doc.splitlines()[0], description=doc)
    for f, scalar, comma in _flag_fields(cls):
        if f.name == skip:
            continue
        default = ",".join(map(str, f.default)) if comma else f.default
        help_text = f.metadata["help"]
        if default not in (None, False):
            help_text += f" (default {default})"
        if scalar is bool:
            options = {"action": "store_true"}
        elif comma:  # split after parsing, with a `<command>: --flag` error
            options = {"metavar": f.name.upper().replace("_", "-")}
        else:
            options = {"type": scalar}
        parser.add_argument(_flag(f.name), dest=f.name, default=argparse.SUPPRESS,
                            help=help_text, **options)
    _add_scenario_io(parser)
    _add_obs_flags(parser)
    parser.set_defaults(fn=functools.partial(_cmd_scenario, cls))
    return parser


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

    for cls in SCENARIO_COMMANDS:
        profiling = cls is ProfileScenario
        command = _add_scenario_command(sub, cls, skip="workload" if profiling else "")
        if profiling:
            command.add_argument("app", nargs="?", default=argparse.SUPPRESS,
                                 help="the workload to profile (`repro list` "
                                      "shows all)")
        if cls is GlobalScenario:
            command.add_argument("--rate", type=float, default=argparse.SUPPRESS,
                                 help="set every default region's mean req/s "
                                      "(default world: 3 x 120000)")

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
