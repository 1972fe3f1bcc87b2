"""Command-line front end.

Subcommands:
  campaign          run one fuzzing campaign
  compare           run the same campaign once per mode and summarize
  replay            regenerate a message corpus from a saved rule set
  schemas validate  check a schema document and print its layout

The default output directory comes from RULEFUZZ_OUT when set.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .codec import (
    SchemaValidationError,
    UnknownMessageTypeError,
    builtin_registry,
    load_schema_file,
)
from .orchestrator import (
    MODES,
    CampaignConfig,
    PersistenceFailureError,
    compare,
    replay,
    run_campaign,
)
from .rules import RuleParseError
from .sut import PROCEDURES, OracleConfigError, SutUnavailableError, default_oracle, load_oracle

log = logging.getLogger(__name__)

MIN_SAMPLES_PER_ITERATION = 10


def _positive_samples(text: str) -> int:
    value = int(text)
    if value < MIN_SAMPLES_PER_ITERATION:
        raise argparse.ArgumentTypeError(
            f"need at least {MIN_SAMPLES_PER_ITERATION} samples per iteration"
        )
    return value


def _mutation_rate(text: str) -> float | None:
    return None if text == "auto" else float(text)


def _default_out() -> Path:
    return Path(os.environ.get("RULEFUZZ_OUT", "rulefuzz_out"))


def _add_campaign_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=MODES, default="guided",
                   help="fuzzing strategy (default: guided)")
    p.add_argument("--procedure", default="ping_exchange", choices=PROCEDURES,
                   help="scripted exchange to drive (default: ping_exchange)")
    p.add_argument("--n", type=_positive_samples, default=200,
                   help="samples per iteration (default: 200, minimum 10)")
    p.add_argument("--iterations", type=int, default=10,
                   help="maximum iterations (default: 10)")
    p.add_argument("--mutation-rate", type=_mutation_rate, default=None,
                   metavar="RATE|auto",
                   help="per-field mutation probability for guided fuzzing "
                        "(default: auto = 1/field count)")
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="wall-clock budget; unset means no time limit")
    p.add_argument("--seed", type=int, default=0, help="campaign seed (default: 0)")
    p.add_argument("--oracle", type=Path, default=None,
                   help="failure oracle YAML (default: packaged oracle)")
    p.add_argument("--schemas", type=Path, default=None,
                   help="schema document YAML (default: packaged schemas)")
    p.add_argument("--out", type=Path, default=None,
                   help="output directory (default: $RULEFUZZ_OUT or ./rulefuzz_out)")
    p.add_argument("--workers", type=int, default=4,
                   help="sessions in flight across all processes (default: 4)")
    p.add_argument("--precision-target", type=float, default=None,
                   help="stop when CV precision reaches this and recall "
                        "reaches --recall-target; the two are set together")
    p.add_argument("--recall-target", type=float, default=None,
                   help="stop when CV recall reaches this and precision "
                        "reaches --precision-target; the two are set together")
    p.add_argument("--plateau-window", type=int, default=3,
                   help="iterations without improvement before stopping; "
                        "0 disables (default: 3)")
    p.add_argument("--plateau-epsilon", type=float, default=0.01,
                   help="smallest gain in precision or recall that counts as "
                        "improvement (default: 0.01)")


def _build_config(args: argparse.Namespace, out_dir: Path) -> CampaignConfig:
    oracle = load_oracle(args.oracle) if args.oracle else default_oracle()
    registry = load_schema_file(args.schemas) if args.schemas else builtin_registry()
    return CampaignConfig(
        out_dir=out_dir,
        mode=args.mode,
        message_type=oracle.message_type,
        procedure=args.procedure,
        n=args.n,
        iterations=args.iterations,
        mutation_rate=args.mutation_rate,
        budget_seconds=args.budget_seconds,
        seed=args.seed,
        workers=args.workers,
        precision_target=args.precision_target,
        recall_target=args.recall_target,
        plateau_window=args.plateau_window,
        plateau_epsilon=args.plateau_epsilon,
        oracle=oracle,
        registry=registry,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    config = _build_config(args, args.out or _default_out())
    report = run_campaign(config)
    counts = report.dataset.class_counts()
    for rec in report.iterations:
        print(
            f"iteration {rec.iteration:3d} [{rec.fuzz_mode:7s}] "
            f"presence {rec.presence:4d}/{rec.rows}  "
            f"precision {rec.precision:.3f}  recall {rec.recall:.3f}  "
            f"rules {rec.rule_count}"
        )
    print(f"stop reason: {report.stop_reason}")
    print(f"dataset: {len(report.dataset)} rows "
          f"({counts['presence']} presence, {counts['absence']} absence)")
    print(f"results in {report.out_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    out_root = args.out or _default_out()
    config = _build_config(args, out_root)
    modes = tuple(dict.fromkeys(args.modes))  # keep order, drop duplicates
    summary = compare(config, modes=modes)
    width = max(len(m) for m in summary)
    for mode, s in summary.items():
        print(
            f"{mode:{width}s}  presence {s['presence']:5d}/{s['rows']}  "
            f"precision {s['final_precision']:.3f}  "
            f"recall {s['final_recall']:.3f}"
        )
    print(f"results in {out_root}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    registry = load_schema_file(args.schemas) if args.schemas else builtin_registry()
    corpus = replay(
        args.ruleset,
        args.out or (_default_out() / "corpus"),
        count=args.count,
        seed=args.seed,
        message_type=args.message_type,
        registry=registry,
    )
    print(f"wrote {args.count} messages to {corpus}")
    return 0


def _cmd_schemas_validate(args: argparse.Namespace) -> int:
    registry = load_schema_file(args.path)
    for schema in registry:
        print(
            f"{schema.type_name}: code {schema.header_type_code}, "
            f"{schema.total_bytes} bytes, {len(schema.fields)} fields"
        )
    print(f"{args.path}: {len(registry)} message types ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulefuzz",
        description="Rule-guided fuzzing for SDN control channels.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for progress, -vv for debug")
    sub = parser.add_subparsers(dest="command", required=True)

    p_campaign = sub.add_parser("campaign", help="run one fuzzing campaign")
    _add_campaign_args(p_campaign)
    p_campaign.set_defaults(func=_cmd_campaign)

    p_compare = sub.add_parser("compare", help="run one campaign per mode")
    _add_campaign_args(p_compare)
    p_compare.add_argument("--modes", nargs="+", choices=MODES,
                           default=["guided", "random"],
                           help="modes to compare (default: guided random)")
    p_compare.set_defaults(func=_cmd_compare)

    p_replay = sub.add_parser("replay", help="generate a corpus from a rule set")
    p_replay.add_argument("ruleset", type=Path, help="saved rule-set file")
    p_replay.add_argument("--count", type=int, default=100)
    p_replay.add_argument("--seed", type=int, default=0)
    p_replay.add_argument("--message-type", default=None,
                          help="override the rule-set file's message-type header")
    p_replay.add_argument("--schemas", type=Path, default=None)
    p_replay.add_argument("--out", type=Path, default=None)
    p_replay.set_defaults(func=_cmd_replay)

    p_schemas = sub.add_parser("schemas", help="schema utilities")
    schemas_sub = p_schemas.add_subparsers(dest="schemas_command", required=True)
    p_validate = schemas_sub.add_parser("validate", help="check a schema document")
    p_validate.add_argument("path", type=Path)
    p_validate.set_defaults(func=_cmd_schemas_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (
        FileNotFoundError,
        OracleConfigError,
        PersistenceFailureError,
        RuleParseError,
        SchemaValidationError,
        SutUnavailableError,
        UnknownMessageTypeError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
