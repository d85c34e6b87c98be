"""Command-line experiment runner.

Subcommands:
  validate  parse a config and, when an experiment reads the decay
            operator, certify its profile (exit 2 on errors)
  run       execute a config and write its report bundle
  demo      execute the built-in demonstration config

For run and demo the exit status is 0 exactly when every gated
experiment passed; config errors, an unreadable config file included,
exit 2, and gated failures exit 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import DEMO_CONFIG, ConfigError, parse_config
from .profiles import ProfileError
from .runner import certify_profile, emit_report, run_experiments


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timeop",
        description="run configured verification experiments and write JSON/CSV reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check a config file without running")
    validate.add_argument("--config", required=True, help="path to the config file")

    for name, needs_config in (("run", True), ("demo", False)):
        cmd = sub.add_parser(name, help=f"{'run a config file' if needs_config else 'run the built-in demo config'}")
        if needs_config:
            cmd.add_argument("--config", required=True, help="path to the config file")
        cmd.add_argument("--out", default=None, help="output directory (default: config output_dir)")
        cmd.add_argument("--format", default="both", choices=("json", "csv", "both"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "demo":
        text = DEMO_CONFIG
    else:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            print(f"cannot read config {args.config}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        for line, msg in exc.errors:
            print(f"line {line}: {msg}", file=sys.stderr)
        return 2
    if args.command == "validate":
        try:
            certify_profile(config)
        except ProfileError as exc:
            print(exc, file=sys.stderr)
            return 2
        print("config OK")
        return 0

    bundle = run_experiments(config)
    out_dir = args.out if args.out is not None else config.output_dir
    written = emit_report(bundle, out_dir, fmt=args.format)

    for record in bundle.records:
        detail = ""
        if record["status"] == "error":
            detail = f" ({record['error']})"
        print(f"{record['name']}: {record['status']}{detail}")
    print(f"wrote {', '.join(str(p) for p in written)}")
    return 0 if bundle.all_gated_passed else 1


if __name__ == "__main__":
    sys.exit(main())
