"""Command-line experiment runner.

Subcommands:
  validate  parse and run a config without writing it: print run's line
            for each experiment that errors, and exit 2 if any does
  run       execute a config and write its report bundle
  demo      execute the built-in demonstration config

For run and demo the exit status is 0 exactly when every gated
experiment passed; config errors, an unreadable config file and an
unwritable output directory included, exit 2, and gated failures exit 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import DEMO_CONFIG, ConfigError, parse_config
from .runner import emit_report, run_experiments


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timeop",
        description="run configured verification experiments and write JSON/CSV reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="run a config file without writing a report")
    validate.add_argument("--config", required=True, help="path to the config file")

    for name, needs_config in (("run", True), ("demo", False)):
        cmd = sub.add_parser(name, help=f"{'run a config file' if needs_config else 'run the built-in demo config'}")
        if needs_config:
            cmd.add_argument("--config", required=True, help="path to the config file")
        cmd.add_argument("--out", default=None, help="output directory (default: config output_dir)")
    return parser


def _status_line(record) -> str:
    detail = f" ({record['error']})" if record["status"] == "error" else ""
    return f"{record['name']}: {record['status']}{detail}"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "demo":
        text = DEMO_CONFIG
    else:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:  # the latter has no strerror
            reason = getattr(exc, "strerror", None) or exc
            print(f"cannot read config {args.config}: {reason}", file=sys.stderr)
            return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        for line, msg in exc.errors:
            print(f"line {line}: {msg}", file=sys.stderr)
        return 2

    bundle = run_experiments(config)
    if args.command == "validate":
        errors = [_status_line(r) for r in bundle.records if r["status"] == "error"]
        print("\n".join(errors) or "config OK", file=sys.stderr if errors else sys.stdout)
        return 2 if errors else 0

    out_dir = args.out if args.out is not None else config.output_dir
    try:
        written = emit_report(bundle, out_dir)
    except OSError as exc:
        print(f"cannot write output directory {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 2

    for record in bundle.records:
        print(_status_line(record))
    print(f"wrote {', '.join(str(p) for p in written)}")
    return 0 if bundle.all_gated_passed else 1


if __name__ == "__main__":
    sys.exit(main())
