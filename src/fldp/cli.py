"""Command-line surface: simulate, accountant, convert-noise,
partition-stats, summarize.

All outputs are machine-readable files or JSON on stdout; exit codes are
0 on success, 2 for configuration errors, 3 for runtime numerical errors,
and 4 for IO failures. Set FLDP_LOG=debug|info|warning to control logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import accountant as acct
from . import telemetry
from .config import build_manifest, dump_json, parse_config
from .data import generate_population, partition_stats
from .dp import PrivacyParams, SigmaKind, convert_noise, noise_multiplier
from .engine import run_simulation
from .errors import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICS,
    EXIT_OK,
    ConfigError,
    NumericsError,
    StructureError,
)


def _setup_logging() -> None:
    level = os.environ.get("FLDP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _cmd_simulate(args) -> int:
    rc = parse_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    population = generate_population(rc.population)
    result = run_simulation(rc.federation, population, rc.model)
    telemetry.write_metrics(result.metrics, out_dir / "metrics.jsonl")
    (out_dir / "privacy_report.json").write_text(
        dump_json(result.privacy_report) + "\n"
    )
    (out_dir / "final_params.json").write_text(
        result.final_params.to_json() + "\n"
    )
    (out_dir / "run_manifest.json").write_text(
        dump_json(build_manifest(rc)) + "\n"
    )
    print(f"wrote {out_dir}/metrics.jsonl ({len(result.metrics)} rounds)")
    report = result.privacy_report
    print(f"privacy: epsilon={report['epsilon']} at delta={report['delta']}")
    return EXIT_OK


def _parse_orders(text):
    if text is None:
        return acct.DEFAULT_ORDERS
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--orders: {exc}") from exc


def _cmd_accountant(args) -> int:
    orders = _parse_orders(args.orders)
    if args.noise_multiplier is not None:
        if args.sampling_rate is None:
            raise ConfigError("--sampling-rate is required with --noise-multiplier")
        z = args.noise_multiplier
        q = args.sampling_rate
    else:
        if args.sigma is None:
            raise ConfigError("provide --noise-multiplier or --sigma")
        if args.population is None:
            raise ConfigError("--population is required with --sigma")
        if args.cohort_size is None and args.sampling_rate is None:
            raise ConfigError("--cohort-size or --sampling-rate is required")
        params = PrivacyParams(
            clip_bound=args.clip_bound,
            sigma=args.sigma,
            sigma_kind=SigmaKind(args.sigma_kind),
            population=args.population,
            sampling_rate=args.sampling_rate,
            cohort_size=args.cohort_size,
            num_steps=args.steps,
            delta=args.delta,
        )
        z = noise_multiplier(params)
        q = params.sampling_rate
        # Derivation chain from the raw parameters to the accountant input.
        print(f"sigma_avg = {params.sigma_avg!r}", file=sys.stderr)
        print(
            f"sensitivity S = C / (q N) = {args.clip_bound!r} / "
            f"{params.cohort_size!r} = {params.sensitivity!r}",
            file=sys.stderr,
        )
        print(f"noise multiplier z = sigma_avg / S = {z!r}", file=sys.stderr)

    # z = 0 (no noise) has no series, so it has no noise multiplier to check.
    alphas = acct.check_query(orders, noise_multiplier=z or None, sampling_rate=q,
                              steps=args.steps, delta=args.delta)
    if z == 0.0:
        # Each step releases its sum in the clear; no step releases nothing.
        output = {"epsilon": "inf" if args.steps else 0.0, "best_order": None,
                  "curve": {"orders": list(orders), "steps": args.steps}}
    else:
        rdp = acct.rdp_sampled_gaussian(z, q, alphas)
        total = args.steps * rdp
        # With no step released, epsilon_for answers without running the series.
        eps, best_order = (acct.epsilon_at_delta(alphas, total, args.delta) if args.steps
                           else acct.epsilon_for(z, q, 0, args.delta, alphas))
        output = {
            "epsilon": eps,
            "best_order": best_order,
            "noise_multiplier": z,
            "sampling_rate": q,
            "steps": args.steps,
            "delta": args.delta,
            "curve": {
                "orders": alphas.tolist(),
                "eps_per_step": rdp.tolist(),
                "total": total.tolist(),
                "steps": args.steps,
            },
        }
    text = dump_json(output)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def _cmd_convert_noise(args) -> int:
    converted = convert_noise(
        args.sigma, SigmaKind(args.frm), SigmaKind(args.to), args.cohort_size
    )
    print(dump_json({
        "sigma": converted,
        "from": args.frm,
        "to": args.to,
        "cohort_size": args.cohort_size,
    }))
    return EXIT_OK


def _cmd_partition_stats(args) -> int:
    rc = parse_config(args.config)
    stats = partition_stats(generate_population(rc.population))
    print(stats.format_table())
    print(dump_json(stats.to_json_obj()))
    return EXIT_OK


def _cmd_summarize(args) -> int:
    summary = telemetry.summarize(args.metrics)
    if args.csv:
        Path(args.csv).write_text(summary.to_csv())
    text = dump_json(summary.to_json_obj())
    if args.json_out:
        Path(args.json_out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fldp",
        description="Deterministic federated-learning-with-DP simulator "
        "and Renyi-DP accountant",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a federated training simulation")
    p.add_argument("--config", required=True, help="YAML/JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("accountant", help="compute (epsilon, delta) guarantees")
    p.add_argument("--noise-multiplier", "-z", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None,
                   help="raw noise; combined with --clip-bound/--population")
    p.add_argument("--sigma-kind", choices=[k.value for k in SigmaKind],
                   default="avg")
    p.add_argument("--clip-bound", type=float, default=0.01)
    p.add_argument("--population", type=int, default=None)
    p.add_argument("--cohort-size", type=float, default=None)
    p.add_argument("--sampling-rate", "-q", type=float, default=None)
    p.add_argument("--steps", "-T", type=int, required=True)
    p.add_argument("--delta", type=float, default=1e-9)
    p.add_argument("--orders", default=None,
                   help="comma-separated Renyi order grid")
    p.add_argument("--out", default=None, help="also write JSON here")
    p.set_defaults(fn=_cmd_accountant)

    p = sub.add_parser("convert-noise",
                       help="convert sigma between client/avg/sum forms")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--from", dest="frm", required=True,
                   choices=[k.value for k in SigmaKind])
    p.add_argument("--to", required=True, choices=[k.value for k in SigmaKind])
    p.add_argument("--cohort-size", "-L", type=float, required=True)
    p.set_defaults(fn=_cmd_convert_noise)

    p = sub.add_parser("partition-stats",
                       help="generate the configured population and report stats")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_partition_stats)

    p = sub.add_parser("summarize", help="summarize a metrics.jsonl file")
    p.add_argument("metrics", help="path to metrics.jsonl")
    p.add_argument("--csv", default=None, help="write per-layer CSV here")
    p.add_argument("--json-out", default=None, help="write JSON summary here")
    p.set_defaults(fn=_cmd_summarize)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, StructureError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericsError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
