"""Command-line pipeline: synth, block, tune, resolve, evaluate, simulate."""

from __future__ import annotations

import argparse
import json
import sys

from . import blocking as blocking_mod
from . import dataio, metrics
from .engine import Resolver
from .gateway import (
    HttpProvider,
    OracleConfig,
    ProviderConfig,
    ProviderUnavailable,
    SimulatedOracle,
)
from .model import CostLedger, ERError, SetConfig
from .similarity import SimilarityConfig, SimilarityIndex, load_embeddings
from .synth import generate_dataset


class ConfigError(ERError):
    pass


def _add_dataset_args(p: argparse.ArgumentParser, truth_required=False) -> None:
    # presence is validated after config-file merging, not by argparse, so
    # required values may come from --config
    p.add_argument("--input", default=None, help="delimited record file")
    p.add_argument("--id-column", default="id")
    p.add_argument(
        "--truth-column",
        default=None,
        help="entity id column used as ground truth",
    )
    p.add_argument("--delimiter", default=",")
    p.set_defaults(truth_required=truth_required)


def _add_blocking_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--blocking",
        default="none",
        choices=["filter", "lsh", "none"],
    )
    p.add_argument(
        "--b-t",
        type=float,
        default=0.5,
        help="similarity below which records are presumed distinct: the "
        "blocking threshold, and in resolve the final sweep's bound",
    )
    p.add_argument("--lsh-planes", type=int, default=64)
    p.add_argument("--lsh-bands", type=int, default=8)
    p.add_argument("--k-candidates", type=int, default=50)


def _add_similarity_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--measure", default="cosine", choices=["cosine", "jaccard"])
    p.add_argument("--dim", type=int, default=256)
    p.add_argument("--embeddings", default=None, help="precomputed embedding CSV")


def _add_set_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set-size", type=int, default=9)
    p.add_argument("--set-diversity", type=int, default=4)
    p.add_argument("--max-regen", type=int, default=2)


def _add_parallelism_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="backend calls in flight at once within a round; the guardrail "
        "runs on the calling thread, and results do not depend on it",
    )


def _add_backend_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", default=None, choices=["oracle", "http"])
    p.add_argument("--error-rate", type=float, default=0.0)
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--api-key-env", default="ER_API_KEY")
    p.add_argument("--requests-per-minute", type=int, default=60)
    p.add_argument("--transcript", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erset",
        description="Entity resolution by in-context clustering of record sets.",
    )
    parser.add_argument(
        "--config", default=None, help="flat key=value config file; flags win"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dirty dataset")
    p.add_argument("--entities", type=int, default=40)
    p.add_argument("--dupes", type=int, default=5)
    p.add_argument("--typo-rate", type=float, default=0.1)
    p.add_argument("--drop-rate", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("block", help="compute blocks and their quality")
    _add_dataset_args(p)
    _add_blocking_args(p)
    _add_similarity_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="blocks CSV output")

    p = sub.add_parser("tune", help="sweep the blocking threshold against truth")
    _add_dataset_args(p, truth_required=True)
    _add_similarity_args(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("resolve", help="run the full resolution pipeline")
    _add_dataset_args(p)
    _add_blocking_args(p)
    _add_similarity_args(p)
    _add_set_args(p)
    _add_backend_args(p)
    p.add_argument("--seed", type=int, default=0)
    _add_parallelism_arg(p)
    p.add_argument("--partition-out", default=None)
    p.add_argument("--report-out", default=None)

    p = sub.add_parser("evaluate", help="score a partition file against truth")
    p.add_argument("--partition", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser(
        "simulate",
        help="resolve with the simulated oracle across seeds and error rates",
    )
    _add_dataset_args(p, truth_required=True)
    _add_blocking_args(p)
    _add_similarity_args(p)
    _add_set_args(p)
    p.add_argument("--error-rates", default="0.0", help="comma-separated list")
    p.add_argument("--seeds", type=int, default=1, help="run seeds 0..N-1")
    p.add_argument("--seed", type=int, default=0, help="embedding/blocking seed")
    _add_parallelism_arg(p)
    p.add_argument("--out", default=None, help="per-run results CSV")
    return parser


def _apply_config_file(parser, argv):
    """Read --config (flat key=value, keys named like flags) and re-parse with
    its values as the subcommands' defaults, so explicit flags always win and
    argparse converts each value with its flag's type. A key that names no
    flag of any command, or a value its flag's type cannot parse or that is
    not one of its choices, is a ConfigError."""
    args, _ = parser.parse_known_args(argv)
    if not getattr(args, "config", None):
        return parser.parse_args(argv)
    values = dataio.load_config(args.config)
    overrides = {key.replace("-", "_"): value for key, value in values.items()}
    subparsers = [
        sub
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for sub in action.choices.values()
    ]
    flags = [
        action
        for p in subparsers
        for action in p._actions
        if action.option_strings and action.dest != "help"
    ]
    dests = {action.dest for action in flags}
    unknown = [key for key in values if key.replace("-", "_") not in dests]
    if unknown:
        raise ConfigError(f"{args.config}: unknown key {unknown[0]!r}")
    # argparse would exit with its usage text (code 2, erset's data errors) on
    # a bad value at parse time, and never checks a default against choices
    for action in flags:
        value = overrides.get(action.dest)
        if value is None:
            continue
        line = f"{args.config}: {action.option_strings[0][2:]} = {value!r}"
        try:
            value = action.type(value) if action.type else value
        except ValueError:
            raise ConfigError(f"{line} is not a valid {action.type.__name__}") from None
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"{line} is not one of {', '.join(action.choices)}")
    for p in subparsers:
        p.set_defaults(**overrides)
    return parser.parse_args(argv)


def _require_dataset_args(args) -> None:
    if not args.input:
        raise ConfigError("--input is required (flag or config file)")
    if getattr(args, "truth_required", False) and not args.truth_column:
        raise ConfigError("--truth-column is required (flag or config file)")


def _load_dataset(args) -> dataio.Dataset:
    _require_dataset_args(args)
    return dataio.ingest(
        args.input,
        id_column=args.id_column,
        truth_column=args.truth_column,
        delimiter=args.delimiter,
    )


def _index(args, dataset) -> SimilarityIndex:
    config = SimilarityConfig(
        measure=args.measure,
        dim=args.dim,
        seed=args.seed,
    )
    embeddings = None
    if args.embeddings:
        embeddings = load_embeddings(args.embeddings, dataset.records)
    return SimilarityIndex(dataset.records, config, embeddings)


def _blocking_params(args) -> blocking_mod.BlockingParams:
    method = args.blocking if args.blocking != "none" else "lsh"
    return blocking_mod.BlockingParams(
        method=method,
        b_t=args.b_t,
        lsh_planes=args.lsh_planes,
        lsh_bands=args.lsh_bands,
        k_candidates=args.k_candidates,
        seed=args.seed,
    )


def _make_blocks(args, dataset, index):
    return blocking_mod.make_blocks(
        args.blocking,
        dataset.records,
        index.token_sets,
        index.embeddings,
        _blocking_params(args),
    )


def _block_quality(blocks, truth) -> dict:
    pred = {rid: b.block_id for b in blocks for rid in b.members}
    precision, recall, f1 = metrics.pairwise_f1(pred, truth)
    return {"pair_precision": precision, "pair_recall": recall, "pair_f1": f1}


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_path:
        dataio.save_report(out_path, report)


def _backend(args, dataset):
    if args.backend == "oracle":
        if not dataset.ground_truth:
            raise ConfigError(
                "--backend oracle requires --truth-column ground truth"
            )
        return SimulatedOracle(
            OracleConfig(dataset.ground_truth, args.error_rate, args.seed)
        )
    if args.backend == "http":
        if not args.endpoint or not args.model:
            raise ConfigError("--backend http requires --endpoint and --model")
        return HttpProvider(
            ProviderConfig(
                endpoint=args.endpoint,
                model=args.model,
                temperature=args.temperature,
                api_key_env=args.api_key_env,
                requests_per_minute=args.requests_per_minute,
                transcript_path=args.transcript,
            )
        )
    raise ConfigError("no backend configured: pass --backend oracle|http")


def _run_resolve(args, dataset, index, blocks, backend, seed):
    config = SetConfig(
        set_size=args.set_size,
        set_diversity=args.set_diversity,
        max_regen=args.max_regen,
        seed=seed,
        b_t=args.b_t,
    )
    resolver = Resolver(
        dataset.records,
        backend,
        config=config,
        index=index,
        parallelism=args.parallelism,
        ledger=CostLedger(),
    )
    partition, ledger, report = resolver.resolve(blocks)
    return partition, ledger, report


def _metric_report(pred: dict, truth: dict) -> dict:
    precision, recall, f1 = metrics.pairwise_f1(pred, truth)
    return {
        "acc": metrics.acc(pred, truth),
        "fp_measure": metrics.fp_measure(pred, truth),
        "nmi": metrics.nmi(pred, truth),
        "ari": metrics.ari(pred, truth),
        "pair_precision": precision,
        "pair_recall": recall,
        "pair_f1": f1,
    }


def cmd_synth(args) -> int:
    records, truth = generate_dataset(
        args.entities,
        args.dupes,
        typo_rate=args.typo_rate,
        drop_rate=args.drop_rate,
        seed=args.seed,
    )
    dataio.save_dataset(args.out, records, truth)
    print(f"wrote {len(records)} records / {args.entities} entities to {args.out}")
    return 0


def cmd_block(args) -> int:
    dataset = _load_dataset(args)
    index = _index(args, dataset)
    blocks = _make_blocks(args, dataset, index)
    report = {
        "method": args.blocking,
        "blocks": len(blocks),
        "largest": max((len(b) for b in blocks), default=0),
        "singletons": sum(1 for b in blocks if len(b) == 1),
    }
    if dataset.ground_truth:
        report.update(_block_quality(blocks, dataset.ground_truth))
    if args.out:
        dataio.save_blocks(args.out, blocks)
    _emit(report, None)
    return 0


def cmd_tune(args) -> int:
    dataset = _load_dataset(args)
    index = _index(args, dataset)
    best = blocking_mod.tune_threshold(
        sorted(dataset.records), index, dataset.ground_truth
    )
    _emit({"measure": args.measure, "best_threshold": best}, None)
    return 0


def cmd_resolve(args) -> int:
    dataset = _load_dataset(args)
    index = _index(args, dataset)
    backend = _backend(args, dataset)
    blocks = _make_blocks(args, dataset, index)
    partition, ledger, report = _run_resolve(
        args, dataset, index, blocks, backend, args.seed
    )
    labels = partition.as_labels()
    if args.partition_out:
        dataio.save_labels(args.partition_out, labels, "cluster_id")
    out = {"clusters": len(partition.clusters), **report.as_dict()}
    if dataset.ground_truth:
        out["metrics"] = _metric_report(labels, dataset.ground_truth)
    _emit(out, args.report_out)
    return 0


def cmd_evaluate(args) -> int:
    pred = dataio.load_labels(args.partition)
    truth = dataio.load_labels(args.truth)
    _emit(_metric_report(pred, truth), args.out)
    return 0


def cmd_simulate(args) -> int:
    dataset = _load_dataset(args)
    index = _index(args, dataset)
    try:
        rates = [float(x) for x in args.error_rates.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --error-rates: {args.error_rates!r}") from exc
    if not rates or args.seeds < 1:
        raise ConfigError("simulate needs at least one error rate and seed")
    # blocks depend on --seed and the blocking flags, not on the run
    blocks = _make_blocks(args, dataset, index)
    rows = []
    for rate in rates:
        for seed in range(args.seeds):
            backend = SimulatedOracle(
                OracleConfig(dataset.ground_truth, rate, seed)
            )
            partition, ledger, report = _run_resolve(
                args, dataset, index, blocks, backend, seed
            )
            row = {
                "error_rate": rate,
                "seed": seed,
                "api_calls": ledger.api_calls,
                "regenerations": report.guardrail.regenerations,
                **_metric_report(partition.as_labels(), dataset.ground_truth),
            }
            rows.append(row)
    if args.out:
        header = list(rows[0])
        dataio.save_rows(args.out, [header] + [[row[k] for k in header] for row in rows])
    summary = {
        "runs": len(rows),
        "mean_acc": sum(r["acc"] for r in rows) / len(rows),
        "mean_fp_measure": sum(r["fp_measure"] for r in rows) / len(rows),
        "mean_api_calls": sum(r["api_calls"] for r in rows) / len(rows),
    }
    _emit(summary, None)
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "block": cmd_block,
    "tune": cmd_tune,
    "resolve": cmd_resolve,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _apply_config_file(parser, argv)
    except ERError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ProviderUnavailable as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 3
    except (ERError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
