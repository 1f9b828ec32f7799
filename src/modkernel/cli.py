"""Command-line entry points.

Verbs: ``run <config>`` executes any configured experiment; ``verify-lemma``
and ``verify-theorem`` run the geometry suites directly; ``score-transfer``
ranks candidate checkpoints on a target dataset; ``dump-config`` echoes a
config in canonical resolved form.  Exit codes: 0 on pass, 1 on an
acceptance failure, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from . import geometry
from .config import LEMMA_DEFAULTS, dump_config, load_config
from .errors import ConfigurationError, IngestionError, ModkernelError
from .experiments import run_experiment
from .serialize import write_json
from .transfer import (SCORING_DEFAULTS, CandidateModule, rank_candidates,
                       score_candidate)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modkernel",
        description="Modular two-stage training with kernel proxy objectives.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--output-root", default=None,
                       help="directory the config's output_dir nests under")

    p_lemma = sub.add_parser("verify-lemma",
                             help="randomized construction-and-verify sweep")
    p_lemma.add_argument("--instances", type=int,
                         default=LEMMA_DEFAULTS["instances"])
    p_lemma.add_argument("--seed", type=int, default=LEMMA_DEFAULTS["seed"])
    p_lemma.add_argument("--tolerance", type=float,
                         default=LEMMA_DEFAULTS["tolerance"])
    p_lemma.add_argument("--output", default=None,
                         help="optional path for the JSON report")

    p_thm = sub.add_parser("verify-theorem",
                           help="exhaustive tiny-instance optimality check")
    p_thm.add_argument("--instance", action="append", default=None,
                       help="instance name (repeatable; default: all)")
    p_thm.add_argument("--output", default=None)

    p_score = sub.add_parser("score-transfer",
                             help="rank candidate checkpoints on a target task")
    p_score.add_argument("config",
                         help="config file whose dataset section is the target")
    p_score.add_argument("candidates", nargs="+",
                         help="candidate module checkpoint files")
    p_score.add_argument("--proxy", default=SCORING_DEFAULTS["proxy"])
    p_score.add_argument("--subsample-fraction", type=float,
                         default=SCORING_DEFAULTS["subsample_fraction"])
    p_score.add_argument("--seed", type=int, default=SCORING_DEFAULTS["seed"])
    p_score.add_argument("--output", default=None,
                         help="optional path for the ranking JSON")

    p_dump = sub.add_parser("dump-config",
                            help="print a config in canonical resolved form")
    p_dump.add_argument("config")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    return run_experiment(cfg, output_root=args.output_root)


def _cmd_verify_lemma(args) -> int:
    rep = geometry.run_lemma_suite(num_instances=args.instances,
                                   seed=args.seed, tol=args.tolerance)
    print(f"lemma suite: {rep.instances} instances, {rep.failures} failures")
    for name, resid in sorted(rep.worst_residuals.items()):
        print(f"  worst {name}: {resid:.3e}")
    if args.output:
        write_json(args.output, rep.as_dict())
    return 0 if rep.passed else 1


def _cmd_verify_theorem(args) -> int:
    reports = geometry.committed_bruteforce_reports(args.instance)
    ok = True
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        print(f"{status} {rep.name}: {rep.satisfying}/{rep.assignments} "
              f"satisfying, {len(rep.counterexamples)} counterexamples")
        ok = ok and rep.passed
    if args.output:
        write_json(args.output, {"instances": [r.as_dict() for r in reports]})
    return 0 if ok else 1


def _cmd_score_transfer(args) -> int:
    cfg = load_config(args.config)
    from .datasets import make_dataset
    target = make_dataset(cfg.dataset_spec())
    scores = {}
    for path in args.candidates:
        cand = CandidateModule.from_checkpoint_file(path)
        scores[cand.id] = score_candidate(
            cand, target, proxy=args.proxy,
            subsample_fraction=args.subsample_fraction, seed=args.seed)
    report = rank_candidates(scores)
    for entry in report.entries:
        print(f"rank {entry['rank']}: {entry['id']} score {entry['score']:.6f}")
    if args.output:
        write_json(args.output, report.as_dict())
    return 0


def _cmd_dump_config(args) -> int:
    sys.stdout.write(dump_config(load_config(args.config)))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "verify-lemma": _cmd_verify_lemma,
    "verify-theorem": _cmd_verify_theorem,
    "score-transfer": _cmd_score_transfer,
    "dump-config": _cmd_dump_config,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigurationError, IngestionError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModkernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
