"""Command-line entry point for learning, sampling, scoring, comparing,
and the small-graph census verifier.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import census as census_mod
from . import data as data_mod
from .evaluation import evaluate, hamming
from .graph import GraphError
# bench/tracer.py patches cli.kl_fit_term by name; nothing here calls it.
from .scoring import PRIOR_IDS, SCORE_IDS, Scorer, kl_fit_term  # noqa: F401
from .search import (StartError, dag_greedy_search, dag_tabu_search,
                     greedy_search, tabu_search)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _check_output_path(option, path, others):
    """Refuse an output path in a missing directory, one that is a
    directory, and one that names any file of ``others`` (option -> path,
    None when not given): an input or another output."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError(f"output directory does not exist: {parent}")
    if os.path.isdir(path):
        raise UsageError(f"output path is a directory: {path}")
    for other_option, other in others.items():
        if other is not None and _same_file(path, other):
            raise UsageError(f"{option} {path} names the same file as "
                             f"{other_option}")


def _same_file(a, b):
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def _print_table(record):
    keys = list(record)
    widths = [max(len(k), len(_fmt(record[k]))) for k in keys]
    print("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
    print("  ".join(_fmt(record[k]).ljust(w) for k, w in zip(keys, widths)))


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.5f}"
    return str(v)


def _structure(path, names, role=None):
    """Structure of a network file whose variables must be ``names``, in
    the same order; None when no file is given.  ``role`` is "gold" or
    "net" (see :func:`_check_role`); a learn start has none, as the search
    checks it against its space."""
    if path is None:
        return None
    net = data_mod.load_network(path)
    if net.variable_names != names:
        raise data_mod.DataError(f"{path}: variables differ from "
                                 f"{', '.join(names)}")
    if role:
        _check_role(path, net.structure, role)
    return net.structure


def _check_role(path, g, role):
    """A gold network must be a DAG; a structure to score or compare
    ("net") must be a DAG or a restricted PDAG."""
    problem = g.dag_problem()
    if problem and role == "net":
        problem = (bad := g.rpdag_problem()) and f"{problem}, and {bad}"
    if problem:
        what = "gold network" if role == "gold" else "structure"
        raise data_mod.DataError(f"{path}: {what} is {problem}")


def _scores(structure, dataset, ess, prior):
    record = evaluate(structure, dataset, ess=ess, prior=prior)
    return {"BDeu": record["bdeu_train"], "BIC": record["bic_train"],
            "KL": record["kl_train"], "Edg": record["edges"]}


def _distance(learned, gold):
    breakdown = hamming(learned, gold)
    return {"H": breakdown.total, "A": breakdown.added,
            "D": breakdown.deleted, "I": breakdown.inverted}


def cmd_learn(args):
    # --out may name its own --start: resuming in place writes a network
    # file over a network file.
    inputs = {"--data": args.data, "--gold": args.gold}
    _check_output_path("--out", args.out,
                       {**inputs, "--report": args.report})
    if args.report:
        _check_output_path("--report", args.report,
                           {**inputs, "--start": args.start})
    dataset = data_mod.load_csv(args.data, args.missing_token)
    names = dataset.variable_names
    start = _structure(args.start, names)
    gold = _structure(args.gold, names, "gold")
    scorer = Scorer(dataset, args.score, args.ess, args.prior)
    if args.strategy == "greedy":
        search = greedy_search if args.space == "rpdag" else dag_greedy_search
        graph, report = search(dataset, scorer, start=start)
    else:
        search = tabu_search if args.space == "rpdag" else dag_tabu_search
        graph, report = search(dataset, scorer, args.tabu_len,
                               args.tabu_iters, start=start)

    net = data_mod.BayesNet(names, dataset.cardinalities, graph, None,
                            dataset.state_labels)
    data_mod.save_network(net, args.out)
    record = _scores(graph, dataset, args.ess, args.prior)
    record.update(Iter=report.iterations_applied,
                  BIter=report.best_iteration,
                  Ind=report.individuals_evaluated, EstEv=report.evaluated,
                  TEst=report.requested, NVars=report.nvars,
                  Time=report.wall_time_seconds)
    if gold is not None:
        record.update(_distance(graph, gold))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    _print_table(record)
    return EXIT_OK


def cmd_sample(args):
    _check_output_path("--out", args.out, {"--net": args.net})
    net = data_mod.load_network(args.net)
    try:
        dataset = data_mod.sample(net, args.n, args.seed)
    except data_mod.DataError as exc:   # a network without tables
        raise data_mod.DataError(f"{args.net}: {exc}") from None
    data_mod.save_csv(dataset, args.out)
    print(f"wrote {dataset.m} rows over {dataset.n} variables to {args.out}")
    return EXIT_OK


def cmd_score(args):
    dataset = data_mod.load_csv(args.data, args.missing_token)
    structure = _structure(args.net, dataset.variable_names, "net")
    _print_table(_scores(structure, dataset, args.ess, args.prior))
    return EXIT_OK


def cmd_compare(args):
    learned = data_mod.load_network(args.net)
    _check_role(args.net, learned.structure, "net")
    gold = _structure(args.gold, learned.variable_names, "gold")
    _print_table(_distance(learned.structure, gold))
    return EXIT_OK


def cmd_census(args):
    if args.n < 1 or args.n > census_mod.MAX_CENSUS_NODES:
        raise UsageError(
            f"census supports 1 <= n <= {census_mod.MAX_CENSUS_NODES}")
    result = census_mod.census(args.n)
    verified = args.n > 4 or all(
        rep.is_rpdag() and rep.count_extensions() == len(dags)
        and all(h.reduce_to_rpdag() == rep for h in dags[1:])
        for dags in census_mod.group_by_rpdag_key(args.n).values()
        for rep in [dags[0].reduce_to_rpdag()])
    _print_table({"n": result.node_count, "DAGs": result.dag_count,
                  "classes": result.class_count,
                  "rpdag_keys": result.rpdag_key_count,
                  "partition_verified": "skipped" if args.n > 4
                  else "yes" if verified else "no"})
    if not verified:
        raise GraphError("partition properties violated")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="rpdaglearn",
                     description="Bayesian network structure learning in "
                                 "the space of restricted PDAGs")
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by learn and score: the data and how to score it.
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--data", required=True)
    scoring.add_argument("--ess", type=float, default=1.0)
    scoring.add_argument("--prior", choices=PRIOR_IDS, default="uniform")
    scoring.add_argument("--missing-token",
                         default=data_mod.DEFAULT_MISSING_TOKEN)

    learn = sub.add_parser("learn", parents=[scoring],
                           help="learn a structure from a CSV")
    learn.add_argument("--out", required=True)
    learn.add_argument("--report", default=None)
    learn.add_argument("--gold", default=None)
    learn.add_argument("--space", choices=("rpdag", "dag"), default="rpdag")
    learn.add_argument("--strategy", choices=("greedy", "tabu"),
                       default="greedy")
    learn.add_argument("--score", choices=SCORE_IDS, default="bdeu")
    learn.add_argument("--tabu-len", type=int, default=None)
    learn.add_argument("--tabu-iters", type=int, default=None)
    learn.add_argument("--start", default=None)
    learn.set_defaults(func=cmd_learn)

    smp = sub.add_parser("sample", help="sample a CSV from a network file")
    smp.add_argument("--net", required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--out", required=True)
    smp.set_defaults(func=cmd_sample)

    sc = sub.add_parser("score", parents=[scoring],
                        help="score a structure against a dataset")
    sc.add_argument("--net", required=True)
    sc.set_defaults(func=cmd_score)

    cmp_ = sub.add_parser("compare", help="Hamming distance against a gold "
                                          "network")
    cmp_.add_argument("--net", required=True)
    cmp_.add_argument("--gold", required=True)
    cmp_.set_defaults(func=cmd_compare)

    cen = sub.add_parser("census", help="enumerate small DAGs and verify "
                                        "the equivalence partition")
    cen.add_argument("--n", type=int, required=True)
    cen.set_defaults(func=cmd_census)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (data_mod.DataError, StartError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
