"""Command-line front door: count -> fit -> eval, plus the classic-table demo.

Machine-parseable results go to stdout (or --out files); progress and
effective configuration echo to stderr.  Exit status is nonzero whenever
any requested piece of work failed.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from . import ca, corpus, evaluation, gini, kca, tables
from .datasets import fisher_table


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


# The `fit` method options, each declared once: name -> (type, default, read
# by, extra argparse keywords).  Each is a --flag (dashes for underscores) and
# a config file key, converted and checked alike; a None default leaves it
# unset.  "Read by" names the methods whose fit reads the option, as
# kca.READ_BY declares them (the pair-score options are read by the fits
# that read pair-score matrices), except for the stop-word list, which is
# read once either stop-word alpha is set.  Every option moves a result, not just a scale.
EVERY_FIT = kca.ASSOCIATIONS
PAIR_SCORE_FITS = kca.READ_BY["gamma_row"]
SW_ALPHAS = ("sw_alpha_row", "sw_alpha_col")
FIT_OPTIONS = {
    "method": (str, "linear", EVERY_FIT, {"choices": kca.ASSOCIATIONS}),
    "dim": (int, None, EVERY_FIT, {}),
    "shift_k": (float, 1.0, kca.READ_BY["shift_k"], {}),
    "sw_alpha_row": (float, None, kca.READ_BY["sw_alpha_row"], {}),
    "sw_alpha_col": (float, None, kca.READ_BY["sw_alpha_col"], {}),
    "ws_alpha": (float, None, PAIR_SCORE_FITS, {}),
    "exponent": (float, 1.0, EVERY_FIT, {}),
    "stopwords": (str, None, SW_ALPHAS, {"help": "stop-word list for the stop-word alphas"}),
    "ws_scores": (str, None, PAIR_SCORE_FITS,
                  {"help": "pair-score file for the pair-score kernel (method=ws)"}),
}


def parse_method_config(text: str, where: str = "line ") -> dict:
    """Parse the flat key=value method configuration format.

    One ``key=value`` entry per line; blank lines and ``#`` comments are
    skipped.  Keys are the :data:`FIT_OPTIONS` names, and each value is
    converted and checked as its flag's is.  Errors begin ``{where}N: ``,
    ``line N: `` by default.
    """
    config: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{where}{lineno}: expected key=value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in FIT_OPTIONS:
            raise ValueError(f"{where}{lineno}: unknown configuration key {key!r}")
        kind, _, _, extra = FIT_OPTIONS[key]
        try:
            config[key] = kind(value)
        except ValueError:
            msg = f"{key}: invalid {kind.__name__} value {value!r}"
            raise ValueError(f"{where}{lineno}: {msg}") from None
        if "choices" in extra and config[key] not in extra["choices"]:
            raise ValueError(f"{where}{lineno}: {key}: invalid choice {value!r} "
                             f"(choose from {', '.join(extra['choices'])})")
    return config


def _why_unread(key: str, config: dict) -> str | None:
    """Why the fit that ``config`` chooses does not read option ``key``; None if it does."""
    read_by = FIT_OPTIONS[key][2]
    if read_by == SW_ALPHAS:
        if all(config[alpha] is None for alpha in SW_ALPHAS):
            return f"without {' or '.join(SW_ALPHAS)} the fit does not read"
    elif config["method"] not in read_by:
        return f"method {config['method']} does not read"
    return None


def _read_method_config(args) -> dict:
    """The options the chosen fit reads: flags, else config-file entries, else defaults.

    A given option that the fit does not read stops the run before anything
    is echoed; the echo lists the options read, defaults included.
    """
    given = {}
    if args.config:
        given.update(parse_method_config(tables._read_text(args.config), f"{args.config}:"))
    given.update((k, v) for k, v in vars(args).items() if k in FIT_OPTIONS and v is not None)
    config = {key: given.get(key, default) for key, (_, default, _, _) in FIT_OPTIONS.items()}
    unread: dict = {}
    for key in sorted(given):
        why = _why_unread(key, config)
        if why:
            unread.setdefault(why, []).append(key)
    if unread:
        raise ValueError("; ".join(f"{why} {', '.join(keys)}" for why, keys in unread.items()))
    config = {key: v for key, v in config.items() if _why_unread(key, config) is None}
    for key in sorted(k for k, v in config.items() if v is not None):
        _err(f"config: {key}={config[key]}")
    return config


def cmd_count(args) -> int:
    text = tables._read_text(args.corpus)
    cfg = corpus.CooccurrenceConfig(window=args.window, min_count=args.min_count)
    table = corpus._count_text(text, cfg, lowercase=not args.keep_case, percent=args.slice)
    _err(
        f"counted {int(table.n)} pairs over {len(table.row_labels)} words "
        f"(window={args.window}, min_count={args.min_count})"
    )
    tables.write_tsv(table, args.out)
    print(args.out)
    return 0


def _stopwords(table, config) -> set:
    """The stop-word list, which must hold a label of each axis that has a stop-word alpha."""
    path = config["stopwords"]
    if not path:
        raise ValueError("stop-word alphas need a stop-word list (--stopwords)")
    words = corpus.load_stopwords(path)
    for axis, labels, alpha in (("row", table.row_labels, config.get("sw_alpha_row")),
                                ("column", table.col_labels, config["sw_alpha_col"])):
        if alpha is not None and words.isdisjoint(labels):
            raise ValueError(f"{path}: no stop word is a {axis} label")
    return words


def _ws_gammas(table, scores_path, alpha):
    """The row and column pair-score matrices of a ws fit; one array when the labels agree."""
    if not scores_path:
        raise ValueError("method=ws needs a pair-score file (--ws-scores)")
    dataset = evaluation.load_wordsim(scores_path)
    if not any(len(dataset.lookup(labels)[0]) for labels in (table.row_labels, table.col_labels)):
        raise ValueError(f"{scores_path}: no pair has both words among the row labels "
                         "or among the column labels")
    if alpha is None:
        max_score = float(np.abs(dataset.scores).max())
        alpha = 0.1 / max_score if max_score > 0 else 0.0
        _err(f"config: ws_alpha defaulted to {alpha:g}")
    gamma_row = kca.build_gamma(table.row_labels, dataset, alpha)
    if table.col_labels == table.row_labels:
        return gamma_row, gamma_row
    return gamma_row, kca.build_gamma(table.col_labels, dataset, alpha)


def cmd_fit(args) -> int:
    config = _read_method_config(args)
    table = tables.read_tsv(args.table)
    name, k = config.pop("method"), config.pop("dim")
    if "stopwords" in config:
        config["stopwords"] = _stopwords(table, config)
    if name == "ws":
        config["gamma_row"], config["gamma_col"] = _ws_gammas(
            table, config.pop("ws_scores"), config.pop("ws_alpha"))
    method = kca.method_from_name(name, **config)
    del config  # the method holds its own copy of each pair-score matrix
    emb = kca.fit_kca(table, method, k)
    ca.write_embeddings(emb, args.out)
    _err(f"fitted {emb.method_tag}: k={emb.k}, top singular value {emb.singular_values[0]:.6g}")
    print(args.out)
    return 0


def cmd_eval(args) -> int:
    emb = ca.read_embeddings(args.embeddings)
    rows = ["method\tdataset\trho\tused\tskipped\n"]
    failed = False
    for path in args.wordsim:
        try:
            dataset = evaluation.load_wordsim(path)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = evaluation.evaluate(emb, args.which, dataset)
            for warning in caught:
                _err(f"warning: {warning.message}")
            rows.append(f"{emb.method_tag}\t{path}\t{report.spearman_rho:.6f}"
                        f"\t{report.pairs_used}\t{report.pairs_skipped}\n")
        except (ValueError, OSError) as exc:
            failed = True
            _err(f"eval failed for {path}: {exc}")
            rows.append(f"{emb.method_tag}\t{path}\terror\t0\t0\n")
    if args.out:
        tables._write_atomic(args.out, rows)
    else:
        sys.stdout.writelines(rows)
    return 1 if failed else 0


def cmd_demo_fisher(args) -> int:
    table = fisher_table()
    print(f"n\t{int(table.n)}")
    print("r\t" + "\t".join(str(int(x)) for x in table.r))
    print("c\t" + "\t".join(str(int(x)) for x in table.c))
    print(f"gini_row\t{gini.gini_variance(table, 'row'):.6f}")
    print(f"gini_col\t{gini.gini_variance(table, 'col'):.6f}")
    rot = gini.rotated_covariance(table)
    print(f"rotated_covariance\t{rot.value:.6f}")
    emb = ca.fit_linear_ca(table, k=2)
    ca.export_coordinates(emb, args.out)
    print(f"coordinates\t{args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cakit",
        description="Correspondence analysis, kernel variants, and word-vector evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count word/context co-occurrences into a table")
    p_count.add_argument("corpus", help="plain-text corpus file")
    p_count.add_argument("--window", type=int, default=2)
    p_count.add_argument("--min-count", type=int, default=0)
    p_count.add_argument("--slice", type=float, default=None,
                         help="use only the first PERCENT%% of tokens")
    p_count.add_argument("--keep-case", action="store_true")
    p_count.add_argument("--out", required=True, help="output table (TSV)")
    p_count.set_defaults(func=cmd_count)

    p_fit = sub.add_parser("fit", help="fit embeddings from a contingency table")
    p_fit.add_argument("table", help="contingency table (TSV)")
    p_fit.add_argument("--config", help="key=value method configuration file")
    for key, (kind, _, _, extra) in FIT_OPTIONS.items():
        p_fit.add_argument("--" + key.replace("_", "-"), type=kind, **extra)
    p_fit.add_argument("--out", required=True, help="output embeddings file")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="evaluate embeddings on word-similarity datasets")
    p_eval.add_argument("embeddings", help="embeddings file from `fit`")
    p_eval.add_argument("--wordsim", action="append", required=True,
                        help="word-similarity dataset (repeatable)")
    p_eval.add_argument("--which", choices=["F", "G"], default="F")
    p_eval.add_argument("--out", help="report TSV (default: stdout)")
    p_eval.set_defaults(func=cmd_eval)

    p_demo = sub.add_parser("demo-fisher", help="summarize and map the classic eye/hair table")
    p_demo.add_argument("--out", default="fisher_coordinates.csv")
    p_demo.set_defaults(func=cmd_demo_fisher)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        _err(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
