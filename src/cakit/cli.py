"""Command-line front door: count -> fit -> eval, plus the classic-table demo.

Machine-parseable results go to stdout (or --out files); progress and
effective configuration echo to stderr.  Exit status is nonzero whenever
any requested piece of work failed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import ca, corpus, evaluation, gini, kca, tables
from .datasets import fisher_table


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


# flat key=value method configuration; each key is also a `fit` flag
CONFIG_KEYS = ("method", "shift_k", "sw_alpha_row", "sw_alpha_col", "ws_alpha", "ws_beta",
               "dim", "exponent", "kpca_alpha", "stopwords", "ws_scores")
_FLOAT_KEYS = {"shift_k", "sw_alpha_row", "sw_alpha_col", "ws_alpha", "ws_beta",
               "exponent", "kpca_alpha"}


def parse_method_config(text: str) -> dict:
    """Parse the flat key=value method configuration format.

    One ``key=value`` entry per line; blank lines and ``#`` comments are
    skipped.  Numeric values are converted, ``dim`` to int; unknown keys
    are an error.
    """
    config: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown configuration key {key!r}")
        if key == "dim":
            config[key] = int(value)
        elif key in _FLOAT_KEYS:
            config[key] = float(value)
        else:
            config[key] = value
    return config


def _read_method_config(args) -> dict:
    """Merge config-file entries with CLI flags; flags win."""
    config: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config.update(parse_method_config(fh.read()))
    for key in CONFIG_KEYS:
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    config.setdefault("method", "linear")
    config.setdefault("shift_k", 1.0)
    config.setdefault("ws_beta", 1.0)
    config.setdefault("exponent", 1.0)
    config.setdefault("kpca_alpha", -0.5)
    for key in sorted(config):
        _err(f"config: {key}={config[key]}")
    return config


def cmd_count(args) -> int:
    with open(args.corpus, encoding="utf-8") as fh:
        text = fh.read()
    tokens = corpus.tokenize(text, lowercase=not args.keep_case)
    if args.slice is not None:
        tokens = corpus.slice_tokens(tokens, args.slice)
    cfg = corpus.CooccurrenceConfig(window=args.window, min_count=args.min_count)
    table = corpus.count_cooccurrences(tokens, cfg)
    _err(
        f"counted {int(table.n)} pairs over {len(table.row_labels)} words "
        f"(window={args.window}, min_count={args.min_count})"
    )
    tables.write_tsv(table, args.out)
    print(args.out)
    return 0


def _ws_gammas(table, config):
    scores_path = config.get("ws_scores")
    if not scores_path:
        raise ValueError("method=ws needs a pair-score file (--ws-scores)")
    dataset = evaluation.load_wordsim(scores_path)
    score_map = {(a, b): s for a, b, s in dataset.triples}
    alpha = config.get("ws_alpha")
    if alpha is None:
        max_score = max(abs(s) for s in score_map.values())
        alpha = 0.1 / max_score if max_score > 0 else 0.0
        _err(f"config: ws_alpha defaulted to {alpha:g}")
    beta = config["ws_beta"]
    gamma_r = kca.build_gamma(table.row_labels, score_map, alpha, beta)
    gamma_c = kca.build_gamma(table.col_labels, score_map, alpha, beta)
    return gamma_r, gamma_c


def cmd_fit(args) -> int:
    config = _read_method_config(args)
    table = tables.read_tsv(args.table)
    stopwords = None
    if config.get("sw_alpha_row") is not None or config.get("sw_alpha_col") is not None:
        if not config.get("stopwords"):
            raise ValueError("stop-word alphas need a stop-word list (--stopwords)")
        stopwords = corpus.load_stopwords(config["stopwords"])
    gamma_r, gamma_c = _ws_gammas(table, config) if config["method"] == "ws" else (None, None)
    m = kca.method_from_name(
        config["method"],
        shift_k=config["shift_k"],
        kpca_alpha=config["kpca_alpha"],
        stopwords=stopwords,
        sw_alpha_row=config.get("sw_alpha_row"),
        sw_alpha_col=config.get("sw_alpha_col"),
        exponent=config["exponent"],
        gamma_row=gamma_r,
        gamma_col=gamma_c,
    )
    emb = kca.fit_kca(table, m, config.get("dim"))
    ca.write_embeddings(emb, args.out)
    _err(f"fitted {emb.method_tag}: k={emb.k}, top singular value {emb.singular_values[0]:.6g}")
    print(args.out)
    return 0


def cmd_eval(args) -> int:
    emb = ca.read_embeddings(args.embeddings)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    failed = False
    try:
        out.write("method\tdataset\trho\tused\tskipped\n")
        for path in args.wordsim:
            try:
                dataset = evaluation.load_wordsim(path)
                report = evaluation.evaluate(emb, args.which, dataset)
                out.write(
                    f"{emb.method_tag}\t{path}\t{report.spearman_rho:.6f}"
                    f"\t{report.pairs_used}\t{report.pairs_skipped}\n"
                )
            except (ValueError, OSError) as exc:
                failed = True
                _err(f"eval failed for {path}: {exc}")
                out.write(f"{emb.method_tag}\t{path}\terror\t0\t0\n")
    finally:
        if args.out:
            out.close()
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
    p_fit.add_argument("--method",
                       choices=["linear", "gini", "gtest", "sgns", "kpca_cd", "ws"])
    p_fit.add_argument("--dim", type=int)
    p_fit.add_argument("--shift-k", type=float, dest="shift_k")
    p_fit.add_argument("--sw-alpha-row", type=float, dest="sw_alpha_row")
    p_fit.add_argument("--sw-alpha-col", type=float, dest="sw_alpha_col")
    p_fit.add_argument("--ws-alpha", type=float, dest="ws_alpha")
    p_fit.add_argument("--ws-beta", type=float, dest="ws_beta")
    p_fit.add_argument("--exponent", type=float)
    p_fit.add_argument("--kpca-alpha", type=float, dest="kpca_alpha")
    p_fit.add_argument("--stopwords", help="stop-word list for the stop-word kernel")
    p_fit.add_argument("--ws-scores", dest="ws_scores",
                       help="pair-score file for the pair-score kernel (method=ws)")
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
