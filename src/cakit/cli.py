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


# The `fit` method options, each declared once: name -> (type, default, extra
# argparse keywords).  Each is a --flag (dashes for underscores) and a config
# file key, converted and checked alike; a None default leaves it unset.
FIT_OPTIONS = {
    "method": (str, "linear", {"choices": kca.ASSOCIATIONS}),
    "dim": (int, None, {}),
    "shift_k": (float, 1.0, {}),
    "sw_alpha_row": (float, None, {}),
    "sw_alpha_col": (float, None, {}),
    "ws_alpha": (float, None, {}),
    "ws_beta": (float, 1.0, {}),
    "exponent": (float, 1.0, {}),
    "kpca_alpha": (float, -0.5, {}),
    "stopwords": (str, None, {"help": "stop-word list for the stop-word kernel"}),
    "ws_scores": (str, None, {"help": "pair-score file for the pair-score kernel (method=ws)"}),
}


def parse_method_config(text: str) -> dict:
    """Parse the flat key=value method configuration format.

    One ``key=value`` entry per line; blank lines and ``#`` comments are
    skipped.  Keys are the :data:`FIT_OPTIONS` names, and each value is
    converted and checked as its flag's is.  Errors name ``line N``.
    """
    return _parse_config(text, "line ")


def _parse_config(text: str, where: str) -> dict:
    """:func:`parse_method_config` with errors prefixed ``{where}{lineno}: ``."""
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
        kind, _, extra = FIT_OPTIONS[key]
        try:
            config[key] = kind(value)
        except ValueError:
            msg = f"{key}: invalid {kind.__name__} value {value!r}"
            raise ValueError(f"{where}{lineno}: {msg}") from None
        if "choices" in extra and config[key] not in extra["choices"]:
            raise ValueError(f"{where}{lineno}: {key}: invalid choice {value!r} "
                             f"(choose from {', '.join(extra['choices'])})")
    return config


def _read_method_config(args) -> dict:
    """Defaults, then config-file entries, then flags; each later source wins."""
    config = {key: default for key, (_, default, _) in FIT_OPTIONS.items()}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config.update(_parse_config(fh.read(), f"{args.config}:"))
    config.update((k, v) for k, v in vars(args).items() if k in FIT_OPTIONS and v is not None)
    for key in sorted(k for k, v in config.items() if v is not None):
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
    scores_path = config["ws_scores"]
    if not scores_path:
        raise ValueError("method=ws needs a pair-score file (--ws-scores)")
    dataset = evaluation.load_wordsim(scores_path)
    score_map = {(a, b): s for a, b, s in dataset.triples}
    alpha = config["ws_alpha"]
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
    if config["sw_alpha_row"] is not None or config["sw_alpha_col"] is not None:
        if not config["stopwords"]:
            raise ValueError("stop-word alphas need a stop-word list (--stopwords)")
        stopwords = corpus.load_stopwords(config["stopwords"])
    gamma_r, gamma_c = _ws_gammas(table, config) if config["method"] == "ws" else (None, None)
    m = kca.method_from_name(
        config["method"],
        shift_k=config["shift_k"],
        kpca_alpha=config["kpca_alpha"],
        stopwords=stopwords,
        sw_alpha_row=config["sw_alpha_row"],
        sw_alpha_col=config["sw_alpha_col"],
        exponent=config["exponent"],
        gamma_row=gamma_r,
        gamma_col=gamma_c,
    )
    emb = kca.fit_kca(table, m, config["dim"])
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
    for key, (kind, _, extra) in FIT_OPTIONS.items():
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
