"""Batch command-line interface wiring datasets, training, inference,
evaluation, and the experiment protocols together.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Before any command runs, :func:`cli_main` resolves the seed (the
LABELFORGE_SEED environment variable supplies the default; any --seed flag
overrides; a negative seed exits 2), prints a reproducibility line with
the package version, the seed, and a digest of the resolved options, and
hands the seed and the digest to the command.

Shared flags: every command takes --seed and --out, and every command but
synth takes --data and --truth-col. :func:`_add_command` declares them
when it registers a subcommand and its handler, so a flag that every
command takes is one line there.

Threads: a command runs numpy's BLAS on one thread. At the sizes a command
handles, OpenBLAS's second thread spins between calls, costing CPU time and
saving no wall time. OpenBLAS reads its thread count once, when numpy loads
it, so importing this module sets OPENBLAS_NUM_THREADS=1 for the duration
of its layer imports and then removes it again, leaving ``os.environ`` as it
was. It does so only when numpy is not loaded yet and none of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set: a count the
user chose wins, and a process that loaded numpy first keeps its setting.
"""

from __future__ import annotations

import argparse
import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_one_blas_thread = "numpy" not in sys.modules and not any(
    name in os.environ for name in BLAS_THREAD_VARS
)
if _one_blas_thread:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from . import __version__
    from .dataio import (
        ModelFile,
        load_model,
        read_dataset,
        read_grid,
        read_predictions,
        save_model,
        write_dataset,
        write_predictions,
        write_results_table,
    )
    from .errors import DataError, LabelForgeError, NumericalError
    from .experiments import (
        MODES,
        GridSpec,
        SyntheticSpec,
        build_mode_priors,
        generate_synthetic,
        grid_search,
        holdout,
        low_data_sweep,
        metric_rows,
        prior_quality_study,
        split,
        stability_sweep,
    )
    from .infer import majority_vote_predictions, predict
    from .metrics import format_percent, report_lines, score
    from .priors import build_user_priors
    from .train import TrainConfig, fit
finally:
    if _one_blas_thread:
        del os.environ["OPENBLAS_NUM_THREADS"]

# hashlib loads OpenSSL; loaded before numpy, it raised a gridsearch
# command's peak RSS by about 0.1 MB
import hashlib  # noqa: E402


def _parse_list(text: str, flag: str, cast=float) -> list:
    """The comma-separated values of ``flag``; empty entries are skipped, and
    a list with no value left is refused."""
    try:
        values = [cast(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        kind = "integers" if cast is int else "numbers"
        raise DataError(f"{flag} expects comma-separated {kind}, got {text!r}") from None
    if not values:
        raise DataError(f"{flag} needs at least one value, got {text!r}")
    return values


def _resolve_seed(args) -> int:
    """--seed, else LABELFORGE_SEED, else 0; a negative seed raises DataError."""
    seed, source = args.seed, "--seed"
    if seed is None:
        seed, source = os.environ.get("LABELFORGE_SEED", "0"), "LABELFORGE_SEED"
        try:
            seed = int(seed)
        except ValueError:
            raise DataError(f"LABELFORGE_SEED must be an integer, got {seed!r}") from None
    if seed < 0:
        raise DataError(f"{source} must be >= 0, got {seed}")
    return seed


_PATH_ARGS = ("func", "data", "out", "model", "pred", "truth", "grid")


def _announce(args, seed: int) -> str:
    """Print the reproducibility line; the digest covers the resolved
    configuration (paths excluded, so renaming files does not change it)."""
    options = sorted(
        (key, value) for key, value in vars(args).items() if key not in _PATH_ARGS
    )
    blob = ";".join(f"{key}={value}" for key, value in options) + f";resolved_seed={seed}"
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    print(f"# labelforge {__version__} command={args.command} seed={seed} config={digest}")
    return digest


def _read(path, truth_col: str, need_truth: bool = False):
    """The dataset at ``path``; a missing truth column is refused if needed or
    named (only the default "y" may be absent: a misspelt name fits y as an LF)."""
    dataset = read_dataset(path, truth_col)
    if dataset.truth is None and (need_truth or truth_col != "y"):
        raise DataError(f"{path}: no truth column {truth_col!r} in the header")
    return dataset


# each training flag and the TrainConfig field it sets
_TRAIN_FLAGS = {"lr": "learning_rate", "epochs": "max_epochs", "batch": "batch_size",
                "patience": "patience", "alpha_init": "alpha_init"}


def _train_config(args, seed: int) -> TrainConfig:
    """The config of the training flags the command takes; the rest keep their defaults."""
    given = vars(args)
    return TrainConfig(
        seed=seed, **{field: given[flag] for flag, field in _TRAIN_FLAGS.items() if flag in given}
    )


def _label(model: ModelFile, dataset):
    """The predictions of ``model`` on ``dataset``, whose LF count must match."""
    if dataset.m != model.params.m:
        raise DataError(f"model expects {model.params.m} LF columns, data has {dataset.m}")
    return predict(dataset.votes, model.params, model.prior.label_prior)


def _write_results(path, rows, what: str = "results") -> None:
    """Write ``rows`` as a results table to ``path``, if one is given."""
    if path:
        write_results_table(path, rows)
        print(f"{what} written to {path}")


def _cmd_train(args, seed: int, digest: str) -> int:
    dataset = _read(args.data, args.truth_col)
    train, val = holdout(dataset, args.val_frac, seed)
    if args.mode == "map-user":
        prior = build_user_priors(
            _parse_list(args.prior_u, "--prior-u"),
            _parse_list(args.prior_v, "--prior-v"),
            args.p,
            force_abstain=args.force_abstain,
        )
    else:
        prior = build_mode_priors(
            args.mode, train.votes, train.truth, args.strength, args.p,
            args.force_abstain, seed,
        )
    config = _train_config(args, seed)
    result = fit(train.votes, None if val is None else val.votes, prior, config)
    save_model(args.out, ModelFile(result.params, prior, digest))
    print(f"trained mode={args.mode} epochs={result.stopped_epoch} best_epoch={result.best_epoch}")
    if result.train_loss_history:
        print(f"final_train_loss={result.train_loss_history[-1]!r}")
    if result.val_loss_history:
        print(f"best_val_loss={min(result.val_loss_history)!r}")
    print(f"model written to {args.out}")
    return 0


def _cmd_predict(args, seed: int, digest: str) -> int:
    model = load_model(args.model)
    write_predictions(args.out, _label(model, _read(args.data, args.truth_col)))
    print(f"predictions written to {args.out}")
    return 0


def _cmd_evaluate(args, seed: int, digest: str) -> int:
    # argparse admits exactly one source, and --data where it is needed
    dataset = None
    if args.data is not None:
        dataset = _read(args.data, args.truth_col, need_truth=args.truth is None)
    if args.pred is not None:
        preds, row_tag = read_predictions(args.pred), "pred"
    elif args.model is not None:
        preds, row_tag = _label(load_model(args.model), dataset), "model"
    else:
        preds, row_tag = majority_vote_predictions(dataset.votes), "mv"

    if args.truth is not None:  # scored against the truth file, else against --data
        dataset = _read(args.truth, args.truth_col, need_truth=True)
    report = score(preds, dataset.truth)
    for line in report_lines(report):
        print(line)
    _write_results(args.out, metric_rows("evaluate", row_tag, len(preds), "0", report.as_dict()),
                   "report")
    return 0


def _cmd_gridsearch(args, seed: int, digest: str) -> int:
    dataset = _read(args.data, args.truth_col, need_truth=True)
    train, val, _ = split(dataset, seed)
    grid = GridSpec() if args.grid is None else read_grid(args.grid)
    result = grid_search(train, val, grid, args.mode, _train_config(args, seed))
    for cell in result.cells:
        if cell.error is not None:
            print(f"cell #{cell.index} failed: {cell.error}", file=sys.stderr)
    print(f"best cell #{result.best.index} wins={result.best.wins}: {result.best.settings}")
    rows = [
        row
        for cell in result.cells
        if cell.report is not None
        for row in metric_rows("gridsearch", args.mode, "", str(cell.index), cell.report.as_dict())
    ]
    _write_results(args.out, rows, "per-cell metrics")
    return 0


def _sweep_options(args, seed: int) -> dict:
    """The options lowdata and stability pass their sweep alike."""
    return dict(modes=tuple(args.modes.split(",")), config=_train_config(args, seed),
                strength=args.strength, p=args.p, force_abstain=args.force_abstain)


def _cmd_lowdata(args, seed: int, digest: str) -> int:
    dataset = _read(args.data, args.truth_col)
    rows = low_data_sweep(dataset, _parse_list(args.sizes, "--sizes", int), args.replicates,
                          **_sweep_options(args, seed))
    for row in rows:
        if row["replicate"] in ("mean", "std") and row["metric"] == "f1":
            print(
                f"size={row['size']} mode={row['mode']} f1_{row['replicate']}="
                f"{format_percent(row['value'])}"
            )
    _write_results(args.out, rows)
    return 0


def _cmd_stability(args, seed: int, digest: str) -> int:
    dataset = _read(args.data, args.truth_col)
    train, _, test = split(dataset, seed)
    rows = stability_sweep(train, test, _parse_list(args.epoch_grid, "--epoch-grid", int),
                           **_sweep_options(args, seed))
    for row in rows:
        if row["metric"] == "f1":
            print(f"epochs={row['size']} mode={row['mode']} f1={format_percent(row['value'])}")
    _write_results(args.out, rows)
    return 0


def _cmd_synth(args, seed: int, digest: str) -> int:
    accuracy = _parse_list(args.alpha, "--alpha")
    coverage = _parse_list(args.beta, "--beta")
    spec = SyntheticSpec(
        m=args.m,
        n=args.n,
        accuracy=tuple(accuracy) if len(accuracy) > 1 else accuracy[0],
        coverage=tuple(coverage) if len(coverage) > 1 else coverage[0],
        class_balance=args.balance,
        seed=seed,
    )
    dataset = generate_synthetic(spec)
    write_dataset(args.out, dataset)
    print(f"synthetic dataset ({dataset.n} rows, {dataset.m} LFs) written to {args.out}")
    return 0


def _cmd_priors_study(args, seed: int, digest: str) -> int:
    dataset = _read(args.data, args.truth_col)
    study = prior_quality_study(
        dataset,
        strength=args.strength,
        p=args.p,
        config=_train_config(args, seed),
    )
    rows = []
    for mode, entry in study.items():
        prior_text = "-" if entry["prior_l2"] is None else f"{entry['prior_l2']:.3f}"
        print(f"{mode}: prior_l2={prior_text} alpha_l2={entry['alpha_l2']:.3f}")
        rows.extend(metric_rows("priors_study", mode, "", "0", entry))
    _write_results(args.out, rows)
    return 0


def _train_refusal(args) -> str | None:
    if args.mode == "map-user" and None in (args.prior_u, args.prior_v):
        return "--mode map-user requires --prior-u and --prior-v"


def _evaluate_refusal(args) -> str | None:
    if args.data is None and args.pred is None:
        return f"{'--model' if args.model is not None else '--mode mv'} requires --data"
    if args.data is None and args.truth is None:
        return "--pred requires --truth or --data"


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser. ``refusal(args)`` names a combination of flags
    that the command refuses and argparse cannot declare (None if there is
    none), which is then a usage error like any other."""

    refusal = staticmethod(lambda args: None)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        problem = self.refusal(namespace)
        if problem:
            self.error(problem)
        return namespace, extras


def _add_command(sub, name: str, func, summary: str, *, out_required: bool = False,
                 data: bool | None = True):
    """Register the subcommand ``name``, run by ``func``, with the flags every
    command takes: --seed and --out, and --data (required if ``data`` is True,
    optional if False, absent if None) with --truth-col."""
    cmd = sub.add_parser(name, help=summary)
    cmd.set_defaults(func=func)
    cmd.add_argument("--seed", type=int, default=None)
    cmd.add_argument("--out", required=out_required, default=None)
    if data is not None:
        cmd.add_argument("--data", required=data, default=None)
        cmd.add_argument("--truth-col", default="y")
    return cmd


def _add_train_flags(sub, with_init: bool = True, with_stop: bool = True) -> None:
    sub.add_argument("--batch", type=int, default=None)
    if with_stop:
        sub.add_argument("--epochs", type=int, default=100)
        sub.add_argument("--patience", type=int, default=5)
    if with_init:
        sub.add_argument("--lr", type=float, default=0.01)
        sub.add_argument("--alpha-init", type=float, default=1.0)


def _add_prior_flags(sub, with_abstain: bool = True) -> None:
    sub.add_argument("--strength", type=float, default=10.0)
    sub.add_argument("--p", type=float, default=0.5)
    if with_abstain:
        sub.add_argument("--force-abstain", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelforge",
        description="Denoise labeling-function vote matrices with a regularized generative model.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    train = _add_command(sub, "train", _cmd_train, "fit a model and write a model file",
                         out_required=True)
    train.refusal = _train_refusal
    train.add_argument("--val-frac", type=float, default=0.1)
    train.add_argument("--mode", choices=(*MODES, "map-user"), default="map-mv")
    train.add_argument("--prior-u", default=None, help="comma list for map-user")
    train.add_argument("--prior-v", default=None, help="comma list for map-user")
    _add_prior_flags(train)
    _add_train_flags(train)

    pred = _add_command(sub, "predict", _cmd_predict, "label a dataset with a saved model",
                        out_required=True)
    pred.add_argument("--model", required=True)

    ev = _add_command(sub, "evaluate", _cmd_evaluate, "score predictions against ground truth",
                      data=False)
    ev.refusal = _evaluate_refusal
    source = ev.add_mutually_exclusive_group(required=True)
    source.add_argument("--pred", default=None)
    source.add_argument("--model", default=None, help="needs --data")
    source.add_argument("--mode", choices=("mv",), default=None, help="needs --data")
    ev.add_argument("--truth", default=None)

    gs = _add_command(sub, "gridsearch", _cmd_gridsearch, "hyperparameter grid search on a split")
    gs.add_argument("--grid", default=None, help="JSON file of candidate value lists")
    gs.add_argument("--mode", choices=MODES, default="map-mv")
    _add_train_flags(gs, with_init=False)  # the grid sets --lr and --alpha-init

    ld = _add_command(sub, "lowdata", _cmd_lowdata, "training-set-size sweep")
    ld.add_argument("--sizes", required=True, help="comma list of training sizes")
    ld.add_argument("--replicates", type=int, default=5)
    ld.add_argument("--modes", default="map-mv,mle")
    _add_prior_flags(ld)
    _add_train_flags(ld)

    st = _add_command(sub, "stability", _cmd_stability, "test metrics per fixed epoch budget")
    st.add_argument("--epoch-grid", required=True, help="comma list of epoch budgets")
    st.add_argument("--modes", default="map-mv,mle")
    _add_prior_flags(st)
    _add_train_flags(st, with_stop=False)  # each budget sets the epochs; no validation split

    sy = _add_command(sub, "synth", _cmd_synth, "sample a synthetic dataset from the model",
                      out_required=True, data=None)
    sy.add_argument("--m", type=int, required=True)
    sy.add_argument("--n", type=int, required=True)
    sy.add_argument("--alpha", required=True, help="accuracy value or comma list")
    sy.add_argument("--beta", required=True, help="coverage value or comma list")
    sy.add_argument("--balance", type=float, default=0.5)

    ps = _add_command(sub, "priors-study", _cmd_priors_study,
                      "prior and accuracy distances per mode")
    _add_prior_flags(ps, with_abstain=False)
    _add_train_flags(ps)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; usage maps to 1
        return 0 if exc.code == 0 else 1
    try:
        seed = _resolve_seed(args)
        return args.func(args, seed, _announce(args, seed))
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (LabelForgeError, OSError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
