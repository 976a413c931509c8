"""Command-line pipeline: registration, morph generation, score evaluation.

Subcommands:

- ``register``: align one cloud to another, write the transform, the
  displacement field, and the aligned colored source.
- ``morph``: run a single pair end to end and save the blended cloud.
- ``pipeline``: batch-generate morphs from a pairing list, with a manifest.
- ``eval``: compute thresholds and the attack-potential report from score
  tables.
- ``quadrants``: export the per-record quadrant scatter only.

A flat ``key=value`` config file can preload any flag; explicit flags win.
A key is the long flag without ``--``, with ``-`` read as ``_`` (``max_iters``
for ``--max-iters``); on/off flags take yes/no words. Every run is
deterministic given its inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

from .bcpd import RegistrationParams, RegistrationResult, register
from .cloudio import downsample, load_ply, save_ply
from .errors import CloudMorphError
from .metrics import (
    FtarTable,
    ScoreTable,
    build_report,
    quadrant_counts,
    read_csv_rows,
    read_ftar_csv,
    read_nonmated_csv,
    read_scores_csv,
    threshold_at_fmr,
    write_csv_rows,
    write_report_csv,
    write_scatter_csv,
)
from .morpher import morph_registration

_DEFAULTS = RegistrationParams()
# What bad input raises: each is reported as "error: ..." with exit code 1,
# or, inside a pipeline, as that pair's error row.
_INPUT_ERRORS = (CloudMorphError, OSError, ValueError)

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    raise ValueError(f"cannot parse boolean from {text!r}")


def _config_keys(subparsers: dict) -> dict:
    """Config key -> argparse action, for every long flag of every
    subcommand except ``--help`` and ``--config``. A flag that several
    subcommands define maps to the first one's action, so such a flag must
    have the same type and default on each."""
    keys = {}
    for subparser in subparsers.values():
        for action in subparser._actions:
            for flag in action.option_strings:
                if flag.startswith("--") and flag not in ("--help", "--config"):
                    keys.setdefault(flag[2:].replace("-", "_"), action)
    return keys


def load_config(path, subparsers: dict) -> dict:
    """Parse a flat key=value file into argparse defaults.

    ``subparsers`` maps command names to their parsers, as
    :func:`build_parser` returns them; each value is parsed by its flag's
    own type. Blank lines and lines starting with '#' are ignored; unknown
    keys are an error so typos fail loudly, and so is a key given twice.
    """
    keys = _config_keys(subparsers)
    defaults = {}
    seen = {}  # key -> line it was first given on
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for line_num, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}: line {line_num}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"{path}: line {line_num}: unknown config key {key!r}")
        if key in seen:
            raise ValueError(f"{path}: line {line_num}: config key {key!r} "
                             f"already given on line {seen[key]}")
        seen[key] = line_num
        action = keys[key]
        parse = _parse_bool if action.nargs == 0 else (action.type or str)
        try:
            defaults[action.dest] = parse(value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_num}: {key}: {exc}") from None
    return defaults


def _add_registration_flags(parser: argparse.ArgumentParser) -> None:
    # dests are RegistrationParams field names, except downsample and seed
    parser.add_argument("--beta", type=float, default=_DEFAULTS.beta,
                        help="Gaussian kernel bandwidth (normalized units)")
    parser.add_argument("--lambda", dest="lam", type=float, default=_DEFAULTS.lam,
                        help="displacement stiffness weight")
    parser.add_argument("--omega", type=float, default=_DEFAULTS.omega,
                        help="outlier probability in [0, 1)")
    parser.add_argument("--gamma", type=float, default=_DEFAULTS.gamma,
                        help="initial residual-variance scale")
    parser.add_argument("--kappa", type=float, default=_DEFAULTS.kappa,
                        help="mixing-weight concentration; inf keeps weights uniform")
    parser.add_argument("--tol", type=float, default=_DEFAULTS.tol,
                        help="relative variance change that declares convergence")
    parser.add_argument("--max-iters", type=int, default=_DEFAULTS.max_iters,
                        help="iteration cap")
    parser.add_argument("--sigma-correction", dest="use_sigma_correction",
                        action="store_true", default=_DEFAULTS.use_sigma_correction,
                        help="include the posterior-covariance correction term")
    parser.add_argument("--downsample", type=int, default=2000,
                        help="random subsample size per cloud (>= 0); 0 keeps all points")
    parser.add_argument("--seed", type=int, default=0, help="base random seed")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and argparse's own map of command names to subparsers."""
    parser = argparse.ArgumentParser(
        prog="cloudmorph",
        description="Colored point-cloud registration, morphing, and attack metrics.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    formatter = argparse.ArgumentDefaultsHelpFormatter

    p_register = subparsers.add_parser(
        "register", formatter_class=formatter,
        help="align a source cloud to a target cloud")

    p_morph = subparsers.add_parser(
        "morph", formatter_class=formatter,
        help="register one pair and save the blended morph")
    p_morph.add_argument("--alpha", type=float, default=0.5,
                         help="source blend weight in [0, 1]")

    p_pipeline = subparsers.add_parser(
        "pipeline", formatter_class=formatter,
        help="batch-generate morphs from a pairing list")
    p_pipeline.add_argument("pairs", help="CSV pairing list: subject_a,subject_b,morph_id[,alpha]")
    p_pipeline.add_argument("--alpha", type=float, default=0.5,
                            help="source blend weight, unless a pair overrides it")

    for subparser in (p_register, p_morph):
        subparser.add_argument("source", help="source PLY file")
        subparser.add_argument("target", help="target PLY file")
    for subparser in (p_register, p_morph, p_pipeline):
        _add_registration_flags(subparser)

    p_eval = subparsers.add_parser(
        "eval", formatter_class=formatter,
        help="compute thresholds and the attack-potential report")
    p_eval.add_argument("scores", help="score CSV: morph_id,morph_type,frs_id,attempt,score_s1,score_s2")
    p_eval.add_argument("nonmated", help="non-mated score CSV: frs_id,score")
    p_eval.add_argument("--ftar", type=str, default=None,
                        help="failure-to-acquire CSV: frs_id,attempt,ftar (default: all zero)")

    p_quadrants = subparsers.add_parser(
        "quadrants", formatter_class=formatter,
        help="export the per-record quadrant scatter")
    p_quadrants.add_argument("scores", help="score CSV")
    p_quadrants.add_argument("nonmated", help="non-mated score CSV")

    for subparser in (p_eval, p_quadrants):
        subparser.add_argument("--fmr", type=float, default=0.001,
                               help="false-match-rate target for thresholds")

    # added last, so they close every subcommand's --help
    for subparser in subparsers.choices.values():
        subparser.add_argument("--out", type=str, default="out", help="output directory")
        subparser.add_argument("--config", type=str, default=None,
                               help="key=value config file; explicit flags override it")
    return parser, subparsers.choices


def _params_from_args(args: argparse.Namespace) -> RegistrationParams:
    """Registration parameters of ``args``; a negative ``--downsample`` or
    ``--seed``, and for ``morph`` and ``pipeline`` an ``--alpha`` outside
    [0, 1], are rejected here, before any input is read. An error of
    :class:`RegistrationParams`, which starts with the field's name, gets
    the flag that sets that field appended."""
    if args.downsample < 0:
        raise ValueError(f"--downsample must be >= 0, got {args.downsample}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.command in ("morph", "pipeline") and not 0.0 <= args.alpha <= 1.0:
        raise ValueError(f"--alpha must lie in [0, 1], got {args.alpha}")
    values = {f.name: getattr(args, f.name) for f in fields(RegistrationParams)}
    try:
        return RegistrationParams(**values)
    except ValueError as exc:
        field = str(exc).split()[0]
        actions = _config_keys(build_parser()[1]).values()
        flag = next(action.option_strings[0] for action in actions if action.dest == field)
        raise ValueError(f"{exc} ({flag})") from None


def _outcome(result: RegistrationResult) -> tuple[str, str, int]:
    """(manifest status, wording on stdout, exit code) of a registration.

    A run that stops at the iteration cap still writes its outputs, but
    ``register`` and ``morph`` exit 2 and the manifest says so.
    """
    if result.converged:
        return "converged", "converged", 0
    return "not_converged", "did not converge", 2


def _register_pair(args: argparse.Namespace, outputs=()) -> RegistrationResult:
    """``args.source`` registered onto ``args.target``, each read and
    subsampled. Before either file is read, the parameters are checked and
    a path of ``outputs`` that resolves to either input is rejected."""
    params = _params_from_args(args)
    inputs = {os.path.realpath(args.source), os.path.realpath(args.target)}
    for path in outputs:
        if os.path.realpath(path) in inputs:
            raise ValueError(f"{path} would overwrite an input cloud")
    source, target = (downsample(load_ply(path), args.downsample, args.seed)
                      for path in (args.source, args.target))
    return register(source, target, params)


def cmd_register(args: argparse.Namespace) -> int:
    outputs = [Path(args.out) / name for name in
               ("transform.csv", "displacements.csv", "normalization.csv", "aligned_source.ply")]
    transform_csv, displacements_csv, normalization_csv, aligned_ply = outputs
    result = _register_pair(args, outputs)
    transform = result.transform
    write_csv_rows(
        transform_csv,
        ["s", "r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33", "t1", "t2", "t3"],
        [[transform.scale, *transform.rotation.reshape(-1).tolist(), *transform.translation.tolist()]],
    )
    write_csv_rows(displacements_csv, ["vx", "vy", "vz"], result.displacement.tolist())
    write_csv_rows(
        normalization_csv,
        ["cloud", "cx", "cy", "cz", "scale"],
        [[name, *record.translation.tolist(), record.scale]
         for name, record in (("source", result.source_record), ("target", result.target_record))],
    )
    save_ply(result.aligned_source(), aligned_ply)
    _, said, code = _outcome(result)
    print(f"registration {said} after {result.iterations} iterations "
          f"(residual variance {result.state.sigma2:.3e})")
    return code


def cmd_morph(args: argparse.Namespace) -> int:
    result = _register_pair(args)
    blended = morph_registration(result, args.alpha)
    target_file = Path(args.out) / f"{blended.id}.ply"
    save_ply(blended, target_file)
    _, said, code = _outcome(result)
    print(f"{target_file} ({said} after {result.iterations} iterations)")
    return code


_PAIRING_COLUMNS = ("subject_a", "subject_b", "morph_id")


def _pairing_row(subject_a, subject_b, morph_id, alpha_text) -> dict:
    if not (subject_a and subject_b and morph_id):
        raise ValueError("incomplete pairing row")
    alpha_text = (alpha_text or "").strip()
    try:
        alpha = float(alpha_text) if alpha_text else None
    except ValueError as exc:
        raise ValueError(f"bad alpha {alpha_text!r}") from exc
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha_text!r} is not in [0, 1]")
    if morph_id in (".", "..") or Path(morph_id).name != morph_id:
        raise ValueError(f"morph_id {morph_id!r} is not a plain file name")
    return {"subject_a": subject_a, "subject_b": subject_b, "morph_id": morph_id, "alpha": alpha}


def _read_pairing_csv(path) -> list[dict]:
    pairs = list(read_csv_rows(path, _PAIRING_COLUMNS, _pairing_row, optional=("alpha",)))
    counts = Counter(p["morph_id"] for p in pairs)
    duplicates = sorted(m for m, count in counts.items() if count > 1)
    if duplicates:
        raise ValueError(f"{path}: duplicate morph_id values {duplicates}")
    return pairs


_MANIFEST_COLUMNS = (
    "morph_id", "subject_a", "subject_b", "alpha", "status", "iterations", "detail"
)


def cmd_pipeline(args: argparse.Namespace) -> int:
    out = Path(args.out)
    params = _params_from_args(args)
    pairs = _read_pairing_csv(args.pairs)
    # Subjects are told apart by their resolved paths, however spelled;
    # realpath, unlike Path.resolve, does not raise on a symlink loop.
    resolved = [(os.path.realpath(p["subject_a"]), os.path.realpath(p["subject_b"])) for p in pairs]
    subjects = set().union(*resolved)
    clobbered = [p["morph_id"] for p in pairs
                 if os.path.realpath(out / f"{p['morph_id']}.ply") in subjects]
    if clobbered:
        raise ValueError(f"{args.pairs}: morph_id values {clobbered} would overwrite subjects in {out}")
    # ``loaded`` is the batch's one subject cache, keyed by resolved path.
    # It holds each subject's outcome: the cloud, or the input error its read
    # raised, so every row naming a bad subject records the same detail. Each
    # subject is read once and dropped after the last valid pair that uses
    # it, so only subjects a later pair still needs stay in memory.
    last_use = {}
    for index, (a, b) in enumerate(resolved):
        if a != b:
            last_use[a] = last_use[b] = index
    loaded = {}
    manifest_rows = []
    done = 0
    for index, (pair, keys) in enumerate(zip(pairs, resolved)):
        alpha = pair["alpha"] if pair["alpha"] is not None else args.alpha
        row = dict.fromkeys(_MANIFEST_COLUMNS, "")
        row.update(pair, alpha=alpha)
        manifest_rows.append(row)
        if keys[0] == keys[1]:
            row["status"] = "invalid"
            row["detail"] = "subject paths name the same file"
            continue
        try:
            for key, path in zip(keys, (pair["subject_a"], pair["subject_b"])):
                if key not in loaded:
                    try:
                        loaded[key] = load_ply(path)
                    except _INPUT_ERRORS as exc:
                        # the reader's frames would keep the file's bytes alive
                        loaded[key] = exc.with_traceback(None)
                if isinstance(loaded[key], Exception):
                    raise loaded[key]
            source, target = (downsample(loaded[key], args.downsample, args.seed + index)
                              for key in keys)
            result = register(source, target, params)
            save_ply(morph_registration(result, alpha), out / f"{pair['morph_id']}.ply")
            row["status"] = _outcome(result)[0]
            row["iterations"] = result.iterations
            done += 1
        except _INPUT_ERRORS as exc:
            row["status"] = "error"
            row["detail"] = str(exc)
        for key in keys:
            if last_use[key] == index:
                loaded.pop(key, None)
    write_csv_rows(out / "manifest.csv", _MANIFEST_COLUMNS, [row.values() for row in manifest_rows])
    print(f"generated {done}/{len(pairs)} morphs into {out}")
    return 0


def _scores_and_thresholds(args: argparse.Namespace) -> tuple[ScoreTable, list]:
    """Score table, and one threshold per system at ``--fmr`` from its
    non-mated scores; an ``--fmr`` outside (0, 1) is rejected before either
    file is read."""
    if not 0.0 < args.fmr < 1.0:
        raise ValueError(f"--fmr must lie in (0, 1), got {args.fmr}")
    records = read_scores_csv(args.scores)
    nonmated = read_nonmated_csv(args.nonmated)
    thresholds = []
    for frs_id in records.frs_ids:
        if frs_id not in nonmated:
            raise ValueError(f"no non-mated scores for frs_id {frs_id!r}")
        thresholds.append(threshold_at_fmr(nonmated[frs_id], args.fmr, frs_id=frs_id))
    return records, thresholds


def cmd_eval(args: argparse.Namespace) -> int:
    out = Path(args.out)
    records, thresholds = _scores_and_thresholds(args)
    ftar = read_ftar_csv(args.ftar) if args.ftar else FtarTable()
    report = build_report(records, thresholds, ftar)
    write_report_csv(report, out / "report.csv")
    write_scatter_csv(records, thresholds, out / "quadrants.csv")
    for threshold in thresholds:
        flag = " (saturated)" if threshold.saturated else ""
        print(f"{threshold.frs_id} tau {threshold.tau!r}{flag}")
    for frs_id in sorted(report.per_frs):
        print(f"{frs_id} G-MAP-MA {report.per_frs[frs_id]:.4f}")
    print(f"G-MAP-MAMF {report.cross_frs:.4f}")
    return 0


def cmd_quadrants(args: argparse.Namespace) -> int:
    records, thresholds = _scores_and_thresholds(args)
    write_scatter_csv(records, thresholds, Path(args.out) / "quadrants.csv")
    for frs_id, counts in quadrant_counts(records, thresholds).items():
        print(f"{frs_id} I={counts['I']} II={counts['II']} "
              f"III={counts['III']} IV={counts['IV']}")
    return 0


_COMMANDS = {
    "register": cmd_register,
    "morph": cmd_morph,
    "pipeline": cmd_pipeline,
    "eval": cmd_eval,
    "quadrants": cmd_quadrants,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()

    prescan = argparse.ArgumentParser(add_help=False)
    prescan.add_argument("--config", type=str, default=None)
    known, _ = prescan.parse_known_args(argv)
    try:
        if known.config:
            defaults = load_config(known.config, subparsers)
            for subparser in subparsers.values():
                subparser.set_defaults(**defaults)
        args = parser.parse_args(argv)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
