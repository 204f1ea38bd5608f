"""Command-line surface: synth, profile, logit-align, train, score, eval.

Every command is deterministic given --seed. Diagnostics go to stderr; exit
code 0 on success, 1 on data errors, 2 on usage errors. JSON artifacts embed
{tool_version, seed, config_hash} for exact replay.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import fields
from functools import cache
from itertools import compress

from . import __version__
from .align import (
    VARIANTS,
    NessaConfig,
    load_checkpoint,
    save_checkpoint,
    save_training_log,
    side_maps,
    split_train_val,
    train,
)
from .data import (
    _load_json,
    load_embeddings,
    load_profiles,
    load_trials,
    save_embeddings,
    save_scores,
    save_trials,
)
from .errors import (
    ConfigInvalid,
    DegenerateTrialSet,
    DimensionMismatch,
    EmptyEnrollment,
    InsufficientData,
    ModelMismatch,
    ParseError,
    SidAlignError,
    ZeroVector,
)
from .logit import (
    build_weight_matrix,
    compute_fusion_transform,
    fusion_maps,
    load_fusion,
    save_fusion,
)
from .metrics import (
    DEFAULT_FAR_TARGETS,
    cosine_scorer,
    evaluate,
    far_key,
    load_report,
    report_json,
    save_report,
    score_trials,
)
from .numerics import Prng, finite_number
from .synth import SynthConfig, generate, make_trials

# Every scorer is cosine(enroll_map(profile), runtime_map(runtime)). Scorer id
# -> (profile view, runtime view, the artifact option whose file supplies the
# two side maps; None compares the views as they are).
SCORERS = {
    "cosine-sym-x": ("x", "x", None),
    "cosine-sym-y": ("y", "y", None),
    "cosine-asym-raw": ("x", "y", None),
    "logit-fused": ("x", "y", "fusion"),
    **{f"nessa-{variant}": ("x", "y", "checkpoint") for variant in VARIANTS},
}


_PATH_ARGS = frozenset({
    "config", "out", "out_x", "out_y", "trials_out", "embeddings",
    "profiles_x", "profiles_y", "corpus_x", "corpus_y", "trials", "fusion",
    "checkpoint", "log", "scores", "baseline_report", "candidate_report",
})


def _config_hash(args: argparse.Namespace) -> str:
    """Hash of the behavioral settings only; file locations are excluded so
    the same logical run yields identical artifacts anywhere on disk."""
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in _PATH_ARGS}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _provenance(args) -> dict:
    return {
        "tool_version": __version__,
        "seed": getattr(args, "seed", None),
        "config_hash": _config_hash(args),
    }


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    cfg = _config(SynthConfig, args)
    if args.config:
        _apply_config(cfg, args.config)
    trial_seed = args.trial_seed if args.trial_seed is not None else cfg.seed
    Prng(trial_seed)  # refuses a negative seed, drawn or not
    corpus_x, corpus_y, _ = generate(cfg)
    trials = None
    if args.trials_out:  # drawn first, so that refused counts leave no file behind
        trials = make_trials(corpus_y, args.n_target, args.n_imposter, trial_seed)
    save_embeddings(corpus_x, args.out_x)
    save_embeddings(corpus_y, args.out_y)
    if trials is not None:
        save_trials(trials, args.trials_out)
    print(f"wrote {len(corpus_x)} records per view", file=sys.stderr)
    return 0


def _apply_config(cfg: SynthConfig, path) -> None:
    """Override cfg with a JSON config file's settings. A value must have its
    setting's type (_setting_type): an int is also a float, a bool is
    neither, and model_seed (default None) takes an int or null."""
    overrides = _load_json(path, "config")
    if not isinstance(overrides, dict):
        raise ParseError(f"{path}: expected a JSON object of settings")
    defaults = {f.name: f.default for f in fields(SynthConfig)}
    for key, value in overrides.items():
        if key not in defaults:
            raise SidAlignError(f"{path}: unknown config key {key!r}")
        kind = _setting_type(defaults[key])
        if not (isinstance(value, (int, float) if kind is float else kind)
                and not isinstance(value, bool) or value is None and defaults[key] is None):
            raise ParseError(f"{path}: {key} = {value!r} has the wrong type")
        setattr(cfg, key, value)


@contextmanager
def _naming(path, kind):
    """Prefix path to an error of type kind that the block raises (or, as a
    decorator, the function it wraps)."""
    try:
        yield
    except kind as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _profiles(corpus, path):
    """A corpus's profile set; a corpus without enrollment records, or with a
    vector that cannot be normalized, is an error that names its file."""
    with _naming(path, (EmptyEnrollment, ZeroVector)):
        return corpus.profiles


def _two_models(x, y, path_x, path_y) -> None:
    """The X and Y corpora (or profile sets) must hold two different models,
    of one dimension. (Which of the two is X cannot be told from the files.)"""
    if x.model_id is not None and x.model_id == y.model_id:
        raise ModelMismatch(
            f"{path_x} and {path_y} both hold model {x.model_id!r}; "
            f"the X and Y inputs need two models")
    if x.dim and y.dim and x.dim != y.dim:
        raise DimensionMismatch(f"{path_x} holds vectors of shape {x.vectors.shape} "
                                f"and {path_y} of shape {y.vectors.shape}")


def cmd_profile(args) -> int:
    profiles = _profiles(load_embeddings(args.embeddings), args.embeddings)
    save_embeddings(profiles, args.out)
    print(f"wrote {len(profiles)} profiles", file=sys.stderr)
    return 0


def cmd_logit_align(args) -> int:
    if args.n_speakers < 0:
        raise ConfigInvalid(f"--n-speakers {args.n_speakers} is negative (0 = all)")
    prng = Prng(args.seed)  # refuses a negative seed, drawn or not
    profiles_x = load_profiles(args.profiles_x)
    profiles_y = load_profiles(args.profiles_y)
    have_y = set(profiles_y.speakers)
    shared = [s for s in profiles_x.speakers if s in have_y]
    if not shared:
        raise InsufficientData(
            f"{args.profiles_x} and {args.profiles_y} share no speaker")
    _two_models(profiles_x, profiles_y, args.profiles_x, args.profiles_y)
    if args.n_speakers and args.n_speakers < len(shared):
        picks = sorted(prng.choice(len(shared), args.n_speakers))
        shared = [shared[int(i)] for i in picks]
    w_x = build_weight_matrix(profiles_x, shared)
    w_y = build_weight_matrix(profiles_y, shared)
    fusion = compute_fusion_transform(w_x, w_y)
    save_fusion(fusion, args.out, extra=_provenance(args))
    print(f"fusion transform: N={fusion.n_speakers} d={fusion.d}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    if not 0 <= args.val_fraction < 1:
        raise ConfigInvalid(f"--val-fraction {args.val_fraction} is not in [0, 1)")
    cfg = _config(NessaConfig, args)
    cfg.validate()  # before any corpus is loaded
    corpus_x = load_embeddings(args.corpus_x)
    corpus_y = load_embeddings(args.corpus_y)
    _two_models(corpus_x, corpus_y, args.corpus_x, args.corpus_y)
    # PairedData reads both views' profiles; build them here, where a view
    # without them, or with a row they refuse, can be named.
    _profiles(corpus_x, args.corpus_x)
    _profiles(corpus_y, args.corpus_y)
    ckpt = train(cfg, *split_train_val(corpus_x, corpus_y, args.val_fraction, args.seed))
    save_checkpoint(ckpt, args.out, extra=_provenance(args))
    if args.log:
        save_training_log(ckpt.log, args.log)
    for entry in ckpt.log:
        val = entry["val_loss"]
        print(f"epoch {entry['epoch']}: train {entry['train_loss']:.6g} "
              f"val {'none' if val is None else format(val, '.6g')}", file=sys.stderr)
    return 0


def cmd_score(args) -> int:
    scorer_id = args.scorer
    profile_view, runtime_view, source = SCORERS[scorer_id]
    paths = {"x": args.corpus_x, "y": args.corpus_y}
    # a value a map cannot hold names the file of the view the map reads
    enroll_map, runtime_map = (fn and _naming(paths[view], ParseError)(fn) for fn, view
                               in zip(_side_maps(scorer_id, source, args),
                                      (profile_view, runtime_view)))
    corpora = {v: load_embeddings(paths[v])
               for v in dict.fromkeys((profile_view, runtime_view))}
    if profile_view != runtime_view:
        _two_models(corpora["x"], corpora["y"], args.corpus_x, args.corpus_y)
    trials = load_trials(args.trials)
    profiles = _profiles(corpora[profile_view], paths[profile_view])
    profile_vectors = dict(zip(profiles.speakers, profiles.vectors))
    runtime = corpora[runtime_view]
    # rows of the matrix itself, not of a copy of its runtime rows
    runtime_vectors = dict(compress(zip(runtime.utterances, runtime.vectors), ~runtime.enroll))
    with _naming(getattr(args, source), DimensionMismatch) if source else nullcontext():
        scored = score_trials(trials, cosine_scorer, profile_vectors, runtime_vectors,
                              enroll_map, runtime_map)
    save_scores(scored, args.out)
    print(f"scored {len(scored)} trials with {scorer_id}", file=sys.stderr)
    return 0


def _side_maps(scorer_id: str, source: str | None, args):
    """The (enrollment, runtime) maps a scorer reads from its artifact."""
    if source is None:
        return None, None
    path = getattr(args, source)
    if not path:
        raise SidAlignError(f"--{source} is required for the {scorer_id} scorer")
    if source == "fusion":
        return fusion_maps(load_fusion(path))
    ckpt = load_checkpoint(path)
    if ckpt.variant != scorer_id.split("-")[1]:
        raise SidAlignError(
            f"checkpoint variant {ckpt.variant!r} does not match {scorer_id}")
    return side_maps(ckpt)


def cmd_eval(args) -> int:
    if args.candidate_report and not args.baseline_report:
        raise ConfigInvalid("--candidate-report needs --baseline-report")
    trials = load_trials(args.scores)
    far_targets = [float(x) for x in args.far.split(",")]
    baseline_frrs = None
    candidate_impacts = None
    if args.baseline_report:
        baseline_frrs = _per_far(args.baseline_report, "frr", required=True, unit=True)
    if args.candidate_report:
        candidate_impacts = _per_far(args.candidate_report, "relative_impact",
                                     required=False)
    with _naming(args.scores, DegenerateTrialSet):  # unscored or unusable scores
        report = evaluate(trials, args.scorer_id, far_targets,
                          baseline_frrs, candidate_impacts)
    report.update(_provenance(args))
    save_report(report, args.out)
    if args.stdout:
        sys.stdout.write(report_json(report))
    print(f"eer {report['eer']:.4f}", file=sys.stderr)
    return 0


def _per_far(path, key: str, required: bool, unit: bool = False) -> dict:
    """{far key: entry[key]} over a saved report's per_far entries; entries
    without the key are skipped unless it is required. Each target_far and
    value must be a finite number, the value in [0, 1] if unit, and no two
    target_fars may share a far key."""
    report = load_report(path)
    if not isinstance(report, dict):
        raise ParseError(f"{path}: malformed report: not a JSON object")
    try:
        entries = report["per_far"]
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ParseError(f"{path}: malformed report: per_far is not a list of objects")
        entries = [(e["target_far"], e[key]) for e in entries if required or key in e]
    except KeyError as exc:
        raise ParseError(f"{path}: malformed report: missing {exc}") from exc
    per_far = {}
    for far, value in entries:
        if not finite_number(far):
            raise ParseError(f"{path}: target_far {far!r} is not a finite number")
        if not finite_number(value) or unit and not 0 <= value <= 1:
            raise ParseError(f"{path}: {key} {value!r} is not a finite number"
                             + (" in [0, 1]" if unit else ""))
        if far_key(far) in per_far:
            raise ParseError(f"{path}: target_far {far!r} is repeated")
        per_far[far_key(far)] = value
    return per_far


def _far_list(text: str) -> str:
    """Check --far at parse time, so a bad list is a usage error; the text is
    kept as given because the config hash covers it. A FAR has no FRR unless
    it is in (0, 1), and two targets with one far_key would be two report
    entries that eval cannot tell apart."""
    try:
        fars = [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    if not all(0 < far < 1 for far in fars):
        raise argparse.ArgumentTypeError(f"a target FAR is not in (0, 1) in {text!r}")
    keys = [far_key(far) for far in fars]
    if len(set(keys)) != len(keys):
        raise argparse.ArgumentTypeError(f"a target FAR is repeated in {text!r}")
    return text


# ---------------------------------------------------------------------------
# Parser


# The settings flags of synth and train are the fields of SynthConfig and
# NessaConfig. A field's argparse dest is its name, apart from these; the
# config hash covers the dests, so they keep their spelling.
_DESTS = {"n_enroll_utts": "n_enroll", "n_runtime_utts": "n_runtime",
          "within_noise_x": "noise_x", "within_noise_y": "noise_y",
          "steps_per_epoch": "steps", "batch_size": "batch", "lr0": "lr", "lr_decay": "decay"}


def _setting_type(default) -> type:
    """A setting's type from its default: int, float or str; None is int."""
    return int if default is None else type(default)


def _add_settings(parser, config_cls, **extra) -> None:
    """One flag per field of config_cls, with the field's default and type;
    extra holds more add_argument keywords per field name."""
    for f in fields(config_cls):
        parser.add_argument("--" + _DESTS.get(f.name, f.name).replace("_", "-"), **{
            "default": f.default, "type": _setting_type(f.default), **extra.get(f.name, {})})


def _config(config_cls, args):
    """config_cls built from the flags that _add_settings added."""
    return config_cls(**{f.name: getattr(args, _DESTS.get(f.name, f.name))
                         for f in fields(config_cls)})


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared by the
    later ones: parse_args keeps no state in it, and building it is most of
    the fixed cost of a short command run in-process."""
    parser = argparse.ArgumentParser(prog="sidalign")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a paired synthetic corpus")
    p.add_argument("--config",
                   help="JSON object of settings; they override the flags")
    _add_settings(p, SynthConfig, model_seed={
        "help": "seed for the distortion maps (defaults to --seed)"})
    p.add_argument("--out-x", required=True)
    p.add_argument("--out-y", required=True)
    p.add_argument("--trials-out")
    p.add_argument("--n-target", type=int, default=500)
    p.add_argument("--n-imposter", type=int, default=500)
    p.add_argument("--trial-seed", type=int)

    p = sub.add_parser("profile", help="build voice profiles from a corpus")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("logit-align", help="build the fused logit transform")
    p.add_argument("--profiles-x", required=True)
    p.add_argument("--profiles-y", required=True)
    p.add_argument("--n-speakers", type=int, default=0,
                   help="subsample this many shared speakers (0 = all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train an embedding space aligner")
    p.add_argument("--corpus-x", required=True)
    p.add_argument("--corpus-y", required=True)
    _add_settings(p, NessaConfig, variant={
        "choices": VARIANTS, "required": True, "default": None})
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.add_argument("--log")

    p = sub.add_parser("score", help="score a trial list")
    p.add_argument("--scorer", choices=tuple(SCORERS), required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--corpus-x", required=True)
    p.add_argument("--corpus-y", required=True)
    p.add_argument("--fusion")
    p.add_argument("--checkpoint")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="compute EER and FRR@FAR report")
    p.add_argument("--scores", required=True)
    p.add_argument("--scorer-id", default="system")
    p.add_argument("--far", default=",".join(map(str, DEFAULT_FAR_TARGETS)),
                   type=_far_list)
    p.add_argument("--baseline-report")
    p.add_argument("--candidate-report")
    p.add_argument("--stdout", action="store_true")
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The command is looked up at each call, not bound into the cached parser,
    # so a cmd_* replaced on this module (a tracer's wrapper, a test's mock) runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (SidAlignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
