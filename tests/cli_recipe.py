"""The 600-speaker CLI recipe: every command on two synthetic views, then the
sha256 of every file written.

    PYTHONPATH=src python tests/cli_recipe.py OUTDIR

For seed 1 in the orthogonal view and in the mlp_nonlinear view (600
speakers, 5 enroll and 3 runtime utterances each, d = 32) it runs synth,
profile for both models, logit-align over all speakers and over 40 of them
(N = 40 < 2d, stacked weights of rank N), train m1, m2, m3, m3 --alpha 0
and m3 --beta 0 --gamma 0, score with all seven scorers and eval of each
scores file. It then prints "sha256  path" for every file under OUTDIR, training
logs hashed without their wall_ms fields, so that two versions of the code
write the same bytes exactly when they print the same lines:

    diff <(PYTHONPATH=old/src python tests/cli_recipe.py /tmp/a) \\
         <(PYTHONPATH=src python tests/cli_recipe.py /tmp/b)

The name does not match test_*.py, so pytest does not collect it.
"""

import hashlib
import re
import sys
from pathlib import Path

from sidalign.cli import SCORERS, main

VIEWS = ("orthogonal", "mlp_nonlinear")
TRAIN_SETTINGS = ["--epochs", "3", "--steps", "20", "--batch", "256", "--bank-size",
                  "512", "--hidden", "256", "--seed", "1"]
# Checkpoint name -> variant and settings on top of TRAIN_SETTINGS.
RUNS = {
    "m1": ["--variant", "m1"],
    "m2": ["--variant", "m2"],
    "m3": ["--variant", "m3"],
    "m3_no_contrastive": ["--variant", "m3", "--alpha", "0"],
    "m3_no_anchors": ["--variant", "m3", "--beta", "0", "--gamma", "0"],
}
WALL_MS = re.compile(rb', "wall_ms": \d+')


def run(argv) -> None:
    if main([str(a) for a in argv]) != 0:
        raise SystemExit(f"failed: sidalign {' '.join(map(str, argv))}")


def view_recipe(root: Path, view: str) -> None:
    root.mkdir(parents=True)
    x, y, trials = root / "x.jsonl", root / "y.jsonl", root / "trials.tsv"
    run(["synth", "--n-speakers", 600, "--n-enroll", 5, "--n-runtime", 3,
         "--latent-dim", 32, "--embed-dim", 32, "--distortion-x", view,
         "--distortion-y", view, "--seed", 1, "--out-x", x, "--out-y", y,
         "--trials-out", trials])
    for side, corpus in (("x", x), ("y", y)):
        run(["profile", "--embeddings", corpus, "--out", root / f"prof_{side}.jsonl"])
    run(["logit-align", "--profiles-x", root / "prof_x.jsonl", "--profiles-y",
         root / "prof_y.jsonl", "--out", root / "fusion.json"])
    run(["logit-align", "--profiles-x", root / "prof_x.jsonl", "--profiles-y",
         root / "prof_y.jsonl", "--n-speakers", 40, "--seed", 1,
         "--out", root / "fusion_n40.json"])
    for name, settings in RUNS.items():
        run(["train", "--corpus-x", x, "--corpus-y", y, *settings, *TRAIN_SETTINGS,
             "--out", root / f"{name}.json", "--log", root / f"{name}_log.jsonl"])
    for scorer, (_, _, source) in SCORERS.items():
        artifact = {None: [], "fusion": ["--fusion", root / "fusion.json"],
                    "checkpoint": ["--checkpoint",
                                   root / f"{scorer.split('-')[1]}.json"]}[source]
        scores = root / f"scores_{scorer}.tsv"
        run(["score", "--scorer", scorer, "--trials", trials, "--corpus-x", x,
             "--corpus-y", y, *artifact, "--out", scores])
        run(["eval", "--scores", scores, "--scorer-id", scorer,
             "--out", root / f"report_{scorer}.json"])


def main_recipe(outdir: Path) -> None:
    for view in VIEWS:
        view_recipe(outdir / view, view)
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith("_log.jsonl"):
            data = WALL_MS.sub(b"", data)
        print(f"{hashlib.sha256(data).hexdigest()}  {path.relative_to(outdir)}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tests/cli_recipe.py OUTDIR")
    main_recipe(Path(sys.argv[1]))
