"""Print one SHA-256 per output artifact of a fixed set of selcls runs.

A change that should leave every output unchanged, such as a performance
change, is checked by comparing its digests with its parent's:

    python tools/output_digest.py                   # the package in ./src
    python tools/output_digest.py --src OTHER/src   # another checkout's
    python tools/output_digest.py --against OTHER   # both, then the diff

``--against`` exits 1 when any artifact differs and names each one, as
``differs: <name>``, or as ``only in <checkout>: <name>`` when one side
has no such artifact. ``selcls grid`` runs its cells in one worker
process per usable CPU, and under ``taskset -c 0`` in-process; the
printout must be the same either way. The runs take 6-8 s per checkout
on a shared 2-core VM (13 s for both sides of ``--against``) and write
only to a temporary directory:

    train/<objective>.*  cli.run_cell for each of the 8 objectives on
                         perfbench/configs/blobs8.json: its checkpoint
                         and report CSV
    train/cli/           selcls train on perfbench/configs/blobs8.json:
                         run_config.json (with the split sizes and
                         fingerprints), checkpoint.json,
                         train_report.csv and manifest.json
    eval/<head>-<split>/ selcls eval on the CE (plain), DG (abstain) and
                         SelectiveNet checkpoints from those runs, with
                         val and test calibration and every mechanism
                         the head supports
    eval/abstain-saturated-<split>/
                         the same on the DG checkpoint with its abstain
                         bias raised until about half the test rows reach
                         p(abstain) = 1.0: those rows score -inf under
                         softmax_response and negative_entropy and tie at
                         0.0 under abstention_logit, so calibration meets
                         heavy ties and coverages above the finite share
    grid/                selcls grid on perfbench/configs/grid_ref.json
    gradcheck/stdout     selcls gradcheck with its default arguments
    config/<name>.hash   not a file: the RunConfig.hash() of each config
                         the runs above load (blobs8, grid_ref and the six
                         eval configs), so that a changed config hash is
                         named directly, not only through the checkpoints
                         and CSVs that embed it

The configs always come from this checkout, so both sides of a comparison
run the same inputs. Before a file is digested, each of those config
hashes in it is replaced by its config's name, so a change that moves
only the config hashes differs in ``config/*.hash`` and in
``train/cli/run_config.json`` (which holds the hashed config itself), not
in every file that embeds a hash.

A file named ``checkpoint.json`` or ``*.checkpoint.json`` is digested by
what the measured checkout's ``load_checkpoint`` returns, not by its
bytes: the architecture (input dim, hidden widths, classes), head, config
hash (as a config name, like the file bytes) and the parameters as
little-endian float64 bytes. A change to the
checkpoint file format alone therefore reads as no difference, while any
changed parameter still differs.
"""

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

# one BLAS thread, as in the benchmark, so that reruns match bit for bit
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(REPO, "perfbench", "configs")
BASE_CONFIG = os.path.join(CONFIGS, "blobs8.json")
GRID_CONFIG = os.path.join(CONFIGS, "grid_ref.json")
OBJECTIVES = ("CE", "CE+EM", "DG", "DG+EM", "SAT", "SAT+EM",
              "SelectiveNet", "SelectiveNet+EM")
# the objectives whose checkpoints are evaluated, one per head layout
EVAL_OBJECTIVES = ("CE", "DG", "SelectiveNet")
CALIBRATION_SPLITS = ("val", "test")
# training and dataset seed of the train and eval runs
SEED = 0


def file_digest(path, names: dict) -> str:
    """Digest of the bytes of ``path`` with each config hash in ``names``
    replaced by its config's name."""
    with open(path, "rb") as f:
        data = f.read()
    for config_hash, name in names.items():
        data = data.replace(config_hash.encode(), name.encode())
    return hashlib.sha256(data).hexdigest()


def checkpoint_digest(path, names: dict) -> str:
    """Digest of the network and config hash that ``load_checkpoint``
    reads from ``path``, independent of the file format; a hash in
    ``names`` counts as its config's name."""
    from selcls import nn

    net, config_hash = nn.load_checkpoint(path)
    fields = [net.input_dim, list(net.hidden_dims), net.n_classes, net.head,
              names.get(config_hash, config_hash)]
    digest = hashlib.sha256(json.dumps(fields).encode())
    digest.update(net.params.astype("<f8").tobytes())
    return digest.hexdigest()


def tree_digests(root, names: dict):
    """(path relative to the working directory, digest) per file under
    ``root``, in sorted order, with the config hashes in ``names`` read as
    config names."""
    found = []
    for dirpath, _, files in os.walk(root):
        found.extend(os.path.join(dirpath, name) for name in files)
    return [(path, checkpoint_digest(path, names)
             if path.endswith("checkpoint.json") else file_digest(path, names))
            for path in sorted(found)]


def run_cli(argv) -> str:
    """Standard output of ``selcls argv``, which must exit 0."""
    from selcls import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"selcls {' '.join(argv)} exited {code}")
    return out.getvalue()


def train_objectives() -> dict:
    """run_cell each of OBJECTIVES; returns {objective: checkpoint path}."""
    from selcls import cli, config

    cfg = config.load_run_config(BASE_CONFIG)
    splits = cli.build_splits(cfg, seed=SEED)
    os.makedirs("train")
    checkpoints = {}
    for kind in OBJECTIVES:
        stem = os.path.join("train", kind.replace("+", "_"))
        checkpoints[kind] = f"{stem}.checkpoint.json"
        cli.run_cell(cfg, replace(cfg.objective, kind=kind), SEED, splits,
                     checkpoints[kind], f"{stem}.report.csv")
    return checkpoints


def evaluate_checkpoints(checkpoints: dict) -> None:
    from selcls import nn
    from selcls.selection import MECHANISM_KINDS, mechanism_compatible

    with open(BASE_CONFIG) as f:
        base = json.load(f)
    os.makedirs("eval-configs")
    for kind in EVAL_OBJECTIVES:
        head = nn.load_checkpoint(checkpoints[kind])[0].head
        for split in CALIBRATION_SPLITS:
            doc = copy.deepcopy(base)
            doc["objective"]["kind"] = kind
            doc["training"]["seed"] = SEED
            doc["evaluation"].update(
                calibration_split=split,
                mechanisms=[m for m in MECHANISM_KINDS
                            if mechanism_compatible(m, head)])
            path = os.path.join("eval-configs", f"{head}-{split}.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            run_cli(["eval", "-c", path, "--checkpoint", checkpoints[kind],
                     "-o", os.path.join("eval", f"{head}-{split}")])


def evaluate_saturated_abstain(checkpoint: str) -> None:
    """selcls eval, both calibration splits, on a copy of an abstain
    checkpoint whose abstain bias makes about half the test rows
    degenerate. Runs after evaluate_checkpoints, whose configs it reuses."""
    import numpy as np

    from selcls import cli, config, nn

    net = nn.load_checkpoint(checkpoint)[0]
    _, _, test_ds, _ = cli.build_splits(config.load_run_config(BASE_CONFIG),
                                        seed=SEED)
    logits = nn.network_outputs(net, test_ds.features)["logits"]
    # p(abstain) = 1 / (1 + t) with t = exp(lse) the summed class mass
    # relative to the abstain entry; it rounds to 1.0 once t < 2**-53, so
    # this raise saturates the rows whose lse lies below the median
    lse = np.log(np.exp(logits[:, :-1] - logits[:, -1:]).sum(axis=1))
    net.heads["logits"].b[-1] += np.median(lse) + 53 * np.log(2)
    path = os.path.join("eval-configs", "abstain-saturated.checkpoint.json")
    nn.save_checkpoint(net, path)
    for split in CALIBRATION_SPLITS:
        run_cli(["eval", "-c", os.path.join("eval-configs",
                                            f"abstain-{split}.json"),
                 "--checkpoint", path,
                 "-o", os.path.join("eval", f"abstain-saturated-{split}")])


def config_hashes():
    """(config name, config hash) per config the runs load. Runs after
    evaluate_checkpoints, whose configs it reads."""
    from selcls import config

    paths = [BASE_CONFIG, GRID_CONFIG] + [
        os.path.join("eval-configs", name)
        for name in sorted(os.listdir("eval-configs"))
        if not name.endswith(".checkpoint.json")]
    return [(os.path.basename(path).removesuffix(".json"),
             config.load_run_config(path).hash()) for path in paths]


def digests():
    """Run everything in the current directory; returns (name, digest)
    pairs."""
    checkpoints = train_objectives()
    run_cli(["train", "-c", BASE_CONFIG, "-o", os.path.join("train", "cli")])
    evaluate_checkpoints(checkpoints)
    evaluate_saturated_abstain(checkpoints["DG"])
    run_cli(["grid", "-c", GRID_CONFIG, "-o", "grid"])
    os.makedirs("gradcheck")
    with open(os.path.join("gradcheck", "stdout"), "w") as f:
        f.write(run_cli(["gradcheck"]))
    hashes = config_hashes()
    names = {}
    for name, config_hash in hashes:
        names.setdefault(config_hash, name)
    return [pair for root in ("train", "eval", "grid", "gradcheck")
            for pair in tree_digests(root, names)] + [
        (f"config/{name}.hash", config_hash) for name, config_hash in hashes]


def digest_lines(src: str) -> list:
    """This script's output for the package under ``src``, run in a fresh
    interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--src", src],
        check=True, capture_output=True, text=True).stdout
    return out.splitlines()


def compare(other: str) -> int:
    mine = dict(line.split("  ", 1)[::-1]
                for line in digest_lines(os.path.join(REPO, "src")))
    theirs = dict(line.split("  ", 1)[::-1]
                  for line in digest_lines(os.path.join(other, "src")))
    differing = sorted(name for name in mine.keys() | theirs.keys()
                       if mine.get(name) != theirs.get(name))
    for name in differing:
        where = "differs" if name in mine and name in theirs \
            else f"only in {REPO if name in mine else other}"
        print(f"{where}: {name}")
    print(f"{len(differing)} of {len(mine.keys() | theirs.keys())} "
          f"artifacts differ from {other}")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(REPO, "src"),
                        help="directory holding the selcls package to run")
    parser.add_argument("--against", metavar="CHECKOUT",
                        help="compare with another checkout's outputs")
    args = parser.parse_args(argv)
    if args.against:
        return compare(args.against)
    sys.path.insert(0, os.path.abspath(args.src))
    os.environ.pop("SELCLS_OUTPUT_ROOT", None)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative output paths keep the manifests comparable
        try:
            pairs = digests()
        finally:
            os.chdir(cwd)
    for name, digest in pairs:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
