"""Byte-for-byte pins on the CLI's `--omit-timing` outputs.

The desk chain (encode with and without primers, simulate, stats, and the
soft, chandak and hard decodes), a two-trial desk `experiment` and the paper
chain (encode, simulate of the profile's 120k reads and the hard decode of
513,600 bytes) are rebuilt in a temporary directory, and every file they
write is compared by sha256 with `tests/golden.json`. A change that alters
these bytes on purpose rewrites the manifest and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from oligolab.cli import main

MANIFEST = Path(__file__).resolve().with_name("golden.json")
DESK = ["--profile", "desk-scale", "--omit-timing"]
PAPER = ["--profile", "paper-scale", "--omit-timing"]
DECODES = {
    "soft": [],
    "chandak": ["--set", "decode.llr_mode=chandak", "--set", "decode.crossover_p=0.001"],
    "hard": ["--set", "decode.decoder=hard"],
}


def build_outputs(root: Path) -> dict[str, str]:
    """Run the pinned recipes under `root`; their files' relative paths -> sha256."""
    source = root / "input.bin"
    source.write_bytes(np.random.default_rng(11).bytes(32000))
    out = root / "out"

    def run(command, outdir, *args, profile=DESK, expect=0):
        code = main([command, *profile, "--outdir", str(out / outdir), *map(str, args)])
        assert code == expect, f"{command} -> {outdir} exited {code}, not {expect}"

    run("encode", "enc", "--input", source)
    run("encode", "encp", "--input", source, "--with-primers")
    run("simulate", "sim", "--pool", out / "enc" / "pool.fasta")
    run("stats", "stats", "--fastq", out / "sim" / "reads.fastq", "--pool", out / "enc" / "pool.fasta")
    for name, extra in DECODES.items():
        run(
            "decode", f"dec_{name}",
            "--fastq", out / "sim" / "reads.fastq",
            "--seeds", out / "enc" / "seeds.txt",
            "--manifest", out / "enc" / "manifest.json",
            "--transition", out / "stats" / "transition.tsv",
            *extra,
        )
    run("experiment", "exp", "--set", "experiment.trials=2")

    paper_source = root / "paper.bin"
    paper_source.write_bytes(np.random.default_rng(11).bytes(513600))
    paper = out / "paper"
    run("encode", "paper/enc", "--input", paper_source, profile=PAPER)
    run("simulate", "paper/sim", "--pool", paper / "enc" / "pool.fasta", profile=PAPER)
    # exit 1: an RS miscorrection leaves the final solve inconsistent
    run(
        "decode", "paper/dec_hard",
        "--fastq", paper / "sim" / "reads.fastq",
        "--seeds", paper / "enc" / "seeds.txt",
        "--manifest", paper / "enc" / "manifest.json",
        "--set", "decode.decoder=hard",
        profile=PAPER, expect=1,
    )
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_omit_timing_outputs_match_golden(tmp_path):
    golden = json.loads(MANIFEST.read_text())
    got = build_outputs(tmp_path)
    differ = sorted(
        name for name in golden["files"].keys() | got.keys()
        if golden["files"].get(name) != got.get(name)
    )
    assert not differ, (
        f"outputs differ from {MANIFEST.name} (recorded with numpy {golden['numpy']}, "
        f"running numpy {np.__version__}): {', '.join(differ)}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = build_outputs(Path(tmp))
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "files": files}, indent=2) + "\n")
    print(f"wrote {len(files)} hashes -> {MANIFEST}", file=sys.stderr)
