"""Frozen `lospre run` outputs: the pipeline's artifacts must stay byte-identical.

Each case is an IR program.  Its digest is the sha256 of the exit status and
of the rewritten IR, the stats text and the solution text that
``lospre run --emit stats,rewritten-ir,solution`` writes.  The cases are
``generate_program_text`` seeds 0..499, 40 larger programs
(``max_statements=60``), 100 programs (``max_statements=24``) with random
finite ``!edgecost`` and ``!nodecost`` directives, and
``samples/redundant_load.ir``.  A change that
only avoids work must leave every digest as it is, and ``--verify`` may
change only the exit status, never an artifact.  After an intended change
of output, rewrite ``data/pipeline_digests.json`` with

    PYTHONPATH=src python tests/test_pipeline_frozen.py --write
"""
import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from lospre.cli import main
from lospre.ir import build_cfg, instr_node, parse_ir
from lospre.oracle import generate_program_text

ROOT = Path(__file__).resolve().parent
DIGESTS = ROOT / "data" / "pipeline_digests.json"
SAMPLE = ROOT.parent / "samples" / "redundant_load.ir"


def _cost(rng, hi_primary):
    return f"[{rng.randint(0, hi_primary)},{rng.randint(0, 3)}]"


def cost_variant(seed):
    """A generated program with random finite default and per-label costs."""
    rng = random.Random(f"costs/{seed}")
    text = generate_program_text(seed, max_statements=24)
    program = parse_ir(text)
    nodes = {instr_node(i): ins.label for i, ins in enumerate(program) if ins.label}
    lines = [f"!edgecost {_cost(rng, 4)}", f"!nodecost {_cost(rng, 2)}"]
    for label in sorted(nodes.values()):
        if rng.random() < 0.5:
            lines.append(f"!nodecost {label} {_cost(rng, 2)}")
    for (u, v) in sorted(build_cfg(program).edges):
        if u in nodes and v in nodes:
            lines.append(f"!edgecost {nodes[u]} {nodes[v]} {_cost(rng, 6)}")
    return "\n".join(lines) + "\n" + text


def cases():
    for seed in range(500):
        yield f"corpus/{seed}", generate_program_text(seed)
    for seed in range(40):
        yield f"large/{seed}", generate_program_text(seed, max_statements=60)
    for seed in range(100):
        yield f"costs/{seed}", cost_variant(seed)
    yield "samples/redundant_load", SAMPLE.read_text()


ARTIFACTS = ("case.out.ir", "case.stats", "case.solution")


def run_artifacts(text, work_dir, *flags):
    """The exit status and the three artifacts (b"" if not written) of one run."""
    src = work_dir / "case.ir"
    src.write_text(text)
    for name in ARTIFACTS:
        (work_dir / name).unlink(missing_ok=True)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = main(["run", str(src), "--emit", "stats,rewritten-ir,solution",
                   "--out-dir", str(work_dir), *flags])
    paths = [work_dir / name for name in ARTIFACTS]
    return rc, [path.read_bytes() if path.exists() else b"" for path in paths]


def run_digest(text, work_dir):
    """sha256 over the exit status and the three artifacts of one run."""
    rc, blobs = run_artifacts(text, work_dir)
    h = hashlib.sha256(f"exit {rc}\n".encode())
    for blob in blobs:
        h.update(b"\0" + blob)
    return h.hexdigest()


def test_pipeline_outputs_are_frozen(tmp_path):
    frozen = json.loads(DIGESTS.read_text())
    got = {name: run_digest(text, tmp_path) for name, text in cases()}
    assert set(got) == set(frozen)
    changed = sorted(name for name in got if got[name] != frozen[name])
    assert not changed, f"{len(changed)} programs changed output: {changed[:10]}"


def test_verify_changes_only_the_exit_status(tmp_path):
    texts = [generate_program_text(seed) for seed in range(200)]
    texts += [generate_program_text(seed, max_statements=60) for seed in range(20)]
    texts += [cost_variant(seed) for seed in range(60)]
    # unreachable loops: a single occurrence, two occurrences, a division
    texts += ["x = 1\nret\nL: y = a + b\ngoto L\n",
              "x = 1\nret\nL: y = a + b\nz = a + b\ngoto L\n",
              "x = 1\nret\nL: y = a / d\ngoto L\n"]
    for text in texts:
        plain = run_artifacts(text, tmp_path)
        assert plain[0] == 0
        assert run_artifacts(text, tmp_path, "--verify") == plain


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_pipeline_frozen.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_digest(text, Path(tmp)) for name, text in cases()}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {DIGESTS}\n")
