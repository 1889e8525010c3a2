"""Frozen `lospre run` outputs: the pipeline's artifacts must stay byte-identical.

Each case is an IR program.  Its digest is the sha256 of the exit status and
of the rewritten IR, the stats text and the solution text that
``lospre run --emit stats,rewritten-ir,solution`` writes.  The cases are
``generate_program_text`` seeds 0..499, 40 larger programs
(``max_statements=60``), 100 programs (``max_statements=24``) with random
finite ``!edgecost`` and ``!nodecost`` directives, and
``samples/redundant_load.ir``.  A change that
only avoids work must leave every digest as it is.  After an intended change
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


def run_digest(text, work_dir):
    """sha256 over the exit status and the three artifacts of one run."""
    src = work_dir / "case.ir"
    src.write_text(text)
    for name in ("case.out.ir", "case.stats", "case.solution"):
        (work_dir / name).unlink(missing_ok=True)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = main(["run", str(src), "--emit", "stats,rewritten-ir,solution",
                   "--out-dir", str(work_dir)])
    h = hashlib.sha256(f"exit {rc}\n".encode())
    for name in ("case.out.ir", "case.stats", "case.solution"):
        path = work_dir / name
        h.update(b"\0" + (path.read_bytes() if path.exists() else b""))
    return h.hexdigest()


def test_pipeline_outputs_are_frozen(tmp_path):
    frozen = json.loads(DIGESTS.read_text())
    got = {name: run_digest(text, tmp_path) for name, text in cases()}
    assert set(got) == set(frozen)
    changed = sorted(name for name in got if got[name] != frozen[name])
    assert not changed, f"{len(changed)} programs changed output: {changed[:10]}"


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_pipeline_frozen.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_digest(text, Path(tmp)) for name, text in cases()}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {DIGESTS}\n")
