"""Every output of the golden digest is unchanged.

``tools/output_digest.py`` hashes each output of torusdyn on fixed inputs;
``tests/data/output_digest.txt`` holds the hashes of the committed code.  A
change that moves an output on purpose regenerates the file and names the
moved lines in CHANGES.md.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "output_digest.txt"
# outputs of the exact layer alone, which no float library version moves
EXACT = ("analyze", "survey")


def _parse(lines):
    header = [line for line in lines if line.startswith("#")]
    rows = {}
    for line in lines:
        if line and not line.startswith("#"):
            digest, name = line.split("  ", 1)
            rows[name] = digest
    return header, rows


def test_outputs_match_the_golden_digest():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py")],
                          capture_output=True, text=True, timeout=600,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    want_header, want = _parse(GOLDEN.read_text().splitlines())
    got_header, got = _parse(proc.stdout.splitlines())
    moved = [name for name in want if got.get(name) != want[name]]
    added = [name for name in got if name not in want]
    message = f"moved: {moved}; not in the golden file: {added}"
    if got_header != want_header:
        exact_moved = [name for name in moved if name.startswith(EXACT)]
        message += (f"; the float stack differs ({got_header} against {want_header}): that can "
                    f"move every line but those of analyze and survey, and of these moved: {exact_moved}")
    assert not moved and not added, message
