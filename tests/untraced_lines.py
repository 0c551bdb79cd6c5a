"""Every line of src/killing3 that the tier-1 suite does not execute.

    PYTHONPATH=src python tests/untraced_lines.py [PYTEST_ARGS ...]

runs the tier-1 suite (``pytest -q`` with any extra arguments, its output on stderr)
under the standard library's ``trace --count --missing``, with the coverage files in a
temporary directory, and prints each unexecuted line of a ``killing3`` module as
``module:line: text``.  Lines that run only in a child process, such as those
``perfbench``'s subprocess runs reach, are listed too.  Traced, the suite takes minutes.
"""

import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: trace's mark on an executable line that never ran
MISSING = ">>>>>> "


def untraced(coverdir):
    """(module file, line, text) of each line trace marked unexecuted in a killing3 module."""
    for cover in sorted(Path(coverdir).glob("killing3.*.cover")):
        module = cover.name.removeprefix("killing3.").removesuffix(".cover") + ".py"
        for n, line in enumerate(cover.read_text().splitlines(), start=1):
            if line.startswith(MISSING):
                yield module, n, line.removeprefix(MISSING).strip()


def main(pytest_args):
    # the interpreter's own and installed modules are not traced: that is most of the cost
    ignored = sorted({sysconfig.get_paths()[key] for key in ("stdlib", "purelib", "platlib")})
    with tempfile.TemporaryDirectory() as coverdir:
        subprocess.run([sys.executable, "-m", "trace", "--count", "--missing",
                        "--coverdir", coverdir, *(a for d in ignored for a in ("--ignore-dir", d)),
                        "--module", "pytest", "-q", "-p", "no:cacheprovider", *pytest_args],
                       cwd=ROOT, stdout=sys.stderr, check=True)
        for module, n, text in untraced(coverdir):
            print(f"{module}:{n}: {text}")


if __name__ == "__main__":
    main(sys.argv[1:])
