"""Run the mutants of mutants.py against tier-1.

    python mutation/run.py [NAME ...]

With names, only those mutants run, after the unmutated copy, so a
change can rerun its survivors; without names, every mutant runs.  For
each mutant the tree is copied to a temporary directory and the mutant
applied there; then tier-1 runs in the copy with -x, less the test of the
list itself, so the compiled_build fixture builds the mutated C.  A failing
run kills the mutant, and a run past TIMEOUT seconds counts as a kill too.
The unmutated copy runs first, since a kill means nothing on a tree that
fails already.  Prints one line per mutant, then the kill count and the
survivors by name.  The checkout itself is never edited.  A mutant takes
from a few seconds to a full tier-1 run, about a minute on a 2-CPU machine.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from mutants import MUTANTS  # noqa: E402

# what building, testing and running leave behind
IGNORE = shutil.ignore_patterns(".git", "build", "__pycache__", "*.egg-info", "*.so",
                                ".hypothesis", ".pytest_cache", ".benchmarks", ".bench_build")
# tests/test_mutants.py checks the list against the unmutated source, so in
# a mutated copy it fails by design and would kill every mutant
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
# a full tier-1 run takes about a minute; ten times that is a hung run
TIMEOUT = 600


def run_tier1(mutant):
    """(killed, seconds): tier-1 on a copy of the tree with mutant applied,
    or on the plain copy when mutant is None."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="franklbip-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if mutant is not None:
            path = tree / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                sys.exit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"),
                                                          env.get("PYTHONPATH")]))
        try:
            proc = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT)
            killed = proc.returncode != 0
        except subprocess.TimeoutExpired:
            killed = True
    return killed, time.monotonic() - start


def main(names) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        sys.exit("unknown mutants: " + ", ".join(unknown))
    chosen = [by_name[name] for name in names] if names else MUTANTS
    failed, seconds = run_tier1(None)
    print(f"unmutated tree: {'FAILS' if failed else 'passes'} ({seconds:.0f} s)", flush=True)
    if failed:
        return 2
    survivors = []
    for mutant in chosen:
        killed, seconds = run_tier1(mutant)
        print(f"{mutant.name}: {'killed' if killed else 'SURVIVED'} ({seconds:.0f} s)", flush=True)
        if not killed:
            survivors.append(mutant.name)
    print(f"killed {len(chosen) - len(survivors)} of {len(chosen)}")
    if survivors:
        print("survivors: " + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
