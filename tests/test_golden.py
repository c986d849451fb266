"""Golden digests: the corpus report, the corpus facet files, a generated
stacked ball file and the cross-checked Genocchi table are byte-stable.

Any refactor must leave every digest unchanged; a change that alters
one on purpose updates the pinned value and says why.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

from genoball import cli
from genoball.corpus import corpus_balls
from genoball.fileio import _dumps, complex_to_obj

CORPUS_JSON_SHA256 = "a6ba16f1ece630e11e67a8b7071e2fc698ad4e9a00233cfacca492997f5bf940"
CORPUS_JSON_BYTES = 122571
CORPUS_FACETS_SHA256 = "8c383c77b8e12278c5c9a856947c21d4d50f922aad1d685c859ce5b12afde0c1"
STACKED_N9_M300_S1_SHA256 = "81c4a6f2a7aef5f6d44fdf1ae57b0e95c76c626037bddab172145d2a11513035"
GENOCCHI_100_SHA256 = "35fcc32b0e472bdf712c029c28c325cb95185d0654e21fd8e7fe2db7a78e434b"


def test_corpus_json_report_digest(capsys):
    assert cli.main(["verify", "--corpus", "--json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert len(out) == CORPUS_JSON_BYTES
    assert hashlib.sha256(out).hexdigest() == CORPUS_JSON_SHA256


# -I drops the working directory and PYTHONPATH from sys.path, so `-m` could
# not find src/; runpy runs the package's __main__ as `-m genoball` would
FRESH_MAIN = (
    "import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); "
    "runpy.run_module('genoball', run_name='__main__', alter_sys=True)"
)


def test_corpus_json_report_digest_in_a_fresh_process():
    # every per-n table starts empty in a new interpreter, where in-process
    # runs may read tables that earlier tests built
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", FRESH_MAIN, str(src),
         "verify", "--corpus", "--json"],
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout) == CORPUS_JSON_BYTES
    assert hashlib.sha256(result.stdout).hexdigest() == CORPUS_JSON_SHA256


def test_corpus_facet_files_digest():
    digest = hashlib.sha256()
    for name, ball in corpus_balls():
        digest.update(_dumps(complex_to_obj(ball, name)).encode("utf-8"))
    assert digest.hexdigest() == CORPUS_FACETS_SHA256


def test_generated_stacked_file_digest(tmp_path):
    out = tmp_path / "stacked.json"
    argv = ["generate", "stacked", "--n", "9", "--m", "300", "--seed", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STACKED_N9_M300_S1_SHA256


def test_genocchi_table_digest(capsys):
    assert cli.main(["genocchi", "100"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == GENOCCHI_100_SHA256
