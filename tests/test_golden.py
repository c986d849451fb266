"""Golden digests: the corpus report and the corpus facet files are byte-stable.

Any refactor must leave both digests unchanged; a change that alters
either on purpose updates the pinned value and says why.
"""

import hashlib

from genoball import cli
from genoball.corpus import corpus_balls
from genoball.fileio import _dumps, complex_to_obj

CORPUS_JSON_SHA256 = "a6ba16f1ece630e11e67a8b7071e2fc698ad4e9a00233cfacca492997f5bf940"
CORPUS_JSON_BYTES = 122571
CORPUS_FACETS_SHA256 = "8c383c77b8e12278c5c9a856947c21d4d50f922aad1d685c859ce5b12afde0c1"


def test_corpus_json_report_digest(capsys):
    assert cli.main(["verify", "--corpus", "--json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert len(out) == CORPUS_JSON_BYTES
    assert hashlib.sha256(out).hexdigest() == CORPUS_JSON_SHA256


def test_corpus_facet_files_digest():
    digest = hashlib.sha256()
    for name, ball in corpus_balls():
        digest.update(_dumps(complex_to_obj(ball, name)).encode("utf-8"))
    assert digest.hexdigest() == CORPUS_FACETS_SHA256
