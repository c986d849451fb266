"""Run one benchmark operation's CLI calls in this fresh interpreter.

    python3 perfbench/rss_child.py '[["verify", "--corpus", "--json"]]'

The parent reads this process's peak RSS when it exits.  The exit code is
the largest exit code of the calls.
"""

import json
import sys

from genoball.cli import main

sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))
