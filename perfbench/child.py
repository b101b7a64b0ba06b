"""One timed run in a fresh process: ``fermichain.cli.main`` on a generated config.

Usage: python3 child.py <cli arguments...>

Prints, as its last stdout line, a JSON object with the CLI's exit code, the
CLOCK_MONOTONIC times at which the config was resolved and the run ended, and
the process's peak resident set size.  The parent records when it started
the process, so interpreter start, imports and config resolution count as
set-up and everything after as the run.
"""

import json
import resource
import sys
import time

from fermichain import cli

marks = {}
_resolve = cli.resolve_config


def _resolve_and_mark(name_or_path):
    config = _resolve(name_or_path)
    marks["resolved"] = time.monotonic()
    return config


cli.resolve_config = _resolve_and_mark
code = cli.main(sys.argv[1:])
marks["end"] = time.monotonic()
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"code": code, "rss_kb": rss_kb, **marks}))
