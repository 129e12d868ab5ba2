"""Run the scdposet CLI with spans installed; span totals go to stderr.

Usage: python3 perfbench/traced_cli.py <scdposet arguments...>

Stdout is the CLI's own.  The last stderr line is
{"spans": {key: [count, seconds, self seconds]}}.
"""

import json
import sys

from spans import Tracer, install

tracer = Tracer()
install(tracer)

from scdposet import cli  # noqa: E402  (patched by install)

try:
    code = cli.main(sys.argv[1:])
finally:
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps({"spans": tracer.summary()}) + "\n")
sys.exit(code)
