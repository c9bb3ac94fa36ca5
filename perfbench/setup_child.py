"""Set-up of one `morrey-lab run`, and nothing else.

Imports the CLI, parses the config and materializes every space
(``generate_space``, which validates, or ``load_space_file``) and every
function on it, then exits.  ``run.py`` times this process from spawn to
exit as ``setup_s``.

    python3 perfbench/setup_child.py CONFIG
"""

import json
import os
import sys

from morrey_lab import cli
from morrey_lab.generators import generate_function, generate_space


def main(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = cli.parse_config(json.load(fh))
    base = os.path.dirname(path) or "."
    for _, spec in cfg.spaces:
        if isinstance(spec, str):
            space = cli.load_space_file(os.path.join(base, spec))
        else:
            space = generate_space(spec)
        for _, fspec in cfg.functions:
            if isinstance(fspec, str):
                cli.load_function_file(os.path.join(base, fspec))
            else:
                generate_function(space, fspec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
