"""The process entry point of ``python -m threshold_lab`` and the
``threshold-lab`` script.

``main`` runs ``cli.main`` and then freezes every object that exists
(``gc.freeze``), so the interpreter's final collections at exit skip
them: a one-shot job gains nothing from walking the objects that
``site`` and the package created. In-process callers use ``cli.main``,
which freezes nothing.

A reader that closes stdout early (``threshold-lab ... | head``) gets
exit 1 and nothing on stderr, as the ``signal`` module's note on
SIGPIPE does: stdout is flushed inside the ``try``, and on
``BrokenPipeError`` fd 1 is pointed at ``os.devnull`` so that the
interpreter's own flush at exit writes nowhere.
"""

import gc
import os
import sys

from . import cli


def main() -> int:
    try:
        try:
            return cli.main()
        finally:
            # also after argparse's SystemExit, which --help raises
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
