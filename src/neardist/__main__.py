"""The command-line entry: `python -m neardist` and the installed `neardist` script.

The cyclic garbage collector is off while the command line and numpy are
imported. What they built lives until exit, so it is then frozen
(`gc.freeze`): no later collection, the interpreter's final ones included,
walks it again. The command runs with the collector on. Only this entry
touches the collector; importing the library leaves it as it is.
"""

import gc
import sys

gc.disable()
try:
    from .cli import main
finally:
    gc.freeze()
    gc.enable()

if __name__ == "__main__":
    sys.exit(main())
