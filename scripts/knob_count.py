#!/usr/bin/env python3
"""Count the knobs of a stegolm source tree: the flags of each subcommand and
the fields of each configuration object.

    python3 scripts/knob_count.py [SRC_DIR]

SRC_DIR (default ``src``) is the directory that holds the ``stegolm``
package, so an older tree unpacked elsewhere (``git archive HEAD^1 src``) is
counted by the same rule. Prints one line: ``knobs: <total> (flags: <cmd> <n>
..., fields: <Class> <n> ...)``. A ``--x/--no-x`` pair is one flag; ``--help``
is not counted.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys


def main() -> None:
    sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else "src")
    from stegolm.cli import build_parser
    from stegolm.codec import GenPolicy, Payload
    from stegolm.corpus import CorpusConfig
    from stegolm.lm import LstmHyperparams, NgramConfig

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: sum(1 for a in parser._actions
                       if a.option_strings and not isinstance(a, argparse._HelpAction))
             for name, parser in sub.choices.items()}
    fields = {cls.__name__: len(dataclasses.fields(cls)) for cls in
              (CorpusConfig, NgramConfig, LstmHyperparams, GenPolicy, Payload)}
    print(f"knobs: {sum(flags.values()) + sum(fields.values())} (flags: "
          + ", ".join(f"{name} {n}" for name, n in flags.items()) + "; fields: "
          + ", ".join(f"{name} {n}" for name, n in fields.items()) + ")")


if __name__ == "__main__":
    main()
