"""The wire-level benchmark of the PPKWS reproduction (see ``README.md``)."""

import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: everything a run writes goes here; the root ``.gitignore`` names it
OUT = os.path.join(HERE, "out")
