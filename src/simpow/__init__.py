"""simpow: similarity of matrix powers and 2x2 matrix word equations.

Names are imported from their modules (``from simpow.similarity import
JordanSpec``); the package re-exports none of them.
"""

__version__ = "0.1.0"
