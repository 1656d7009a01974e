"""simpow: similarity of matrix powers and 2x2 matrix word equations.

Names are imported from their modules (``from simpow.similarity import
JordanSpec``); the package re-exports none of them.  It defines the
version, the tolerances that every report echoes and the size cap of
numeric recovery, which the layers import from here: none of them needs
numpy to read a tolerance or to refuse an input past the cap.
"""

__version__ = "0.1.0"

# singular values at most this times the operand's 2-norm, or a bound on it, count as 0
RANK_TOL = 1e-9
# residuals at most this, relative to the size of the terms, count as 0
VERIFY_TOL = 1e-9
# eigenvalues closer than this, relative to the operand's 2-norm, are one cluster
DEFAULT_CLUSTER_TOL = 1e-6
# the largest n numeric recovery splits: a cluster of n takes up to n + 1 SVDs, O(n^4)
MAX_RECOVERY_N = 64
