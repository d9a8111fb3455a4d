"""Tournament engine and analysis pipeline for autonomous agent negotiations."""

import os

# Before any numpy import: OpenBLAS otherwise starts a helper thread per
# extra core, which spins after the import and speeds up none of parley's
# fits. A value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
