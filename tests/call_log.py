"""Records that survive the process they were made in.

A sweep fits its cells in forked worker processes, so a test that records
the calls a fit makes cannot append them to a list in its own memory. A
:class:`CallLog` writes each record to a file of its own in one directory,
from whichever process makes it, and reads them all back afterwards.
"""

import pickle
import tempfile
from pathlib import Path


class CallLog:
    """Pickled records, one file each, in ``directory``."""

    def __init__(self, directory):
        self.directory = Path(directory)

    def append(self, record):
        fd, _ = tempfile.mkstemp(suffix=".record", dir=self.directory)
        with open(fd, "wb") as f:
            pickle.dump(record, f)

    def records(self):
        """Every record appended so far, in no particular order."""
        return [pickle.loads(path.read_bytes()) for path in self.directory.glob("*.record")]
