"""Run one command and record its peak RSS, read in this fresh, small process.

    python3 -I -S perfbench/peak_rss.py RSS_FILE PROGRAM ARGS...

ru_maxrss is a high-water mark, and a process started from a large one
carries that one's mark across exec. The benchmark process grows large, so
it starts every measured command through this wrapper, whose own mark stays
small: RUSAGE_CHILDREN here then holds the command's own peak. The peak in
KiB goes to RSS_FILE; the exit code is the command's.
"""

import os
import resource
import sys

pid = os.posix_spawnp(sys.argv[2], sys.argv[2:], os.environ)
_, status = os.waitpid(pid, 0)
with open(sys.argv[1], "w") as out:
    out.write(str(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
