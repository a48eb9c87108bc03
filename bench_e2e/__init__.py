"""bench_e2e: the repo's one end-to-end benchmark.

Four closed-loop workloads drive the real plane (``GridBufferServer``,
``GridFtpServer``, ``GnsServer``, ``FileMultiplexer``) over loopback
TCP, check every byte, and report eight end-to-end metrics plus a
per-layer budget measured from outside the program.  See README.md.
"""
