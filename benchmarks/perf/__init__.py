"""The repo's benchmark: seven workloads over the compile, run and serve
paths, end-to-end and per-layer metrics.  See README.md in this directory;
``BENCHMARK.json`` at the root of the repo describes it to the driver."""
