"""One module per paper experiment; ``perf/`` is the performance benchmark."""
