"""Table-1 benchmark of the NebulaMEOS-on-Spark reproduction (see run.py)."""
