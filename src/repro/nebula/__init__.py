"""NebulaStream substitute.

Reproduces the extension surface the paper builds NebulaMEOS on
(§2.1/§2.3): an expression framework with composable operator nodes
(MEOS-backed ones such as the ``MeosAtStboxExpression`` analogue),
tumbling/sliding/threshold windows over spatiotemporal streams, a
simulated edge/cloud operator placement with push-down accounting, and
an engine that runs the same query object in batch, micro-batch, and
Structured Streaming modes. Runtime registration of the MEOS kernels by
name is ``repro.core.udfs.register_meos_udfs``.
"""
