"""Quantum-circuit substrate: gate IR, circuit container, benchmark suite."""
