"""The five benchmark workloads."""
