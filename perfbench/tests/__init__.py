"""The benchmark's own tests: the independent checker and a smoke run of each workload."""
