"""Reference implementations the test suite compares shipped code against."""
