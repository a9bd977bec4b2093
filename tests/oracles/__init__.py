"""Reference implementations the equivalence suites check production
code against: slow, literal transcriptions of the paper's equations."""
