# Developer entry points. Everything runs with the src/ layout on
# PYTHONPATH so no editable install is required.
PY ?= python
export PYTHONPATH := src

.PHONY: test test-differential bench regen-golden lint typecheck

test:
	$(PY) -m pytest -x -q

test-differential:
	$(PY) -m pytest tests/differential -q

bench:
	$(PY) -m pytest benchmarks -q

# Rebuild tests/golden/ from the seeded recipes. A clean tree must be a
# no-op (tests/test_golden_regen.py enforces it).
regen-golden:
	$(PY) -m tests.golden

lint:
	$(PY) -m repro.analysis src/repro --flow --no-typecheck --strict-suppressions \
		--baseline flow-baseline.json

typecheck:
	$(PY) -m mypy --strict src/repro
