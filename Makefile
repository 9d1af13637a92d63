PY ?= python3
# Every target runs from a plain checkout, without installing the package.
RUN = PYTHONPATH=src $(PY)

.PHONY: test acceptance bench fixtures verify-fixtures

test:
	$(RUN) -m pytest -v

acceptance:
	$(RUN) -m pytest tests/test_acceptance.py -v -s

bench:
	for w in bf-certify exact-search long-chain; do \
		$(RUN) perfbench/run.py --workload $$w || exit 1; \
	done

# Regenerate the checked-in certificates.  The BF(2) command exits 1 by
# design (nonexistence), hence the leading dash.
fixtures:
	-$(RUN) -m edgeforce construct --r 2 > fixtures/bf2-nonexistence.json
	for r in 3 4 5 6 7 8 9; do \
		$(RUN) -m edgeforce construct --r $$r > fixtures/bf$$r-construction.json; \
		$(RUN) -m edgeforce bounds --r $$r > fixtures/bf$$r-bounds.json; \
	done

verify-fixtures:
	for f in fixtures/*.json; do \
		$(RUN) -m edgeforce verify --cert $$f || exit 1; \
	done
