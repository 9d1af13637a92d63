PY ?= python3
# Every target runs from a plain checkout, without installing the package.
RUN = PYTHONPATH=src $(PY)

.PHONY: test acceptance bench fixtures verify-fixtures check

test:
	$(RUN) -m pytest -v

acceptance:
	$(RUN) -m pytest tests/test_acceptance.py -v -s

bench:
	for w in bf-certify exact-search long-chain; do \
		$(RUN) perfbench/run.py --workload $$w || exit 1; \
	done

# Regenerate the checked-in certificates.  Each command writes a temporary
# file that replaces its fixture only when the command succeeds, so a
# failure leaves the old fixture in place.  The BF(2) command exits 1 by
# design (nonexistence); any other exit status is a failure.
fixtures:
	f=fixtures/bf2-nonexistence.json; \
	$(RUN) -m edgeforce construct --r 2 > $$f.tmp; \
	if [ $$? -eq 1 ]; then mv $$f.tmp $$f; else rm -f $$f.tmp; exit 1; fi
	for r in 3 4 5 6 7 8 9; do \
		f=fixtures/bf$$r-construction.json; \
		$(RUN) -m edgeforce construct --r $$r > $$f.tmp && mv $$f.tmp $$f \
			|| { rm -f $$f.tmp; exit 1; }; \
		f=fixtures/bf$$r-bounds.json; \
		$(RUN) -m edgeforce bounds --r $$r > $$f.tmp && mv $$f.tmp $$f \
			|| { rm -f $$f.tmp; exit 1; }; \
	done

verify-fixtures:
	for f in fixtures/*.json; do \
		$(RUN) -m edgeforce verify --cert $$f || exit 1; \
	done

# The gates of a change, in order, stopping at the first failure: the unit
# and acceptance tests, the benchmark's self-tests, every fixture verified.
check:
	$(RUN) -m pytest -q
	$(RUN) -m pytest perfbench -q
	$(MAKE) verify-fixtures
