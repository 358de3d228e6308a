# CI entry points. `make ci` is the full gate: static checks (vet plus
# the hxlint determinism suite), build, the full tier-1 test suite,
# race-enabled tests (the internal/harness pool tests are the reason for
# -race), and a short-deadline smoke sweep through the parallel engine.
GO ?= go
# bash: the cover gate uses pipefail so a failing `go test` is never
# masked by the tee pipeline.
SHELL := /bin/bash

.PHONY: ci vet lint build test race quick smoke faultsmoke ckptsmoke shardsmoke servesmoke benchcheck benchhistory fuzzshort cover loc

ci: vet lint build test race smoke faultsmoke ckptsmoke shardsmoke servesmoke benchcheck fuzzshort cover

vet:
	$(GO) vet ./...

# Determinism-contract static analysis (see internal/lint): nodeterm,
# seedflow, maporder, noconc, and allocfree over the simulation packages
# and the CSV/manifest emission path, plus the interprocedural contract
# passes — stagesafe (unstaged mutations reachable from Act/Execute/
# Record event entries) and statecover (Snapshot/Restore field coverage
# and configKey/optsKey completeness) — and allowaudit, which fails the
# build on stale or malformed //hxlint: directives. Which passes apply to
# which package is one table, `scopes` in internal/lint/load.go. A gofmt
# cleanliness gate rides along. Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/hxlint ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

build:
	$(GO) build ./...

# Full suite, no race detector (tier-1 gate: go build ./... && go test ./...).
test:
	$(GO) test ./...

# Race detector pass: the full internal tree (the harness pool is the
# concurrency that matters), plus the short root-package tests — the root
# package is steady-state simulations that run minutes each under the
# detector's slowdown without exercising any extra concurrency.
race:
	$(GO) test -race ./internal/...
	$(GO) test -race -short .

# Fast iteration loop: skips the steady-state simulations but still runs
# the harness engine tests (they use synthetic jobs) under -race.
quick:
	$(GO) test -race -short ./...

# Short-deadline smoke sweep: exercises the worker pool, early stop,
# progress lines, and manifest output end to end in a few seconds.
smoke:
	$(GO) run ./cmd/hxsweep -pattern UR -algs DOR,VAL -step 0.25 \
		-warmup 1000 -window 1000 -j 2 -manifest /tmp/hxsweep-smoke.json >/dev/null
	@grep -q '"events_per_sec"' /tmp/hxsweep-smoke.json
	@echo smoke OK

# Fault-injection smoke: every algorithm sweeps a small topology with two
# failed links (the fault set is connectivity-preserving by construction).
# The gate: the fault-aware algorithms must not drop a single packet —
# column 9 of the sweep CSV is the whole-run drop count.
faultsmoke:
	$(GO) run ./cmd/hxsweep -pattern UR -algs DOR,VAL,UGAL,UGAL+,DimWAR,OmniWAR,MinAD,DAL \
		-faults 2 -step 0.25 -warmup 1000 -window 1000 -j 2 -q \
		-manifest /tmp/hxsweep-faultsmoke.json > /tmp/hxsweep-faultsmoke.csv
	@grep -q '"faults"' /tmp/hxsweep-faultsmoke.json
	@awk -F, 'NR>1 && ($$1=="DimWAR" || $$1=="OmniWAR") && $$9+0 > 0 \
		{ print "FAIL: " $$1 " dropped " $$9 " packets with 2 faults"; bad=1 } \
		END { exit bad }' /tmp/hxsweep-faultsmoke.csv
	@echo faultsmoke OK

# Checkpoint round-trip smoke: a cold sweep, then a pristine-fork sweep
# populating a checkpoint store — its CSV must be byte-identical to the
# cold one (the warm-fork acceptance claim) — then a rerun against the
# populated store, which must serve both curves from disk and still emit
# the identical CSV with the provenance block recording the resume.
ckptsmoke:
	rm -rf /tmp/hx-ckpt-store
	$(GO) run ./cmd/hxsweep -pattern UR -algs DOR,VAL -step 0.25 \
		-warmup 1000 -window 1000 -j 2 -q > /tmp/hx-ckpt-cold.csv
	$(GO) run ./cmd/hxsweep -pattern UR -algs DOR,VAL -step 0.25 \
		-warmup 1000 -window 1000 -j 2 -q -warmfork \
		-checkpoint-dir /tmp/hx-ckpt-store > /tmp/hx-ckpt-fork.csv
	cmp /tmp/hx-ckpt-cold.csv /tmp/hx-ckpt-fork.csv
	$(GO) run ./cmd/hxsweep -pattern UR -algs DOR,VAL -step 0.25 \
		-warmup 1000 -window 1000 -j 2 -q -warmfork \
		-checkpoint-dir /tmp/hx-ckpt-store \
		-manifest /tmp/hx-ckpt-resume.json > /tmp/hx-ckpt-resume.csv
	cmp /tmp/hx-ckpt-fork.csv /tmp/hx-ckpt-resume.csv
	@grep -q '"cached_jobs": 2' /tmp/hx-ckpt-resume.json || \
		{ echo "FAIL: resume did not serve both curves from the store"; exit 1; }
	@grep -q '"mode": "pristine-fork"' /tmp/hx-ckpt-resume.json || \
		{ echo "FAIL: manifest provenance missing the fork mode"; exit 1; }
	@echo ckptsmoke OK

# Sharded-executor smoke: the same sweep serial and with every simulation
# split across 2 shards (the benchmark's count), 3 (uneven contiguous
# blocks over the 64 routers) and 4 must emit byte-identical CSVs — the
# end-to-end form of the golden-trace shards-vs-serial equivalence claim
# — and so must the warm-forked sweep (-forkwarm), whose every point
# restores a shared warm snapshot into a network whose shards already
# ran. The 4-shard legs run once more under GOMAXPROCS=1: more shards
# than procs, so each shard's owner goroutine waits for the one P while
# the coordinator parks on the fan-out's barrier. (The -race pass over
# the executor itself lives in the race target: `go test -race
# ./internal/...` covers internal/shard, and `-race -short .` runs the
# root-package sharded determinism tests.)
SHARDSMOKE = $(GO) run ./cmd/hxsweep -pattern UR -algs DOR,DimWAR -step 0.25 \
	-warmup 1000 -window 1000 -j 2 -q
shardsmoke:
	$(SHARDSMOKE) > /tmp/hx-shard-serial.csv
	$(SHARDSMOKE) -forkwarm 2000 > /tmp/hx-shard-fw-serial.csv
	for n in 2 3 4; do \
		$(SHARDSMOKE) -shards $$n > /tmp/hx-shard-$$n.csv && \
		cmp /tmp/hx-shard-serial.csv /tmp/hx-shard-$$n.csv && \
		$(SHARDSMOKE) -forkwarm 2000 -shards $$n > /tmp/hx-shard-fw-$$n.csv && \
		cmp /tmp/hx-shard-fw-serial.csv /tmp/hx-shard-fw-$$n.csv || exit 1; \
	done
	GOMAXPROCS=1 $(SHARDSMOKE) -shards 4 > /tmp/hx-shard-4-p1.csv
	cmp /tmp/hx-shard-serial.csv /tmp/hx-shard-4-p1.csv
	GOMAXPROCS=1 $(SHARDSMOKE) -forkwarm 2000 -shards 4 > /tmp/hx-shard-fw-4-p1.csv
	cmp /tmp/hx-shard-fw-serial.csv /tmp/hx-shard-fw-4-p1.csv
	@echo shardsmoke OK

# Sweep-service smoke (scripts/servesmoke.sh): boot hxserved on a random
# port, submit the smoke sweep over HTTP, and require the served
# result.csv to be byte-identical to cmd/hxsweep's stdout; then kill -9
# the daemon mid-job and restart it against the same checkpoint store —
# the finished sweep must replay entirely from cache (provenance
# cached_jobs == completed) and the interrupted one must complete to the
# CLI's exact bytes.
servesmoke:
	bash scripts/servesmoke.sh

# The benchmark driver (bench/) is its own module, so the root
# `go build/vet/test ./...` never see it: a facade or serve change can
# break it with every other gate green. Vet and test it here (its tests
# run the workloads at a tiny sizing — seconds).
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	@echo benchcheck OK

# Append this checkout's four end-to-end results to BENCH_history.jsonl
# (scripts/benchhistory.sh). Not part of ci: it runs the full-size
# workloads for minutes, and what it records is a trajectory to read, not
# a gate — a PR that claims a gain adds its line (and its parent's).
benchhistory:
	bash scripts/benchhistory.sh

# Code-line count (scripts/loc.sh): non-test, non-blank, non-comment Go
# lines per package and in total, bench/ and testdata/ excluded — the
# figure CHANGES.md entries report as a change's line delta. Not a gate.
loc:
	@sh scripts/loc.sh

# Short native-fuzz passes: the HyperX coordinate algebra, and the
# calendar against a sorted-slice reference kernel, serial and windowed
# on 1-3 calendars (FuzzCalendarOps). The seed corpora are committed
# under each package's testdata/fuzz; a few seconds of mutation on top of
# them catches shape- and interleaving-dependent regressions without
# holding up the gate.
fuzzshort:
	$(GO) test -run '^$$' -fuzz FuzzCoordRoundTrip -fuzztime 10s ./internal/topology/
	$(GO) test -run '^$$' -fuzz FuzzCalendarOps -fuzztime 5s ./internal/sim/
	@echo fuzzshort OK

# Coverage floors. The hot-path packages — the kernel, the router model,
# and the routing-algorithm library — hold the high floor: that is where
# silent behaviour drift is costliest (the golden-trace test detects it,
# coverage keeps the detectors honest). The orchestration layer — the
# harness pool and the sweep service — holds its own lower floor: its
# suites are integration-shaped (httptest, stampedes, drains), so the
# bar is meaningful coverage, not hot-path exhaustiveness. pipefail (see
# SHELL above) keeps a failing `go test` from being masked by tee, and
# the awk gate reports every package below its floor, not just the
# first. internal/network sits on a ratchet at its current watermark —
# the 85 floor predates measuring it and had left the whole cover
# target permanently red; hold the line at 70 and raise the ratchet as
# router-model tests land.
COVER_FLOOR = 85
COVER_FLOOR_ORCH = 75
COVER_FLOOR_NETWORK = 70
cover:
	@set -o pipefail; $(GO) test -count=1 -cover \
		./internal/sim/ ./internal/network/ ./internal/routing/ \
		./internal/harness/ ./internal/serve/ | tee /tmp/hx-cover.txt
	@awk -v floor=$(COVER_FLOOR) -v orch=$(COVER_FLOOR_ORCH) -v net=$(COVER_FLOOR_NETWORK) \
		'/coverage:/ { pct = $$5; sub(/%.*/, "", pct); \
			f = floor; \
			if ($$2 ~ /internal\/(harness|serve)$$/) f = orch; \
			if ($$2 ~ /internal\/network$$/) f = net; \
			if (pct + 0 < f) { print "FAIL: " $$2 " coverage " pct "% below floor " f "%"; bad = 1 } } \
		END { exit bad }' /tmp/hx-cover.txt
	@echo cover OK
