# Convenience targets for the LaSAGNA reproduction.

GO ?= go

.PHONY: all build vet test race lint fuzz bench bench-gate benchmark-smoke cover examples evaluation trace serve-smoke clean

all: build vet lint test race

# Fails when any file is not gofmt-formatted (listing the offenders) or
# when go vet flags anything, here or in the benchmark module: benchmark/
# imports internal packages, so an API change that breaks it fails this
# target, not only the benchmark job.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The pipeline runs partitions concurrently (Config.Workers); the race
# detector is part of the default verification gate. The stream stress
# test gets an explicit high-count pass: the async executor/enqueuer
# handoff and the allocator's lock-ordering fixes are the raciest code in
# the tree. The fsync-ledger tests ride the last pass: they swap kvio's
# package-level fsync hook while sorts and a two-worker pipeline run
# under them. The serve line gets ten passes: every HTTP, run and cancel
# goroutine reaches the scheduler's state through one placement pass. So
# does the ordered pool Map, Sort and Reduce share, with Sort's
# earliest-failure test driving it over real partitions, and Map, whose
# kernel blocks write one shared slab at disjoint offsets.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=3 -run 'TestStreamStress|TestAllocPeakNeverExceedsCapacity|TestAllocationConcurrentFreeIdempotent' ./internal/gpu/
	$(GO) test -race -count=10 -run 'TestFleetSchedulerStress|TestSchedulerFreedDeviceTakesQueuedWork|TestSchedulerSurvivesPanickingRun|TestSchedulerPreemptionDrain|TestFlightRecorderLifecycle|TestSchedulerPreemptsOnlyWhatArrivalNeeds' ./internal/serve/
	$(GO) test -race -count=3 -run 'TestPooledBufferConcurrentSorts|TestBlockPoolConcurrentRoundTrips|TestFsyncLedger' ./internal/extsort/ ./internal/kvio/
	$(GO) test -race -count=10 -run 'TestRunOrdered|TestSortPartitionsReportsEarliestFailure|TestMapperMatchesTupleOracle|TestMapRangeDrainsOnErrorAndCancel' ./internal/core/

# Short fuzz passes over the parsers, the packed encoding, the graph
# stores, the two-hop reducer (held to Myers' sweep), the fingerprint
# kernel (held to the reference hash and to the Hillis-Steele scan's
# charges) and the prefetching window (Advance + Adopt held to Consume +
# Fill); the seed corpora live under
# testdata/fuzz/ or in the targets' f.Add calls.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzPackedRoundTrip -fuzztime=10s ./internal/dna/
	$(GO) test -run=NONE -fuzz=FuzzParseSeq -fuzztime=10s ./internal/dna/
	$(GO) test -run=NONE -fuzz=FuzzReader -fuzztime=10s ./internal/fastq/
	$(GO) test -run=NONE -fuzz=FuzzKVReader -fuzztime=10s ./internal/kvio/
	$(GO) test -run=NONE -fuzz=FuzzWindow -fuzztime=10s ./internal/kvio/
	$(GO) test -run=NONE -fuzz=FuzzEliasFanoPair -fuzztime=10s ./internal/bitvec/
	$(GO) test -run=NONE -fuzz=FuzzVecBounds -fuzztime=10s ./internal/gpu/
	$(GO) test -run=NONE -fuzz=FuzzSpmatFromEdgeRuns -fuzztime=10s ./internal/spmat/
	$(GO) test -run=NONE -fuzz=FuzzTwoHopMatchesMyers -fuzztime=10s ./internal/spmat/
	$(GO) test -run=NONE -fuzz=FuzzSuccinctFromEdgeRuns -fuzztime=10s ./internal/succinct/
	$(GO) test -run=NONE -fuzz=FuzzScanRead -fuzztime=10s ./internal/fingerprint/

# Every benchmark (worker scaling, graph backends, ablations, hot paths,
# the job service's throughput and the fleet scaling sweep); each prints
# its wall-clock and modeled figures and records nothing.
bench:
	$(GO) test -bench=. -benchmem ./...

# The benchmarks whose assertions are CI checks: every hot loop under its
# allocs/op ceiling (hotPathLoops; ns/op and B/op are reported, not
# gated), spmat removing at least as many edges as greedy, and the
# succinct store's graph peak at least 2x below spmat's. Their modeled
# seconds and tracked peaks are pinned exactly in tier-1
# (internal/cluster's TestModeledPins).
bench-gate:
	$(GO) test -run='^$$' -bench='^Benchmark(HotPaths|GraphBackends|GraphBackendMemory)$$' -benchtime=1x .

# The repository benchmark's own tests, then one traced repetition of
# every declared workload. A traced run fails an operation when the layers
# replayed for a stage take more than 1.3x the stage's wall
# ("trace rejected: layers replayed for <stage>"), which is how a change
# that speeds a stage up without its replay finds out before the driver
# does; run.sh exits non-zero on any failed check.
benchmark-smoke:
	cd benchmark && $(GO) test ./...
	bash benchmark/run.sh -workload asm_spmat,asm_onepass,asm_multipass,asm_succinct,cluster_4node -reps 1 -trace 1

cover:
	$(GO) test -cover ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/bacterial
	$(GO) run ./examples/errortolerance

# Regenerate every table and figure of the paper's evaluation (their shape
# claims are asserted at scale 0.1 by cmd/lasagna-bench's TestPaperShapes).
evaluation:
	$(GO) run ./cmd/lasagna-bench -exp all -scale 1.0

# Assemble a small synthetic dataset with full observability on, leaving
# trace.json (Perfetto-loadable; CI uploads it as an artifact).
trace:
	$(GO) run ./cmd/readgen -genome-len 20000 -read-len 80 -coverage 10 -out work/trace-reads.fastq
	$(GO) run ./cmd/lasagna -in work/trace-reads.fastq -workspace work/trace-demo \
		-lmin 40 -workers 2 -trace trace.json -v

# End-to-end smoke test of the job service: build the binaries, assemble
# a dataset directly, serve the same reads over HTTP, and require the
# fetched FASTA byte-identical; finishes with a SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

clean:
	rm -f test_output.txt bench_output.txt trace.json
	rm -rf work workspace scratch lasagna-workspace
	$(GO) clean -fuzzcache
