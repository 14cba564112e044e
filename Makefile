# Developer entry points. `make check` is the pre-commit gate: static
# checks, the race suite over the concurrent packages, and a smoke run of
# the matrix benchmark.

GO ?= go

.PHONY: build test vet fmt race determinism bench-gate bench-quick bench-delivery bench-replay fuzz-smoke alloc-gate mem-gate scenario-smoke serve-smoke bench-serve profile check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; fail when it prints anything.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The package that runs scheme code concurrently (parallel matrix cells,
# each attaching through the parallel filter builds), whole: its suite
# holds the fault-plane properties (TestLoss*: a 2%-lossy matrix identical
# for 1 and N workers, a zero-loss plane byte-identical to none) and the
# series properties (TestObsSeries*: series identical across worker
# counts, column sums equal to the summary). Plus core's signature-index
# equivalence property (bit-sliced scan ≡ scalar linear scan under churn ×
# loss × eviction), the batched-flood properties (batched tick ≡
# sequential deliveries ≡ per-node reference, with and without a fault
# plane), the walk property (walk then apply ≡ apply at every visit) and
# order freedom (a flooded or walked tick is chunking-invariant, a
# confirmation round and a baseline walker depend on their own identity
# alone).
race:
	$(GO) test -race ./internal/experiments
	$(GO) test -race -run 'TestIndexedCacheEquivalenceUnderChurnAndLoss|TestFloodBatchMatchesSequentialAndPerNode|TestChoicesAreOrderFree|TestWalkDeliveryMatchesPerVisit' ./internal/core
	$(GO) test -race -run 'TestChoicesAreOrderFree' ./internal/search

# Determinism gate: outputs are a pure function of (preset, seed, scenario)
# at every core count. A replay runs on one goroutine, so only the code
# that fans out by GOMAXPROCS can break that: RunMatrix's cell workers
# (experiments: the figure matrix and the seed and loss sweeps, which run
# their cells as matrices — TestSweepsWorkerDeterminism), the physical
# network's parallel generation (netmodel), and Attach's parallel filter
# builds (the root single-run test). Each suite passes at every
# GOMAXPROCS below, not only at the host's.
determinism:
	$(GO) test -count=1 -cpu 1,2,3,4,8 ./internal/experiments ./internal/netmodel
	$(GO) test -count=1 -cpu 1,2,3,4,8 -run 'TestSingleRunIndependentOfGOMAXPROCS' .

# One iteration of the matrix benchmark as a compile-and-run smoke test
# (-run '^$' skips the unit tests in the root package).
bench-gate:
	$(GO) test -run '^$$' -bench BenchmarkRunMatrix -benchtime 1x .

# The repo benchmark (bench/, described by BENCHMARK.json) is a module of
# its own, so `go build ./...` and `go test ./...` at the root never compile
# it: build it and run every workload on the tiny preset, untraced and
# traced, with its correctness checks, then its own unit tests — so a
# refactor of the packages it drives cannot break it unnoticed.
bench-quick:
	sh bench/run.sh -quick
	cd bench && $(GO) test ./...

# Short fuzz pass over everything that decodes outside bytes: the trace
# codec and the serving endpoints (binary frames, HTTP search bodies),
# plus arbitrary Bloom geometries for the sliced index. Go runs one fuzz
# target per invocation. The serving targets keep minimisation short: one
# exec of a 65,536-term input costs milliseconds, so the default 60 s
# minimisation would eat the run.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTraceDecode$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzTraceDecodeJSON$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzSlicedGeometry$$' -fuzztime $(FUZZTIME) ./internal/bloom
	$(GO) test -run '^$$' -fuzz '^FuzzServeFrame$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSearchBody$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/serve

# Delivery-plane micro-benchmarks: the flood and walk hot loops over the CSR
# live views, and a refresh tick over a slot of 1, 8 and 64 sources — flooded
# through one traversal without a fault plane, under a zero-loss one and at
# 5 % loss, and walked (RW and GSA batches in BenchmarkDeliverWalk). A
# hundred iterations each as a smoke test
# so a hot-loop regression (or a new allocation — they report -benchmem)
# fails fast.
bench-delivery:
	$(GO) test -run '^$$' -bench 'BenchmarkDeliverFlood|BenchmarkTickRefresh|BenchmarkDeliverWalk' \
		-benchtime 100x -benchmem ./internal/core

# Replay-plane micro-benchmarks: one full small-scale end-to-end replay,
# one small-scale ASAP warm-up (Attach, asap-fld and asap-rw), one build of
# each lab input (the paper-scale network, a 1/50-scale content universe),
# the bit-sliced phase-1 cache scan, and one search of each baseline
# (resolve + cascade or walk). One/hundred iterations as a smoke test so a
# hot-loop regression (or a new allocation) fails fast.
bench-replay:
	$(GO) test -run '^$$' -bench 'BenchmarkReplaySmall' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkAttach' -benchtime 1x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkGenerateFullScale' -benchtime 1x -benchmem ./internal/netmodel
	$(GO) test -run '^$$' -bench 'BenchmarkGenerateSmall' -benchtime 1x -benchmem ./internal/content
	$(GO) test -run '^$$' -bench 'BenchmarkScanChains' -benchtime 100x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkAppendMatch' -benchtime 10000x -benchmem ./internal/bloom
	$(GO) test -run '^$$' -bench 'BenchmarkFloodingSearch|BenchmarkRandomWalkSearch|BenchmarkGSASearch' \
		-benchtime 100x -benchmem ./internal/search

# Zero-alloc gates: the replay's Search hot path (and the delivery cascade
# held to its allocs/op bound), the warmed-up delivery hot loops (flood, a 64-source refresh tick, RW and GSA
# ticks walking a batch), the warmed-up replay scan paths (scanCache,
# serveAds), a warmed-up served search (Node.Search over SearchRO, which
# runs on the replay's search scratch) and serving tick (Node.Tick), a
# warmed-up search of each baseline (the scheme's scratch), and patch
# sizing on the publish path (exact even for unsorted caller-built lists).
alloc-gate:
	$(GO) test -run 'TestObsOffHotPathAllocs' -count=1 .
	$(GO) test -run 'TestDeliveryHotPathAllocs|TestScanHotPathAllocs' -count=1 ./internal/core
	$(GO) test -run 'TestServeSearchAllocs|TestNodeTickAllocs' -count=1 ./internal/serve
	$(GO) test -run 'TestBaselineSearchAllocs' -count=1 ./internal/search
	$(GO) test -run 'TestPatchWireSizeAllocs' -count=1 ./internal/bloom

# Peak-heap gate: one small-scale asap-rw replay must stay inside its
# live-heap budget (obs.HeapGauge high-water sampling, once per simulated
# second), so per-node memory creep fails fast.
mem-gate:
	$(GO) test -run 'TestSmallReplayPeakHeapBound' -count=1 ./internal/experiments

# Adversarial-scenario gate under the race detector: every built-in
# scenario (partitions, flash crowds, churn storms, free riders, interest
# drift, rewiring) must show its acts' effects in its series and match its
# pinned golden summary + series hash. Regenerate goldens deliberately with
# `go test ./internal/scenario -run TestGoldenReplay -update`.
scenario-smoke:
	$(GO) test -race -count=1 ./internal/scenario

# Serving-plane gate under the race detector: the serve package's
# concurrent-oracle property (hammering readers vs live applies, every
# answer equal to the quiescent oracle at its epoch), admission control,
# endpoint deadline/body-cap and determinism tests, and the frame codec's
# hostile-input tests — then a short open-loop load run built
# -race against an in-process warm node, which must serve every query
# (zero sheds at a rate the node is provisioned for) with p99 under a
# deliberately generous bound (detector overhead included).
serve-smoke:
	$(GO) test -race -count=1 ./internal/serve ./internal/transport
	$(GO) run -race ./cmd/asapload -rate 200 -n 400 -smoke -p99max 250ms -quiet

# Serving-plane throughput floor: a sustained in-process load run must
# serve the paper-motivated ≥100k queries/min from one warm node. (The
# served search's zero-alloc gate runs in alloc-gate.)
bench-serve:
	$(GO) run ./cmd/asapload -rate 4000 -n 12000 -minqpm 100000

# Profile a small-scale matrix run; inspect with `go tool pprof out/cpu.pb`.
profile:
	mkdir -p out
	$(GO) run ./cmd/experiments -scale small -figure 4 \
		-cpuprofile out/cpu.pb -memprofile out/mem.pb -mutexprofile out/mutex.pb
	@echo "profiles written to out/{cpu,mem,mutex}.pb"

check: vet fmt test race determinism bench-gate bench-quick bench-delivery bench-replay alloc-gate mem-gate scenario-smoke serve-smoke fuzz-smoke
