# Development targets. `make ci` is the full gate run before merging.

GO ?= go

.PHONY: build test vet fmt race check bench tables goldens pins cover linkcheck loc ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must have nothing to rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Bounded randomized simulation checking (see docs/CHECKING.md);
# CHECK_SEEDS can be raised for a deeper sweep.
CHECK_SEEDS ?= 160
check:
	$(GO) run ./cmd/kdpcheck -seeds $(CHECK_SEEDS)

# internal/machine holds BenchmarkCheckInvariants/{full,charge-only}: ns
# and allocations per probe (docs/CHECKING.md, "What a probe costs"), and
# BenchmarkBuildRelease/{cold,warm}: what it costs to stamp out
# simcheck's machine with the slab recycler empty and with the last
# machine's platters and buffer slab resting in it; internal/stream
# holds BenchmarkStreamTransfer: ns, bytes and allocations per simulated
# megabyte through one connection; internal/kernel holds BenchmarkUse,
# BenchmarkSleepWakeup, BenchmarkSyscallLseek and BenchmarkCalloutArmFire:
# what a CPU charge, a process switch, the cheapest system call and a
# timer cost the host; internal/sim, internal/socket and internal/vm hold
# BenchmarkScheduleRun, BenchmarkDatagram and BenchmarkPageFaultWarm: an
# event, a datagram end to end and a fault in a full pool (each 0 allocs,
# docs/ARCHITECTURE.md "Who owns which memory").
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./internal/bench/ ./internal/machine/ ./internal/stream/ ./internal/kernel/ \
		./internal/sim/ ./internal/socket/ ./internal/vm/

tables:
	$(GO) run ./cmd/kdpbench

# Rewrites the six pinned outputs — kdpbench's table1, table2 and sweeps,
# kdptrace's server_stats and vm_stats, simcheck's digests — by rerunning
# the tests that compare against them with -update. `git diff` afterwards
# is the behaviour change; the commit that carries it says why, per file.
goldens:
	$(GO) test ./cmd/kdpbench ./cmd/kdptrace ./internal/simcheck -run 'Golden$$' -update

# Prints one `sha256  command` line per pinned invocation — the CLIs
# and examples are built once into $(PIN_DIR) and each command's stdout
# is hashed (a nonzero exit is appended). `make pins > a` on two
# commits, then `diff a b`, is the "byte-identical except ..." check.
PIN_DIR = $(or $(TMPDIR),/tmp)/kdp-pins
define PIN_CMDS
kdpbench
kdpbench -sweep quantum
kdpbench -sweep watermark
kdpbench -sweep sharing
kdpbench -sweep filesize
kdpbench -sweep socket
kdpbench -sweep rate
kdpbench -sweep layout
kdpbench -sweep server
kdpbench -sweep cache
kdpbench -sweep vm
kdpbench -sweep batch
kdpbench -series
kdpcheck -seeds 300
kdpcheck -seeds 40 -ops 200 -workers 3
kdpcheck -crash -seeds 100
kdpcheck -faults -seeds 8 -ops 40
kdptrace
kdptrace -disk RAM -n -1
kdptrace -server 4 -stats
kdptrace -mcp -stats
scp
kdpfsck
cpubound
fileserver
movieplayer
netrelay
quickstart
streamserver
endef
export PIN_CMDS
pins:
	@mkdir -p $(PIN_DIR)
	@$(GO) build -o $(PIN_DIR)/ ./cmd/... ./examples/...
	@echo "$$PIN_CMDS" | while read -r cmd; do \
		$(PIN_DIR)/$$cmd > $(PIN_DIR)/stdout 2> /dev/null; rc=$$?; \
		sum=$$(sha256sum < $(PIN_DIR)/stdout | cut -c1-64); \
		if [ $$rc -eq 0 ]; then echo "$$sum  $$cmd"; else echo "$$sum  $$cmd  (exit $$rc)"; fi; \
	done

# Coverage gate: the paper's own package, the endpoints it splices
# (§5.1: devices and sockets) and the packages at the core of the
# poll/event-loop and cache/disk work must keep a statement-coverage
# floor. awk parses
# `go test -cover`'s "coverage: NN.N% of statements" line per package.
COVER_FLOOR ?= 75.0
COVER_PKGS := ./internal/splice/ ./internal/kernel/ ./internal/stream/ \
	./internal/server/ ./internal/buf/ ./internal/disk/ ./internal/fs/ \
	./internal/vm/ ./internal/machine/ ./internal/dev/ ./internal/socket/
cover:
	$(GO) test -cover $(COVER_PKGS) | awk -v floor=$(COVER_FLOOR) '\
		{ print } \
		/coverage:/ { \
			for (i = 1; i <= NF; i++) if ($$i == "coverage:") { pct = $$(i+1); sub(/%/, "", pct); \
				if (pct + 0 < floor) { printf "FAIL: %s coverage %s%% below floor %s%%\n", $$2, pct, floor; bad = 1 } } \
		} \
		END { exit bad }'

# Docs gate: every relative link in the repo's markdown must resolve
# to a real file (anchors and external URLs are not checked).
linkcheck:
	$(GO) run ./tools/mdlinkcheck .

# The two sizes ROADMAP.md and CHANGES.md quote, defined once: lines of
# non-test and of test Go outside the frozen benchmark/ tree.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' | xargs cat | wc -l | xargs echo non-test
	@find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l | xargs echo test

# Determinism gates (docs/TRACING.md's contract): `make <gate>-ci` runs
# the gate's command twice, the second time under GOMAXPROCS=1, and
# requires the two outputs ($(1)) to be byte-identical. crash and fault
# are bounded kdpcheck sweeps printing per-seed digests (docs/FAULTS.md);
# trace is one table's exported event stream, schema-validated as well;
# server, vm and batch are the sweep tables that exercise the stream
# transport and server engines, demand paging, and aggregated crossings.
CRASH_SEEDS ?= 190
FAULT_SEEDS ?= 19
FAULT_OPS ?= 40
crash_gate  = $(GO) run ./cmd/kdpcheck -crash -seeds $(CRASH_SEEDS) > $(1)
fault_gate  = $(GO) run ./cmd/kdpcheck -faults -seeds $(FAULT_SEEDS) -ops $(FAULT_OPS) > $(1)
trace_gate  = $(GO) run ./cmd/kdpbench -table 2 -disks RAM -trace $(1) > /dev/null && $(GO) run ./cmd/kdpbench -validate $(1)
server_gate = $(GO) run ./cmd/kdpbench -sweep server > $(1)
vm_gate     = $(GO) run ./cmd/kdpbench -sweep vm > $(1)
batch_gate  = $(GO) run ./cmd/kdpbench -sweep batch > $(1)
GATES := crash-ci fault-ci trace-ci server-ci vm-ci batch-ci
GATE_OUT = $(or $(TMPDIR),/tmp)/kdp-$*
.PHONY: $(GATES)
$(GATES): %-ci:
	$(call $*_gate,$(GATE_OUT)-a)
	GOMAXPROCS=1 $(call $*_gate,$(GATE_OUT)-b)
	cmp $(GATE_OUT)-a $(GATE_OUT)-b

ci: fmt vet build race check cover linkcheck $(GATES)
