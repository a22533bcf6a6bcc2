# Development targets. `make ci` is the full gate run before merging.

GO ?= go

.PHONY: build test vet fmt race bench tables goldens pins determinism reach cover linkcheck loc ci

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

# internal/machine holds BenchmarkCheckInvariants/{audited,skip}: ns
# and allocations per probe (docs/CHECKING.md, "What a probe costs"), and
# BenchmarkBuildRelease/{cold,warm}: what it costs to stamp out
# simcheck's machine with the block recycler empty and with the last
# machine's blocks resting in it; internal/disk holds
# BenchmarkDiskTransfer: ns, bytes and allocations per simulated block
# read and write, shared and copy-on-write; internal/stream
# holds BenchmarkStreamTransfer: ns, bytes and allocations per simulated
# megabyte through one connection; internal/kernel holds BenchmarkUse,
# BenchmarkSleepWakeup, BenchmarkSyscallLseek and BenchmarkCalloutArmFire:
# what a CPU charge, a process switch, the cheapest system call and a
# timer cost the host; internal/sim, internal/socket and internal/vm hold
# BenchmarkScheduleRun, BenchmarkDatagram and BenchmarkPageFaultWarm: an
# event, a datagram end to end and a fault in a full pool (each 0 allocs,
# docs/ARCHITECTURE.md "Who owns which memory"); internal/simcheck holds
# BenchmarkSeed/1-8: what one 60-op seed costs, machine included; and
# each catalog owner (buf, kernel, stream, splice, disk, fs, vm) holds
# BenchmarkCatalogWalk: one full walk of its catalog, none skipped; buf
# also BenchmarkTouchedWalk: a cache hit, then its touched walk or a
# full one.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./internal/bench/ ./internal/machine/ ./internal/stream/ ./internal/kernel/ \
		./internal/sim/ ./internal/socket/ ./internal/vm/ ./internal/simcheck/ \
		./internal/buf/ ./internal/splice/ ./internal/disk/ ./internal/fs/

tables:
	$(GO) run ./cmd/kdpbench

# Rewrites the six pinned outputs — kdpbench's table1, table2 and sweeps,
# kdptrace's server_stats and vm_stats, simcheck's digests — by rerunning
# the tests that compare against them with -update. `git diff` afterwards
# is the behaviour change; the commit that carries it says why, per file.
goldens:
	$(GO) test ./cmd/kdpbench ./cmd/kdptrace ./internal/simcheck -run 'Golden$$' -update

# Prints one `sha256  command` line per pinned invocation — the CLIs
# and examples are built once into $(PIN_DIR), each command's stdout
# is hashed (a nonzero exit is appended) and kept as $(PIN_DIR)/out/<sha256>.
# `make pins > a` on two commits, then `diff a b`, is the
# "byte-identical except ..." check. The same list is the determinism
# gate and the reach report's input; TestPinsCoverEverySurface fails
# unless every sweep, CLI and example has a line. `-trace /dev/stdout`
# reopens and truncates the hashed file after the table is printed, so
# that line's hash and kept output are the exported Chrome trace. Under
# GOCOVERDIR (as `make reach` runs it) line n writes its coverage
# counters to $GOCOVERDIR/n.
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
kdpbench -table 2 -disks RAM -trace /dev/stdout
kdpcheck -seeds 340
kdpcheck -seeds 40 -ops 200 -workers 3
kdpcheck -crash -seeds 190
kdpcheck -crash -seeds 190 -j 4
kdpcheck -faults -seeds 19 -ops 40
kdpcheck -seed 3 -damage hash-key -minimize
kdptrace
kdptrace -disk RAM -n -1
kdptrace -server 4 -stats
kdptrace -mcp -stats
scp
kdpfsck
kdpfsck -corrupt crosslink -repair
kdpfsck -corrupt leak -repair
cpubound
fileserver
movieplayer
netrelay
quickstart
streamserver
endef
export PIN_CMDS
pins:
	@rm -rf $(PIN_DIR)/out && mkdir -p $(PIN_DIR)/out
	@$(GO) build -o $(PIN_DIR)/ ./cmd/... ./examples/...
	@n=0; echo "$$PIN_CMDS" | while read -r cmd; do n=$$((n + 1)); \
		cov=$${GOCOVERDIR:+$$GOCOVERDIR/$$n}; [ -z "$$cov" ] || mkdir -p $$cov; \
		GOCOVERDIR=$$cov $(PIN_DIR)/$$cmd > $(PIN_DIR)/stdout 2> /dev/null; rc=$$?; \
		sum=$$(sha256sum < $(PIN_DIR)/stdout | cut -c1-64); mv $(PIN_DIR)/stdout $(PIN_DIR)/out/$$sum; \
		if [ $$rc -eq 0 ]; then echo "$$sum  $$cmd"; else echo "$$sum  $$cmd  (exit $$rc)"; fi; \
	done

# The determinism gate (docs/TRACING.md's contract): `make pins` twice
# at once, the second under GOMAXPROCS=1, must print the same hashes;
# the crash sweep at -j 4 must print what it prints at its default -j
# (one seed at a time on one CPU); every line but the planted kdpcheck
# failure, which must exit 1, must exit 0; and the trace line's own
# output must pass the schema check.
determinism:
	@$(MAKE) -s --no-print-directory pins PIN_DIR=$(PIN_DIR)-a > $(PIN_DIR)-a.txt & \
	GOMAXPROCS=1 $(MAKE) -s --no-print-directory pins PIN_DIR=$(PIN_DIR)-b > $(PIN_DIR)-b.txt; \
	rc=$$?; wait $$! && [ $$rc -eq 0 ]
	cmp $(PIN_DIR)-a.txt $(PIN_DIR)-b.txt
	@[ $$(grep -E ' kdpcheck -crash -seeds 190( -j 4)?$$' $(PIN_DIR)-a.txt | cut -c1-64 | sort -u | wc -l) -eq 1 ] || \
		{ echo "kdpcheck -crash -seeds 190 prints another sweep at -j 4"; exit 1; }
	@fails=$$(grep -F '(exit' $(PIN_DIR)-a.txt | cut -c67-); \
	if [ "$$fails" != "kdpcheck -seed 3 -damage hash-key -minimize  (exit 1)" ]; then \
		echo "pin lines must exit 0, but for the planted kdpcheck failure's exit 1; got:"; echo "$$fails"; exit 1; fi
	$(PIN_DIR)-a/kdpbench -validate $(PIN_DIR)-a/out/$$(awk '/ -trace / { print $$1 }' $(PIN_DIR)-a.txt)

# The reach report (docs/CHECKING.md "What nothing reaches"): every pin
# line, the schema check of the trace line's output and one short
# benchmark pass, run from binaries built with -cover, each pin line
# into a counter directory of its own and the other two into cov/bench.
# It prints every function outside benchmark/ that none of them
# executed, with the lines those functions and their doc comments span,
# then, for each pin line and for the bench pass, the functions that it
# alone executed (its exclusive code) and their lines. On demand; not
# part of ci.
reach:
	@rm -rf $(PIN_DIR)-reach && mkdir -p $(PIN_DIR)-reach/cov/bench
	@GOFLAGS='-cover -coverpkg=kdp/...' GOCOVERDIR=$(PIN_DIR)-reach/cov \
		$(MAKE) -s --no-print-directory pins PIN_DIR=$(PIN_DIR)-reach > $(PIN_DIR)-reach/pins.txt
	@$(GO) build -cover -coverpkg=kdp/... -o $(PIN_DIR)-reach/ ./benchmark
	@cd $(PIN_DIR)-reach && export GOCOVERDIR=$$PWD/cov/bench && \
		./kdpbench -validate out/$$(awk '/ -trace / { print $$1 }' pins.txt) > /dev/null && \
		./benchmark -seconds 0.5 -trace both -outdir bench > /dev/null
	@cd $(PIN_DIR)-reach && $(GO) tool covdata textfmt -i=$$(ls -d cov/* | paste -sd, -) -o cover.out
	@$(GO) tool cover -func=$(PIN_DIR)-reach/cover.out > $(PIN_DIR)-reach/all.txt
	@for d in $$(ls $(PIN_DIR)-reach/cov); do \
		$(GO) tool covdata textfmt -i=$(PIN_DIR)-reach/cov/$$d -o $(PIN_DIR)-reach/$$d.out && \
		$(GO) tool cover -func=$(PIN_DIR)-reach/$$d.out | sed "s|^|$$d |"; \
	done > $(PIN_DIR)-reach/lines.txt
	@awk '\
		function span(loc,   at, f, s, e, b, k, l) { \
			split(loc, at, ":"); f = substr(at[1], 5); s = at[2] + 0; \
			if (!(f in nl)) { k = 0; while ((getline l < f) > 0) src[f, ++k] = l; close(f); nl[f] = k } \
			e = s; if (src[f, s] !~ /}$$/) while (e < nl[f] && src[f, e] !~ /^}/) e++; \
			b = s; while (src[f, b - 1] ~ /^\/\//) b--; \
			return e - b + 1 } \
		FNR == 1 { part++ } \
		part == 1 && $$NF == "0.0%" && $$1 !~ /^kdp\/benchmark\// { print; n++; lines += span($$1) } \
		part == 2 { name[FNR] = substr($$0, 67); np = FNR } \
		part == 3 && $$NF != "0.0%" && $$2 != "total:" && $$2 !~ /^kdp\/benchmark\// { \
			k = $$2 " " $$3; if (!(k in hits)) key[++nk] = k; hits[k]++; by[k] = $$1 } \
		END { printf "%d functions, %d lines\n", n, lines; name["bench"] = "benchmark pass and kdpbench -validate"; \
			for (i = 1; i <= np + 1; i++) { d = (i <= np) ? (i "") : "bench"; fn = 0; ln = 0; list = ""; \
				for (j = 1; j <= nk; j++) if (hits[key[j]] == 1 && by[key[j]] == d) { \
					split(key[j], kw, " "); s = span(kw[1]); fn++; ln += s; list = list "    " key[j] " " s "\n" } \
				printf "only %s: %d functions, %d lines\n%s", name[d], fn, ln, list } }' \
		$(PIN_DIR)-reach/all.txt $(PIN_DIR)-reach/pins.txt $(PIN_DIR)-reach/lines.txt

# Coverage gate: the paper's own package, the endpoints it splices
# (§5.1: devices and sockets) and the packages at the core of the
# poll/event-loop and cache/disk work must keep a statement-coverage
# floor. awk parses
# `go test -cover`'s "coverage: NN.N% of statements" line per package,
# and fails on a package's FAIL line too: the pipeline's status is awk's.
COVER_FLOOR ?= 75.0
COVER_PKGS := ./internal/splice/ ./internal/kernel/ ./internal/stream/ \
	./internal/server/ ./internal/buf/ ./internal/disk/ ./internal/fs/ \
	./internal/vm/ ./internal/machine/ ./internal/dev/ ./internal/socket/
cover:
	$(GO) test -cover $(COVER_PKGS) | awk -v floor=$(COVER_FLOOR) '\
		{ print } \
		/^FAIL/ { bad = 1 } \
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

ci: fmt vet build race cover linkcheck determinism
