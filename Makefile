# Convenience targets; the source of truth is dune.

.PHONY: check build test bench bench-smoke bench-gate trace-smoke net-smoke fault-smoke crash-smoke cert-smoke par-smoke guest-smoke fast-smoke persist-smoke clean

check: ## full tier-1 verification: build + every test suite + smokes
	dune build @all && dune runtest && $(MAKE) trace-smoke && $(MAKE) net-smoke && $(MAKE) fault-smoke && $(MAKE) crash-smoke && $(MAKE) cert-smoke && $(MAKE) par-smoke && $(MAKE) guest-smoke && $(MAKE) fast-smoke && $(MAKE) persist-smoke
	@if ls BENCH_*.json >/dev/null 2>&1; then $(MAKE) bench-gate; \
	else echo "check: no bench snapshot baseline; skipping bench-gate"; fi

build:
	dune build

test:
	dune runtest

# The complete paper evaluation at test size (slow).
bench:
	dune exec bench/main.exe

# Quick exercise of the serving experiment so the cache path stays honest.
bench-smoke:
	dune exec bench/main.exe -- service

# Performance regression gate: run the hot-path benchmarks and compare
# against the committed snapshot with the highest N among BENCH_N.json,
# which the gate only reads; >20% regression on any hot path fails. With
# no baseline it passes; keys present in only one snapshot are skipped
# and summarized in one stderr line. `dune exec bench/main.exe -- json`
# is the one command that writes a snapshot.
bench-gate:
	dune exec bench/main.exe -- gate

# Fast-path smoke: run a MiniC-compiled module and a guest-lifted module
# on the interpreter over a decode made before the run (--engine fast) and
# on the interpreter decoding per run, and insist the outputs are
# identical — the differential guarantee end to end from the CLI, on both
# families.
fast-smoke:
	dune build examples/quickstart.exe bin/omnirun.exe
	@src="/tmp/fast-smoke-$$$$.gasm"; omni="/tmp/fast-smoke-$$$$.omni"; \
	./_build/default/examples/quickstart.exe -o /tmp/quickstart.omni >/dev/null; \
	base=$$(./_build/default/bin/omnirun.exe run /tmp/quickstart.omni --engine interp) || \
	  { echo "fast-smoke: FAIL (interp run errored)"; exit 1; }; \
	fast=$$(./_build/default/bin/omnirun.exe run /tmp/quickstart.omni --engine fast) || \
	  { echo "fast-smoke: FAIL (fast run errored)"; exit 1; }; \
	[ "$$base" = "$$fast" ] || \
	  { echo "fast-smoke: FAIL (minic outputs differ)"; exit 1; }; \
	printf '.mem 8\n.func main 0 2\npush 10 set 0\nloop: get 0 brz done\nget 0 get 1 add set 1\nget 0 push 1 sub set 0\njmp loop\ndone: get 1 sys print_int\npush 10 sys put_char\npush 0 halt\n' > "$$src"; \
	./_build/default/bin/omnirun.exe lift "$$src" -o "$$omni" 2>/dev/null; \
	gbase=$$(./_build/default/bin/omnirun.exe run "$$omni" --engine interp) || \
	  { echo "fast-smoke: FAIL (guest interp run errored)"; exit 1; }; \
	gfast=$$(./_build/default/bin/omnirun.exe run "$$omni" --engine fast) || \
	  { echo "fast-smoke: FAIL (guest fast run errored)"; exit 1; }; \
	rm -f "$$src" "$$omni"; \
	{ [ "$$gbase" = "$$gfast" ] && [ "$$gfast" = "55" ]; } || \
	  { echo "fast-smoke: FAIL (guest outputs: interp=$$gbase fast=$$gfast)"; exit 1; }; \
	echo "fast-smoke: OK (fast == interp on both workload families)"

# End-to-end observability smoke: compile the quickstart module, run it
# under omnirun with span tracing on, and insist the trace is non-empty.
trace-smoke:
	dune build examples/quickstart.exe bin/omnirun.exe
	./_build/default/examples/quickstart.exe -o /tmp/quickstart.omni >/dev/null
	./_build/default/bin/omnirun.exe --trace=/tmp/quickstart.trace run \
	  /tmp/quickstart.omni --engine x86 >/dev/null
	@grep -q '"span":"translate"' /tmp/quickstart.trace
	@grep -q '"span":"run"' /tmp/quickstart.trace
	@echo "trace-smoke: OK ($$(wc -l < /tmp/quickstart.trace) spans)"

# Remote-serving smoke: start omnid on a throwaway Unix socket, push the
# quickstart module through omnirun --remote twice, and insist the second
# run hit the daemon's translation cache. Skips (exit 0) rather than
# fails when the environment cannot create Unix-domain sockets.
net-smoke:
	dune build examples/quickstart.exe bin/omnid.exe bin/omnirun.exe
	@sock="/tmp/omnid-smoke-$$$$.sock"; rm -f "$$sock"; \
	./_build/default/examples/quickstart.exe -o /tmp/quickstart.omni >/dev/null; \
	./_build/default/bin/omnid.exe --socket "$$sock" >/dev/null 2>&1 & pid=$$!; \
	i=0; while [ $$i -lt 100 ] && ! [ -S "$$sock" ]; do \
	  kill -0 $$pid 2>/dev/null || break; sleep 0.05; i=$$((i+1)); done; \
	if ! [ -S "$$sock" ]; then \
	  echo "net-smoke: SKIP (could not create a Unix-domain socket)"; \
	  kill $$pid 2>/dev/null; exit 0; fi; \
	status=0; \
	./_build/default/bin/omnirun.exe run /tmp/quickstart.omni \
	  --engine x86 --remote "$$sock" >/dev/null 2>&1 || status=1; \
	out=$$(./_build/default/bin/omnirun.exe run /tmp/quickstart.omni \
	  --engine x86 --remote "$$sock" --stats 2>&1 >/dev/null) || status=1; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -f "$$sock"; \
	[ $$status -eq 0 ] || { echo "net-smoke: FAIL (remote run errored)"; exit 1; }; \
	echo "$$out" | grep -Eq '"service.cache.hits":[1-9]' || \
	  { echo "net-smoke: FAIL (no cache hit on the warm run)"; exit 1; }; \
	echo "net-smoke: OK (second remote run hit the daemon cache)"

# Resilience smoke: run the quickstart module through the in-process
# loopback with seeded fault injection on the wire and a retrying
# client, and insist the output is identical to a clean run. Exercises
# the fault injector, the retry loop, and the typed-error path end to
# end from the CLI.
fault-smoke:
	dune build examples/quickstart.exe bin/omnirun.exe
	./_build/default/examples/quickstart.exe -o /tmp/quickstart.omni >/dev/null
	@clean=$$(./_build/default/bin/omnirun.exe run /tmp/quickstart.omni \
	  --engine x86 --loopback) || \
	  { echo "fault-smoke: FAIL (clean loopback run errored)"; exit 1; }; \
	faulty=$$(./_build/default/bin/omnirun.exe run /tmp/quickstart.omni \
	  --engine x86 --loopback --fault-rate 0.05 --fault-seed 42 --retries 8) || \
	  { echo "fault-smoke: FAIL (faulty loopback run errored)"; exit 1; }; \
	[ "$$clean" = "$$faulty" ] || \
	  { echo "fault-smoke: FAIL (output differs under fault injection)"; exit 1; }; \
	echo "fault-smoke: OK (identical output at fault rate 0.05)"

# Crash-containment smoke: compile a module that divides by zero, run it
# under omnirun with --crash-dir, and replay the written report on a
# different architecture — the fault must reproduce. Exercises crash
# reporting and deterministic replay end to end from the CLI.
crash-smoke:
	dune build bin/omnicc.exe bin/omnirun.exe
	@dir="/tmp/omni-crash-$$$$"; rm -rf "$$dir"; mkdir -p "$$dir"; \
	printf 'int main(void) { int x = 0; return 1 / x; }\n' > "$$dir/crashy.mc"; \
	./_build/default/bin/omnicc.exe "$$dir/crashy.mc" -o "$$dir/crashy.omni"; \
	./_build/default/bin/omnirun.exe run "$$dir/crashy.omni" --engine mips \
	  --crash-dir "$$dir" >/dev/null 2>&1; \
	report=$$(ls "$$dir"/crash-*.json 2>/dev/null | head -n 1); \
	[ -n "$$report" ] || { echo "crash-smoke: FAIL (no report written)"; exit 1; }; \
	out=$$(./_build/default/bin/omnirun.exe replay "$$report" --quiet --engine x86) || \
	  { echo "crash-smoke: FAIL (replay diverged: $$out)"; exit 1; }; \
	echo "$$out" | grep -q 'reproduced' || \
	  { echo "crash-smoke: FAIL (unexpected verdict: $$out)"; exit 1; }; \
	rm -rf "$$dir"; \
	echo "crash-smoke: OK (report written; fault reproduced on x86)"

# Proof-carrying translation smoke: compile the quickstart module, then
# translate + certify + witness-check it on every architecture, and
# derive a batch of deterministic certificate corruptions that must all
# be rejected — produce once, check cheap, and lying witnesses die.
cert-smoke:
	dune build examples/quickstart.exe bin/omnirun.exe
	./_build/default/examples/quickstart.exe -o /tmp/quickstart.omni >/dev/null
	./_build/default/bin/omnirun.exe cert /tmp/quickstart.omni --mutate 42

# Parallel-serving smoke: start omnid with a 4-domain worker pool on a
# throwaway Unix socket, push the quickstart module through several
# remote runs, and insist every run succeeds with identical output and
# the later ones hit the shared translation cache. Skips (exit 0) when
# the environment cannot create Unix-domain sockets.
par-smoke:
	dune build examples/quickstart.exe bin/omnid.exe bin/omnirun.exe
	@sock="/tmp/omnid-par-$$$$.sock"; rm -f "$$sock"; \
	./_build/default/examples/quickstart.exe -o /tmp/quickstart.omni >/dev/null; \
	./_build/default/bin/omnid.exe --socket "$$sock" --pool 4 >/dev/null 2>&1 & pid=$$!; \
	i=0; while [ $$i -lt 100 ] && ! [ -S "$$sock" ]; do \
	  kill -0 $$pid 2>/dev/null || break; sleep 0.05; i=$$((i+1)); done; \
	if ! [ -S "$$sock" ]; then \
	  echo "par-smoke: SKIP (could not create a Unix-domain socket)"; \
	  kill $$pid 2>/dev/null; exit 0; fi; \
	status=0; first=""; \
	for n in 1 2 3 4; do \
	  out=$$(./_build/default/bin/omnirun.exe run /tmp/quickstart.omni \
	    --engine x86 --remote "$$sock" 2>/dev/null) || { status=1; break; }; \
	  if [ -z "$$first" ]; then first="$$out"; \
	  elif [ "$$out" != "$$first" ]; then status=2; break; fi; \
	done; \
	stats=$$(./_build/default/bin/omnirun.exe run /tmp/quickstart.omni \
	  --engine x86 --remote "$$sock" --stats 2>&1 >/dev/null) || status=1; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -f "$$sock"; \
	[ $$status -ne 1 ] || { echo "par-smoke: FAIL (remote run errored)"; exit 1; }; \
	[ $$status -ne 2 ] || { echo "par-smoke: FAIL (outputs differ across runs)"; exit 1; }; \
	echo "$$stats" | grep -Eq '"service.cache.hits":[1-9]' || \
	  { echo "par-smoke: FAIL (no cache hit on the pooled daemon)"; exit 1; }; \
	echo "par-smoke: OK (4 identical runs through a 4-domain pool; cache hit)"

# Guest front-end smoke: assemble a StackVM program, lift it to OmniVM,
# run the lifted module on a real target with the guest reference
# interpreter as oracle, then write the lifted .omni and serve it through
# the normal run path with producer attribution. Exercises the assembler,
# the lifter, the differential check, and the uniform producer plumbing
# end to end from the CLI.
guest-smoke:
	dune build bin/omnirun.exe
	@src="/tmp/guest-smoke-$$$$.gasm"; omni="/tmp/guest-smoke-$$$$.omni"; \
	printf '.mem 8\n.func main 0 2\npush 10 set 0\nloop: get 0 brz done\nget 0 get 1 add set 1\nget 0 push 1 sub set 0\njmp loop\ndone: get 1 sys print_int\npush 10 sys put_char\npush 0 halt\n' > "$$src"; \
	out=$$(./_build/default/bin/omnirun.exe lift "$$src" --run --oracle \
	  --engine mips 2>&1) || { echo "guest-smoke: FAIL ($$out)"; exit 1; }; \
	echo "$$out" | grep -q '^55$$' || \
	  { echo "guest-smoke: FAIL (expected 55, got: $$out)"; exit 1; }; \
	echo "$$out" | grep -q 'oracle agrees' || \
	  { echo "guest-smoke: FAIL (no oracle verdict: $$out)"; exit 1; }; \
	./_build/default/bin/omnirun.exe lift "$$src" -o "$$omni" 2>/dev/null; \
	served=$$(./_build/default/bin/omnirun.exe run "$$omni" --engine x86 \
	  --producer stackvm) || { echo "guest-smoke: FAIL (lifted module errored under omnirun run)"; exit 1; }; \
	rm -f "$$src" "$$omni"; \
	[ "$$served" = "55" ] || \
	  { echo "guest-smoke: FAIL (served output: $$served)"; exit 1; }; \
	echo "guest-smoke: OK (lifted module matches oracle on mips; served on x86)"

# Crash-safe persistence smoke: start omnid with a journaled store on a
# throwaway socket, serve a cold burst, kill -9 the daemon MID-burst,
# restart it over the same store directory, and insist the warm serve is
# byte-identical with the recovered translation re-admitted via its
# witness (service.cache.cert_check > 0, i.e. no re-translation). Skips
# (exit 0) when the environment cannot create Unix-domain sockets.
persist-smoke:
	dune build examples/quickstart.exe bin/omnid.exe bin/omnirun.exe
	@sock="/tmp/omnid-persist-$$$$.sock"; dir="/tmp/omni-store-$$$$"; \
	rm -rf "$$dir"; rm -f "$$sock"; \
	./_build/default/examples/quickstart.exe -o /tmp/quickstart.omni >/dev/null; \
	./_build/default/bin/omnid.exe --socket "$$sock" --store-dir "$$dir" >/dev/null 2>&1 & pid=$$!; \
	i=0; while [ $$i -lt 100 ] && ! [ -S "$$sock" ]; do \
	  kill -0 $$pid 2>/dev/null || break; sleep 0.05; i=$$((i+1)); done; \
	if ! [ -S "$$sock" ]; then \
	  echo "persist-smoke: SKIP (could not create a Unix-domain socket)"; \
	  kill $$pid 2>/dev/null; rm -rf "$$dir"; exit 0; fi; \
	cold=$$(./_build/default/bin/omnirun.exe run /tmp/quickstart.omni \
	  --engine x86 --remote "$$sock" 2>/dev/null) || \
	  { echo "persist-smoke: FAIL (cold remote run errored)"; \
	    kill -9 $$pid 2>/dev/null; exit 1; }; \
	( for n in 1 2 3 4 5 6; do \
	    ./_build/default/bin/omnirun.exe run /tmp/quickstart.omni \
	      --engine x86 --remote "$$sock" >/dev/null 2>&1 || true; done ) & burst=$$!; \
	kill -9 $$pid 2>/dev/null; \
	wait $$burst 2>/dev/null; wait $$pid 2>/dev/null; rm -f "$$sock"; \
	./_build/default/bin/omnid.exe --socket "$$sock" --store-dir "$$dir" >/dev/null 2>&1 & pid=$$!; \
	i=0; while [ $$i -lt 100 ] && ! [ -S "$$sock" ]; do \
	  kill -0 $$pid 2>/dev/null || break; sleep 0.05; i=$$((i+1)); done; \
	[ -S "$$sock" ] || \
	  { echo "persist-smoke: FAIL (daemon did not restart over the store)"; \
	    rm -rf "$$dir"; exit 1; }; \
	warm=$$(./_build/default/bin/omnirun.exe run /tmp/quickstart.omni \
	  --engine x86 --remote "$$sock" 2>/dev/null) || \
	  { echo "persist-smoke: FAIL (warm remote run errored)"; \
	    kill -9 $$pid 2>/dev/null; exit 1; }; \
	stats=$$(./_build/default/bin/omnirun.exe run /tmp/quickstart.omni \
	  --engine x86 --remote "$$sock" --stats 2>&1 >/dev/null); \
	kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	rm -f "$$sock"; rm -rf "$$dir"; \
	[ "$$cold" = "$$warm" ] || \
	  { echo "persist-smoke: FAIL (output differs after kill -9 + recovery)"; exit 1; }; \
	echo "$$stats" | grep -Eq '"service.cache.cert_check":[1-9]' || \
	  { echo "persist-smoke: FAIL (recovered translation not witness-checked)"; exit 1; }; \
	echo "persist-smoke: OK (kill -9 mid-burst; journal recovered; warm serve byte-identical)"

clean:
	dune clean
