GO ?= go

.PHONY: build test vet race race-core lint chaos chaos-fidelity distcheck verify bench obs-smoke server-smoke

build:
	$(GO) build ./...

# Tier-1: the gate every change must pass.
test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race pass keeps the concurrent Monte-Carlo engine (internal/mc) and
# everything layered on it honest; internal/mc, internal/threshold and
# internal/verify (its single-fault sweep) are the packages that actually
# spawn workers. internal/synth runs concurrent syntheses on one shared
# device (the daemon's pattern); -short keeps its differential oracle to
# d=3, since the d=5 half is single-threaded and slow under the detector.
race:
	$(GO) test -race ./...

race-core:
	$(GO) test -race ./internal/mc/... ./internal/threshold/... ./internal/decoder/... ./internal/uf/... ./internal/frame/... ./internal/server/... ./internal/obs/... ./internal/device/... ./internal/noise/... ./internal/surgery/... ./internal/verify/...
	$(GO) test -race -short ./internal/synth/...

# surflint: the domain-aware analyzer suite (rngstream, errdrop,
# paniccheck, atomicmix). Lock copies and leaked context cancel funcs are
# left to go vet's copylocks and lostcancel (make vet), and go 1.22 loop
# variables are per-iteration, so none of them needs an analyzer. Zero
# findings is the merge bar; suppressions require an inline justification.
# Run `go run ./cmd/surflint -list` for the full contracts.
lint: build
	$(GO) run ./cmd/surflint ./...

# Chaos: the fault-injection sweep (internal/chaos). -short trims each
# tiling to a smoke sweep; drop it for the full 1000-scenarios-per-tiling
# acceptance run. The fuzz target hands scenario parameters to go-fuzz.
chaos:
	$(GO) test ./internal/chaos -run Chaos -short -count=1
	$(GO) test ./internal/chaos -run=^$$ -fuzz FuzzChaos -fuzztime 30s

# Fidelity-degradation harness: every minimal tiling (pristine and lightly
# defected) through the good/median/bad calibration snapshots, asserting
# finite logical rates, Wilson-tolerant good<=median<=bad ordering, and an
# unchanged certified fault distance under calibration-aware routing.
chaos-fidelity:
	$(GO) test ./internal/chaos -run Fidelity -count=1

# Distance certification gate (internal/distance): the static certifier
# must return exactly the nominal distance for all five architectures at
# d=3/5 clean, and exactly the degradation ladder's claimed effective
# distance on a random defect preset each.
distcheck:
	$(GO) test ./internal/distance -run TestDistCheck -count=1

verify: vet race lint chaos chaos-fidelity distcheck

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Observability smoke: launch cmd/threshold against a live -metrics-addr,
# scrape /metrics mid-run, and assert the core series (synth stage spans,
# shots/sec, decoder k-histogram, cache counters) exist and parse as
# Prometheus text.
obs-smoke:
	$(GO) build -o bin/threshold ./cmd/threshold
	$(GO) run ./cmd/obssmoke -bin bin/threshold

# Serving smoke: boot a real surfstitchd, drive the /v1 job API end to end,
# and assert the live-daemon contracts — an identical resubmission is answered
# by the done job without a new synthesis span, a curve job killed mid-sweep
# (SIGTERM) resumes from its checkpoint after restart, and the restarted
# daemon answers the first estimate from its job store, byte-identical.
server-smoke:
	$(GO) build -o bin/surfstitchd ./cmd/surfstitchd
	$(GO) run ./cmd/serversmoke -bin bin/surfstitchd
