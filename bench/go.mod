// The benchmark is a module of its own so that it builds from its own
// directory and the repository's `go build ./... && go test ./...` never
// depends on it. Its path sits under `repro/` so that the per-layer probes may
// import `repro/internal/...`.
module repro/bench

go 1.21

require repro v0.0.0

replace repro => ../
