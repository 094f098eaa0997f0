// The benchmark is a module of its own so that `go build ./...` and
// `go test ./...` at the repository root never compile or run it; the
// import path keeps the `repro/` prefix, which is what lets it import
// `repro/internal/...`.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
