// The benchmark is a module of its own so that tier-1 (`go build ./... &&
// go test ./...` at the repository root) never compiles or runs it. The
// module path sits under the root module's path, which is what lets it
// import repro/internal/...; the replace points at the surrounding checkout.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
