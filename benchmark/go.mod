// The benchmark is its own module so that it carries its own build file
// and the root module's build, vet and tier-1 tests never see it. The
// module path sits under repro/ on purpose: Go's internal-package rule
// is checked on import paths, so repro/benchmark may import
// repro/internal/... through the replace below.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
