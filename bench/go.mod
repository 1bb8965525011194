// The benchmark is a module of its own so it builds from bench/ alone with
// its own build file, yet it sits inside the lambada import tree
// (lambada/bench), which is what lets it import lambada/internal/...; the
// replace points at the repository this directory is checked out in.
module lambada/bench

go 1.22

require lambada v0.0.0

replace lambada => ../
