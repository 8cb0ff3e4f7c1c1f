// orfbench is a module of its own so the benchmark carries its build
// file with it; the module path sits under orfdisk/ so it may import
// orfdisk/internal/..., and the replace points at the checkout it is in.
module orfdisk/cmd/orfbench

go 1.22

require orfdisk v0.0.0

replace orfdisk => ../..
