module gridvine/benchmark

go 1.21

require gridvine v0.0.0

replace gridvine => ../
