//go:build amd64 && !purego

package linalg

// expKernel replaces x[i] by math.Exp(x[i]) four lanes at a time, with the
// roundings of math's FMA branch, and returns the number of elements done:
// it stops before the first group of four holding a lane outside
// [−700, 700] or a NaN. Requires haveFMAKernel and n % 4 == 0.
//
//go:noescape
func expKernel(n int, x *float64) int
