package linalg

import "math"

// expKernelOK gates the four-lane exp kernel. It ports the FMA branch of
// math.Exp, so it may run only where math takes that branch too: the
// probe inputs below round differently in math's FMA and non-FMA branches,
// and the kernel must reproduce math.Exp on all of them. That also holds
// the port to a future toolchain whose math.Exp changes.
var expKernelOK = haveFMAKernel && expKernelMatchesMath()

func expKernelMatchesMath() bool {
	probe := [...]float64{-27.809604107232428, -22.67470522474793, -0.8682792236156638, 1.5}
	got := probe
	if expKernel(len(got), &got[0]) != len(got) {
		return false
	}
	for i, v := range probe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}

// ExpInPlace replaces each x[i] by math.Exp(x[i]), bit for bit. On
// AVX2+FMA hardware whose math.Exp takes its FMA branch, groups of four
// whose lanes all lie in [−700, 700] run in the assembly kernel; any other
// group, and the ragged tail, call math.Exp.
func ExpInPlace(x []float64) {
	if expKernelOK {
		for len(x) >= 4 {
			x = x[expKernel(len(x)&^3, &x[0]):]
			if len(x) < 4 {
				break
			}
			// x[0:4] holds a lane the kernel refused.
			for i, v := range x[:4] {
				x[i] = math.Exp(v)
			}
			x = x[4:]
		}
	}
	for i, v := range x {
		x[i] = math.Exp(v)
	}
}
