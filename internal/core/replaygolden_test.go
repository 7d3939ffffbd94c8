package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"gofmm/internal/linalg"
)

// TestReplayBitsGolden pins the plan digest and the SHA-256 of the output
// bits of width 1, 2 and 16 replays of K05 at n = 1024, compressed with the
// bench's knobs and cached in float64 and in float32. A change that claims
// identical replays (a faster kernel, a scheduling change) must leave the
// constants alone; one that moves replay bits (the lowering, the block
// ownership, a kernel's arithmetic) updates them and says so in
// CHANGES.md. The bits depend on the AVX2+FMA kernels' rounding, so the
// test skips without them.
func TestReplayBitsGolden(t *testing.T) {
	if !linalg.AsmKernels() {
		t.Skip("replay bits are pinned for the AVX2+FMA kernels")
	}
	K := smallK05(t)
	for _, c := range []struct {
		name   string
		single bool
		digest string
		out    [3]string // r = 1, 2, 16
	}{
		{"f64", false, "daedf5d61328d67661e9198ad94c5a40ccd6de01247626784197635ec6e3d7df", [3]string{
			"380f49e99e686b366cba4b11343e8a0bd3b4dbba1631ab37ab7af3ecd7e7febf",
			"288551ec4e648d28fefe4586d36e3c6c6a0fecbca0c4563db58bd4f3cb536737",
			"5137125f9b7986cd1ffe7b5504e16ad0d11fe132a26455a0c81b69bed1dddaf4",
		}},
		{"f32", true, "4cd2d7689e0dfd0474e29a4a7485ce5ba23e8d17ea89ae28a80c73ad4509e39b", [3]string{
			"7e165e4cd4b64e36d62b941d852207308e0f6a1b9538a6f46e9c34034e60f9ef",
			"39e9e291c4b10d5432adce20446482200007ec0cac57c854b7adda1ef7200a20",
			"f42e53abe812ecf2419fbdf1087d33d50cac6fb37ef1d7b4e11be49772114f9e",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, err := Compress(K, Config{
				LeafSize: 128, MaxRank: 128, Tol: 1e-5, Kappa: 32, Budget: 0.03,
				Distance: Angle, Exec: Sequential, Seed: 1,
				CacheBlocks: true, CacheSingle: c.single,
			})
			if err != nil {
				t.Fatal(err)
			}
			p, err := h.CompilePlan()
			if err != nil {
				t.Fatal(err)
			}
			if got := p.DigestHex(); got != c.digest {
				t.Errorf("plan digest %s, want %s", got, c.digest)
			}
			for i, r := range []int{1, 2, 16} {
				W := linalg.GaussianMatrix(rand.New(rand.NewSource(int64(r))), K.Dim(), r)
				U := h.Matvec(W)
				if got := bitsSHA256(U); got != c.out[i] {
					t.Errorf("r=%d: output SHA-256 %s, want %s", r, got, c.out[i])
				}
			}
		})
	}
}

// bitsSHA256 hashes a matrix's float64 bits, column by column.
func bitsSHA256(M *linalg.Matrix) string {
	d := sha256.New()
	var b [8]byte
	for j := 0; j < M.Cols; j++ {
		for _, v := range M.Col(j) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			d.Write(b[:])
		}
	}
	return hex.EncodeToString(d.Sum(nil))
}
