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
		{"f64", false, "861598f23126ca650f3052df3bc4668a8ac093065f897849328033a837e9c014", [3]string{
			"fdb851eed7a6042575e07dc7079fe73e2542c44a0e240efc2393978001589b6d",
			"7e835a3519fb7a2c2d33326f503ad48033caa477087a298133eeb97df79d3013",
			"da2782f2409bed292fdd86abbbb24d3dba6808bdea76497fe998a9db2fb5f900",
		}},
		{"f32", true, "8ed2eb3686fff87c864d640b810cd4099112a75166d705e5aabcf70dbbf8dab2", [3]string{
			"bec4b141919e90f6a26ed7c9311361c4cb2a73824fec51fc3f54f91848e9138d",
			"9b1963fa9187f50a04961c8fcbdcb988231e5f8873e31b9d843ca6acf4265b3f",
			"933c34e222bf73a91906067b826fca12e50068e204cc951baa31fafe38d4564f",
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

// TestProjBitsGolden pins the SHA-256 over every node's Proj(id) — its
// shape and float64 bits, node by node — of K05 at n = 1024 compressed
// with the bench's knobs, with float64 and with float32 bases. Proj forms
// the full interpolation basis P from what the node stores, and the HSS
// conversion (hss.FromGOFMM) is built from it, so a change to the basis
// layout that drops or rounds an entry fails here. Like the replay golden
// it skips without the AVX2+FMA kernels, whose rounding the compression's
// kernel evaluations inherit.
func TestProjBitsGolden(t *testing.T) {
	if !linalg.AsmKernels() {
		t.Skip("basis bits are pinned for the AVX2+FMA kernels")
	}
	K := smallK05(t)
	for _, c := range []struct {
		name   string
		single bool
		want   string
	}{
		{"f64", false, "c6e5b9e71f14fbc37275d33959903de1a32adaff9d16796430c4d72367acba9c"},
		{"f32", true, "1ce5de2d3779215edb2591fa4bc1c053ee8d56bed388285c13e24172c3057cd4"},
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
			d := sha256.New()
			var b [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(b[:], v)
				d.Write(b[:])
			}
			for id := range h.Tree.Nodes {
				P := h.Proj(id)
				put(uint64(id))
				if P == nil {
					put(math.MaxUint64)
					continue
				}
				put(uint64(P.Rows))
				put(uint64(P.Cols))
				for j := 0; j < P.Cols; j++ {
					for _, v := range P.Col(j) {
						put(math.Float64bits(v))
					}
				}
			}
			if got := hex.EncodeToString(d.Sum(nil)); got != c.want {
				t.Errorf("Proj bits SHA-256 %s, want %s", got, c.want)
			}
		})
	}
}
