package core

import (
	"context"
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
		{"f64", false, "d7ffcfc2981170b391c9ad00fcb7c6d3855e8999efc6923bb32517c8e778eb88", [3]string{
			"58daf32fa2a179d5ab70c9b00b337df825f8cce538b1ad025234d9624b89ea58",
			"c7103154aac2f39ba5204290ae3c71cf5294c5cbc4a62815531c12859827fcf6",
			"da2782f2409bed292fdd86abbbb24d3dba6808bdea76497fe998a9db2fb5f900",
		}},
		{"f32", true, "3399e40bb2ce3356242961ad2e5276353ec4a08c81ee5c07f6e266126abdb579", [3]string{
			"0be06395a24d9a46adb460299299b5a68d74544c9470302b907758d6c12a0650",
			"6de4ce92323a9f3663f37bad0a0b0d3af4905b6209fda40515c6c0401f8c7f8b",
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

// TestInterpBitsGolden pins the SHA-256 of the tree interpreter's width 1
// and 16 outputs (InterpMatvecCtx) of K05 at n = 1024, compressed with the
// bench's knobs on the Dynamic executor with two workers, with float64
// and with float32 cached blocks. Where the interpreter's scratch comes
// from must not move these bits. Like the replay golden it skips without
// the AVX2+FMA kernels.
func TestInterpBitsGolden(t *testing.T) {
	if !linalg.AsmKernels() {
		t.Skip("interpreter bits are pinned for the AVX2+FMA kernels")
	}
	K := smallK05(t)
	for _, c := range []struct {
		name   string
		single bool
		out    [2]string // r = 1, 16
	}{
		{"f64", false, [2]string{
			"366c93768a06711a9af40514384e76ec42d625f686362b8bda8ebc6545c2ca93",
			"1903e9f4e1b21238e8eb6863f9b84c4b39c9be388f7b81b2a9c741b80fc82ff3",
		}},
		{"f32", true, [2]string{
			"f83da79594f023c388d6573f635aa2cc52f732735138abc1f3ca10567dfc5878",
			"b653cf9b4e261505d08f546d467e23d91a69a167dffdbdc6b87537ee4d5040e2",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, err := Compress(K, Config{
				LeafSize: 128, MaxRank: 128, Tol: 1e-5, Kappa: 32, Budget: 0.03,
				Distance: Angle, Exec: Dynamic, NumWorkers: 2, Seed: 1,
				CacheBlocks: true, CacheSingle: c.single,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range []int{1, 16} {
				W := linalg.GaussianMatrix(rand.New(rand.NewSource(int64(r))), K.Dim(), r)
				U, err := h.InterpMatvecCtx(context.Background(), W)
				if err != nil {
					t.Fatal(err)
				}
				if got := bitsSHA256(U); got != c.out[i] {
					t.Errorf("r=%d: output SHA-256 %s, want %s", r, got, c.out[i])
				}
			}
		})
	}
}
