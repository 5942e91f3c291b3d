package commit

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/trustddl/trustddl/internal/tensor"
)

func TestDeterministic(t *testing.T) {
	m, _ := tensor.FromSlice(2, 2, []int64{1, 2, 3, 4})
	if !Matrices(m).Equal(Matrices(m.Clone())) {
		t.Fatal("identical matrices produced different digests")
	}
}

func TestVerify(t *testing.T) {
	m, _ := tensor.FromSlice(2, 2, []int64{1, 2, 3, 4})
	d := Matrices(m)
	if !Verify(d, m) {
		t.Fatal("Verify rejected a valid opening")
	}
	tampered := m.Clone()
	tampered.Data[3] = 5
	if Verify(d, tampered) {
		t.Fatal("Verify accepted a tampered opening (Case 1 detection broken)")
	}
}

func TestShapeIsPartOfCommitment(t *testing.T) {
	a, _ := tensor.FromSlice(2, 2, []int64{1, 2, 3, 4})
	b, _ := tensor.FromSlice(1, 4, []int64{1, 2, 3, 4})
	if Matrices(a).Equal(Matrices(b)) {
		t.Fatal("same data with different shapes must not collide")
	}
}

func TestSequenceBoundaries(t *testing.T) {
	// Committing to [m1, m2] must differ from [m1 ++ m2] style splits.
	a, _ := tensor.FromSlice(1, 2, []int64{1, 2})
	b, _ := tensor.FromSlice(1, 2, []int64{3, 4})
	ab, _ := tensor.FromSlice(1, 4, []int64{1, 2, 3, 4})
	if Matrices(a, b).Equal(Matrices(ab)) {
		t.Fatal("matrix sequence boundaries must be encoded")
	}
	if Matrices(a, b).Equal(Matrices(b, a)) {
		t.Fatal("commitment must be order-sensitive")
	}
}

func TestEmptySequence(t *testing.T) {
	var m tensor.Matrix[int64]
	_ = m
	d0 := Matrices()
	a, _ := tensor.FromSlice(1, 1, []int64{0})
	if d0.Equal(Matrices(a)) {
		t.Fatal("empty sequence collides with a single zero matrix")
	}
}

// Property: any single-element change breaks verification.
func TestPropertyAnyFlipDetected(t *testing.T) {
	f := func(vals [6]int64, idx uint8, delta int64) bool {
		if delta == 0 {
			return true
		}
		m, err := tensor.FromSlice(2, 3, vals[:])
		if err != nil {
			return false
		}
		d := Matrices(m)
		tampered := m.Clone()
		tampered.Data[int(idx)%6] += delta
		return !Verify(d, tampered)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// referenceDigest is the per-word encoder the digest format is defined
// by: the sequence length, then per matrix its rows, cols and row-major
// elements, each as one little-endian 64-bit word. Matrices must match
// it bit for bit whichever way it feeds the hash.
func referenceDigest(ms ...tensor.Matrix[int64]) Digest {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(len(ms)))
	for _, m := range ms {
		word(uint64(m.Rows))
		word(uint64(m.Cols))
		for _, v := range m.Data {
			word(uint64(v))
		}
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

func randomMatrix(rng *rand.Rand, rows, cols int) tensor.Matrix[int64] {
	m := tensor.MustNew[int64](rows, cols)
	for i := range m.Data {
		m.Data[i] = int64(rng.Uint64())
	}
	return m
}

func TestMatricesMatchesReferenceEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		ms := make([]tensor.Matrix[int64], rng.Intn(5))
		for i := range ms {
			ms[i] = randomMatrix(rng, 1+rng.Intn(40), 1+rng.Intn(40))
		}
		if got, want := Matrices(ms...), referenceDigest(ms...); got != want {
			t.Fatalf("trial %d (%d matrices): digest %x, reference %x", trial, len(ms), got, want)
		}
	}
}

func TestMatricesReferenceEdgeCases(t *testing.T) {
	extremes, _ := tensor.FromSlice(2, 3, []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1})
	zero := tensor.Matrix[int64]{}
	rng := rand.New(rand.NewSource(11))
	cases := map[string][]tensor.Matrix[int64]{
		"empty sequence":    nil,
		"zero-shape matrix": {zero},
		"int64 extremes":    {extremes},
		"multiple":          {extremes, randomMatrix(rng, 1, 7), randomMatrix(rng, 5, 1), extremes},
		"fc1 shape":         {randomMatrix(rng, 980, 100)},
	}
	for name, ms := range cases {
		if got, want := Matrices(ms...), referenceDigest(ms...); got != want {
			t.Errorf("%s: digest %x, reference %x", name, got, want)
		}
	}
}

// FuzzMatricesDigest splits arbitrary bytes into a sequence of matrices
// with fuzzer-chosen shapes and checks Matrices against the reference
// encoder.
func FuzzMatricesDigest(f *testing.F) {
	f.Add([]byte{2, 3, 1, 1}, []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 1}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, shapes, body []byte) {
		var ms []tensor.Matrix[int64]
		for i := 0; i+1 < len(shapes) && len(ms) < 16; i += 2 {
			rows, cols := 1+int(shapes[i]%16), 1+int(shapes[i+1]%16)
			m := tensor.MustNew[int64](rows, cols)
			for j := range m.Data {
				if len(body) >= 8 {
					m.Data[j] = int64(binary.LittleEndian.Uint64(body))
					body = body[8:]
				}
			}
			ms = append(ms, m)
		}
		if got, want := Matrices(ms...), referenceDigest(ms...); got != want {
			t.Fatalf("%d matrices: digest %x, reference %x", len(ms), got, want)
		}
	})
}

var digestSink Digest

// BenchmarkMatrices hashes one FC1-shaped (980×100) share matrix, the
// largest opening of the paper network's inference pass.
func BenchmarkMatrices(b *testing.B) {
	m := randomMatrix(rand.New(rand.NewSource(1)), 980, 100)
	b.SetBytes(int64(8 * m.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = Matrices(m)
	}
}
