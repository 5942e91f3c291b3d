package sharing

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/tensor"
)

func newTestDealer() *Dealer {
	return NewDealer(NewSeededSource(1234), fixed.Default())
}

func TestSetsOfMatchesFig1(t *testing.T) {
	tests := []struct {
		party                  int
		wantI1, wantI2, wantI3 int
	}{
		{party: 1, wantI1: 1, wantI2: 2, wantI3: 3},
		{party: 2, wantI1: 2, wantI2: 3, wantI3: 1},
		{party: 3, wantI1: 3, wantI2: 1, wantI3: 2},
	}
	for _, tt := range tests {
		i1, i2, i3 := SetsOf(tt.party)
		if i1 != tt.wantI1 || i2 != tt.wantI2 || i3 != tt.wantI3 {
			t.Errorf("SetsOf(%d) = (%d,%d,%d), want (%d,%d,%d)",
				tt.party, i1, i2, i3, tt.wantI1, tt.wantI2, tt.wantI3)
		}
	}
}

func TestSetsOfCoverage(t *testing.T) {
	// Across the three parties, every set index must appear exactly once
	// in each of the three roles (privacy + resiliency of §III-A).
	var asPrimary, asHat, asSecond [NumParties + 1]int
	for p := 1; p <= NumParties; p++ {
		i1, i2, i3 := SetsOf(p)
		asPrimary[i1]++
		asHat[i2]++
		asSecond[i3]++
	}
	for j := 1; j <= NumParties; j++ {
		if asPrimary[j] != 1 || asHat[j] != 1 || asSecond[j] != 1 {
			t.Fatalf("set %d held as primary/hat/second by %d/%d/%d parties, want 1/1/1",
				j, asPrimary[j], asHat[j], asSecond[j])
		}
	}
}

func TestNoPartyHoldsACompleteSet(t *testing.T) {
	// Privacy requirement: party i must never hold both shares of one
	// set, i.e. i3 ∉ {i1, i2}.
	for p := 1; p <= NumParties; p++ {
		i1, i2, i3 := SetsOf(p)
		if i3 == i1 || i3 == i2 {
			t.Fatalf("party %d holds first and second share of set %d", p, i3)
		}
	}
}

func TestShareAndCollectReconstruct(t *testing.T) {
	d := newTestDealer()
	secret := testMat(t, 4, 3, 11)
	bundles, err := d.Share(secret)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < NumParties; j++ {
		if !rec.Plain(j).Equal(secret) {
			t.Errorf("set %d plain reconstruction differs from secret", j+1)
		}
		if !rec.Hat(j).Equal(secret) {
			t.Errorf("set %d hat reconstruction differs from secret", j+1)
		}
	}
}

func TestHatIsCopyOfFirstShare(t *testing.T) {
	d := newTestDealer()
	bundles, err := d.Share(testMat(t, 2, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Party p's Hat must equal party (p mod 3 + 1)'s Primary: both are
	// the first share of set p's i2.
	for p := 1; p <= NumParties; p++ {
		_, i2, _ := SetsOf(p)
		if !bundles[p-1].Hat.Equal(bundles[i2-1].Primary) {
			t.Fatalf("party %d hat is not a copy of party %d primary", p, i2)
		}
	}
}

func TestDecidePicksHonestPair(t *testing.T) {
	d := newTestDealer()
	secret := testMat(t, 3, 3, 9)
	bundles, err := d.Share(secret)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	got, dec, err := rec.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(secret) {
		t.Fatal("honest decision differs from secret")
	}
	if dec.Distance != 0 {
		t.Fatalf("honest distance = %v, want 0 (exact ring arithmetic)", dec.Distance)
	}
	if dec.PlainSet == dec.HatSet {
		t.Fatalf("decision pair (%d, %d) must have j != k", dec.PlainSet, dec.HatSet)
	}
}

// corruptBundle flips the shares a Byzantine party would send.
func corruptBundle(b Bundle, delta int64) Bundle {
	c := b.Clone()
	for i := range c.Primary.Data {
		c.Primary.Data[i] += delta
	}
	for i := range c.Hat.Data {
		c.Hat.Data[i] += delta * 3
	}
	for i := range c.Second.Data {
		c.Second.Data[i] += delta * 7
	}
	return c
}

func TestDecideSurvivesOneByzantineParty(t *testing.T) {
	// Case 3 of the security analysis: a Byzantine party uses incorrect
	// shares consistently (commitment matches the corrupted shares).
	// The honest parties must still decide on the true value.
	for byz := 1; byz <= NumParties; byz++ {
		d := newTestDealer()
		secret := testMat(t, 4, 4, int64(byz)*13)
		bundles, err := d.Share(secret)
		if err != nil {
			t.Fatal(err)
		}
		bundles[byz-1] = corruptBundle(bundles[byz-1], 1<<30)
		sets, err := CollectSets(bundles)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ReconstructSix(sets)
		if err != nil {
			t.Fatal(err)
		}
		got, dec, err := rec.Decide()
		if err != nil {
			t.Fatalf("byz=%d: %v", byz, err)
		}
		if !got.Equal(secret) {
			t.Fatalf("byz=%d: decision differs from secret", byz)
		}
		if dec.Distance != 0 {
			t.Fatalf("byz=%d: honest pair distance %v, want 0", byz, dec.Distance)
		}
		if suspect := rec.Suspect(0); suspect != byz {
			t.Fatalf("byz=%d: Suspect() = %d", byz, suspect)
		}
	}
}

func TestDecideRespectsFlags(t *testing.T) {
	// Case 1: the commitment check failed for one party; all four
	// reconstructions fed by its shares must be ignored even if the
	// values happen to agree.
	d := newTestDealer()
	secret := testMat(t, 2, 2, 21)
	bundles, err := d.Share(secret)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	rec.FlagParty(2)
	p1, p2, p3 := SetsOf(2)
	if rec.PlainOK[p1-1] || rec.HatOK[p2-1] || rec.PlainOK[p3-1] || rec.HatOK[p3-1] {
		t.Fatal("FlagParty(2) left a fed reconstruction unflagged")
	}
	got, _, err := rec.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(secret) {
		t.Fatal("decision with one party flagged differs from secret")
	}
}

func TestDecideNoConsensus(t *testing.T) {
	d := newTestDealer()
	bundles, err := d.Share(testMat(t, 2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	sets, err := CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	rec.FlagParty(1)
	rec.FlagParty(2) // two Byzantine parties: outside the fault model
	if _, _, err := rec.Decide(); !errors.Is(err, ErrNoConsensus) {
		t.Fatalf("two flagged parties: err = %v, want ErrNoConsensus", err)
	}
}

func TestBundleLinearOps(t *testing.T) {
	d := newTestDealer()
	x := testMat(t, 2, 3, 4)
	y := testMat(t, 2, 3, 6)
	bx, err := d.Share(x)
	if err != nil {
		t.Fatal(err)
	}
	by, err := d.Share(y)
	if err != nil {
		t.Fatal(err)
	}

	var sum, diff, scaled [NumParties]Bundle
	for i := 0; i < NumParties; i++ {
		if sum[i], err = bx[i].Add(by[i]); err != nil {
			t.Fatal(err)
		}
		if diff[i], err = bx[i].Sub(by[i]); err != nil {
			t.Fatal(err)
		}
		scaled[i] = bx[i].Scale(3)
	}

	check := func(name string, bundles [NumParties]Bundle, want Mat) {
		t.Helper()
		sets, err := CollectSets(bundles)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ReconstructSix(sets)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := rec.Decide()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: reconstruction differs from expected", name)
		}
	}
	wantSum, _ := x.Add(y)
	wantDiff, _ := x.Sub(y)
	check("add", sum, wantSum)
	check("sub", diff, wantDiff)
	check("scale", scaled, x.Scale(3))
}

func TestBundleAddPublic(t *testing.T) {
	d := newTestDealer()
	x := testMat(t, 2, 2, 8)
	pub := testMat(t, 2, 2, 5)
	bundles, err := d.Share(x)
	if err != nil {
		t.Fatal(err)
	}
	var first, second [NumParties]Bundle
	for i := 0; i < NumParties; i++ {
		if first[i], err = bundles[i].AddPublicToFirst(pub); err != nil {
			t.Fatal(err)
		}
		if second[i], err = bundles[i].AddPublicToSecond(pub); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := x.Add(pub)
	for name, bs := range map[string][NumParties]Bundle{"first": first, "second": second} {
		sets, err := CollectSets(bs)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ReconstructSix(sets)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := rec.Decide()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("AddPublicTo%s: reconstruction differs", name)
		}
	}
}

func TestBundleHadamardPublic(t *testing.T) {
	d := newTestDealer()
	x := testMat(t, 2, 2, 8)
	mask, _ := tensor.FromSlice(2, 2, []int64{1, 0, 0, 1})
	bundles, err := d.Share(x)
	if err != nil {
		t.Fatal(err)
	}
	var masked [NumParties]Bundle
	for i := 0; i < NumParties; i++ {
		if masked[i], err = bundles[i].HadamardPublic(mask); err != nil {
			t.Fatal(err)
		}
	}
	sets, _ := CollectSets(masked)
	rec, err := ReconstructSix(sets)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rec.Decide()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := x.Hadamard(mask)
	if !got.Equal(want) {
		t.Fatal("HadamardPublic reconstruction differs")
	}
}

func TestBundleValidate(t *testing.T) {
	good := Bundle{
		Primary: tensor.MustNew[int64](2, 2),
		Hat:     tensor.MustNew[int64](2, 2),
		Second:  tensor.MustNew[int64](2, 2),
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
	bad := good
	bad.Hat = tensor.MustNew[int64](3, 3)
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched bundle accepted")
	}
	if err := (Bundle{}).Validate(); err == nil {
		t.Fatal("empty bundle accepted")
	}
}

// Property: for any secret and any single corrupted party, Decide
// returns the true value.
func TestPropertyDecideUnderCorruption(t *testing.T) {
	d := newTestDealer()
	f := func(vals [4]int64, byzRaw, deltaRaw uint8) bool {
		byz := int(byzRaw%NumParties) + 1
		delta := int64(deltaRaw) + 1
		secret, _ := tensor.FromSlice(2, 2, vals[:])
		bundles, err := d.Share(secret)
		if err != nil {
			return false
		}
		bundles[byz-1] = corruptBundle(bundles[byz-1], delta)
		sets, err := CollectSets(bundles)
		if err != nil {
			return false
		}
		rec, err := ReconstructSix(sets)
		if err != nil {
			return false
		}
		got, _, err := rec.Decide()
		if err != nil {
			return false
		}
		return got.Equal(secret)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
