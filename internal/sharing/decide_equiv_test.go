package sharing

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refReconstructions is the materialized form of the six-way decision
// the fused DecideRows/Decide/Suspect pass must reproduce bit for bit:
// all six candidates built as whole matrices up front, the decision
// rule run over them, and the suspicion score taken by re-scanning
// every candidate against the revealed value once per party it feeds.
type refReconstructions struct {
	plain, hat     [NumParties]Mat
	plainOK, hatOK [NumParties]bool
}

func refReconstructSix(sets [NumParties]SetShares) (refReconstructions, error) {
	var r refReconstructions
	for j := 0; j < NumParties; j++ {
		plain, err := sets[j].First.Add(sets[j].Second)
		if err != nil {
			return r, err
		}
		hat, err := sets[j].HatFirst.Add(sets[j].Second)
		if err != nil {
			return r, err
		}
		r.plain[j], r.hat[j] = plain, hat
		r.plainOK[j], r.hatOK[j] = true, true
	}
	return r, nil
}

func (r *refReconstructions) decide() (Mat, Decision, error) {
	best := Decision{Distance: math.Inf(1)}
	found := false
	for j := 0; j < NumParties; j++ {
		for k := 0; k < NumParties; k++ {
			if k == j || !r.plainOK[j] || !r.hatOK[k] {
				continue
			}
			d, err := r.plain[j].MaxAbsDiff(r.hat[k])
			if err != nil {
				return Mat{}, Decision{}, err
			}
			if d < best.Distance {
				best, found = Decision{PlainSet: j + 1, HatSet: k + 1, Distance: d}, true
			}
		}
	}
	if !found {
		return Mat{}, Decision{}, ErrNoConsensus
	}
	return r.plain[best.PlainSet-1], best, nil
}

func (r *refReconstructions) decideRows() (Mat, Decision, error) {
	rows, cols := r.plain[0].Rows, r.plain[0].Cols
	out := Mat{Rows: rows, Cols: cols, Data: make([]int64, rows*cols)}
	worst := Decision{Distance: math.Inf(-1)}
	for row := 0; row < rows; row++ {
		lo, hi := row*cols, (row+1)*cols
		var dist [NumParties][NumParties]float64
		minDist := math.Inf(1)
		found := false
		for j := 0; j < NumParties; j++ {
			for k := 0; k < NumParties; k++ {
				if k == j || !r.plainOK[j] || !r.hatOK[k] {
					continue
				}
				d := 0.0
				for c := lo; c < hi; c++ {
					d = math.Max(d, math.Abs(float64(r.plain[j].Data[c]-r.hat[k].Data[c])))
				}
				dist[j][k] = d
				if d < minDist {
					minDist, found = d, true
				}
			}
		}
		if !found {
			return Mat{}, Decision{}, ErrNoConsensus
		}
		best := Decision{}
	pick:
		for j := 0; j < NumParties; j++ {
			for k := 0; k < NumParties; k++ {
				if k != j && r.plainOK[j] && r.hatOK[k] && dist[j][k] <= minDist+HonestSlack {
					best = Decision{PlainSet: j + 1, HatSet: k + 1, Distance: dist[j][k]}
					break pick
				}
			}
		}
		copy(out.Data[lo:hi], r.plain[best.PlainSet-1].Data[lo:hi])
		if best.Distance > worst.Distance {
			worst = best
		}
	}
	return out, worst, nil
}

func (r *refReconstructions) suspect(decided Mat, tol float64) int {
	deviates := func(m Mat, ok bool) bool {
		if !ok {
			return true
		}
		d, err := decided.MaxAbsDiff(m)
		return err != nil || d > tol
	}
	bestParty, bestScore := 0, 0
	for p := 1; p <= NumParties; p++ {
		p1, p2, p3 := SetsOf(p)
		score := 0
		for _, dev := range []bool{
			deviates(r.plain[p1-1], r.plainOK[p1-1]),
			deviates(r.hat[p2-1], r.hatOK[p2-1]),
			deviates(r.plain[p3-1], r.plainOK[p3-1]),
			deviates(r.hat[p3-1], r.hatOK[p3-1]),
		} {
			if dev {
				score++
			}
		}
		if score > bestScore {
			bestParty, bestScore = p, score
		}
	}
	return bestParty
}

// equivCase is one opening: the three parties' bundles after any
// corruption, described for failure messages.
type equivCase struct {
	name    string
	bundles [NumParties]Bundle
}

// equivCases builds openings of random secrets over several batch
// shapes: honest, truncated (so honest candidates disagree by carry
// bits and HonestSlack matters), and with each party corrupting its
// bundle before committing (Case 3) by a constant offset inside or far
// outside the slack, or by per-element noise.
func equivCases(t *testing.T, rng *rand.Rand) []equivCase {
	t.Helper()
	d := NewDealer(NewSeededSource(rng.Uint64()), newTestDealer().Params())
	var out []equivCase
	for _, shape := range [][2]int{{1, 1}, {1, 7}, {4, 3}, {8, 17}, {32, 10}} {
		rows, cols := shape[0], shape[1]
		secret := Mat{Rows: rows, Cols: cols, Data: make([]int64, rows*cols)}
		for i := range secret.Data {
			secret.Data[i] = int64(rng.Uint64())
		}
		bundles, err := d.Share(secret)
		if err != nil {
			t.Fatal(err)
		}
		for _, trunc := range []bool{false, true} {
			base := bundles
			if trunc {
				for p := range base {
					base[p] = base[p].Truncate(13)
				}
			}
			label := fmt.Sprintf("%dx%d trunc=%v", rows, cols, trunc)
			out = append(out, equivCase{name: label + " honest", bundles: base})
			for byz := 1; byz <= NumParties; byz++ {
				for _, delta := range []int64{3, 1 << 30} {
					c := base
					c[byz-1] = corruptBundle(c[byz-1], delta)
					out = append(out, equivCase{name: fmt.Sprintf("%s P%d offset %d", label, byz, delta), bundles: c})
				}
				c := base
				noisy := c[byz-1].Clone()
				for _, m := range []Mat{noisy.Primary, noisy.Hat, noisy.Second} {
					for i := range m.Data {
						m.Data[i] += rng.Int63n(1<<20) - 1<<19
					}
				}
				c[byz-1] = noisy
				out = append(out, equivCase{name: fmt.Sprintf("%s P%d noise", label, byz), bundles: c})
			}
		}
	}
	return out
}

// TestFusedDecisionMatchesMaterialized pins the fused reconstruct,
// decide and score pass to the materialized rule: for every opening in
// equivCases and every one of the 64 flag patterns over the six
// candidates, DecideRows and Decide reveal the identical matrix and
// Decision (or fail identically), and Suspect returns the identical
// verdict at several tolerances.
func TestFusedDecisionMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tols := []float64{0, HonestSlack, 1 << 19, 1 << 21}
	for _, tc := range equivCases(t, rng) {
		sets, err := CollectSets(tc.bundles)
		if err != nil {
			t.Fatal(err)
		}
		for pattern := 0; pattern < 1<<(2*NumParties); pattern++ {
			rec, err := ReconstructSix(sets)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refReconstructSix(sets)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < NumParties; j++ {
				rec.PlainOK[j] = pattern&(1<<j) == 0
				rec.HatOK[j] = pattern&(1<<(NumParties+j)) == 0
			}
			ref.plainOK, ref.hatOK = rec.PlainOK, rec.HatOK
			where := fmt.Sprintf("%s, flags %06b", tc.name, pattern)
			for _, rule := range []struct {
				name       string
				fused, mat func() (Mat, Decision, error)
			}{
				{"DecideRows", rec.DecideRows, ref.decideRows},
				{"Decide", rec.Decide, ref.decide},
			} {
				got, gotDec, gotErr := rule.fused()
				want, wantDec, wantErr := rule.mat()
				if !errors.Is(gotErr, wantErr) {
					t.Fatalf("%s %s: err %v, materialized %v", where, rule.name, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if !got.Equal(want) || gotDec != wantDec {
					t.Fatalf("%s %s: revealed/decision %+v differ from materialized %+v", where, rule.name, gotDec, wantDec)
				}
				for _, tol := range tols {
					if g, w := rec.Suspect(tol), ref.suspect(want, tol); g != w {
						t.Fatalf("%s %s: Suspect(%v) = %d, materialized %d", where, rule.name, tol, g, w)
					}
				}
			}
		}
	}
}

// TestFlagPartyPatternsMatchMaterialized runs the party-level flag
// patterns the protocols produce (no party, each party, each pair) on
// Case-3 corruptions of each party and checks the verdicts agree.
func TestFlagPartyPatternsMatchMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range equivCases(t, rng) {
		sets, err := CollectSets(tc.bundles)
		if err != nil {
			t.Fatal(err)
		}
		for mask := 0; mask < 1<<NumParties; mask++ {
			rec, _ := ReconstructSix(sets)
			ref, _ := refReconstructSix(sets)
			for p := 1; p <= NumParties; p++ {
				if mask&(1<<(p-1)) != 0 {
					rec.FlagParty(p)
				}
			}
			ref.plainOK, ref.hatOK = rec.PlainOK, rec.HatOK
			got, gotDec, gotErr := rec.DecideRows()
			want, wantDec, wantErr := ref.decideRows()
			if !errors.Is(gotErr, wantErr) {
				t.Fatalf("%s, flagged %03b: err %v, materialized %v", tc.name, mask, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !got.Equal(want) || gotDec != wantDec {
				t.Fatalf("%s, flagged %03b: decision %+v, materialized %+v", tc.name, mask, gotDec, wantDec)
			}
			if g, w := rec.Suspect(HonestSlack), ref.suspect(want, HonestSlack); g != w {
				t.Fatalf("%s, flagged %03b: Suspect = %d, materialized %d", tc.name, mask, g, w)
			}
		}
	}
}

func TestReconstructSixRejectsMixedShapes(t *testing.T) {
	bundles, err := newTestDealer().Share(testMat(t, 2, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	sets, err := CollectSets(bundles)
	if err != nil {
		t.Fatal(err)
	}
	sets[2].HatFirst = Mat{Rows: 3, Cols: 2, Data: make([]int64, 6)}
	if _, err := ReconstructSix(sets); err == nil {
		t.Fatal("ReconstructSix accepted a set whose shares differ in shape")
	}
}
