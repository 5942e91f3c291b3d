package sharing

import (
	"fmt"
	"math"
)

// NumParties is the size of TrustDDL's proxy layer (a 3PC framework,
// §III-A). The scheme tolerates one Byzantine party.
const NumParties = 3

// SetsOf returns (i1, i2, i3) for computing party i ∈ {1,2,3}: the share
// set of which the party holds the primary first share, the set of which
// it holds the redundant ("hat") first-share copy, and the set of which
// it holds the second share. This encodes Fig. 1:
//
//	P1 ← {[s]¹₁, [ŝ]²₁, [s]³₂}   (i1,i2,i3) = (1,2,3)
//	P2 ← {[s]²₁, [ŝ]³₁, [s]¹₂}   (i1,i2,i3) = (2,3,1)
//	P3 ← {[s]³₁, [ŝ]¹₁, [s]²₂}   (i1,i2,i3) = (3,1,2)
func SetsOf(i int) (i1, i2, i3 int) {
	return i, i%NumParties + 1, (i+1)%NumParties + 1
}

// Bundle is the slice of one secret held by a single computing party
// under the three-set distribution scheme: the vectors [x]_i of
// Algorithms 4 and 5.
type Bundle struct {
	Primary Mat // [s]^{i1}_1 — first share of set i1
	Hat     Mat // [ŝ]^{i2}_1 — redundant copy of set i2's first share
	Second  Mat // [s]^{i3}_2 — second share of set i3
}

// Rows returns the row count of the bundled matrices.
func (b Bundle) Rows() int { return b.Primary.Rows }

// Cols returns the column count of the bundled matrices.
func (b Bundle) Cols() int { return b.Primary.Cols }

// Validate checks that the three components share one shape.
func (b Bundle) Validate() error {
	if b.Primary.IsZeroShape() || !b.Primary.SameShape(b.Hat) || !b.Primary.SameShape(b.Second) {
		return fmt.Errorf("sharing: inconsistent bundle shapes %dx%d / %dx%d / %dx%d",
			b.Primary.Rows, b.Primary.Cols, b.Hat.Rows, b.Hat.Cols, b.Second.Rows, b.Second.Cols)
	}
	return nil
}

// Clone deep-copies the bundle.
func (b Bundle) Clone() Bundle {
	return Bundle{Primary: b.Primary.Clone(), Hat: b.Hat.Clone(), Second: b.Second.Clone()}
}

// Add returns the component-wise sum: the local share computation for
// z = x + y.
func (b Bundle) Add(o Bundle) (Bundle, error) {
	p, err := b.Primary.Add(o.Primary)
	if err != nil {
		return Bundle{}, err
	}
	h, err := b.Hat.Add(o.Hat)
	if err != nil {
		return Bundle{}, err
	}
	s, err := b.Second.Add(o.Second)
	if err != nil {
		return Bundle{}, err
	}
	return Bundle{Primary: p, Hat: h, Second: s}, nil
}

// Sub returns the component-wise difference: the local share computation
// for z = x − y.
func (b Bundle) Sub(o Bundle) (Bundle, error) {
	p, err := b.Primary.Sub(o.Primary)
	if err != nil {
		return Bundle{}, err
	}
	h, err := b.Hat.Sub(o.Hat)
	if err != nil {
		return Bundle{}, err
	}
	s, err := b.Second.Sub(o.Second)
	if err != nil {
		return Bundle{}, err
	}
	return Bundle{Primary: p, Hat: h, Second: s}, nil
}

// Scale multiplies every share by the public ring constant k
// (multiplication by a constant is local, §II). Callers multiplying by
// a fixed-point-encoded constant must follow up with Truncate.
func (b Bundle) Scale(k int64) Bundle {
	return Bundle{Primary: b.Primary.Scale(k), Hat: b.Hat.Scale(k), Second: b.Second.Scale(k)}
}

// HadamardPublic multiplies every share element-wise by a public matrix
// (used for the public ReLU mask, §III-C). Mask entries are plain ring
// integers (0/1), so no truncation is needed.
func (b Bundle) HadamardPublic(mask Mat) (Bundle, error) {
	p, err := b.Primary.Hadamard(mask)
	if err != nil {
		return Bundle{}, err
	}
	h, err := b.Hat.Hadamard(mask)
	if err != nil {
		return Bundle{}, err
	}
	s, err := b.Second.Hadamard(mask)
	if err != nil {
		return Bundle{}, err
	}
	return Bundle{Primary: p, Hat: h, Second: s}, nil
}

// AddPublicToFirst adds a public matrix to the secret by adding it to
// the first share of every set. Party i holds first shares of sets i1
// (Primary) and i2 (Hat); across the three parties every set receives
// the constant exactly once.
func (b Bundle) AddPublicToFirst(pub Mat) (Bundle, error) {
	p, err := b.Primary.Add(pub)
	if err != nil {
		return Bundle{}, err
	}
	h, err := b.Hat.Add(pub)
	if err != nil {
		return Bundle{}, err
	}
	return Bundle{Primary: p, Hat: h, Second: b.Second.Clone()}, nil
}

// AddPublicToSecond adds a public matrix to the second share only. This
// implements the r=2 convention of Algorithm 4 (line 23): the e·f term
// joins the second share of each set, and each second share is held by
// exactly one party, so each set receives it exactly once with no
// designated party P_r.
func (b Bundle) AddPublicToSecond(pub Mat) (Bundle, error) {
	s, err := b.Second.Add(pub)
	if err != nil {
		return Bundle{}, err
	}
	return Bundle{Primary: b.Primary.Clone(), Hat: b.Hat.Clone(), Second: s}, nil
}

// Truncate arithmetic-shifts every share right by frac bits: the local
// fixed-point rescaling applied after every multiplication. See package
// fixed for the error bound.
func (b Bundle) Truncate(frac uint) Bundle {
	tr := func(v int64) int64 { return v >> frac }
	return Bundle{Primary: b.Primary.Map(tr), Hat: b.Hat.Map(tr), Second: b.Second.Map(tr)}
}

// TruncateInPlace is Truncate over b's own storage, for bundles the
// caller exclusively owns (e.g. a fresh Beaver combination) — the
// secure step's hot path uses it to avoid cloning all three shares.
func (b Bundle) TruncateInPlace(frac uint) {
	tr := func(v int64) int64 { return v >> frac }
	b.Primary.MapInplace(tr)
	b.Hat.MapInplace(tr)
	b.Second.MapInplace(tr)
}

// SetShares groups, for one share set j, everything the collecting
// party has after the exchange round: the set's first share, the
// redundant copy of the first share, and the second share.
type SetShares struct {
	First    Mat
	HatFirst Mat
	Second   Mat
}

// CollectSets reorganizes the three parties' bundles (own + two
// received) into per-set shares. bundles[i-1] must be party P_i's
// bundle. For set j: the first share comes from party j (its Primary),
// the hat copy from party prev(j) (its Hat), and the second share from
// party next(j) (its Second).
func CollectSets(bundles [NumParties]Bundle) ([NumParties]SetShares, error) {
	var out [NumParties]SetShares
	for _, b := range bundles {
		if err := b.Validate(); err != nil {
			return out, err
		}
	}
	for j := 1; j <= NumParties; j++ {
		prev := (j+1)%NumParties + 1 // party whose i2 == j
		next := j%NumParties + 1     // party whose i3 == j
		out[j-1] = SetShares{
			First:    bundles[j-1].Primary,
			HatFirst: bundles[prev-1].Hat,
			Second:   bundles[next-1].Second,
		}
	}
	return out, nil
}

// Reconstructions holds the six candidate reconstructions of §III-B,
// s^j = [s]^j_1 + [s]^j_2 and ŝ^j = [ŝ]^j_1 + [s]^j_2, together with the
// commitment-phase flags of Algorithm 4 (true = all contributing shares
// passed the commit check).
//
// The candidates are never materialized as whole matrices: DecideRows
// forms them one row at a time from the three per-set share triples,
// decides the row and scores every candidate's deviation from the
// revealed row in the same pass. Plain and Hat build a full candidate
// on demand.
type Reconstructions struct {
	sets    [NumParties]SetShares
	PlainOK [NumParties]bool
	HatOK   [NumParties]bool
	// dev[0][j] and dev[1][j] are the largest distances of s^{j+1} and
	// ŝ^{j+1} from the value the last DecideRows or Decide revealed
	// (unflagged candidates only); Suspect scores parties from them.
	dev [2][NumParties]float64
}

// ReconstructSix prepares the six reconstructions from the per-set
// shares, checking that all nine share matrices have one shape. All
// flags start true; callers clear them per the commitment checks
// before calling DecideRows.
func ReconstructSix(sets [NumParties]SetShares) (Reconstructions, error) {
	rec := Reconstructions{sets: sets}
	want := sets[0].First
	for j, s := range sets {
		for _, m := range [...]Mat{s.First, s.HatFirst, s.Second} {
			if !m.SameShape(want) {
				return rec, fmt.Errorf("sharing: set %d: share shape %dx%d, want %dx%d", j+1, m.Rows, m.Cols, want.Rows, want.Cols)
			}
		}
		rec.PlainOK[j], rec.HatOK[j] = true, true
	}
	return rec, nil
}

// Plain materializes s^{j+1}, the plain reconstruction of set j+1
// (j indexes like PlainOK).
func (r *Reconstructions) Plain(j int) Mat {
	m, _ := r.sets[j].First.Add(r.sets[j].Second) // shapes checked by ReconstructSix
	return m
}

// Hat materializes ŝ^{j+1}, the hat reconstruction of set j+1 (j
// indexes like HatOK).
func (r *Reconstructions) Hat(j int) Mat {
	m, _ := r.sets[j].HatFirst.Add(r.sets[j].Second) // shapes checked by ReconstructSix
	return m
}

// FlagParty clears the flags of every reconstruction that party p's
// shares feed into (Algorithm 4, lines 13–14): flag_{p1}, ˆflag_{p2},
// flag_{p3} and ˆflag_{p3}.
func (r *Reconstructions) FlagParty(p int) {
	p1, p2, p3 := SetsOf(p)
	r.PlainOK[p1-1] = false
	r.HatOK[p2-1] = false
	r.PlainOK[p3-1] = false
	r.HatOK[p3-1] = false
}

// Decision reports which reconstruction pair the decision rule selected.
type Decision struct {
	// PlainSet and HatSet are the 1-based set indices (j, k) of the
	// minimizing pair (s^j, ŝ^k), j ≠ k.
	PlainSet int
	HatSet   int
	// Distance is dist(s^j, ŝ^k) for the chosen pair.
	Distance float64
}

// ErrNoConsensus is returned when fewer than one unflagged pair with
// j ≠ k exists — possible only when more than one party misbehaves,
// which is outside the fault model.
var ErrNoConsensus = fmt.Errorf("sharing: no unflagged reconstruction pair (more than one Byzantine party?)")

// HonestSlack bounds the disagreement (raw ring units) between honest
// reconstructions of the same opened value: exact openings agree
// perfectly, and the share-local probabilistic truncation perturbs each
// set's reconstruction by at most a few carry units. Any two candidates
// within this slack of each other are equally valid reveals of the
// value; a corrupted candidate is farther away with overwhelming
// probability (the corrupter commits before seeing honest shares). The
// protocol layer's deviation-suspicion tolerance matches this bound.
const HonestSlack = 16

// DecideRows applies the decision rule of §III-B: among all unflagged
// pairs (s^j, ŝ^k) with j ≠ k, pick a pair at minimum distance
// (dist = largest element-wise ring difference) and reveal s^j. Two
// honest sets always agree up to truncation slack, while a Byzantine
// party can force agreement between the reconstructions it corrupts
// only with negligible probability (it must commit to its shares before
// seeing the honest ones).
//
// The rule is applied independently to each row of the reconstructed
// matrix, with a canonical preference among plausibly-honest
// candidates: each row first finds its minimum pair distance, then
// picks the lexicographically first unflagged pair (j, k) whose
// distance is within HonestSlack of that minimum, and reveals s^j's
// row. Both refinements exist to make the decision a pure function of
// the honest data, independent of shape and flag context:
//
//   - Per-row: after truncation the six candidates disagree by
//     share-local carry bits, so a matrix-global minimum-distance pair
//     lets one row's carries select the reconstruction used for a
//     logically unrelated row. Batched openings would then diverge
//     from their sequential replay. Per-row decisions make a batched
//     reveal bit-identical to the concatenation of single-row reveals.
//
//   - Canonical preference: within the slack, *which* candidate wins
//     min-distance is an artifact of carry noise — and parties can
//     hold different candidate sets (a party that flagged a timed-out
//     peer is forced to the peer-free pair; an unflagged party sees
//     all six). Strict min-distance then lets two honest parties
//     decide values differing by a carry, silently forking the shared
//     state — every later share of the forked party is off by a
//     mask-sized term. Preferring the lowest plain set among all
//     within-slack pairs makes every honest party choose the same
//     value whenever their candidate sets overlap on one honest pair,
//     while corrupted sets (distance >> HonestSlack above the minimum)
//     are still excluded.
//
// The returned Decision describes the worst (maximum-distance) row, so
// a large Distance still signals a deviation somewhere in the matrix.
// The same pass scores each unflagged candidate's distance from the
// revealed rows for Suspect.
func (r *Reconstructions) DecideRows() (Mat, Decision, error) {
	c, err := r.candidates()
	if err != nil {
		return Mat{}, Decision{}, err
	}
	rows, cols := r.sets[0].First.Rows, r.sets[0].First.Cols
	r.dev = [2][NumParties]float64{}
	out := Mat{Rows: rows, Cols: cols, Data: make([]int64, rows*cols)}
	worst := Decision{Distance: math.Inf(-1)}
	for lo := 0; lo < rows*cols; lo += cols {
		hi := lo + cols
		c.load(lo, hi)
		var dist [NumParties][NumParties]float64
		minDist := math.Inf(1)
		for j := 0; j < NumParties; j++ {
			for k := 0; k < NumParties; k++ {
				if c.pair(j, k) {
					dist[j][k] = maxAbsDiff(c.plain[j], c.hat[k])
					minDist = math.Min(minDist, dist[j][k])
				}
			}
		}
		// Canonical choice: the first pair within slack of the minimum.
		best := Decision{}
	pick:
		for j := 0; j < NumParties; j++ {
			for k := 0; k < NumParties; k++ {
				if c.pair(j, k) && dist[j][k] <= minDist+HonestSlack {
					best = Decision{PlainSet: j + 1, HatSet: k + 1, Distance: dist[j][k]}
					break pick
				}
			}
		}
		if best.Distance > worst.Distance {
			worst = best
		}
		copy(out.Data[lo:hi], c.plain[best.PlainSet-1])
		c.score(&r.dev, best.PlainSet-1, &dist)
	}
	return out, worst, nil
}

// Decide applies the decision rule of §III-B to the matrix as a whole:
// among all unflagged pairs (s^j, ŝ^k) with j ≠ k, the first pair at
// strictly minimum whole-matrix distance, revealing s^j. It keeps the
// rule's plain form; the protocols reveal through DecideRows, whose
// per-row canonical choice batched openings need.
func (r *Reconstructions) Decide() (Mat, Decision, error) {
	c, err := r.candidates()
	if err != nil {
		return Mat{}, Decision{}, err
	}
	n, cols := r.sets[0].First.Size(), r.sets[0].First.Cols
	var dist [NumParties][NumParties]float64
	for lo := 0; lo < n; lo += cols {
		c.load(lo, lo+cols)
		for j := 0; j < NumParties; j++ {
			for k := 0; k < NumParties; k++ {
				if c.pair(j, k) {
					dist[j][k] = math.Max(dist[j][k], maxAbsDiff(c.plain[j], c.hat[k]))
				}
			}
		}
	}
	best := Decision{Distance: math.Inf(1)}
	for j := 0; j < NumParties; j++ {
		for k := 0; k < NumParties; k++ {
			if c.pair(j, k) && dist[j][k] < best.Distance {
				best = Decision{PlainSet: j + 1, HatSet: k + 1, Distance: dist[j][k]}
			}
		}
	}
	// Second pass: score the candidates against the revealed s^j.
	r.dev = [2][NumParties]float64{}
	for lo := 0; lo < n; lo += cols {
		c.load(lo, lo+cols)
		c.score(&r.dev, best.PlainSet-1, nil)
	}
	return r.Plain(best.PlainSet - 1), best, nil
}

// candidateRows forms the unflagged reconstructions one row at a time:
// after load, plain[j] and hat[j] hold that row of s^{j+1} and ŝ^{j+1},
// and stay nil for flagged candidates, which are never formed.
type candidateRows struct {
	sets  *[NumParties]SetShares
	plain [NumParties][]int64
	hat   [NumParties][]int64
}

// candidates returns the row buffers for the unflagged candidates, or
// ErrNoConsensus when no unflagged pair (j, k), j ≠ k, exists.
func (r *Reconstructions) candidates() (candidateRows, error) {
	c := candidateRows{sets: &r.sets}
	havePair := false
	for j := 0; j < NumParties; j++ {
		for k := 0; k < NumParties; k++ {
			havePair = havePair || (k != j && r.PlainOK[j] && r.HatOK[k])
		}
	}
	cols := r.sets[0].First.Cols
	if !havePair || r.sets[0].First.Size() == 0 {
		return c, ErrNoConsensus
	}
	buf := make([]int64, 2*NumParties*cols)
	for j := 0; j < NumParties; j++ {
		if r.PlainOK[j] {
			c.plain[j] = buf[2*j*cols : (2*j+1)*cols]
		}
		if r.HatOK[j] {
			c.hat[j] = buf[(2*j+1)*cols : (2*j+2)*cols]
		}
	}
	return c, nil
}

// load forms row [lo, hi) of every unflagged candidate.
func (c *candidateRows) load(lo, hi int) {
	for j := range c.sets {
		s := &c.sets[j]
		if c.plain[j] != nil {
			addRow(c.plain[j], s.First.Data[lo:hi], s.Second.Data[lo:hi])
		}
		if c.hat[j] != nil {
			addRow(c.hat[j], s.HatFirst.Data[lo:hi], s.Second.Data[lo:hi])
		}
	}
}

// pair reports whether (s^{j+1}, ŝ^{k+1}) is an unflagged pair with
// j ≠ k, i.e. one the decision rule may pick.
func (c *candidateRows) pair(j, k int) bool {
	return j != k && c.plain[j] != nil && c.hat[k] != nil
}

// score folds each unflagged candidate's distance from the revealed row
// — the loaded row of s^{bj+1} — into dev. dist, when non-nil, holds
// this row's pair distances, so only hats of set bj+1 and the other
// plain candidates need a scan of their own.
func (c *candidateRows) score(dev *[2][NumParties]float64, bj int, dist *[NumParties][NumParties]float64) {
	revealed := c.plain[bj]
	for j := 0; j < NumParties; j++ {
		if c.plain[j] != nil && j != bj {
			dev[0][j] = math.Max(dev[0][j], maxAbsDiff(revealed, c.plain[j]))
		}
		if c.hat[j] == nil {
			continue
		}
		var d float64
		if dist != nil && j != bj {
			d = dist[bj][j]
		} else {
			d = maxAbsDiff(revealed, c.hat[j])
		}
		dev[1][j] = math.Max(dev[1][j], d)
	}
}

// addRow stores a+b element-wise into dst (ring addition).
func addRow(dst, a, b []int64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// maxAbsDiff returns the largest |a[i] − b[i]| over equal-length rows,
// with the difference taken in the ring first, as in Mat.MaxAbsDiff:
// exact near the int64 extremes, where float64 conversion of each
// operand would round the delta away. The maximum is tracked as an
// unsigned magnitude and converted once, which equals converting every
// element because the conversion is monotone.
func maxAbsDiff(a, b []int64) float64 {
	b = b[:len(a)]
	var worst uint64
	for i, v := range a {
		d := v - b[i]
		m := d >> 63
		if u := uint64((d ^ m) - m); u > worst {
			worst = u
		}
	}
	return float64(worst)
}

// Suspect reports which party is most plausibly Byzantine, judged by
// how far the six reconstructions lie from the value the preceding
// DecideRows (or Decide) revealed, with tolerance tol (in raw ring
// units). It returns 0 when every reconstruction is within tolerance
// (no suspicion). This powers the detection logic the paper describes
// for Case 3 of the security analysis.
func (r *Reconstructions) Suspect(tol float64) int {
	// A Byzantine party p corrupts: plain p1, hat p2, plain+hat p3.
	// Score each party by how many of "its" reconstructions deviate; a
	// candidate flagged in the commitment phase counts as deviating.
	deviates := func(kind, j int) bool {
		ok := r.PlainOK[j]
		if kind == 1 {
			ok = r.HatOK[j]
		}
		return !ok || r.dev[kind][j] > tol
	}
	bestParty, bestScore := 0, 0
	for p := 1; p <= NumParties; p++ {
		p1, p2, p3 := SetsOf(p)
		score := 0
		for _, c := range [...][2]int{{0, p1 - 1}, {1, p2 - 1}, {0, p3 - 1}, {1, p3 - 1}} {
			if deviates(c[0], c[1]) {
				score++
			}
		}
		if score > bestScore {
			bestParty, bestScore = p, score
		}
	}
	return bestParty
}
