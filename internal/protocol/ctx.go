// Package protocol implements TrustDDL's secure computation protocols:
// the honest-but-curious N-party SecMul / SecMatMul / SecComp of §II
// (Algorithms 2–3) and the Byzantine-tolerant 3PC SecMul-BT /
// SecMatMul-BT / SecComp-BT of §III-B (Algorithms 4–5), including the
// commitment phase, the per-reconstruction flags and the minimum-
// distance decision rule. It also provides the model-owner service that
// deals Beaver triples and evaluates delegated functions (softmax).
package protocol

import (
	"errors"
	"fmt"
	"time"

	"github.com/trustddl/trustddl/internal/commit"
	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/obs"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/suspicion"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// Mat abbreviates the ring matrix type.
type Mat = tensor.Matrix[int64]

// Adversary customizes a computing party's share handling; protocol
// code calls it at the two corruption points the security analysis
// distinguishes. A nil Adversary is honest behaviour.
type Adversary interface {
	// CorruptPreCommit rewrites the bundles a party is about to commit
	// to AND open (Case 3: consistent corruption that survives the hash
	// check but is caught by the decision rule).
	CorruptPreCommit(session, step string, bs []sharing.Bundle) []sharing.Bundle
	// CorruptPostCommit rewrites the bundles actually opened to one
	// recipient after the commitment was sent (Cases 1 and 2: the hash
	// check exposes the mismatch at that recipient).
	CorruptPostCommit(to int, session, step string, bs []sharing.Bundle) []sharing.Bundle
}

// Ctx is one computing party's protocol execution context.
type Ctx struct {
	// Router carries this party's messages.
	Router *party.Router
	// Index is the party number 1..3.
	Index int
	// Params is the fixed-point encoding shared by all actors.
	Params fixed.Params
	// Commitment enables the commitment phase (the malicious-adversary
	// configuration). Disabled, the protocols still run redundantly and
	// recover from corrupted shares via the decision rule, but cannot
	// pin share/hash equivocation on the offender — this is the
	// honest-but-curious configuration benchmarked in Table II.
	Commitment bool
	// Adversary, when non-nil, makes this party Byzantine.
	Adversary Adversary
	// Optimistic enables the reduced-redundancy opening (the paper's
	// §V future work, see optimistic.go): hat copies are exchanged only
	// when the partial reconstructions disagree. All parties must agree
	// on this setting.
	Optimistic bool
	// OptimisticTolerance bounds honest candidate disagreement in raw
	// ring units (0 selects DefaultOptimisticTolerance).
	OptimisticTolerance float64
	// Flagged records parties this party has independently convicted of
	// violating the commitment phase or dropping messages; their shares
	// are excluded from all later reconstructions ("exclude the
	// offending party from further computations", §III-B).
	Flagged [sharing.NumParties + 1]bool
	// Ledger, when non-nil, receives this party's detection evidence
	// (commitment violations, open timeouts, decision-rule deviations)
	// so a session-level supervisor can aggregate it across parties.
	// Recording a repeat observation is cheap; a nil ledger disables it.
	Ledger *suspicion.Ledger
	// SuspicionTolerance bounds honest reconstruction disagreement (raw
	// ring units) when scoring decision-rule deviations for the ledger
	// (0 selects DefaultSuspicionTolerance).
	SuspicionTolerance float64

	// obs and the cached collectors below carry the live metrics hook
	// (SetObs). They are looked up once at attach time so the per-round
	// cost with metrics on is a clock read plus an atomic histogram
	// update, and with metrics off a single nil check.
	obs            *obs.Registry
	obsCommit      *obs.Histogram
	obsExchange    *obs.Histogram
	obsReconstruct *obs.Histogram
	obsDecide      *obs.Histogram
	obsExchanges   *obs.Counter
	obsFlags       *obs.Counter
}

// DefaultSuspicionTolerance matches the owner service's default: honest
// reconstructions of un-truncated masked values agree exactly, so any
// slack at all separates honest parties from share corruption.
const DefaultSuspicionTolerance = 16

// suspicionTolerance resolves the configured tolerance.
func (ctx *Ctx) suspicionTolerance() float64 {
	if ctx.SuspicionTolerance > 0 {
		return ctx.SuspicionTolerance
	}
	return DefaultSuspicionTolerance
}

// NewCtx returns an honest party context.
func NewCtx(r *party.Router, index int, params fixed.Params, commitment bool) (*Ctx, error) {
	if index < 1 || index > sharing.NumParties {
		return nil, fmt.Errorf("protocol: party index %d out of range", index)
	}
	return &Ctx{Router: r, Index: index, Params: params, Commitment: commitment}, nil
}

// SetObs attaches a metrics registry to this party context. Protocol
// rounds then record per-phase wall time (protocol.phase.commit /
// .exchange / .reconstruct / .decide histograms), exchange counts and
// newly raised flags. A nil registry detaches.
func (ctx *Ctx) SetObs(reg *obs.Registry) {
	ctx.obs = reg
	ctx.obsCommit = reg.Histogram("protocol.phase.commit")
	ctx.obsExchange = reg.Histogram("protocol.phase.exchange")
	ctx.obsReconstruct = reg.Histogram("protocol.phase.reconstruct")
	ctx.obsDecide = reg.Histogram("protocol.phase.decide")
	ctx.obsExchanges = reg.Counter("protocol.exchanges")
	ctx.obsFlags = reg.Counter("protocol.flags")
}

// Obs returns the attached metrics registry (nil when detached). Layer
// code running on top of a Ctx (internal/nn) records into the same
// registry through it.
func (ctx *Ctx) Obs() *obs.Registry { return ctx.obs }

// SetDeadline caps every receive wait this party performs — commitment
// and opening gathers, owner triple/delegation responses — by an
// absolute deadline (zero clears it). The pass driver sets it from the
// serving request's context before the party goroutines start, so a
// stalled or crashed peer makes the pass fail within the request
// deadline instead of wedging the committee. Waits abandoned this way
// return party.DeadlineError, which the suspicion machinery ignores by
// construction: the caller gave up, nobody failed to deliver.
func (ctx *Ctx) SetDeadline(t time.Time) { ctx.Router.SetDeadline(t) }

// obsStart returns a phase start time, or the zero time when metrics
// are detached so hot paths skip the clock read entirely.
func (ctx *Ctx) obsStart() time.Time {
	if ctx.obs == nil {
		return time.Time{}
	}
	return time.Now()
}

// obsPhase records one phase duration when metrics are attached.
func (ctx *Ctx) obsPhase(h *obs.Histogram, start time.Time) {
	if start.IsZero() {
		return
	}
	h.Observe(time.Since(start))
}

// Peers lists the other two computing parties.
func (ctx *Ctx) Peers() []int {
	peers := make([]int, 0, sharing.NumParties-1)
	for p := 1; p <= sharing.NumParties; p++ {
		if p != ctx.Index {
			peers = append(peers, p)
		}
	}
	return peers
}

// ForgiveFlags clears this party's local convictions. A session driver
// calls it (via re-provisioning) when the owners re-admit a restarted
// party: the fresh share distribution starts a new membership epoch, so
// stale timeout flags must not keep excluding a now-healthy peer. The
// session-level suspicion ledger keeps the full history regardless.
func (ctx *Ctx) ForgiveFlags() {
	ctx.Flagged = [sharing.NumParties + 1]bool{}
	ctx.Router.Readmit()
}

// FlagCount reports how many parties this party has convicted.
func (ctx *Ctx) FlagCount() int {
	n := 0
	for p := 1; p <= sharing.NumParties; p++ {
		if ctx.Flagged[p] {
			n++
		}
	}
	return n
}

// exchangeResult is the outcome of one commit-then-open round.
type exchangeResult struct {
	// bundles[p] holds party p's opened bundles (p in 1..3, own
	// included). Entries for parties that failed to open in time are
	// zero-filled placeholders.
	bundles [sharing.NumParties + 1][]sharing.Bundle
	// flagged[p] is true when p violated the commitment phase, timed
	// out, or was convicted earlier.
	flagged [sharing.NumParties + 1]bool
	// decided, when non-nil, carries the already-agreed masked values
	// (the optimistic fast path); bundles is then unset.
	decided []Mat
}

// exchangeBundles runs the commitment phase (when enabled) and the
// share-opening round of Algorithms 4–5 for a vector of bundles (e.g.
// the e and f vectors of SecMul-BT travel together in one round).
func (ctx *Ctx) exchangeBundles(session, step string, bundles []sharing.Bundle) (exchangeResult, error) {
	if ctx.Optimistic {
		return ctx.exchangeOptimistic(session, step, bundles)
	}
	ctx.obsExchanges.Inc()
	var res exchangeResult
	peers := ctx.Peers()

	// Case-3 adversaries corrupt before committing so the hash check
	// passes over the corrupted shares.
	own := bundles
	if ctx.Adversary != nil {
		own = ctx.Adversary.CorruptPreCommit(session, step, cloneBundles(bundles))
	}

	// Messages still go to every peer — a peer this party flagged may be
	// slow rather than dead, and withholding openings from it would turn
	// one fault into two — but receive timers are spent only on peers not
	// already convicted. Without this split a crashed party costs every
	// survivor a full timer per commit AND open round of every secure
	// multiplication, which stalls the session far beyond the data
	// owner's patience.
	live := make([]int, 0, len(peers))
	for _, p := range peers {
		if ctx.Flagged[p] {
			res.flagged[p] = true
			res.bundles[p] = zeroBundlesLike(own)
			continue
		}
		live = append(live, p)
	}

	commitStep, openStep := step+"/commit", step+"/open"
	var digests [sharing.NumParties + 1]commit.Digest
	var haveDigest [sharing.NumParties + 1]bool
	if ctx.Commitment {
		commitStart := ctx.obsStart()
		// Commit round: hash of the full share vector (§III-B, lines
		// 3–8 of Algorithm 4).
		d := commit.Matrices(flattenBundles(own)...)
		if err := ctx.Router.Broadcast(peers, session, commitStep, d[:]); err != nil {
			return res, fmt.Errorf("protocol: commit round: %w", err)
		}
		msgs, gerr := ctx.Router.Gather(live, session, commitStep)
		if gerr != nil && !isTimeout(gerr) {
			return res, gerr
		}
		for _, p := range live {
			msg, ok := msgs[p]
			if !ok || len(msg.Payload) != commit.Size {
				res.flagged[p] = true
				ctx.Ledger.Record(p, suspicion.KindOpenTimeout, session, commitStep)
				continue
			}
			copy(digests[p][:], msg.Payload)
			haveDigest[p] = true
			msg.Release() // digest copied out; recycle the frame buffer
		}
		ctx.obsPhase(ctx.obsCommit, commitStart)
	}

	// Open round (lines 9–14).
	openStart := ctx.obsStart()
	if err := ctx.sendOpening(peers, session, openStep, own, func(bs []sharing.Bundle) []byte {
		return transport.EncodeBundles(bs...)
	}); err != nil {
		return res, fmt.Errorf("protocol: open round: %w", err)
	}
	res.bundles[ctx.Index] = own
	// A peer that already failed the commit round does not get a second
	// timer in the open round.
	open := make([]int, 0, len(live))
	for _, p := range live {
		if res.flagged[p] {
			res.bundles[p] = zeroBundlesLike(own)
			continue
		}
		open = append(open, p)
	}
	msgs, gerr := ctx.Router.Gather(open, session, openStep)
	if gerr != nil && !isTimeout(gerr) {
		return res, gerr
	}
	for _, p := range open {
		msg, ok := msgs[p]
		if !ok {
			res.flagged[p] = true
			ctx.Ledger.Record(p, suspicion.KindOpenTimeout, session, openStep)
			res.bundles[p] = zeroBundlesLike(own)
			continue
		}
		bs, err := transport.DecodeBundles(msg.Payload, len(own))
		// DecodeBundles copies every share out of the payload, so the
		// frame buffer can recycle regardless of the verdict below.
		msg.Release()
		if err != nil || !shapesMatch(bs, own) {
			// A delivered-but-malformed opening is the sender's doing,
			// not the network's: only the opener shapes its payload.
			res.flagged[p] = true
			ctx.Ledger.Record(p, suspicion.KindCommitViolation, session, openStep)
			res.bundles[p] = zeroBundlesLike(own)
			continue
		}
		if ctx.Commitment {
			// Recompute and verify the committed digest (line 12).
			if !haveDigest[p] || !commit.Verify(digests[p], flattenBundles(bs)...) {
				res.flagged[p] = true
				if haveDigest[p] {
					ctx.Ledger.Record(p, suspicion.KindCommitViolation, session, openStep)
				} else {
					// Digest never arrived: indistinguishable from a drop.
					ctx.Ledger.Record(p, suspicion.KindOpenTimeout, session, openStep)
				}
			}
		}
		res.bundles[p] = bs
	}
	ctx.obsPhase(ctx.obsExchange, openStart)
	ctx.persistFlags(&res)
	return res, nil
}

// sendOpening sends one opening round's payload to every peer. An
// honest party encodes its opening once and hands the same read-only
// payload to both sends; only a post-commit adversary, which rewrites
// the bundles per recipient, encodes once per peer.
func (ctx *Ctx) sendOpening(peers []int, session, step string, own []sharing.Bundle, encode func([]sharing.Bundle) []byte) error {
	var payload []byte
	if ctx.Adversary == nil {
		payload = encode(own)
	}
	for _, p := range peers {
		if ctx.Adversary != nil {
			payload = encode(ctx.Adversary.CorruptPostCommit(p, session, step, cloneBundles(own)))
		}
		if err := ctx.Router.Send(p, session, step, payload); err != nil {
			return err
		}
	}
	return nil
}

// persistFlags merges prior convictions into res and records new ones.
// A newly convicted peer is also excluded at the router, so the
// traffic it keeps sending is released on arrival instead of piling up
// in the pending buffer that no gather will drain.
func (ctx *Ctx) persistFlags(res *exchangeResult) {
	for p := 1; p <= sharing.NumParties; p++ {
		if ctx.Flagged[p] {
			res.flagged[p] = true
		} else if res.flagged[p] {
			ctx.Flagged[p] = true
			ctx.Router.Exclude(p)
			ctx.obsFlags.Inc()
		}
	}
}

// recordDeviations scores each decided reconstruction set and records
// a decision-rule deviation for a suspect party. A consistent liar
// (Case 3) is invisible to the commitment check, so this is the only
// site that produces attributable evidence against it. Parties flagged
// this round are skipped: their zero-filled sets trivially deviate, but
// the underlying fault (a timeout) was already recorded as
// circumstantial evidence at its detection site.
func (ctx *Ctx) recordDeviations(session, step string, res exchangeResult, recs ...*sharing.Reconstructions) {
	if ctx.Ledger == nil {
		return
	}
	tol := ctx.suspicionTolerance()
	for _, rec := range recs {
		if s := rec.Suspect(tol); s >= 1 && s <= sharing.NumParties && !res.flagged[s] {
			ctx.Ledger.Record(s, suspicion.KindDecisionDeviation, session, step)
		}
	}
}

// reconstructionsFor builds the flagged six-way reconstruction set for
// bundle index k of an exchange result.
func (ctx *Ctx) reconstructionsFor(res exchangeResult, k int) (*sharing.Reconstructions, error) {
	var per [sharing.NumParties]sharing.Bundle
	for p := 1; p <= sharing.NumParties; p++ {
		if len(res.bundles[p]) <= k {
			return nil, fmt.Errorf("protocol: party %d opened %d bundles, need index %d", p, len(res.bundles[p]), k)
		}
		per[p-1] = res.bundles[p][k]
	}
	sets, err := sharing.CollectSets(per)
	if err != nil {
		return nil, err
	}
	rec, err := sharing.ReconstructSix(sets)
	if err != nil {
		return nil, err
	}
	for p := 1; p <= sharing.NumParties; p++ {
		if res.flagged[p] {
			rec.FlagParty(p)
		}
	}
	return &rec, nil
}

func isTimeout(err error) bool {
	var te *party.TimeoutError
	return errors.As(err, &te)
}

func cloneBundles(bs []sharing.Bundle) []sharing.Bundle {
	out := make([]sharing.Bundle, len(bs))
	for i, b := range bs {
		out[i] = b.Clone()
	}
	return out
}

func flattenBundles(bs []sharing.Bundle) []Mat {
	out := make([]Mat, 0, 3*len(bs))
	for _, b := range bs {
		out = append(out, b.Primary, b.Hat, b.Second)
	}
	return out
}

func zeroBundlesLike(bs []sharing.Bundle) []sharing.Bundle {
	out := make([]sharing.Bundle, len(bs))
	for i, b := range bs {
		out[i] = sharing.Bundle{
			Primary: tensor.Matrix[int64]{Rows: b.Primary.Rows, Cols: b.Primary.Cols, Data: make([]int64, b.Primary.Size())},
			Hat:     tensor.Matrix[int64]{Rows: b.Hat.Rows, Cols: b.Hat.Cols, Data: make([]int64, b.Hat.Size())},
			Second:  tensor.Matrix[int64]{Rows: b.Second.Rows, Cols: b.Second.Cols, Data: make([]int64, b.Second.Size())},
		}
	}
	return out
}

func shapesMatch(got, want []sharing.Bundle) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Primary.SameShape(want[i].Primary) ||
			!got[i].Hat.SameShape(want[i].Hat) ||
			!got[i].Second.SameShape(want[i].Second) {
			return false
		}
	}
	return true
}
