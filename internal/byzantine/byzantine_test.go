package byzantine

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/trustddl/trustddl/internal/fixed"
	"github.com/trustddl/trustddl/internal/party"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

func testBundle() []sharing.Bundle {
	b := sharing.Bundle{
		Primary: tensor.MustNew[int64](2, 2),
		Hat:     tensor.MustNew[int64](2, 2),
		Second:  tensor.MustNew[int64](2, 2),
	}
	for i := range b.Primary.Data {
		b.Primary.Data[i] = int64(i + 1)
		b.Hat.Data[i] = int64(10 * (i + 1))
		b.Second.Data[i] = int64(100 * (i + 1))
	}
	return []sharing.Bundle{b}
}

func TestHonestIsPassThrough(t *testing.T) {
	var a Honest
	in := testBundle()
	if got := a.CorruptPreCommit("s", "x", in); !got[0].Primary.Equal(in[0].Primary) {
		t.Fatal("Honest modified shares pre-commit")
	}
	if got := a.CorruptPostCommit(1, "s", "x", in); !got[0].Hat.Equal(in[0].Hat) {
		t.Fatal("Honest modified shares post-commit")
	}
}

func TestConsistentLiarCorruptsPreCommitOnly(t *testing.T) {
	a := ConsistentLiar{Delta: 100}
	in := testBundle()
	orig := in[0].Clone()
	out := a.CorruptPreCommit("s", "x", in)
	if out[0].Primary.Data[0] != orig.Primary.Data[0]+100 {
		t.Fatalf("primary not shifted: %d", out[0].Primary.Data[0])
	}
	if out[0].Second.Data[0] != orig.Second.Data[0]-100 {
		t.Fatalf("second not shifted: %d", out[0].Second.Data[0])
	}
	// Post-commit must be honest: the lie is hash-consistent.
	post := a.CorruptPostCommit(2, "s", "x", out)
	if post[0].Primary.Data[0] != out[0].Primary.Data[0] {
		t.Fatal("ConsistentLiar changed shares after committing")
	}
}

func TestConsistentLiarDefaultDelta(t *testing.T) {
	var a ConsistentLiar
	in := testBundle()
	orig := in[0].Primary.Data[0]
	out := a.CorruptPreCommit("s", "x", in)
	if out[0].Primary.Data[0] == orig {
		t.Fatal("zero Delta must still corrupt (default applied)")
	}
}

func TestCommitViolatorCorruptsPostCommitOnly(t *testing.T) {
	a := CommitViolator{Delta: 7}
	in := testBundle()
	orig := in[0].Clone()
	pre := a.CorruptPreCommit("s", "x", in)
	if !pre[0].Primary.Equal(orig.Primary) {
		t.Fatal("CommitViolator corrupted before committing")
	}
	post := a.CorruptPostCommit(1, "s", "x", pre)
	if post[0].Hat.Data[0] != orig.Hat.Data[0]+7 {
		t.Fatal("CommitViolator did not corrupt the opening")
	}
}

func TestEquivocatorTargetsOneParty(t *testing.T) {
	a := Equivocator{Target: 3, Delta: 9}
	in := testBundle()
	orig := in[0].Clone()
	toP1 := a.CorruptPostCommit(1, "s", "x", testBundle())
	if !toP1[0].Primary.Equal(orig.Primary) {
		t.Fatal("Equivocator corrupted a non-target recipient")
	}
	toP3 := a.CorruptPostCommit(3, "s", "x", testBundle())
	if toP3[0].Primary.Equal(orig.Primary) {
		t.Fatal("Equivocator did not corrupt the target recipient")
	}
}

func TestDropOpenings(t *testing.T) {
	fn := DropOpenings()
	if fn(transport.Message{Step: "ef/open"}) != nil {
		t.Fatal("opening not dropped")
	}
	if fn(transport.Message{Step: "ef/commit"}) == nil {
		t.Fatal("commitment wrongly dropped")
	}
}

func TestDropAll(t *testing.T) {
	fn := DropAll()
	if fn(transport.Message{Step: "anything"}) != nil {
		t.Fatal("DropAll let a message through")
	}
}

func TestDelay(t *testing.T) {
	// Delay marks matching messages for asynchronous delivery instead of
	// sleeping in the send path: a blocking delay would head-of-line
	// block the sender's unmatched messages, which models a frozen
	// writer rather than link latency.
	fn := Delay(30*time.Millisecond, "/open")
	start := time.Now()
	out := fn(transport.Message{Step: "ef/open"})
	if out == nil {
		t.Fatal("Delay dropped the message")
	}
	if time.Since(start) >= 30*time.Millisecond {
		t.Fatal("Delay blocked the send path")
	}
	if out.DelayBy != 30*time.Millisecond {
		t.Fatalf("DelayBy = %v, want 30ms", out.DelayBy)
	}
	out = fn(transport.Message{Step: "ef/commit"})
	if out == nil || out.DelayBy != 0 {
		t.Fatalf("non-matching message marked for delay: %+v", out)
	}
}

func TestCorruptPayload(t *testing.T) {
	fn := CorruptPayload("/open")
	payload := make([]byte, 64)
	out := fn(transport.Message{Step: "ef/open", Payload: payload})
	if out == nil {
		t.Fatal("message dropped")
	}
	changed := false
	for _, b := range out.Payload {
		if b != 0 {
			changed = true
		}
	}
	if !changed {
		t.Fatal("payload not corrupted")
	}
	// The original buffer must be left intact (no aliasing surprises).
	for _, b := range payload {
		if b != 0 {
			t.Fatal("CorruptPayload mutated the caller's buffer")
		}
	}
	// Non-matching steps untouched.
	out2 := fn(transport.Message{Step: "ef/commit", Payload: payload})
	for _, b := range out2.Payload {
		if b != 0 {
			t.Fatal("non-matching payload corrupted")
		}
	}
}

func TestSpoofFrom(t *testing.T) {
	fn := SpoofFrom(transport.Party2, "/open")
	out := fn(transport.Message{From: transport.Party3, Step: "ef/open"})
	if out == nil {
		t.Fatal("SpoofFrom dropped the message")
	}
	if out.From != transport.Party2 {
		t.Fatalf("From = %d, want forged %d", out.From, transport.Party2)
	}
	// Non-matching steps keep honest attribution.
	out2 := fn(transport.Message{From: transport.Party3, Step: "ef/commit"})
	if out2.From != transport.Party3 {
		t.Fatal("non-matching message spoofed")
	}
	// Empty suffix spoofs everything.
	all := SpoofFrom(transport.Party1, "")
	if got := all(transport.Message{From: transport.Party3, Step: "whatever"}); got.From != transport.Party1 {
		t.Fatal("empty suffix did not spoof all messages")
	}
}

func TestStallWriter(t *testing.T) {
	release := make(chan struct{})
	fn := StallWriter(release, "/open")

	// Non-matching messages pass immediately.
	start := time.Now()
	if fn(transport.Message{Step: "ef/commit"}) == nil {
		t.Fatal("non-matching message dropped")
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("non-matching message stalled")
	}

	// Matching messages block until release closes, then flush stale.
	done := make(chan *transport.Message, 1)
	go func() { done <- fn(transport.Message{Step: "ef/open", Payload: []byte("late")}) }()
	select {
	case <-done:
		t.Fatal("stalled message sent before release")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case out := <-done:
		if out == nil || string(out.Payload) != "late" {
			t.Fatalf("released message mangled: %+v", out)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never flushed after release")
	}
}

// TestConvictedPeerTrafficDoesNotAccumulate runs secure multiplications
// with P3 violating its commitments on every pass. Once convicted, P3 is
// no longer gathered from, but it keeps sending commitments and
// openings; the honest routers must drop them instead of buffering them
// forever. After ForgiveFlags its traffic is buffered again.
func TestConvictedPeerTrafficDoesNotAccumulate(t *testing.T) {
	const passes = 20
	net := transport.NewChanNetwork()
	t.Cleanup(func() { _ = net.Close() })
	params := fixed.Default()
	dealer := sharing.NewDealer(sharing.NewSeededSource(5), params)
	var ctxs [sharing.NumParties]*protocol.Ctx
	for i := range ctxs {
		ep, err := net.Endpoint(i + 1)
		if err != nil {
			t.Fatal(err)
		}
		if ctxs[i], err = protocol.NewCtx(party.NewRouter(ep, time.Second), i+1, params, true); err != nil {
			t.Fatal(err)
		}
	}
	ctxs[2].Adversary = CommitViolator{Delta: 1 << 20}

	x, _ := tensor.FromSlice(2, 3, []float64{1, -2, 3, -4, 5, -6})
	y, _ := tensor.FromSlice(2, 3, []float64{0.5, 2, -1, 3, -0.25, 1})
	want, _ := x.Hadamard(y)
	pass := func(session string) [sharing.NumParties]sharing.Bundle {
		t.Helper()
		bx, err := dealer.ShareFloats(x)
		if err != nil {
			t.Fatal(err)
		}
		by, err := dealer.ShareFloats(y)
		if err != nil {
			t.Fatal(err)
		}
		triples, err := dealer.HadamardTriple(2, 3)
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg   sync.WaitGroup
			out  [sharing.NumParties]sharing.Bundle
			errs [sharing.NumParties]error
		)
		for i, ctx := range ctxs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i], errs[i] = protocol.SecMulBT(ctx, session, bx[i], by[i], triples[i])
			}()
		}
		wg.Wait()
		for i, err := range errs[:2] {
			if err != nil {
				t.Fatalf("%s: honest P%d: %v", session, i+1, err)
			}
		}
		return out
	}
	// reveal opens a product and checks it against the plaintext one.
	reveal := func(out [sharing.NumParties]sharing.Bundle, flagged bool) error {
		t.Helper()
		sets, err := sharing.CollectSets(out)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := sharing.ReconstructSix(sets)
		if err != nil {
			t.Fatal(err)
		}
		if flagged {
			rec.FlagParty(3)
		}
		v, _, err := rec.DecideRows()
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want.Data {
			if got := params.ToFloat(v.Data[i]); math.Abs(got-w) > 1e-3 {
				return fmt.Errorf("element %d = %v, want %v", i, got, w)
			}
		}
		return nil
	}
	for i := 0; i < passes; i++ {
		out := pass(fmt.Sprintf("pass/%d", i))
		if err := reveal(out, true); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
		for _, ctx := range ctxs[:2] {
			if !ctx.Flagged[3] {
				t.Fatalf("pass %d: P%d did not convict P3", i, ctx.Index)
			}
			// P3 sends two frames (commit, open) per pass to each honest
			// party; buffering them would grow this by two every pass.
			if n := ctx.Router.Pending(); n > 2 {
				t.Fatalf("pass %d: P%d buffers %d messages from a convicted peer", i, ctx.Index, n)
			}
		}
	}

	// Re-admission: forgiven and honest again, P3 takes part in full.
	ctxs[2].Adversary = nil
	for _, ctx := range ctxs {
		ctx.ForgiveFlags()
	}
	if err := ctxs[2].Router.Send(1, "after", "unsolicited", []byte{1}); err != nil {
		t.Fatal(err)
	}
	out := pass("after")
	if err := reveal(out, false); err != nil {
		t.Fatalf("after ForgiveFlags: %v", err)
	}
	for _, ctx := range ctxs[:2] {
		if ctx.FlagCount() != 0 {
			t.Fatalf("P%d convicted %d parties after re-admission", ctx.Index, ctx.FlagCount())
		}
	}
	if msg, err := ctxs[0].Router.Expect(3, "after", "unsolicited"); err != nil || len(msg.Payload) != 1 {
		t.Fatalf("re-admitted P3's unsolicited message was dropped: %v", err)
	}
}
