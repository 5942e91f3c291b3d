package main

import (
	"regexp"
	"strings"
	"sync"
	"time"

	"github.com/trustddl/trustddl/internal/transport"
)

// frameHeader is the fixed per-message framing the transport meter
// counts on top of the labels and payload (u32 length, u8 from, u8 to,
// two u16 label lengths).
const frameHeader = 10

// msgSpan is one Send or Recv call that moved a message.
type msgSpan struct {
	recv          bool
	from, to      int
	session, step string
	bytes         int64
	start, end    time.Time
}

// ledgerNet is the traced run's transport wrapper: it records a span per
// message sent or received by any actor, and its byte total must equal
// the wrapped network's meter exactly.
type ledgerNet struct {
	transport.Network

	mu    sync.Mutex
	spans []msgSpan
}

func newLedgerNet(inner transport.Network) *ledgerNet {
	return &ledgerNet{Network: inner}
}

// Unwrap lets transport.SetObs reach the wrapped meter.
func (n *ledgerNet) Unwrap() transport.Network { return n.Network }

func (n *ledgerNet) Endpoint(actor int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(actor)
	if err != nil {
		return nil, err
	}
	return &ledgerEndpoint{Endpoint: ep, net: n}, nil
}

func (n *ledgerNet) record(s msgSpan) {
	n.mu.Lock()
	n.spans = append(n.spans, s)
	n.mu.Unlock()
}

// take returns the spans recorded so far and starts a new ledger.
func (n *ledgerNet) take() []msgSpan {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.spans
	n.spans = nil
	return out
}

type ledgerEndpoint struct {
	transport.Endpoint
	net *ledgerNet
}

func wireBytes(m transport.Message) int64 {
	return int64(frameHeader + len(m.Session) + len(m.Step) + len(m.Payload))
}

func (e *ledgerEndpoint) Send(m transport.Message) error {
	start := time.Now()
	err := e.Endpoint.Send(m)
	if err == nil {
		e.net.record(msgSpan{from: e.Self(), to: m.To, session: m.Session, step: m.Step,
			bytes: wireBytes(m), start: start, end: time.Now()})
	}
	return err
}

func (e *ledgerEndpoint) Recv(timeout time.Duration) (transport.Message, error) {
	start := time.Now()
	m, err := e.Endpoint.Recv(timeout)
	if err == nil {
		e.net.record(msgSpan{recv: true, from: m.From, to: e.Self(), session: m.Session, step: m.Step,
			bytes: wireBytes(m), start: start, end: time.Now()})
	}
	return m, err
}

// passRoot matches the session id a pass carries through every label:
// "infer/<n>" or "train/<n>" (train sessions append "?lr=..." before the
// layer path).
var passRoot = regexp.MustCompile(`^(infer|train)/\d+`)

// layerNames maps the session path element lN / bN of the Table I
// network to its layer name. The ReLU backward steps (b1, b3) are local
// and send nothing.
var layerNames = map[string]string{
	"l0": "conv", "l1": "relu1", "l2": "fc1", "l3": "relu2", "l4": "fc2", "sm": "sm",
	"b0": "conv_bwd", "b2": "fc1_bwd", "b4": "fc2_bwd",
}

// attribute names the ledger cell of a message: the network layer from
// the session label and the protocol phase from the step label. Pass
// traffic outside every layer (the data owner's inputs and reveal) is
// "data"/"io"; traffic of no pass is "other".
func attribute(session, step string) (layer, phase string) {
	root := passRoot.FindString(session)
	if root == "" {
		return "other", ""
	}
	rest := strings.TrimPrefix(session, root)
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[i+1:]
	} else {
		rest = ""
	}
	if rest == "" {
		switch step {
		case "x", "y", "logits":
			return "data", "io"
		}
		return "other", ""
	}
	elem, _, _ := strings.Cut(rest, "/")
	layer, ok := layerNames[elem]
	if !ok {
		return "other", ""
	}
	switch {
	case strings.HasPrefix(step, "triple-"), strings.HasPrefix(step, "aux-pos"):
		return layer, "deal"
	case strings.HasSuffix(step, "/commit"):
		return layer, "commit"
	case strings.HasSuffix(step, "/open"):
		return layer, "open"
	case strings.HasPrefix(step, "fn/"):
		return layer, "call"
	}
	return "other", ""
}
