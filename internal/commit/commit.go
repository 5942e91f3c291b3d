// Package commit implements the commitment phase of TrustDDL's
// Byzantine-tolerant protocols (§III-B).
//
// Before exchanging intermediate shares, every computing party sends
// the SHA-256 digest of the share vector it is about to open (the paper
// uses SHA-256, §IV-A). Shares are exchanged only after all commitment
// values arrived; receivers then recompute the digests and compare.
// A Byzantine party that commits to one share vector but opens another
// is detected (Case 1/2 of the security analysis); a party that commits
// to incorrect shares consistently survives the hash check but cannot
// force agreement between the reconstructions it corrupts, because it
// committed before seeing any honest share.
package commit

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"unsafe"

	"github.com/trustddl/trustddl/internal/tensor"
)

// Size is the digest length in bytes.
const Size = sha256.Size

// Digest is a SHA-256 commitment value.
type Digest [Size]byte

// Equal compares two digests in constant time.
func (d Digest) Equal(o Digest) bool {
	return subtle.ConstantTimeCompare(d[:], o[:]) == 1
}

// hostLittleEndian is fixed at process start: only on little-endian
// hardware is a []int64's memory image its little-endian word encoding.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Matrices commits to a sequence of ring matrices. The encoding is
// canonical and injective: each matrix contributes its dimensions and
// its row-major elements as fixed-width little-endian words, so two
// distinct share vectors cannot collide except by breaking SHA-256.
//
// On little-endian hosts each matrix body is hashed as one Write of its
// in-memory byte image, which is exactly that word sequence; the
// per-word loop remains only for big-endian hosts.
func Matrices(ms ...tensor.Matrix[int64]) Digest {
	h := sha256.New()
	var buf [8]byte
	writeWord := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeWord(uint64(len(ms)))
	for _, m := range ms {
		writeWord(uint64(m.Rows))
		writeWord(uint64(m.Cols))
		if hostLittleEndian {
			if len(m.Data) > 0 {
				h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&m.Data[0])), 8*len(m.Data)))
			}
			continue
		}
		for _, v := range m.Data {
			writeWord(uint64(v))
		}
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// Verify recomputes the commitment over ms and compares it to want.
func Verify(want Digest, ms ...tensor.Matrix[int64]) bool {
	return Matrices(ms...).Equal(want)
}
