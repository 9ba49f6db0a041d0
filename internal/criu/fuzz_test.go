package criu

import (
	"bytes"
	"testing"

	"nilicon/internal/simkernel"
)

// toPage pads or truncates fuzz input to exactly one page.
func toPage(b []byte) []byte {
	p := make([]byte, simkernel.PageSize)
	copy(p, b)
	return p
}

// FuzzXORDelta checks the sparse XOR patch format from both ends: an
// encoded patch applied to its base reproduces the new page exactly, and
// arbitrary patch bytes either apply or are rejected, never panic or
// write outside the page.
func FuzzXORDelta(f *testing.F) {
	f.Add([]byte{}, []byte{1, 2, 3}, []byte{0, 0, 0, 1, 7})
	f.Add([]byte("base page"), []byte("base pXge, longer"), []byte{0xff, 0xf0, 0, 16})
	f.Add(bytes.Repeat([]byte{0xaa}, 4096), bytes.Repeat([]byte{0x55}, 4096), []byte{0x0f, 0xff, 0, 1, 9})
	f.Fuzz(func(t *testing.T, baseIn, curIn, patch []byte) {
		base, cur := toPage(baseIn), toPage(curIn)
		enc := EncodeXORDelta(base, cur)
		out, err := ApplyXORDelta(base, enc)
		if err != nil {
			t.Fatalf("encoded patch rejected: %v", err)
		}
		if !bytes.Equal(out, cur) {
			t.Fatal("encode→apply did not reproduce the page")
		}
		if bytes.Equal(base, cur) != (len(enc) == 0) {
			t.Fatalf("identical pages must give an empty patch and only they (patch %d bytes)", len(enc))
		}
		if out, err := ApplyXORDelta(base, patch); err == nil && len(out) != len(base) {
			t.Fatalf("arbitrary patch produced a %d-byte page", len(out))
		}
	})
}

// FuzzDecodeFrame drives the backup's frame decoder with a delta frame
// built from (base, cur), a corrupted copy of its patch, a full frame of
// cur, a corrupted copy of its payload, and an arbitrary frame. The
// intact frames must decode to cur. The corrupted ones must decode to
// cur or be rejected: the content hash check may never let a wrong page
// through. The arbitrary frame must not panic.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte("committed"), []byte("committed, then written"), []byte{1}, uint8(FrameDelta), uint64(0), uint64(0))
	f.Add([]byte{}, []byte{0, 0, 9}, []byte{0, 0, 0, 0, 0x80}, uint8(FrameDedup), uint64(1), uint64(0))
	f.Add(bytes.Repeat([]byte{3}, 100), bytes.Repeat([]byte{4}, 200), []byte{0xff, 0xff, 0xff, 0xff}, uint8(9), uint64(2), uint64(5))
	f.Fuzz(func(t *testing.T, baseIn, curIn, noise []byte, kind uint8, donor, hash uint64) {
		base, cur := toPage(baseIn), toPage(curIn)
		key := PageKey(0, 1)
		store := NewRadixStore()
		store.Put(key, base)

		frame := PageFrame{Kind: FrameDelta, PN: 1, Hash: HashPage(cur),
			Delta: EncodeXORDelta(base, cur), BaseHash: HashPage(base)}
		out, err := DecodeFrame(&frame, key, store)
		if err != nil || !bytes.Equal(out, cur) {
			t.Fatalf("intact delta frame: err=%v, page matches=%v", err, bytes.Equal(out, cur))
		}

		if len(noise) > 0 {
			bad := frame
			bad.Delta = append([]byte(nil), frame.Delta...)
			if len(bad.Delta) == 0 {
				bad.Delta = append(bad.Delta, noise...)
			} else {
				for i, b := range noise {
					bad.Delta[i%len(bad.Delta)] ^= b
				}
			}
			if out, err := DecodeFrame(&bad, key, store); err == nil && !bytes.Equal(out, cur) {
				t.Fatal("corrupted patch decoded to a wrong page without an error")
			}
		}

		full := PageFrame{Kind: FrameFull, PN: 1, Hash: HashPage(cur), Data: append([]byte(nil), cur...)}
		if out, err := DecodeFrame(&full, key, store); err != nil || !bytes.Equal(out, cur) {
			t.Fatalf("intact full frame: err=%v, page matches=%v", err, bytes.Equal(out, cur))
		}
		if len(noise) > 0 {
			bad := full
			bad.Data = append([]byte(nil), cur...)
			for i, b := range noise {
				bad.Data[i%len(bad.Data)] ^= b
			}
			if out, err := DecodeFrame(&bad, key, store); err == nil && !bytes.Equal(out, cur) {
				t.Fatal("corrupted full frame decoded to a wrong page without an error")
			}
		}

		arb := PageFrame{Kind: FrameKind(kind), PN: 1, Hash: hash, Data: noise,
			Delta: noise, BaseHash: HashPage(base), Donor: donor % 4}
		_, _ = DecodeFrame(&arb, key, store)
	})
}
